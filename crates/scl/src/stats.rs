//! Fabric traffic statistics.
//!
//! Counters are classified by [`MsgClass`] so the benchmark harness can
//! report data movement vs. control/synchronization traffic separately,
//! mirroring the paper's compute-time / synchronization-time split.

/// Coarse classification of fabric traffic.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Page / cache-line payloads (demand fetches, prefetches).
    Data,
    /// Consistency traffic: diffs and fine-grain updates.
    Update,
    /// Synchronization RPCs (locks, barriers, condition variables).
    Sync,
    /// Allocation and other management RPCs.
    Control,
}

impl MsgClass {
    /// All classes, in display order.
    pub const ALL: [MsgClass; 4] =
        [MsgClass::Data, MsgClass::Update, MsgClass::Sync, MsgClass::Control];

    /// Short lowercase label, for trace exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Data => "data",
            MsgClass::Update => "update",
            MsgClass::Sync => "sync",
            MsgClass::Control => "control",
        }
    }

    fn index(self) -> usize {
        match self {
            MsgClass::Data => 0,
            MsgClass::Update => 1,
            MsgClass::Sync => 2,
            MsgClass::Control => 3,
        }
    }
}

/// Traffic counters of a fabric, by [`MsgClass`]: what it has sent, and
/// the injected faults those sends met. The fabric keeps one behind a
/// single lock; [`crate::Fabric::stats`] hands out a copy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    msgs: [u64; 4],
    bytes: [u64; 4],
    drops: [u64; 4],
    dups: [u64; 4],
    delays: [u64; 4],
}

impl FabricStats {
    /// Record one message of `bytes` payload in class `class`, and the
    /// fault injected into it by the fate label the fault plan produced
    /// (`"drop"`, `"partition"`, `"crash"`, `"duplicate"`, `"delay"`), if
    /// any. Losses of any cause count as drops.
    #[inline]
    pub fn record(&mut self, class: MsgClass, bytes: usize, fault: Option<&str>) {
        let i = class.index();
        self.msgs[i] += 1;
        self.bytes[i] += bytes as u64;
        match fault {
            None => {}
            Some("duplicate") => self.dups[i] += 1,
            Some("delay") => self.delays[i] += 1,
            Some(_) => self.drops[i] += 1,
        }
    }

    /// Messages recorded in `class`.
    pub fn msgs(&self, class: MsgClass) -> u64 {
        self.msgs[class.index()]
    }

    /// Payload bytes recorded in `class`.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Messages of `class` lost to injected faults (drops, partitions,
    /// crashes).
    pub fn drops(&self, class: MsgClass) -> u64 {
        self.drops[class.index()]
    }

    /// Messages of `class` duplicated by injected faults.
    pub fn dups(&self, class: MsgClass) -> u64 {
        self.dups[class.index()]
    }

    /// Messages of `class` hit by an injected latency spike.
    pub fn delays(&self, class: MsgClass) -> u64 {
        self.delays[class.index()]
    }

    /// Total messages across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total payload bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages lost to injected faults, all classes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Total messages duplicated by injected faults, all classes.
    pub fn total_dups(&self) -> u64 {
        self.dups.iter().sum()
    }

    /// Total messages hit by injected latency spikes, all classes.
    pub fn total_delays(&self) -> u64 {
        self.delays.iter().sum()
    }

    /// Total injected faults of any kind, all classes.
    pub fn total_faults(&self) -> u64 {
        self.drops.iter().sum::<u64>()
            + self.dups.iter().sum::<u64>()
            + self.delays.iter().sum::<u64>()
    }

    /// Counter-wise difference (`self - earlier`), for per-phase accounting.
    pub fn delta(&self, earlier: &FabricStats) -> FabricStats {
        let mut out = FabricStats::default();
        for i in 0..4 {
            out.msgs[i] = self.msgs[i].saturating_sub(earlier.msgs[i]);
            out.bytes[i] = self.bytes[i].saturating_sub(earlier.bytes[i]);
            out.drops[i] = self.drops[i].saturating_sub(earlier.drops[i]);
            out.dups[i] = self.dups[i].saturating_sub(earlier.dups[i]);
            out.delays[i] = self.delays[i].saturating_sub(earlier.delays[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let mut s = FabricStats::default();
        s.record(MsgClass::Data, 4096, None);
        s.record(MsgClass::Data, 4096, None);
        s.record(MsgClass::Sync, 16, None);
        assert_eq!(s.msgs(MsgClass::Data), 2);
        assert_eq!(s.bytes(MsgClass::Data), 8192);
        assert_eq!(s.msgs(MsgClass::Sync), 1);
        assert_eq!(s.msgs(MsgClass::Update), 0);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 8208);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let mut s = FabricStats::default();
        s.record(MsgClass::Control, 100, None);
        let before = s;
        s.record(MsgClass::Control, 50, None);
        s.record(MsgClass::Update, 8, None);
        let d = s.delta(&before);
        assert_eq!(d.msgs(MsgClass::Control), 1);
        assert_eq!(d.bytes(MsgClass::Control), 50);
        assert_eq!(d.msgs(MsgClass::Update), 1);
    }

    #[test]
    fn fault_counters_classify_by_cause() {
        let mut s = FabricStats::default();
        s.record(MsgClass::Data, 0, Some("drop"));
        s.record(MsgClass::Data, 0, Some("partition"));
        s.record(MsgClass::Sync, 0, Some("crash"));
        s.record(MsgClass::Update, 0, Some("duplicate"));
        s.record(MsgClass::Data, 0, Some("delay"));
        assert_eq!(s.drops(MsgClass::Data), 2, "drops and partitions are both losses");
        assert_eq!(s.drops(MsgClass::Sync), 1);
        assert_eq!(s.dups(MsgClass::Update), 1);
        assert_eq!(s.delays(MsgClass::Data), 1);
        assert_eq!(s.total_drops(), 3);
        assert_eq!(s.total_faults(), 5);
        let d = s.delta(&FabricStats::default());
        assert_eq!(d, s, "delta from zero is the identity");
    }

    /// Senders on several OS threads share one fabric: its one lock keeps
    /// the counts whole.
    #[test]
    fn concurrent_recording_is_consistent() {
        use crate::{profiles, Fabric, SimTime, Topology};
        let fabric = Fabric::<u32>::new(Topology::cluster(2, profiles::ib_qdr()));
        let dst = fabric.add_endpoint(1.into());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let src = fabric.add_endpoint(0.into());
                let dst = dst.id();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        src.send(dst, SimTime::ZERO, 8, MsgClass::Data, 0).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = fabric.stats();
        assert_eq!(s.msgs(MsgClass::Data), 4000);
        assert_eq!(s.bytes(MsgClass::Data), 32000);
    }
}
