//! Fabric traffic statistics.
//!
//! Counters are lock-free (`Relaxed` atomics — they are statistics, not
//! synchronization) and classified by [`MsgClass`] so the benchmark harness
//! can report data movement vs. control/synchronization traffic separately,
//! mirroring the paper's compute-time / synchronization-time split.

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Live counters attached to a fabric.
#[derive(Debug, Default)]
pub struct FabricStats {
    msgs: [AtomicU64; 4],
    bytes: [AtomicU64; 4],
    drops: [AtomicU64; 4],
    dups: [AtomicU64; 4],
    delays: [AtomicU64; 4],
}

impl FabricStats {
    /// Record one message of `bytes` payload in class `class`.
    #[inline]
    pub fn record(&self, class: MsgClass, bytes: usize) {
        let i = class.index();
        self.msgs[i].fetch_add(1, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Record one injected fault, by the fate label the fault plan produced
    /// (`"drop"`, `"partition"`, `"crash"`, `"duplicate"`, `"delay"`).
    /// Losses of any cause count as drops.
    #[inline]
    pub fn record_fault(&self, class: MsgClass, label: &str) {
        let i = class.index();
        match label {
            "duplicate" => self.dups[i].fetch_add(1, Ordering::Relaxed),
            "delay" => self.delays[i].fetch_add(1, Ordering::Relaxed),
            _ => self.drops[i].fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> FabricStatsSnapshot {
        let mut s = FabricStatsSnapshot::default();
        for class in MsgClass::ALL {
            let i = class.index();
            s.msgs[i] = self.msgs[i].load(Ordering::Relaxed);
            s.bytes[i] = self.bytes[i].load(Ordering::Relaxed);
            s.drops[i] = self.drops[i].load(Ordering::Relaxed);
            s.dups[i] = self.dups[i].load(Ordering::Relaxed);
            s.delays[i] = self.delays[i].load(Ordering::Relaxed);
        }
        s
    }
}

/// A point-in-time copy of [`FabricStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStatsSnapshot {
    msgs: [u64; 4],
    bytes: [u64; 4],
    drops: [u64; 4],
    dups: [u64; 4],
    delays: [u64; 4],
}

impl FabricStatsSnapshot {
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
    pub fn delta(&self, earlier: &FabricStatsSnapshot) -> FabricStatsSnapshot {
        let mut out = FabricStatsSnapshot::default();
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
        let s = FabricStats::default();
        s.record(MsgClass::Data, 4096);
        s.record(MsgClass::Data, 4096);
        s.record(MsgClass::Sync, 16);
        let snap = s.snapshot();
        assert_eq!(snap.msgs(MsgClass::Data), 2);
        assert_eq!(snap.bytes(MsgClass::Data), 8192);
        assert_eq!(snap.msgs(MsgClass::Sync), 1);
        assert_eq!(snap.msgs(MsgClass::Update), 0);
        assert_eq!(snap.total_msgs(), 3);
        assert_eq!(snap.total_bytes(), 8208);
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let s = FabricStats::default();
        s.record(MsgClass::Control, 100);
        let before = s.snapshot();
        s.record(MsgClass::Control, 50);
        s.record(MsgClass::Update, 8);
        let d = s.snapshot().delta(&before);
        assert_eq!(d.msgs(MsgClass::Control), 1);
        assert_eq!(d.bytes(MsgClass::Control), 50);
        assert_eq!(d.msgs(MsgClass::Update), 1);
    }

    #[test]
    fn fault_counters_classify_by_cause() {
        let s = FabricStats::default();
        s.record_fault(MsgClass::Data, "drop");
        s.record_fault(MsgClass::Data, "partition");
        s.record_fault(MsgClass::Sync, "crash");
        s.record_fault(MsgClass::Update, "duplicate");
        s.record_fault(MsgClass::Data, "delay");
        let snap = s.snapshot();
        assert_eq!(snap.drops(MsgClass::Data), 2, "drops and partitions are both losses");
        assert_eq!(snap.drops(MsgClass::Sync), 1);
        assert_eq!(snap.dups(MsgClass::Update), 1);
        assert_eq!(snap.delays(MsgClass::Data), 1);
        assert_eq!(snap.total_drops(), 3);
        assert_eq!(snap.total_faults(), 5);
        let d = snap.delta(&FabricStatsSnapshot::default());
        assert_eq!(d, snap, "delta from zero is the identity");
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let s = Arc::new(FabricStats::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record(MsgClass::Data, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.msgs(MsgClass::Data), 4000);
        assert_eq!(snap.bytes(MsgClass::Data), 32000);
    }
}
