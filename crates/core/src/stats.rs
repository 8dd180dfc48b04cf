//! Per-run measurement.
//!
//! A [`RunReport`] gathers each compute thread's [`ThreadStats`] — the fold
//! of the thread's events, defined beside the event vocabulary in
//! `samhita_trace` — with the fabric traffic and the services' busy and
//! queue accounting of one run. The paper's compute/sync split (Figures
//! 3–11) is every thread's `compute` and `sync`: synchronization operations
//! (lock/unlock, barriers, condition waits, including the consistency
//! flushes they perform) charge the sync bucket, everything else (including
//! demand-fetch misses and invalidation refetches during computation, which
//! is where false sharing hurts) is compute time.

use samhita_scl::{FabricStatsSnapshot, MsgClass, SimTime};
use samhita_trace::{HotspotMap, LatencyHistogram};
pub use samhita_trace::{ThreadStats, TimeBreakdown};

use crate::layout::{AddressLayout, Region};

/// Wall-clock nanoseconds measured on the *host*, wrapped so the value is
/// redacted from `Debug` output: determinism tests compare `RunReport`
/// debug strings across runs, and host time is the one field that may
/// legitimately differ between two bit-identical virtual executions.
/// Read it with [`HostNanos::get`]; never let it influence virtual state.
#[derive(Clone, Copy, Default)]
pub struct HostNanos(u64);

impl HostNanos {
    /// Wrap a host-clock duration.
    pub fn new(ns: u64) -> Self {
        HostNanos(ns)
    }

    /// The wall-clock nanoseconds.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Debug for HostNanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately constant: host time must never enter a determinism
        // fingerprint, and debug-formatted reports are one.
        f.write_str("HostNanos(<host>)")
    }
}

/// The result of one `Samhita::run` (or one native-baseline run).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-thread statistics, in tid order.
    pub threads: Vec<ThreadStats>,
    /// Fabric traffic attributable to this run.
    pub fabric: FabricStatsSnapshot,
    /// Longest thread clock: the run's virtual wall time.
    pub makespan: SimTime,
    /// Manager service time spent on this run's requests, in virtual ns.
    pub mgr_busy_ns: u64,
    /// Per-server service time spent on this run's requests, in virtual ns.
    pub server_busy_ns: Vec<u64>,
    /// The run's address-space layout, for attributing hotspot pages to
    /// allocation sites. `None` for native-baseline runs (no DSM layout).
    pub layout: Option<AddressLayout>,
    /// Total virtual time this run's requests queued at the manager before
    /// service began (queue wait, not service time).
    pub mgr_queue_wait_ns: u64,
    /// Peak manager queue occupancy observed at any arrival this run
    /// (1 = never contended).
    pub mgr_peak_queue_depth: u64,
    /// Sum of arrival-sampled manager queue depths; divide by
    /// `mgr_requests` for the mean.
    pub mgr_queue_depth_sum: u64,
    /// Manager requests this run.
    pub mgr_requests: u64,
    /// Per-server queue wait, in server order.
    pub server_queue_wait_ns: Vec<u64>,
    /// Per-server peak queue occupancy, in server order.
    pub server_peak_queue_depth: Vec<u64>,
    /// Per-server sum of arrival-sampled queue depths, in server order.
    pub server_queue_depth_sum: Vec<u64>,
    /// Picks the deterministic scheduler made during this run.
    pub sched_grants: u64,
    /// Log records the primary manager shipped to the hot standby this run,
    /// counting repair re-ships of the unacked suffix (0 with no standby).
    pub log_records_shipped: u64,
    /// Lock leases the standby reclaimed from dead or deposed holders after
    /// taking over (0 on any fault-free run).
    pub lease_reclaims: u64,
    /// Stale releases the standby absorbed: a deposed holder released a
    /// lock the standby had already reclaimed (0 on any fault-free run).
    pub stale_releases: u64,
    /// Requests the standby served after taking over (0 unless the primary
    /// manager crashed mid-run).
    pub standby_serves: u64,
    /// Virtual instant the standby served its first post-takeover request
    /// (0 = the primary survived the whole run).
    pub takeover_ns: u64,
    /// End-to-end wall-clock duration of the run on the host. Purely
    /// observational: redacted from `Debug` (see [`HostNanos`]) and never
    /// serialized into determinism-compared artifacts.
    pub host_wall_ns: HostNanos,
}

impl RunReport {
    /// Assemble a report, computing the makespan. Busy time and layout are
    /// filled in by the DSM runtime after construction; native baselines
    /// leave them at their defaults.
    pub fn new(threads: Vec<ThreadStats>, fabric: FabricStatsSnapshot) -> Self {
        let makespan = threads.iter().map(|t| t.total).fold(SimTime::ZERO, SimTime::max);
        RunReport { threads, fabric, makespan, ..RunReport::default() }
    }

    /// Aggregate time-conservation breakdown: every thread's
    /// [`ThreadStats::breakdown`] summed, so
    /// `sum_ns() == threads × makespan` exactly.
    pub fn wait_breakdown(&self) -> TimeBreakdown {
        let mut out = TimeBreakdown::default();
        for t in &self.threads {
            out.add(&t.breakdown(self.makespan));
        }
        out
    }

    /// Fraction of total available thread-time (threads × makespan) that
    /// this run's requests spent queued at the manager. This is the
    /// headline "manager is the wall" number: it grows with P while
    /// `mgr_utilization` saturates at 1.
    pub fn mgr_queue_wait_fraction(&self) -> f64 {
        let denom = self.threads.len() as u64 * self.makespan.as_ns();
        if denom == 0 {
            return 0.0;
        }
        self.mgr_queue_wait_ns as f64 / denom as f64
    }

    /// Mean manager queue occupancy over this run's arrivals
    /// (1.0 = never contended; 0 with no requests).
    pub fn mgr_mean_queue_depth(&self) -> f64 {
        if self.mgr_requests == 0 {
            return 0.0;
        }
        self.mgr_queue_depth_sum as f64 / self.mgr_requests as f64
    }

    /// Mean compute time across threads.
    pub fn mean_compute(&self) -> SimTime {
        self.mean(|t| t.compute)
    }

    /// Mean synchronization time across threads.
    pub fn mean_sync(&self) -> SimTime {
        self.mean(|t| t.sync)
    }

    /// Maximum compute time across threads.
    pub fn max_compute(&self) -> SimTime {
        self.threads.iter().map(|t| t.compute).fold(SimTime::ZERO, SimTime::max)
    }

    /// Maximum synchronization time across threads.
    pub fn max_sync(&self) -> SimTime {
        self.threads.iter().map(|t| t.sync).fold(SimTime::ZERO, SimTime::max)
    }

    fn mean(&self, f: impl Fn(&ThreadStats) -> SimTime) -> SimTime {
        if self.threads.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u64 = self.threads.iter().map(|t| f(t).as_ns()).sum();
        SimTime::from_ns(sum / self.threads.len() as u64)
    }

    /// Sum a counter over all threads.
    pub fn total_of(&self, f: impl Fn(&ThreadStats) -> u64) -> u64 {
        self.threads.iter().map(f).sum()
    }

    /// Fraction of total thread time spent in synchronization, `0.0..=1.0`
    /// (0 for an empty report). The paper's compute/sync split as a ratio.
    pub fn sync_fraction(&self) -> f64 {
        let total: u64 = self.threads.iter().map(|t| t.total.as_ns()).sum();
        if total == 0 {
            return 0.0;
        }
        let sync: u64 = self.threads.iter().map(|t| t.sync.as_ns()).sum();
        sync as f64 / total as f64
    }

    /// Total synchronization operations across all threads: lock
    /// acquisitions plus barrier episodes. Each one triggers a full flush,
    /// so it is the natural denominator for per-sync-op message rates.
    pub fn sync_ops(&self) -> u64 {
        self.total_of(|t| t.locks_acquired) + self.total_of(|t| t.barriers)
    }

    /// Total manager failovers across threads. Each thread re-homes at most
    /// once (the switch is sticky), so this is also the number of threads
    /// that independently detected the primary manager's crash.
    pub fn mgr_failovers(&self) -> u64 {
        self.total_of(|t| t.mgr_failovers)
    }

    /// Update-class messages sent per synchronization operation. With
    /// batched one-way flushes this is bounded by the number of destination
    /// memory servers (plus replica copies) instead of the number of dirty
    /// pages; a rise signals a flush-path regression. Runs with no
    /// sync ops report their raw update-message count.
    pub fn msgs_per_sync_op(&self) -> f64 {
        self.fabric.msgs(MsgClass::Update) as f64 / self.sync_ops().max(1) as f64
    }

    /// Compute-time skew across threads: `max(compute) / mean(compute)`.
    /// 1.0 means perfectly balanced; 0 for an empty report or when no
    /// thread accumulated compute time.
    pub fn compute_imbalance(&self) -> f64 {
        let mean = self.mean_compute().as_ns();
        if mean == 0 {
            return 0.0;
        }
        self.max_compute().as_ns() as f64 / mean as f64
    }

    /// All threads' fetch-stall latencies, merged.
    pub fn fetch_latency(&self) -> LatencyHistogram {
        self.merged(|t| &t.fetch_latency)
    }

    /// All threads' lock-wait latencies, merged.
    pub fn lock_wait(&self) -> LatencyHistogram {
        self.merged(|t| &t.lock_wait)
    }

    /// All threads' barrier-wait latencies, merged.
    pub fn barrier_wait(&self) -> LatencyHistogram {
        self.merged(|t| &t.barrier_wait)
    }

    fn merged(&self, f: impl Fn(&ThreadStats) -> &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for t in &self.threads {
            out.merge(f(t));
        }
        out
    }

    /// All threads' per-page hotspot counters, merged.
    pub fn hotspots(&self) -> HotspotMap {
        let mut out = HotspotMap::new();
        for t in &self.threads {
            out.merge(&t.hot);
        }
        out
    }

    /// Manager utilization: service time over the run's makespan,
    /// `0.0..=1.0` (0 for an empty run).
    pub fn mgr_utilization(&self) -> f64 {
        Self::utilization(self.mgr_busy_ns, self.makespan)
    }

    /// Per-server utilization: service time over the run's makespan, in
    /// server order.
    pub fn server_utilization(&self) -> Vec<f64> {
        self.server_busy_ns.iter().map(|&b| Self::utilization(b, self.makespan)).collect()
    }

    fn utilization(busy_ns: u64, makespan: SimTime) -> f64 {
        if makespan.as_ns() == 0 {
            return 0.0;
        }
        busy_ns as f64 / makespan.as_ns() as f64
    }

    /// The allocation site of a global page, when the run has a layout.
    pub fn site_of_page(&self, page: u64) -> Option<Region> {
        self.layout.map(|l| l.region_of(page * l.page_size))
    }

    /// Human label for a page's allocation site: `arena(tid)`, `shared`,
    /// `striped`, `reserved`, or `?` when no layout is attached.
    pub fn site_label(&self, page: u64) -> String {
        match self.site_of_page(page) {
            Some(Region::Arena(tid)) => format!("arena({tid})"),
            Some(Region::Shared) => "shared".to_string(),
            Some(Region::Striped) => "striped".to_string(),
            Some(Region::Reserved) => "reserved".to_string(),
            None => "?".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use samhita_scl::FabricStats;
    use samhita_trace::{EventKind, FetchKind};

    use super::*;

    fn t(tid: u32, total_ns: u64, sync_ns: u64) -> ThreadStats {
        ThreadStats {
            tid,
            total: SimTime::from_ns(total_ns),
            sync: SimTime::from_ns(sync_ns),
            compute: SimTime::from_ns(total_ns - sync_ns),
            ..ThreadStats::default()
        }
    }

    #[test]
    fn report_aggregates() {
        let r = RunReport::new(vec![t(0, 100, 20), t(1, 200, 60)], FabricStatsSnapshot::default());
        assert_eq!(r.makespan, SimTime::from_ns(200));
        assert_eq!(r.mean_compute(), SimTime::from_ns((80 + 140) / 2));
        assert_eq!(r.mean_sync(), SimTime::from_ns(40));
        assert_eq!(r.max_compute(), SimTime::from_ns(140));
        assert_eq!(r.max_sync(), SimTime::from_ns(60));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::new(vec![], FabricStatsSnapshot::default());
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.mean_compute(), SimTime::ZERO);
    }

    #[test]
    fn sync_fraction_is_time_weighted() {
        // Thread 0: 100ns total, 20 sync; thread 1: 300ns total, 60 sync.
        // Weighted fraction = (20 + 60) / (100 + 300) = 0.2, not the mean of
        // the per-thread fractions.
        let r = RunReport::new(vec![t(0, 100, 20), t(1, 300, 60)], FabricStatsSnapshot::default());
        assert!((r.sync_fraction() - 0.2).abs() < 1e-12);
        // Degenerate cases are 0, not NaN.
        assert_eq!(RunReport::new(vec![], FabricStatsSnapshot::default()).sync_fraction(), 0.0);
        assert_eq!(
            RunReport::new(vec![t(0, 0, 0)], FabricStatsSnapshot::default()).sync_fraction(),
            0.0
        );
    }

    #[test]
    fn compute_imbalance_is_max_over_mean() {
        // compute: 80 and 140 → mean 110, max 140.
        let r = RunReport::new(vec![t(0, 100, 20), t(1, 200, 60)], FabricStatsSnapshot::default());
        assert!((r.compute_imbalance() - 140.0 / 110.0).abs() < 1e-12);
        // A perfectly balanced run sits at exactly 1.0.
        let b = RunReport::new(vec![t(0, 100, 0), t(1, 100, 0)], FabricStatsSnapshot::default());
        assert_eq!(b.compute_imbalance(), 1.0);
        // Degenerate cases are 0, not NaN.
        assert_eq!(RunReport::new(vec![], FabricStatsSnapshot::default()).compute_imbalance(), 0.0);
    }

    #[test]
    fn merged_histograms_cover_all_threads() {
        let mut a = t(0, 10, 0);
        a.fetch_latency.record(100);
        a.lock_wait.record(50);
        let mut b = t(1, 10, 0);
        b.fetch_latency.record(200);
        b.barrier_wait.record(70);
        let r = RunReport::new(vec![a, b], FabricStatsSnapshot::default());
        assert_eq!(r.fetch_latency().count(), 2);
        assert_eq!(r.fetch_latency().max_ns(), 200);
        assert_eq!(r.lock_wait().count(), 1);
        assert_eq!(r.barrier_wait().count(), 1);
    }

    #[test]
    fn hotspots_merge_across_threads() {
        let refetch = EventKind::RefetchIssue { page: 5, pages: 1 };
        let mut a = t(0, 10, 0);
        a.fold(&refetch);
        a.fold(&EventKind::DiffFlush { page: 5, bytes: 100 });
        let mut b = t(1, 10, 0);
        b.fold(&refetch);
        b.fold(&EventKind::Fetch { page: 9, pages: 2, kind: FetchKind::Demand, wait_ns: 0 });
        let r = RunReport::new(vec![a, b], FabricStatsSnapshot::default());
        let hot = r.hotspots();
        assert_eq!(hot.page(5).unwrap().refetches, 2);
        assert_eq!(hot.page(5).unwrap().diff_bytes, 100);
        assert_eq!(hot.page(9).unwrap().misses, 1);
        assert_eq!(hot.page(10).unwrap().misses, 1);
    }

    #[test]
    fn utilization_is_busy_over_makespan() {
        let mut r = RunReport::new(vec![t(0, 1_000, 0)], FabricStatsSnapshot::default());
        r.mgr_busy_ns = 250;
        r.server_busy_ns = vec![500, 1_000];
        assert!((r.mgr_utilization() - 0.25).abs() < 1e-12);
        let su = r.server_utilization();
        assert!((su[0] - 0.5).abs() < 1e-12);
        assert!((su[1] - 1.0).abs() < 1e-12);
        // Degenerate: empty run divides to 0, not NaN.
        let empty = RunReport::new(vec![], FabricStatsSnapshot::default());
        assert_eq!(empty.mgr_utilization(), 0.0);
    }

    #[test]
    fn site_labels_follow_the_layout() {
        let cfg = crate::config::SamhitaConfig::small_for_tests();
        let layout = AddressLayout::new(&cfg);
        let mut r = RunReport::new(vec![t(0, 10, 0)], FabricStatsSnapshot::default());
        assert_eq!(r.site_label(0), "?", "no layout attached yet");
        r.layout = Some(layout);
        assert_eq!(r.site_label(0), "reserved");
        assert_eq!(r.site_label(layout.arena_base / layout.page_size), "arena(0)");
        assert_eq!(r.site_label(layout.shared_base / layout.page_size), "shared");
        assert_eq!(r.site_label(layout.striped_base / layout.page_size + 100), "striped");
    }

    #[test]
    fn sync_ops_and_message_rate() {
        let mut a = t(0, 10, 0);
        a.locks_acquired = 3;
        a.barriers = 2;
        let mut b = t(1, 10, 0);
        b.locks_acquired = 1;
        let stats = FabricStats::default();
        for _ in 0..12 {
            stats.record(MsgClass::Update, 64);
        }
        stats.record(MsgClass::Data, 4096);
        let r = RunReport::new(vec![a, b], stats.snapshot());
        assert_eq!(r.sync_ops(), 6);
        assert!((r.msgs_per_sync_op() - 2.0).abs() < 1e-12, "12 update msgs over 6 sync ops");
        // No sync ops: the raw update count, not a division by zero.
        let empty = RunReport::new(vec![t(0, 10, 0)], stats.snapshot());
        assert_eq!(empty.sync_ops(), 0);
        assert!((empty.msgs_per_sync_op() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_conserves_time_exactly() {
        let mut a = t(0, 1_000, 300);
        a.fetch_wait_ns = 100;
        a.lock_wait_ns = 150;
        a.barrier_wait_ns = 50;
        a.mgr_wait_ns = 25;
        a.flush_wait_ns = 75;
        let b = t(1, 1_600, 0); // the makespan thread, all compute
        let r = RunReport::new(vec![a, b], FabricStatsSnapshot::default());
        assert_eq!(r.makespan.as_ns(), 1_600);
        let ba = r.threads[0].breakdown(r.makespan);
        assert_eq!(ba.compute_ns, 1_000 - 400);
        assert_eq!(ba.wait_ns(), 400);
        assert_eq!(ba.idle_ns, 600);
        assert_eq!(ba.sum_ns(), 1_600, "per-thread identity: classes sum to makespan");
        let bb = r.threads[1].breakdown(r.makespan);
        assert_eq!((bb.compute_ns, bb.idle_ns, bb.sum_ns()), (1_600, 0, 1_600));
        let agg = r.wait_breakdown();
        assert_eq!(agg.sum_ns(), 2 * 1_600, "aggregate identity: threads × makespan");
        assert_eq!(agg.total_ns, 2_600);
    }

    #[test]
    fn queue_fractions_are_normalized() {
        let mut r = RunReport::new(vec![t(0, 1_000, 0), t(1, 1_000, 0)], Default::default());
        r.mgr_queue_wait_ns = 500;
        r.mgr_requests = 10;
        r.mgr_queue_depth_sum = 25;
        assert!((r.mgr_queue_wait_fraction() - 500.0 / 2_000.0).abs() < 1e-12);
        assert!((r.mgr_mean_queue_depth() - 2.5).abs() < 1e-12);
        let empty = RunReport::new(vec![], FabricStatsSnapshot::default());
        assert_eq!(empty.mgr_queue_wait_fraction(), 0.0);
        assert_eq!(empty.mgr_mean_queue_depth(), 0.0);
    }

    #[test]
    fn counter_totals() {
        let mut a = t(0, 10, 0);
        a.line_misses = 3;
        let mut b = t(1, 10, 0);
        b.line_misses = 4;
        let r = RunReport::new(vec![a, b], FabricStatsSnapshot::default());
        assert_eq!(r.total_of(|t| t.line_misses), 7);
    }
}
