//! Per-thread statistics: what a compute thread's events add up to.
//!
//! The paper's evaluation splits application runtime into **compute time**
//! and **synchronization time** (Figures 3–11) and explains it with
//! per-thread protocol counts. A [`ThreadStats`] holds both. Its counters,
//! latency histograms, wait sums and hotspot map are one fold of the
//! thread's events ([`ThreadStats::fold`]): the compute thread folds each
//! event as it emits it, whether or not tracing keeps the event, and the
//! trace-derived views ([`HotspotMap::from_trace`], the metrics timeline's
//! thread series) fold the stored track by the same rule — so a recorded
//! track folds into exactly the statistics its thread reported.

use samhita_scl::SimTime;

use crate::event::{EventKind, FetchKind};
use crate::hist::LatencyHistogram;
use crate::hotspot::HotspotMap;

/// Counters and clocks of one compute thread over one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadStats {
    /// Thread id within the run.
    pub tid: u32,
    /// Final virtual clock (total time).
    pub total: SimTime,
    /// Time inside synchronization operations.
    pub sync: SimTime,
    /// `total - sync`.
    pub compute: SimTime,
    /// Demand line fetches (cold or capacity misses).
    pub line_misses: u64,
    /// Refetches after invalidation, each of a run of a line's pages
    /// (false-sharing traffic): the fault's, and the release's at issue.
    pub page_refetches: u64,
    /// Misses satisfied by a completed prefetch: one taken in already, or
    /// one whose response was delivered before the miss.
    pub prefetch_hits: u64,
    /// Misses that had to wait for an in-flight prefetch.
    pub prefetch_late: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Pages invalidated by write notices from other threads.
    pub invalidations: u64,
    /// Twins created (first ordinary write to a clean page).
    pub twins_created: u64,
    /// Ordinary-region diff payload flushed, in bytes.
    pub diff_bytes_flushed: u64,
    /// Fine-grain (consistency-region) payload flushed, in bytes.
    pub fine_bytes_flushed: u64,
    /// Lock acquisitions, condition-wait re-acquires included.
    pub locks_acquired: u64,
    /// Barrier episodes.
    pub barriers: u64,
    /// Protocol requests retransmitted after detecting loss.
    pub retries: u64,
    /// Memory-server failovers: the thread gave up on a primary home and
    /// re-homed its traffic to the replica.
    pub failovers: u64,
    /// Manager failovers: the thread exhausted its retry budget against the
    /// primary manager and re-homed all manager traffic to the hot standby
    /// (at most 1 per thread — the re-home is sticky).
    pub mgr_failovers: u64,
    /// Latency of every synchronous fetch stall (demand misses, refetches,
    /// prefetch takes). Part of the report, not of the (optional) event
    /// trace: folded whether or not tracing keeps the events.
    pub fetch_latency: LatencyHistogram,
    /// Lock-wait latency: acquire request → grant observed.
    pub lock_wait: LatencyHistogram,
    /// Barrier-wait latency: arrival → release observed.
    pub barrier_wait: LatencyHistogram,
    /// Per-page protocol activity (misses, refetches, invalidations, twins,
    /// flushed bytes), folded like the histograms.
    pub hot: HotspotMap,
    /// Virtual clock at the timing epoch (where `total` starts counting).
    pub epoch_ns: u64,
    /// Virtual clock when the thread body finished (`epoch_ns + total`).
    pub end_ns: u64,
    /// Σ synchronous fetch-stall waits since the epoch: the intervals
    /// `fetch_latency` buckets that ended after it.
    pub fetch_wait_ns: u64,
    /// Σ lock waits since the epoch: acquire request → grant observed,
    /// including condition re-acquires.
    pub lock_wait_ns: u64,
    /// Σ barrier waits since the epoch: arrival → release observed.
    pub barrier_wait_ns: u64,
    /// Σ non-sync manager RPC waits since the epoch (alloc, free, create,
    /// signal…).
    pub mgr_wait_ns: u64,
    /// Σ time inside sync-time consistency flushes since the epoch (twin
    /// diffing, staging, batched one-way sends). Measured *around* the
    /// whole flush, and the lock/barrier waits are measured *after* the
    /// flush returns, so the five wait classes are pairwise disjoint by
    /// construction (the conservation audit, DESIGN.md §13).
    pub flush_wait_ns: u64,
}

/// Where one thread's share of the run went: the five measured wait classes,
/// the compute remainder, and scheduler idle (the gap between this thread's
/// finish and the run makespan). Sums to the makespan exactly — see
/// [`ThreadStats::breakdown`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Compute remainder: `total` minus every measured wait.
    pub compute_ns: u64,
    /// Synchronous fetch stalls.
    pub fetch_ns: u64,
    /// Lock waits (request → grant).
    pub lock_ns: u64,
    /// Barrier waits (arrival → release).
    pub barrier_ns: u64,
    /// Non-sync manager RPC waits.
    pub mgr_ns: u64,
    /// Sync-time consistency flushes.
    pub flush_ns: u64,
    /// Time after this thread finished while the run was still going.
    pub idle_ns: u64,
    /// The thread's own measured time (`compute + waits`).
    pub total_ns: u64,
}

impl TimeBreakdown {
    /// Sum of every class including idle; equals the makespan it was built
    /// against (the conservation identity).
    pub fn sum_ns(&self) -> u64 {
        self.compute_ns
            + self.fetch_ns
            + self.lock_ns
            + self.barrier_ns
            + self.mgr_ns
            + self.flush_ns
            + self.idle_ns
    }

    /// Sum of the five measured wait classes.
    pub fn wait_ns(&self) -> u64 {
        self.fetch_ns + self.lock_ns + self.barrier_ns + self.mgr_ns + self.flush_ns
    }

    /// Add `other` class by class.
    pub fn add(&mut self, other: &TimeBreakdown) {
        self.compute_ns += other.compute_ns;
        self.fetch_ns += other.fetch_ns;
        self.lock_ns += other.lock_ns;
        self.barrier_ns += other.barrier_ns;
        self.mgr_ns += other.mgr_ns;
        self.flush_ns += other.flush_ns;
        self.idle_ns += other.idle_ns;
        self.total_ns += other.total_ns;
    }
}

impl ThreadStats {
    /// Time-conservation breakdown of this thread against the run makespan:
    /// `compute + fetch + lock + barrier + mgr + flush + idle == makespan`,
    /// exactly, in integer nanoseconds. The wait classes are measured as
    /// pairwise-disjoint intervals of this thread's virtual clock, so the
    /// compute remainder never underflows on a well-formed report (asserted
    /// by the conservation property tests).
    pub fn breakdown(&self, makespan: SimTime) -> TimeBreakdown {
        let total = self.total.as_ns();
        let waits = self.fetch_wait_ns
            + self.lock_wait_ns
            + self.barrier_wait_ns
            + self.mgr_wait_ns
            + self.flush_wait_ns;
        debug_assert!(waits <= total, "wait classes overlap: {waits} > {total}");
        TimeBreakdown {
            compute_ns: total.saturating_sub(waits),
            fetch_ns: self.fetch_wait_ns,
            lock_ns: self.lock_wait_ns,
            barrier_ns: self.barrier_wait_ns,
            mgr_ns: self.mgr_wait_ns,
            flush_ns: self.flush_wait_ns,
            idle_ns: makespan.as_ns().saturating_sub(total),
            total_ns: total,
        }
    }

    /// Fold one event of this thread's track in: the one rule deciding which
    /// event feeds which counter, histogram, wait sum and hotspot page. The
    /// wait sums grow from the thread's start; the thread reports them from
    /// its timing epoch.
    pub fn fold(&mut self, kind: &EventKind) {
        self.hot.fold(kind);
        self.count(kind);
    }

    /// [`ThreadStats::fold`] but for the hotspot map.
    pub(crate) fn count(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Fetch { kind, wait_ns, .. } => {
                self.fetch_latency.record(wait_ns);
                self.fetch_wait_ns += wait_ns;
                *match kind {
                    FetchKind::Demand => &mut self.line_misses,
                    FetchKind::Refetch => &mut self.page_refetches,
                    FetchKind::PrefetchHit => &mut self.prefetch_hits,
                    FetchKind::PrefetchLate => &mut self.prefetch_late,
                } += 1;
            }
            EventKind::RefetchIssue { .. } => self.page_refetches += 1,
            EventKind::TwinCreate { .. } => self.twins_created += 1,
            EventKind::DiffFlush { bytes, .. } => self.diff_bytes_flushed += bytes,
            EventKind::FineFlush { bytes, .. } => self.fine_bytes_flushed += bytes,
            EventKind::Invalidate { .. } => self.invalidations += 1,
            EventKind::Evict { .. } => self.evictions += 1,
            EventKind::LockAcquire { wait_ns, .. } => {
                self.locks_acquired += 1;
                self.lock_wait.record(wait_ns);
                self.lock_wait_ns += wait_ns;
            }
            EventKind::BarrierRelease { wait_ns, .. } => {
                self.barriers += 1;
                self.barrier_wait.record(wait_ns);
                self.barrier_wait_ns += wait_ns;
            }
            EventKind::MgrRpc { wait_ns, .. } => self.mgr_wait_ns += wait_ns,
            EventKind::Retry { .. } => self.retries += 1,
            EventKind::Failover { .. } => self.failovers += 1,
            EventKind::MgrFailover { .. } => self.mgr_failovers += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fetch_feeds_its_kind_its_histogram_its_wait_and_its_pages() {
        let mut s = ThreadStats::default();
        for (kind, wait_ns) in [
            (FetchKind::Demand, 100),
            (FetchKind::Refetch, 50),
            (FetchKind::PrefetchHit, 0),
            (FetchKind::PrefetchLate, 30),
        ] {
            s.fold(&EventKind::Fetch { page: 4, pages: 2, kind, wait_ns });
        }
        s.fold(&EventKind::RefetchIssue { page: 5, pages: 1 });
        let counts = (s.line_misses, s.page_refetches, s.prefetch_hits, s.prefetch_late);
        assert_eq!(counts, (1, 2, 1, 1));
        assert_eq!((s.fetch_latency.count(), s.fetch_wait_ns), (4, 180));
        assert_eq!(s.hot.page(4).map(|c| (c.misses, c.refetches)), Some((1, 1)));
        assert_eq!(s.hot.page(5).map(|c| (c.misses, c.refetches)), Some((1, 2)));
    }

    #[test]
    fn waits_feed_their_class_and_uncounted_events_nothing() {
        let mut s = ThreadStats::default();
        s.fold(&EventKind::LockAcquire { lock: 0, wait_ns: 7 });
        s.fold(&EventKind::BarrierRelease { barrier: 0, wait_ns: 9 });
        s.fold(&EventKind::MgrRpc { op: "alloc", wait_ns: 11 });
        assert_eq!((s.locks_acquired, s.lock_wait.count(), s.lock_wait_ns), (1, 1, 7));
        assert_eq!((s.barriers, s.barrier_wait.count(), s.barrier_wait_ns), (1, 1, 9));
        assert_eq!(s.mgr_wait_ns, 11);
        let before = s.clone();
        for kind in [
            EventKind::LockRequest { lock: 0 },
            EventKind::LockRelease { lock: 0 },
            EventKind::BarrierArrive { barrier: 0 },
            EventKind::PrefetchIssue { page: 0, pages: 4 },
            EventKind::BatchFlush { server: 0, parts: 2, bytes: 64 },
        ] {
            s.fold(&kind);
        }
        assert_eq!(s, before);
    }
}
