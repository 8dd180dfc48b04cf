//! The fold check shared by the suites that trace real programs: a
//! thread's statistics are the fold of its events.

use samhita_repro::core::{RunReport, ThreadStats};
use samhita_repro::trace::{HotspotMap, RunTrace, TrackId};

/// Fold each thread's stored track in `trace` by the rule its statistics
/// were folded by, and require exactly what `report` holds for the thread:
/// counters, histograms and hotspot map over the whole track; wait sums over
/// the events stamped after the timing epoch (a positive wait stamped at the
/// epoch ended before it), the flush wait, which no event measures, aside.
/// Then the trace-derived run hotspot map is the report's.
pub fn assert_tracks_fold_into(report: &RunReport, trace: &RunTrace, what: &str) {
    for t in &report.threads {
        let (mut all, mut since) = (ThreadStats::default(), ThreadStats::default());
        for e in trace.track(TrackId::Thread(t.tid)).unwrap_or(&[]) {
            all.fold(&e.kind);
            if e.at.as_ns() > t.epoch_ns {
                since.fold(&e.kind);
            }
        }
        let folded = ThreadStats {
            tid: t.tid,
            total: t.total,
            sync: t.sync,
            compute: t.compute,
            epoch_ns: t.epoch_ns,
            end_ns: t.end_ns,
            fetch_wait_ns: since.fetch_wait_ns,
            lock_wait_ns: since.lock_wait_ns,
            barrier_wait_ns: since.barrier_wait_ns,
            mgr_wait_ns: since.mgr_wait_ns,
            flush_wait_ns: t.flush_wait_ns,
            ..all
        };
        assert_eq!(&folded, t, "{what}: thread {}", t.tid);
    }
    assert_eq!(HotspotMap::from_trace(trace), report.hotspots(), "{what}");
}
