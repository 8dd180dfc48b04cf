//! Time-sliced metrics timeline, derived from a recorded event trace.
//!
//! End-of-run totals answer "how much"; the timeline answers "when". A
//! [`MetricsTimeline`] buckets the virtual timeline into fixed-width
//! intervals and accumulates, per interval: misses, refetches, diff/fine
//! bytes, invalidations, fabric bytes, lock/barrier/fetch stall time, and
//! manager / memory-server busy time (reconstructed from serve events and
//! the deterministic service-cost model, [`ServiceCosts`]).
//!
//! Derivation is strictly post-hoc: the timeline reads the same event
//! stream the exporters read, after the run has finished, so enabling it
//! can never perturb virtual clocks — the tracing bit-identity guarantee
//! carries over verbatim.
//!
//! Attribution convention: every event is stamped at its *completion* time
//! (that is how the tracer records them), so an interval's stall-ns and
//! busy-ns count work that **ended** in the interval, even if it started in
//! an earlier one. For bucket widths well above individual service times
//! (the default picks ~60 buckets per run) the distinction is invisible;
//! at extreme zoom it shifts load one bucket to the right, never loses it.
//! The thread series are the fold that makes each thread's statistics
//! ([`ThreadStats::fold`]), split by interval, so their totals are conserved
//! exactly: misses, refetches, invalidations and flushed bytes equal what
//! the run report counted; the fetch, lock and barrier waits include the
//! ones before a thread's timing epoch. Server busy time equals the
//! servers' own, host setup included, because each serve is priced by the
//! server's rule ([`ServiceCosts::serve_ns`]).

use samhita_scl::{ServiceModel, SimTime};

use crate::event::{EventKind, TraceEvent, TrackId};
use crate::json::JsonValue;
use crate::stats::ThreadStats;
use crate::tracer::RunTrace;

/// The deterministic service-cost model needed to reconstruct manager and
/// memory-server busy time from serve events: the simulation's own, built
/// by `SamhitaConfig::service_costs()`, whose memory-server half is the
/// [`ServiceModel`] the servers charge by.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServiceCosts {
    /// Manager service time per request, in ns.
    pub mgr_service_ns: u64,
    /// The memory servers' service-time model.
    pub service: ServiceModel,
    /// Bytes per page (to size fetch payloads from page counts).
    pub page_size: u64,
}

impl ServiceCosts {
    /// How long the manager or a memory server was busy serving one
    /// request, from the events its serve left on the service's track, all
    /// stamped at its completion: a manager serve event, or a memory
    /// server's stamp group, priced by the server's own [`ServiceModel`]: a
    /// fetch pays for the written pages it read; the parts of an update
    /// batch (numbered applies) share one batch apply; a host write (batch
    /// 0) and a whole-page write are standalone applies of their bytes.
    /// Shared by the timeline's busy series and the causal index's serves.
    pub fn serve_ns(&self, serve: &[TraceEvent]) -> u64 {
        let (model, page) = (&self.service, self.page_size as usize);
        let mut batch = SimTime::ZERO;
        let parts: u64 = (serve.iter())
            .map(|e| match e.kind {
                EventKind::MgrServe { .. } => self.mgr_service_ns,
                EventKind::ServeFetch { written, .. } => {
                    model.service_ns(written as usize * page).as_ns()
                }
                EventKind::ApplyFine { bytes, batch: 0, .. } => {
                    model.apply_ns(bytes as usize).as_ns()
                }
                EventKind::ApplyDiff { .. } | EventKind::ApplyFine { .. } => {
                    batch = model.batch_apply_ns();
                    0
                }
                EventKind::ServeWrite { .. } => model.apply_ns(page).as_ns(),
                _ => 0,
            })
            .sum();
        parts + batch.as_ns()
    }
}

/// Accumulated metrics of one virtual-time interval.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Demand line fetches completed in the interval.
    pub misses: u64,
    /// Post-invalidation page refetches completed in the interval.
    pub refetches: u64,
    /// Invalidations applied in the interval.
    pub invalidations: u64,
    /// Diff payload flushed, in bytes.
    pub diff_bytes: u64,
    /// Fine-grain payload flushed, in bytes.
    pub fine_bytes: u64,
    /// Fabric payload sent, in bytes.
    pub fabric_bytes: u64,
    /// Fetch-stall time ending in the interval, in ns (all threads).
    pub fetch_wait_ns: u64,
    /// Lock-wait time ending in the interval, in ns (all threads).
    pub lock_wait_ns: u64,
    /// Barrier-wait time ending in the interval, in ns (all threads).
    pub barrier_wait_ns: u64,
    /// Manager service time for requests completed in the interval, in ns.
    pub mgr_busy_ns: u64,
    /// Memory-server service time (all servers) for requests completed in
    /// the interval, in ns.
    pub server_busy_ns: u64,
}

impl TimelineBucket {
    fn add(&mut self, other: &TimelineBucket) {
        self.misses += other.misses;
        self.refetches += other.refetches;
        self.invalidations += other.invalidations;
        self.diff_bytes += other.diff_bytes;
        self.fine_bytes += other.fine_bytes;
        self.fabric_bytes += other.fabric_bytes;
        self.fetch_wait_ns += other.fetch_wait_ns;
        self.lock_wait_ns += other.lock_wait_ns;
        self.barrier_wait_ns += other.barrier_wait_ns;
        self.mgr_busy_ns += other.mgr_busy_ns;
        self.server_busy_ns += other.server_busy_ns;
    }
}

/// A run's metrics bucketed over virtual time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsTimeline {
    /// Interval width, in virtual ns.
    pub bucket_ns: u64,
    /// Buckets in time order; bucket `i` covers `[i*bucket_ns, (i+1)*bucket_ns)`.
    pub buckets: Vec<TimelineBucket>,
}

impl MetricsTimeline {
    /// A bucket width giving ~`n` buckets over a run of `makespan_ns`
    /// (at least 1 ns so empty runs stay well-formed).
    pub fn bucket_width_for(makespan_ns: u64, n: u64) -> u64 {
        makespan_ns.div_ceil(n.max(1)).max(1)
    }

    /// Derive the timeline from a recorded trace. `costs` reconstructs
    /// manager/server busy time from serve events; pass the run's own
    /// config costs (`SamhitaConfig::service_costs()`). The thread series
    /// are each interval's thread events folded by the rule that makes a
    /// thread's statistics ([`ThreadStats::fold`]), so they sum to what the
    /// threads reported.
    ///
    /// # Panics
    /// Panics if `bucket_ns` is 0.
    pub fn from_trace(trace: &RunTrace, bucket_ns: u64, costs: &ServiceCosts) -> Self {
        assert!(bucket_ns > 0, "bucket width must be positive");
        let mut tl = MetricsTimeline { bucket_ns, buckets: Vec::new() };
        let mut threads: Vec<ThreadStats> = Vec::new();
        for (track, events) in &trace.tracks {
            if let TrackId::MemServer(_) = track {
                for serve in events.chunk_by(|a, b| a.at == b.at) {
                    tl.bucket_at(serve[0].at).server_busy_ns += costs.serve_ns(serve);
                }
                continue;
            }
            for e in events {
                match (track, &e.kind) {
                    (TrackId::Thread(_), kind) => {
                        let i = tl.index(e.at);
                        if threads.len() <= i {
                            threads.resize_with(i + 1, ThreadStats::default);
                        }
                        threads[i].count(kind);
                    }
                    (TrackId::Fabric, EventKind::FabricSend { bytes, .. }) => {
                        tl.bucket_at(e.at).fabric_bytes += bytes;
                    }
                    (_, EventKind::MgrServe { .. }) => {
                        tl.bucket_at(e.at).mgr_busy_ns += costs.serve_ns(std::slice::from_ref(e));
                    }
                    _ => {}
                }
            }
        }
        for (b, t) in tl.buckets.iter_mut().zip(&threads) {
            b.misses = t.line_misses;
            b.refetches = t.page_refetches;
            b.invalidations = t.invalidations;
            b.diff_bytes = t.diff_bytes_flushed;
            b.fine_bytes = t.fine_bytes_flushed;
            b.fetch_wait_ns = t.fetch_wait_ns;
            b.lock_wait_ns = t.lock_wait_ns;
            b.barrier_wait_ns = t.barrier_wait_ns;
        }
        tl
    }

    /// The index of the interval holding `at`, the timeline grown to it.
    fn index(&mut self, at: SimTime) -> usize {
        let idx = (at.as_ns() / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, TimelineBucket::default());
        }
        idx
    }

    fn bucket_at(&mut self, at: SimTime) -> &mut TimelineBucket {
        let idx = self.index(at);
        &mut self.buckets[idx]
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the timeline holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum of all buckets — must equal what the run report counted, which
    /// the tracing tests assert (conservation).
    pub fn totals(&self) -> TimelineBucket {
        let mut t = TimelineBucket::default();
        for b in &self.buckets {
            t.add(b);
        }
        t
    }

    /// The interval index maximizing `key`, with its value; `None` when the
    /// timeline is empty or every interval scores 0. Earliest interval wins
    /// ties (deterministic).
    pub fn peak_by(&self, key: impl Fn(&TimelineBucket) -> u64) -> Option<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (i, key(b)))
            .filter(|&(_, v)| v > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Serialize as a JSON object (`bucket_ns` + per-interval records).
    pub fn to_json(&self) -> String {
        let bucket = |b: &TimelineBucket| {
            JsonValue::object([
                ("misses", b.misses.into()),
                ("refetches", b.refetches.into()),
                ("invalidations", b.invalidations.into()),
                ("diff_bytes", b.diff_bytes.into()),
                ("fine_bytes", b.fine_bytes.into()),
                ("fabric_bytes", b.fabric_bytes.into()),
                ("fetch_wait_ns", b.fetch_wait_ns.into()),
                ("lock_wait_ns", b.lock_wait_ns.into()),
                ("barrier_wait_ns", b.barrier_wait_ns.into()),
                ("mgr_busy_ns", b.mgr_busy_ns.into()),
                ("server_busy_ns", b.server_busy_ns.into()),
            ])
        };
        JsonValue::object([
            ("bucket_ns", self.bucket_ns.into()),
            ("n_buckets", (self.buckets.len() as u64).into()),
            ("buckets", JsonValue::array(self.buckets.iter().map(bucket))),
        ])
        .to_string()
    }

    /// A compact human-readable digest: interval width and the peak
    /// intervals of the interesting series.
    pub fn summary(&self) -> String {
        if self.buckets.is_empty() {
            return "empty timeline".to_string();
        }
        let us = |i: usize| (i as u64 * self.bucket_ns) as f64 / 1000.0;
        let mut out =
            format!("{} x {:.1}us intervals", self.buckets.len(), self.bucket_ns as f64 / 1000.0);
        if let Some((i, v)) = self.peak_by(|b| b.misses + b.refetches) {
            out.push_str(&format!("; peak fetch activity {} @ {:.1}us", v, us(i)));
        }
        if let Some((i, v)) = self.peak_by(|b| b.fabric_bytes) {
            out.push_str(&format!("; peak fabric {}B @ {:.1}us", v, us(i)));
        }
        if let Some((i, v)) = self.peak_by(|b| b.server_busy_ns) {
            out.push_str(&format!(
                "; peak server busy {:.1}us @ {:.1}us",
                v as f64 / 1000.0,
                us(i)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FetchKind;

    fn costs() -> ServiceCosts {
        ServiceCosts { mgr_service_ns: 300, service: ServiceModel::default(), page_size: 1024 }
    }

    fn ev(at_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_ns(at_ns), kind }
    }

    #[test]
    fn buckets_by_completion_time() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(
                        500,
                        EventKind::Fetch {
                            page: 1,
                            pages: 2,
                            kind: FetchKind::Demand,
                            wait_ns: 400,
                        },
                    ),
                    ev(
                        1_500,
                        EventKind::Fetch {
                            page: 1,
                            pages: 1,
                            kind: FetchKind::Refetch,
                            wait_ns: 300,
                        },
                    ),
                    ev(1_600, EventKind::DiffFlush { page: 1, bytes: 64 }),
                ],
            ),
            (TrackId::Manager, vec![ev(900, EventKind::MgrServe { op: "acquire", tid: 0 })]),
            (
                TrackId::MemServer(0),
                vec![ev(
                    2_100,
                    EventKind::ServeFetch {
                        page: 1,
                        pages: 2,
                        reader: 0,
                        written: 2,
                        queued_ns: 0,
                    },
                )],
            ),
        ]);
        let tl = MetricsTimeline::from_trace(&trace, 1_000, &costs());
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.buckets[0].misses, 1);
        assert_eq!(tl.buckets[0].fetch_wait_ns, 400);
        assert_eq!(tl.buckets[0].mgr_busy_ns, 300);
        assert_eq!(tl.buckets[1].refetches, 1);
        assert_eq!(tl.buckets[1].diff_bytes, 64);
        // ServeFetch of 2 pages x 1 KiB: 400 + 2048*100/1024 = 600 ns.
        assert_eq!(tl.buckets[2].server_busy_ns, 600);
        let t = tl.totals();
        assert_eq!(t.misses, 1);
        assert_eq!(t.refetches, 1);
        assert_eq!(t.fetch_wait_ns, 700);
    }

    #[test]
    fn peaks_and_summary() {
        let trace = RunTrace::from_tracks(vec![(
            TrackId::Fabric,
            vec![
                ev(
                    100,
                    EventKind::FabricSend {
                        src: 0,
                        dst: 1,
                        class: samhita_scl::MsgClass::Data,
                        bytes: 10,
                    },
                ),
                ev(
                    2_500,
                    EventKind::FabricSend {
                        src: 0,
                        dst: 1,
                        class: samhita_scl::MsgClass::Data,
                        bytes: 99,
                    },
                ),
            ],
        )]);
        let tl = MetricsTimeline::from_trace(&trace, 1_000, &costs());
        assert_eq!(tl.peak_by(|b| b.fabric_bytes), Some((2, 99)));
        assert_eq!(tl.peak_by(|b| b.misses), None);
        assert!(tl.summary().contains("peak fabric 99B"));
        assert_eq!(MetricsTimeline::default().summary(), "empty timeline");
    }

    #[test]
    fn timeline_json_is_valid_and_round_trips_counts() {
        let trace = RunTrace::from_tracks(vec![(
            TrackId::Thread(0),
            vec![ev(10, EventKind::FineFlush { page: 3, bytes: 24 })],
        )]);
        let tl = MetricsTimeline::from_trace(&trace, 100, &costs());
        let json = tl.to_json();
        crate::json::validate_json(&json).expect("valid json");
        let v = crate::json::JsonValue::parse(&json).unwrap();
        assert_eq!(v.get("bucket_ns").and_then(|n| n.as_u64()), Some(100));
        let buckets = v.get("buckets").and_then(|b| b.as_array()).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("fine_bytes").and_then(|n| n.as_u64()), Some(24));
    }

    #[test]
    fn bucket_width_for_is_safe_on_degenerate_inputs() {
        assert_eq!(MetricsTimeline::bucket_width_for(0, 60), 1);
        assert_eq!(MetricsTimeline::bucket_width_for(600, 60), 10);
        assert_eq!(MetricsTimeline::bucket_width_for(601, 60), 11);
        assert_eq!(MetricsTimeline::bucket_width_for(100, 0), 100);
    }
}
