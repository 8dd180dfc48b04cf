//! Virtual-time critical-path extraction.
//!
//! The critical path of a run is the chain of causally-dependent intervals
//! whose lengths sum to the makespan: shorten anything *on* the path and
//! the run gets faster; shorten anything off it and nothing changes. This
//! module extracts the path from a recorded [`RunTrace`] by a **backward
//! zig-zag walk**: start at the end of the makespan-defining thread and
//! repeatedly ask "why was this thread busy at instant `t`?" —
//!
//! * inside a **fetch stall**, the blocker is the serving memory server:
//!   the tail `[done − service, done]` of the serve is server service time,
//!   the contiguous chain of abutting serves before it is **queue wait**,
//!   the remainder is wire/fetch time; the walk resumes at the stall start;
//! * inside a **lock stall**, the blocker is the previous holder: the walk
//!   jumps to the releasing thread at the release instant (the manager's
//!   serve tail and its queue chain are carved out first);
//! * inside a **barrier stall**, the blocker is the episode's **last
//!   arrival**: the walk jumps to that thread at its arrival instant;
//! * inside a **manager RPC stall**, the manager's serve tail and queue
//!   chain are carved out and the walk resumes at the stall start;
//! * everywhere else the thread was **computing** and the walk steps back
//!   to the previous stall.
//!
//! Every instant of `[epoch, end]` of the makespan thread's window is
//! attributed to exactly one class, so the class totals sum to the
//! makespan **exactly** — asserted by construction, tested at P∈{1,8,64}.
//! In bypass (local-sync) runs there are no manager serve events, so lock
//! and barrier stalls stay whole — the decomposition degrades gracefully.
//!
//! Extraction is post-hoc and purely observational: it can never perturb
//! a virtual clock, and its output is deterministic byte-for-byte.

use std::collections::HashMap;

use crate::event::{EventKind, TrackId};
use crate::json::JsonValue;
use crate::metrics::ServiceCosts;
use crate::span::ThreadWindow;
use crate::tracer::RunTrace;

/// Critical-path time classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathClass {
    /// Thread-local work (includes flush assembly).
    Compute,
    /// Fetch wire time (request/response in flight).
    Fetch,
    /// Waiting for a lock holder.
    LockWait,
    /// Waiting for barrier stragglers.
    BarrierWait,
    /// Manager RPC wire time.
    MgrWait,
    /// The manager serving the blocking request.
    MgrService,
    /// A memory server serving the blocking request.
    ServerService,
    /// The blocking request queued behind other requests at a service.
    QueueWait,
}

impl PathClass {
    /// Stable lowercase label, also the JSON key.
    pub fn label(&self) -> &'static str {
        match self {
            PathClass::Compute => "compute",
            PathClass::Fetch => "fetch",
            PathClass::LockWait => "lock-wait",
            PathClass::BarrierWait => "barrier-wait",
            PathClass::MgrWait => "mgr-wait",
            PathClass::MgrService => "mgr-service",
            PathClass::ServerService => "server-service",
            PathClass::QueueWait => "queue-wait",
        }
    }

    /// All classes, in report order.
    pub const ALL: [PathClass; 8] = [
        PathClass::Compute,
        PathClass::Fetch,
        PathClass::LockWait,
        PathClass::BarrierWait,
        PathClass::MgrWait,
        PathClass::MgrService,
        PathClass::ServerService,
        PathClass::QueueWait,
    ];
}

/// One attributed interval of the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// The thread whose timeline the walk was on.
    pub tid: u32,
    /// The attributed class.
    pub class: PathClass,
    /// Interval start, virtual ns.
    pub start_ns: u64,
    /// Interval end, virtual ns (`> start_ns`).
    pub end_ns: u64,
    /// Attribution: the page / lock / barrier / op the interval hung on
    /// (empty for compute).
    pub detail: String,
}

impl PathSegment {
    /// Segment length in virtual ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The extracted critical path of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// The makespan the walk covered, in virtual ns.
    pub makespan_ns: u64,
    /// The thread defining the makespan (where the walk started).
    pub tid: u32,
    /// Per-class totals, indexed like [`PathClass::ALL`]; they sum to
    /// `makespan_ns` exactly.
    pub class_ns: [u64; 8],
    /// The full path in time order (earliest first).
    pub segments: Vec<PathSegment>,
}

impl CriticalPathReport {
    /// Total attributed time — equals `makespan_ns` by construction.
    pub fn total_ns(&self) -> u64 {
        self.class_ns.iter().sum()
    }

    /// One class's total.
    pub fn class_total(&self, class: PathClass) -> u64 {
        self.class_ns[PathClass::ALL.iter().position(|c| *c == class).expect("ALL covers")]
    }

    /// The `k` longest segments, longest first (ties: earlier start, then
    /// lower tid — fully deterministic).
    pub fn top_segments(&self, k: usize) -> Vec<&PathSegment> {
        let mut v: Vec<&PathSegment> = self.segments.iter().collect();
        v.sort_by(|a, b| {
            b.len_ns().cmp(&a.len_ns()).then(a.start_ns.cmp(&b.start_ns)).then(a.tid.cmp(&b.tid))
        });
        v.truncate(k);
        v
    }

    /// Deterministic JSON: class totals plus the top-`k` segments.
    pub fn to_json(&self, k: usize) -> String {
        let segment = |s: &&PathSegment| {
            JsonValue::object([
                ("tid", u64::from(s.tid).into()),
                ("class", s.class.label().into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("detail", s.detail.as_str().into()),
            ])
        };
        let classes =
            PathClass::ALL.iter().zip(self.class_ns).map(|(c, ns)| (c.label(), ns.into()));
        JsonValue::object([
            ("makespan_ns", self.makespan_ns.into()),
            ("total_ns", self.total_ns().into()),
            ("tid", u64::from(self.tid).into()),
            ("classes", JsonValue::object(classes)),
            ("n_segments", (self.segments.len() as u64).into()),
            ("top_segments", JsonValue::array(self.top_segments(k).iter().map(segment))),
        ])
        .to_string()
    }

    /// Compact human-readable composition line.
    pub fn summary(&self) -> String {
        let mut out = format!("critical path {}ns:", self.makespan_ns);
        for (i, class) in PathClass::ALL.iter().enumerate() {
            let ns = self.class_ns[i];
            if ns == 0 {
                continue;
            }
            let pct = if self.makespan_ns > 0 {
                ns as f64 * 100.0 / self.makespan_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(" {} {:.1}%", class.label(), pct));
        }
        out
    }
}

/// A stall interval of one thread, from the trace.
#[derive(Clone, Copy, Debug)]
struct WaitIv {
    start: u64,
    end: u64,
    kind: WaitKind,
}

#[derive(Clone, Copy, Debug)]
enum WaitKind {
    Fetch { page: u64 },
    Lock { lock: u32 },
    Barrier { barrier: u32 },
    Mgr { op: &'static str },
}

/// One reconstructed service interval (manager or server):
/// `[start, done]`, with `chain_lo` the start of the maximal chain of
/// abutting serves ending at this one — the queue region a request served
/// at `done` waited through is `[chain_lo, start]`.
#[derive(Clone, Copy, Debug)]
struct Serve {
    start: u64,
    done: u64,
    chain_lo: u64,
}

/// Pre-indexed trace data the walk queries.
struct Index {
    /// tid → disjoint stall intervals, time-ordered.
    waits: HashMap<u32, Vec<WaitIv>>,
    /// lock → (release instant, releasing tid), time-ordered.
    releases: HashMap<u32, Vec<(u64, u32)>>,
    /// barrier → (arrival instant, arriving tid), time-ordered.
    arrivals: HashMap<u32, Vec<(u64, u32)>>,
    /// Manager serves, time-ordered by completion.
    mgr: Vec<Serve>,
    /// (tid, op) → indices into `mgr`, time-ordered.
    mgr_by: HashMap<(u32, &'static str), Vec<usize>>,
    /// Per-server serves, time-ordered by completion.
    servers: Vec<Vec<Serve>>,
    /// page → (done, server, index into that server's serves).
    fetch_by_page: HashMap<u64, Vec<(u64, usize, usize)>>,
}

fn chain(serves: &mut [Serve]) {
    for i in 0..serves.len() {
        serves[i].chain_lo = if i > 0 && serves[i - 1].done == serves[i].start {
            serves[i - 1].chain_lo
        } else {
            serves[i].start
        };
    }
}

impl Index {
    fn build(trace: &RunTrace, costs: &ServiceCosts) -> Index {
        let mut ix = Index {
            waits: HashMap::new(),
            releases: HashMap::new(),
            arrivals: HashMap::new(),
            mgr: Vec::new(),
            mgr_by: HashMap::new(),
            servers: Vec::new(),
            fetch_by_page: HashMap::new(),
        };
        for (track, events) in &trace.tracks {
            match track {
                TrackId::Thread(tid) => {
                    let waits = ix.waits.entry(*tid).or_default();
                    let mut cursor = 0u64;
                    for e in events {
                        match e.kind {
                            EventKind::LockRelease { lock } => {
                                ix.releases.entry(lock).or_default().push((e.at.as_ns(), *tid));
                            }
                            EventKind::BarrierArrive { barrier } => {
                                ix.arrivals.entry(barrier).or_default().push((e.at.as_ns(), *tid));
                            }
                            _ => {}
                        }
                        let Some(wait) = e.kind.wait_ns() else { continue };
                        if wait == 0 {
                            continue;
                        }
                        let kind = match e.kind {
                            EventKind::Fetch { page, .. } => WaitKind::Fetch { page },
                            EventKind::LockAcquire { lock, .. } => WaitKind::Lock { lock },
                            EventKind::BarrierRelease { barrier, .. } => {
                                WaitKind::Barrier { barrier }
                            }
                            EventKind::MgrRpc { op, .. } => WaitKind::Mgr { op },
                            _ => continue,
                        };
                        let end = e.at.as_ns();
                        let start = end.saturating_sub(wait).max(cursor);
                        if start < end {
                            waits.push(WaitIv { start, end, kind });
                            cursor = end;
                        }
                    }
                }
                TrackId::Manager | TrackId::MgrStandby => {
                    for e in events {
                        if let EventKind::MgrServe { op, tid } = e.kind {
                            let done = e.at.as_ns();
                            let idx = ix.mgr.len();
                            ix.mgr.push(Serve {
                                start: done.saturating_sub(costs.mgr_service_ns),
                                done,
                                chain_lo: 0,
                            });
                            ix.mgr_by.entry((tid, op)).or_default().push(idx);
                        }
                    }
                }
                TrackId::MemServer(s) => {
                    while ix.servers.len() <= *s as usize {
                        ix.servers.push(Vec::new());
                    }
                    let si = *s as usize;
                    let mut i = 0;
                    while i < events.len() {
                        let mut j = i;
                        let mut svc = 0u64;
                        let mut first_page = None;
                        while j < events.len() && events[j].at == events[i].at {
                            svc += match &events[j].kind {
                                EventKind::ServeFetch { page, pages } => {
                                    if first_page.is_none() {
                                        first_page = Some(*page);
                                    }
                                    costs.fetch_ns(u64::from(*pages) * costs.page_size)
                                }
                                EventKind::ApplyDiff { bytes, .. }
                                | EventKind::ApplyFine { bytes, .. } => costs.apply_ns(*bytes),
                                EventKind::ServeWrite { .. } => costs.apply_ns(costs.page_size),
                                _ => 0,
                            };
                            j += 1;
                        }
                        let done = events[i].at.as_ns();
                        let idx = ix.servers[si].len();
                        ix.servers[si].push(Serve {
                            start: done.saturating_sub(svc),
                            done,
                            chain_lo: 0,
                        });
                        if let Some(p) = first_page {
                            ix.fetch_by_page.entry(p).or_default().push((done, si, idx));
                        }
                        i = j;
                    }
                }
                TrackId::Fabric => {}
            }
        }
        chain(&mut ix.mgr);
        for s in &mut ix.servers {
            chain(s);
        }
        for v in ix.fetch_by_page.values_mut() {
            v.sort();
        }
        // Release/arrival lists are appended track by track: time-sorted
        // within each thread but interleaved across threads. The walk
        // binary-searches them, so sort globally by instant.
        for v in ix.releases.values_mut() {
            v.sort();
        }
        for v in ix.arrivals.values_mut() {
            v.sort();
        }
        ix
    }

    /// Latest manager serve for `(tid, op)` completing at or before `t`.
    fn mgr_serve_before(&self, tid: u32, op: &'static str, t: u64) -> Option<Serve> {
        let list = self.mgr_by.get(&(tid, op))?;
        let idx = list.partition_point(|&i| self.mgr[i].done <= t);
        if idx == 0 {
            None
        } else {
            Some(self.mgr[list[idx - 1]])
        }
    }

    /// Latest serve of `page` completing at or before `t`.
    fn fetch_serve_before(&self, page: u64, t: u64) -> Option<Serve> {
        let list = self.fetch_by_page.get(&page)?;
        let idx = list.partition_point(|&(done, _, _)| done <= t);
        if idx == 0 {
            return None;
        }
        let (_, s, i) = list[idx - 1];
        Some(self.servers[s][i])
    }
}

/// Extract the critical path. `windows` are the run report's per-thread
/// measured windows; the walk covers the makespan-defining window exactly.
pub fn critical_path(
    trace: &RunTrace,
    windows: &[ThreadWindow],
    costs: &ServiceCosts,
) -> CriticalPathReport {
    let _prof = samhita_prof::enter(samhita_prof::Phase::SpanGraph);
    let Some(w) = windows.iter().max_by_key(|w| (w.end_ns - w.epoch_ns, w.tid)) else {
        return CriticalPathReport::default();
    };
    let ix = Index::build(trace, costs);
    let floor = w.epoch_ns;
    let mut report = CriticalPathReport {
        makespan_ns: w.end_ns - w.epoch_ns,
        tid: w.tid,
        ..CriticalPathReport::default()
    };
    let mut segs: Vec<PathSegment> = Vec::new(); // backwards; reversed at the end
    let mut t = w.end_ns;
    let mut tid = w.tid;
    let empty: Vec<WaitIv> = Vec::new();

    while t > floor {
        let waits = ix.waits.get(&tid).unwrap_or(&empty);
        // The stall containing t (start < t <= end), if any.
        let idx = waits.partition_point(|iv| iv.end < t);
        let active = waits.get(idx).filter(|iv| iv.start < t && iv.end >= t).copied();
        let Some(iv) = active else {
            // Compute back to the previous stall's end (or the floor).
            let prev_end = if idx > 0 { waits[idx - 1].end } else { floor };
            let next = prev_end.clamp(floor, t - 1).max(floor);
            // `next < t`: prev_end < t by partition, floor < t by the loop.
            segs.push(PathSegment {
                tid,
                class: PathClass::Compute,
                start_ns: next,
                end_ns: t,
                detail: String::new(),
            });
            t = next;
            continue;
        };
        let s = iv.start.max(floor);
        // Resolve the blocker: (next_t, next_tid, cuts). `cuts` are
        // (boundary, class, detail) pieces covering (next_t, t] backwards:
        // piece i spans (cuts[i].0 clamped, previous boundary].
        let (next_t, next_tid, pieces) = step(&ix, tid, s, t, iv);
        debug_assert!(next_t < t && next_t >= floor.min(t));
        let mut hi = t;
        for (lo, class, detail) in pieces {
            let lo = lo.clamp(next_t, hi);
            if lo < hi {
                segs.push(PathSegment { tid, class, start_ns: lo, end_ns: hi, detail });
                hi = lo;
            }
        }
        debug_assert_eq!(hi, next_t, "pieces must tile (next_t, t]");
        t = next_t.max(floor);
        tid = next_tid;
    }

    segs.reverse();
    for seg in &segs {
        let i = PathClass::ALL.iter().position(|c| *c == seg.class).expect("ALL covers");
        report.class_ns[i] += seg.len_ns();
    }
    report.segments = segs;
    assert_eq!(
        report.total_ns(),
        report.makespan_ns,
        "critical-path attribution must tile the makespan exactly"
    );
    report
}

type Pieces = Vec<(u64, PathClass, String)>;

/// Classify the stall `iv` (clamped to `(s, t]`) and pick the walk's next
/// position. Returns `(next_t, next_tid, pieces)`; pieces are emitted
/// high-to-low, their boundaries clamped by the caller, and must reach
/// `next_t`. `next_t < t` is guaranteed (strict progress).
fn step(ix: &Index, tid: u32, s: u64, t: u64, iv: WaitIv) -> (u64, u32, Pieces) {
    match iv.kind {
        WaitKind::Fetch { page } => {
            let detail = format!("page {page}");
            let mut pieces: Pieces = Vec::new();
            if let Some(serve) = ix.fetch_serve_before(page, t) {
                // Wire tail, serve, queue chain, then request wire.
                pieces.push((serve.done, PathClass::Fetch, detail.clone()));
                pieces.push((serve.start, PathClass::ServerService, detail.clone()));
                pieces.push((
                    serve.chain_lo,
                    PathClass::QueueWait,
                    format!("server queue (page {page})"),
                ));
            }
            pieces.push((s, PathClass::Fetch, detail));
            (s, tid, pieces)
        }
        WaitKind::Mgr { op } => {
            let detail = format!("op {op}");
            let mut pieces: Pieces = Vec::new();
            if let Some(serve) = ix.mgr_serve_before(tid, op, t) {
                pieces.push((serve.done, PathClass::MgrWait, detail.clone()));
                pieces.push((serve.start, PathClass::MgrService, detail.clone()));
                pieces.push((serve.chain_lo, PathClass::QueueWait, format!("mgr queue (op {op})")));
            }
            pieces.push((s, PathClass::MgrWait, detail));
            (s, tid, pieces)
        }
        WaitKind::Lock { lock } => {
            let detail = format!("lock {lock}");
            // The latest release at or before the grant, if it falls inside
            // this stall, is the blocker: jump to the releaser.
            let rel = ix.releases.get(&lock).and_then(|rels| {
                let idx = rels.partition_point(|&(at, _)| at <= t);
                (idx > 0).then(|| rels[idx - 1])
            });
            let mut pieces: Pieces = Vec::new();
            match rel {
                Some((r, rtid)) if r > s && r < t => {
                    // Contended: the grant rode the releaser's `release`
                    // serve — carve its manager tail out of (r, t].
                    if let Some(serve) = ix.mgr_serve_before(rtid, "release", t) {
                        if serve.done >= r {
                            pieces.push((serve.done, PathClass::LockWait, detail.clone()));
                            pieces.push((serve.start, PathClass::MgrService, detail.clone()));
                            pieces.push((
                                serve.chain_lo,
                                PathClass::QueueWait,
                                format!("mgr queue (lock {lock})"),
                            ));
                        }
                    }
                    pieces.push((r, PathClass::LockWait, detail));
                    (r, rtid, pieces)
                }
                _ => {
                    // Uncontended (or bypass mode): pure round-trip — carve
                    // out our own `acquire` serve if the manager traced one.
                    if let Some(serve) = ix.mgr_serve_before(tid, "acquire", t) {
                        pieces.push((serve.done, PathClass::LockWait, detail.clone()));
                        pieces.push((serve.start, PathClass::MgrService, detail.clone()));
                        pieces.push((
                            serve.chain_lo,
                            PathClass::QueueWait,
                            format!("mgr queue (lock {lock})"),
                        ));
                    }
                    pieces.push((s, PathClass::LockWait, detail));
                    (s, tid, pieces)
                }
            }
        }
        WaitKind::Barrier { barrier } => {
            let detail = format!("barrier {barrier}");
            // The episode's last arrival (latest arrival before the
            // release) is the blocker.
            let arr = ix.arrivals.get(&barrier).and_then(|arrs| {
                let idx = arrs.partition_point(|&(at, _)| at <= t);
                (idx > 0).then(|| arrs[idx - 1])
            });
            let mut pieces: Pieces = Vec::new();
            let (jump, jtid) = match arr {
                Some((a, atid)) if a > s && a < t => (a, atid),
                _ => (s, tid),
            };
            // The release rode the last arrival's `barrier-wait` serve.
            if let Some((a, atid)) = arr {
                if let Some(serve) = ix.mgr_serve_before(atid, "barrier-wait", t) {
                    if serve.done >= a.max(s) {
                        pieces.push((serve.done, PathClass::BarrierWait, detail.clone()));
                        pieces.push((serve.start, PathClass::MgrService, detail.clone()));
                        pieces.push((
                            serve.chain_lo,
                            PathClass::QueueWait,
                            format!("mgr queue (barrier {barrier})"),
                        ));
                    }
                }
            }
            pieces.push((jump, PathClass::BarrierWait, detail));
            (jump, jtid, pieces)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use samhita_scl::SimTime;

    fn costs() -> ServiceCosts {
        ServiceCosts {
            mgr_service_ns: 300,
            fetch_base_ns: 400,
            apply_base_ns: 150,
            per_kib_ns: 100,
            page_size: 1024,
        }
    }

    fn ev(at_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_ns(at_ns), kind }
    }

    /// A pure-compute thread: the whole path is compute and the totals
    /// tile the makespan exactly.
    #[test]
    fn compute_only_path_is_exact() {
        let trace = RunTrace::from_tracks(vec![(TrackId::Thread(0), vec![])]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 100, end_ns: 5_100 }];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.makespan_ns, 5_000);
        assert_eq!(r.total_ns(), 5_000);
        assert_eq!(r.class_total(PathClass::Compute), 5_000);
        assert_eq!(r.segments.len(), 1);
    }

    /// A lock stall jumps to the releaser; its compute before the release
    /// lands on the path.
    #[test]
    fn lock_stall_jumps_to_releaser() {
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(4_000, EventKind::LockRelease { lock: 0 })]),
            (
                TrackId::Thread(1),
                vec![ev(4_500, EventKind::LockAcquire { lock: 0, wait_ns: 3_500 })],
            ),
        ]);
        let windows = [
            ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 4_100 },
            ThreadWindow { tid: 1, epoch_ns: 0, end_ns: 5_000 },
        ];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.tid, 1);
        assert_eq!(r.total_ns(), 5_000);
        // Path: t1 compute (5000..4500], lock wait (4000..4500] (no manager
        // events), then t0 compute (0..4000].
        assert_eq!(r.class_total(PathClass::LockWait), 500);
        assert_eq!(r.class_total(PathClass::Compute), 4_500);
        let tids: Vec<u32> = r.segments.iter().map(|s| s.tid).collect();
        assert!(tids.contains(&0), "releaser's compute must be on the path");
    }

    /// A fetch stall decomposes into wire, server service, and queue wait
    /// when the serve chain abuts an earlier serve.
    #[test]
    fn fetch_stall_decomposes_service_and_queue() {
        // Two serves back to back: [700,1200] (other) and [1200,1700] (ours,
        // page 7) — queue region [700,1200], service [1200,1700], wire tail
        // (1700..2000].
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![ev(
                    2_000,
                    EventKind::Fetch {
                        page: 7,
                        pages: 1,
                        kind: crate::event::FetchKind::Demand,
                        wait_ns: 1_500,
                    },
                )],
            ),
            (
                TrackId::MemServer(0),
                vec![
                    ev(1_200, EventKind::ServeFetch { page: 3, pages: 1 }),
                    ev(1_700, EventKind::ServeFetch { page: 7, pages: 1 }),
                ],
            ),
        ]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 2_000 }];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 2_000);
        assert_eq!(r.class_total(PathClass::ServerService), 500);
        assert_eq!(r.class_total(PathClass::QueueWait), 500);
        assert_eq!(r.class_total(PathClass::Fetch), 500); // 300 wire + 200 request
        assert_eq!(r.class_total(PathClass::Compute), 500);
        let json = r.to_json(5);
        crate::json::validate_json(&json).expect("valid json");
        assert!(json.contains("\"queue-wait\":500"));
    }

    /// A barrier stall jumps to the last arrival.
    #[test]
    fn barrier_stall_jumps_to_last_arrival() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(1_000, EventKind::BarrierArrive { barrier: 0 }),
                    ev(4_000, EventKind::BarrierRelease { barrier: 0, wait_ns: 3_000 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(3_800, EventKind::BarrierArrive { barrier: 0 }),
                    ev(4_000, EventKind::BarrierRelease { barrier: 0, wait_ns: 200 }),
                ],
            ),
        ]);
        let windows = [
            ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 4_200 },
            ThreadWindow { tid: 1, epoch_ns: 0, end_ns: 4_200 },
        ];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 4_200);
        // The straggler (t1) computes until 3800; barrier wait covers
        // (3800..4000] on whichever thread the walk started from.
        assert_eq!(r.class_total(PathClass::BarrierWait), 200);
        assert_eq!(r.class_total(PathClass::Compute), 4_000);
        assert!(r.segments.iter().any(|s| s.tid == 1 && s.class == PathClass::Compute));
    }

    /// Report JSON is byte-identical across two extractions.
    #[test]
    fn extraction_is_deterministic() {
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(1_000, EventKind::LockAcquire { lock: 0, wait_ns: 400 }),
                    ev(2_000, EventKind::LockRelease { lock: 0 }),
                ],
            ),
            (TrackId::Manager, vec![ev(900, EventKind::MgrServe { op: "acquire", tid: 0 })]),
        ]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 2_500 }];
        let a = critical_path(&trace, &windows, &costs()).to_json(10);
        let b = critical_path(&trace, &windows, &costs()).to_json(10);
        assert_eq!(a, b);
    }
}
