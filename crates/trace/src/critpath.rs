//! Virtual-time critical-path extraction, and the causal index behind it.
//!
//! `Index` is the crate's one post-hoc causal derivation of a [`RunTrace`]:
//! each thread's stalls tiled from the events' `wait_ns` intervals, manager
//! and memory-server serves reconstructed from serve events and the
//! service-cost model (each with the queue chain it ended), and the lock
//! release / barrier arrival tables. Its one query, `Index::blocker`,
//! answers "why did this stall end when it did?" with the serve the stall
//! rode and the `(thread, instant)` it was really waiting on. It has two
//! readers: the walk below cuts its segments at the blocker's boundaries,
//! and the causal Chrome export ([`RunTrace::to_chrome_json_with`]) draws
//! the same serves as slices and the same hops as flow arrows — so the
//! picture comes from the derivation the exact-tiling assertion holds to
//! account, not from a second one.
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
//!   the time its request was at the home before that (held behind the
//!   batches it named, then queued) is **queue wait** — from the stall's
//!   start when the request got there first, as a late prefetch's does —
//!   the remainder is wire/fetch time; the walk resumes at the stall start;
//! * inside a **lock stall**, the blocker is the previous holder: the walk
//!   jumps to the releasing thread at the release instant (the manager's
//!   serve tail and its queue chain are carved out first — unless the
//!   holder handed the lock over itself, when there is no serve to carve);
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
//!
//! Extraction is post-hoc and purely observational: it can never perturb
//! a virtual clock, and its output is deterministic byte-for-byte.

use std::collections::HashMap;
use std::fmt;

use crate::event::{EventKind, TraceEvent, TrackId};
use crate::json::JsonValue;
use crate::metrics::ServiceCosts;
use crate::tracer::RunTrace;

/// One thread's measured window, from the run report
/// (`ThreadStats::{epoch_ns, end_ns}`). Compute time is the *gaps* between
/// stalls, so only the report knows where a thread's timeline begins and
/// ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadWindow {
    /// The thread id (matching `TrackId::Thread`).
    pub tid: u32,
    /// Virtual time the thread's measured interval began.
    pub epoch_ns: u64,
    /// Virtual time the thread's measured interval ended.
    pub end_ns: u64,
}

/// Critical-path time classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathClass {
    /// Thread-local work, including a synchronization's flush: diffing,
    /// staging and sending its update batches, none of which is waited for.
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

/// What a path segment hung on. `Display` is the report's `detail` string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detail {
    /// Nothing specific (compute).
    None,
    /// Fetching this page.
    Page(u64),
    /// Queued at the memory server behind other requests, fetching this page.
    ServerQueue(u64),
    /// A non-sync manager RPC, by op label.
    Op(&'static str),
    /// Queued at the manager behind other requests, for this RPC.
    MgrQueueOp(&'static str),
    /// This lock, granted by the manager with no holder in the way.
    Lock(u32),
    /// This lock, handed over by its releaser: a baton link, one hop.
    LockBaton(u32),
    /// This lock, released through the manager, which granted it: a
    /// fallback link, two hops and the manager's service.
    LockFallback(u32),
    /// Queued at the manager behind other requests, for this lock's grant.
    MgrQueueLock(u32),
    /// This barrier.
    Barrier(u32),
    /// Queued at the manager behind other requests, for this barrier's
    /// release.
    MgrQueueBarrier(u32),
}

impl Detail {
    /// The page a fetch or server-queue segment hung on.
    pub fn page(&self) -> Option<u64> {
        match *self {
            Detail::Page(page) | Detail::ServerQueue(page) => Some(page),
            _ => None,
        }
    }

    /// The same attribution while queued at its service.
    fn queued(self) -> Detail {
        match self {
            Detail::Page(page) => Detail::ServerQueue(page),
            Detail::Op(op) => Detail::MgrQueueOp(op),
            Detail::Lock(lock) | Detail::LockFallback(lock) => Detail::MgrQueueLock(lock),
            Detail::Barrier(barrier) => Detail::MgrQueueBarrier(barrier),
            other => other,
        }
    }
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Detail::None => Ok(()),
            Detail::Page(page) => write!(f, "page {page}"),
            Detail::ServerQueue(page) => write!(f, "server queue (page {page})"),
            Detail::Op(op) => write!(f, "op {op}"),
            Detail::MgrQueueOp(op) => write!(f, "mgr queue (op {op})"),
            Detail::Lock(lock) => write!(f, "lock {lock}"),
            Detail::LockBaton(lock) => write!(f, "lock {lock} baton"),
            Detail::LockFallback(lock) => write!(f, "lock {lock} fallback"),
            Detail::MgrQueueLock(lock) => write!(f, "mgr queue (lock {lock})"),
            Detail::Barrier(barrier) => write!(f, "barrier {barrier}"),
            Detail::MgrQueueBarrier(barrier) => write!(f, "mgr queue (barrier {barrier})"),
        }
    }
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
    /// Attribution: the page / lock / barrier / op the interval hung on.
    pub detail: Detail,
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
                ("detail", s.detail.to_string().into()),
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

    /// The lock hand-offs the path went through: `(batons, fallbacks)`. A
    /// baton link is one lock-wait segment; a fallback link carves the
    /// manager's service, once.
    pub fn lock_links(&self) -> (usize, usize) {
        let count = |class: PathClass, detail: fn(&Detail) -> bool| {
            self.segments.iter().filter(|s| s.class == class && detail(&s.detail)).count()
        };
        (
            count(PathClass::LockWait, |d| matches!(d, Detail::LockBaton(_))),
            count(PathClass::MgrService, |d| matches!(d, Detail::LockFallback(_))),
        )
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
pub(crate) struct Stall {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) kind: WaitKind,
}

/// What a stall waited for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WaitKind {
    Fetch { page: u64 },
    Lock { lock: u32 },
    Barrier { barrier: u32 },
    Mgr { op: &'static str },
}

impl WaitKind {
    /// The class of the stall's own (non-service, non-queue) time.
    pub(crate) fn class(self) -> PathClass {
        match self {
            WaitKind::Fetch { .. } => PathClass::Fetch,
            WaitKind::Lock { .. } => PathClass::LockWait,
            WaitKind::Barrier { .. } => PathClass::BarrierWait,
            WaitKind::Mgr { .. } => PathClass::MgrWait,
        }
    }
}

/// One reconstructed service interval (manager or server):
/// `[start, done]`, with `chain_lo` where the request served at `done`
/// began to wait at the service: for a manager serve the start of the
/// maximal chain of abutting serves ending at this one, for a fetch the
/// instant its request reached the home, which its serve event records.
/// The request's queue region is `[chain_lo, start]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Serve<'a> {
    pub(crate) track: TrackId,
    pub(crate) start: u64,
    pub(crate) done: u64,
    chain_lo: u64,
    /// The event that says what was served: the manager's serve event, or
    /// the first fetch of a memory-server request (its first event when it
    /// fetched nothing).
    pub(crate) label: &'a EventKind,
}

impl Serve<'_> {
    /// The class of time spent inside this serve.
    pub(crate) fn class(&self) -> PathClass {
        match self.track {
            TrackId::MemServer(_) => PathClass::ServerService,
            _ => PathClass::MgrService,
        }
    }
}

/// Why a stall ended when it did — the answer to [`Index::blocker`].
pub(crate) struct Blocker<'a> {
    /// The manager or server serve whose completion the stall rode, when
    /// the trace recorded one.
    pub(crate) serve: Option<Serve<'a>>,
    /// The thread whose progress the stall was waiting on: the lock's
    /// releaser, the barrier's last arrival, or the stalled thread itself.
    pub(crate) tid: u32,
    /// The instant on `tid` the wait hung on (the release, the arrival, or
    /// the stall's own start); always inside `[stall.start, stall.end)`.
    pub(crate) at: u64,
    /// What the stall hung on, as the path reports it.
    pub(crate) detail: Detail,
}

/// The one post-hoc causal derivation of a trace; see the module docs.
pub(crate) struct Index<'a> {
    /// tid → disjoint stall intervals, time-ordered.
    waits: HashMap<u32, Vec<Stall>>,
    /// lock → (release instant, releasing tid), time-ordered.
    releases: HashMap<u32, Vec<(u64, u32)>>,
    /// (barrier, tid) → that thread's arrival instants, time-ordered: its
    /// k-th arrival belongs to episode k.
    arrivals: HashMap<(u32, u32), Vec<u64>>,
    /// barrier → per episode, its last arrival (instant, tid).
    last_arrivals: HashMap<u32, Vec<(u64, u32)>>,
    /// Manager serves, time-ordered by completion.
    mgr: Vec<Serve<'a>>,
    /// (tid, op) → indices into `mgr`, time-ordered.
    mgr_by: HashMap<(u32, &'static str), Vec<usize>>,
    /// Per-server serves, time-ordered by completion.
    servers: Vec<Vec<Serve<'a>>>,
    /// (reader, first page) → its fetches' serves, time-ordered.
    fetch_by: HashMap<(u32, u64), Vec<FetchServe>>,
}

/// One fetch serve: (done, server, index into that server's serves).
type FetchServe = (u64, usize, usize);

fn chain(serves: &mut [Serve<'_>]) {
    for i in 0..serves.len() {
        serves[i].chain_lo = if i > 0 && serves[i - 1].done == serves[i].start {
            serves[i - 1].chain_lo
        } else {
            serves[i].start
        };
    }
}

/// The latest entry of a time-sorted `(instant, tid)` table at or before `t`.
fn latest(table: Option<&Vec<(u64, u32)>>, t: u64) -> Option<(u64, u32)> {
    let table = table?;
    table[..table.partition_point(|&(at, _)| at <= t)].last().copied()
}

impl<'a> Index<'a> {
    pub(crate) fn build(trace: &'a RunTrace, costs: &ServiceCosts) -> Index<'a> {
        let mut ix = Index {
            waits: HashMap::new(),
            releases: HashMap::new(),
            arrivals: HashMap::new(),
            last_arrivals: HashMap::new(),
            mgr: Vec::new(),
            mgr_by: HashMap::new(),
            servers: Vec::new(),
            fetch_by: HashMap::new(),
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
                                let own = ix.arrivals.entry((barrier, *tid)).or_default();
                                let episode = own.len();
                                own.push(e.at.as_ns());
                                let last = ix.last_arrivals.entry(barrier).or_default();
                                if last.len() == episode {
                                    last.push((0, 0));
                                }
                                last[episode] = last[episode].max((e.at.as_ns(), *tid));
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
                            waits.push(Stall { start, end, kind });
                            cursor = end;
                        }
                    }
                }
                TrackId::Manager | TrackId::MgrStandby => {
                    for e in events {
                        if let EventKind::MgrServe { op, tid } = e.kind {
                            let done = e.at.as_ns();
                            ix.mgr_by.entry((tid, op)).or_default().push(ix.mgr.len());
                            ix.mgr.push(Serve {
                                track: *track,
                                start: done.saturating_sub(costs.serve_ns(std::slice::from_ref(e))),
                                done,
                                chain_lo: 0,
                                label: &e.kind,
                            });
                        }
                    }
                }
                TrackId::MemServer(s) => {
                    let si = *s as usize;
                    if ix.servers.len() <= si {
                        ix.servers.resize(si + 1, Vec::new());
                    }
                    // Events of one request share a completion stamp; each
                    // stamp-group is one serve, labelled by its first fetch.
                    for group in events.chunk_by(|a, b| a.at == b.at) {
                        let done = group[0].at.as_ns();
                        let svc = costs.serve_ns(group);
                        let fetch =
                            |e: &&TraceEvent| matches!(e.kind, EventKind::ServeFetch { .. });
                        let label = &group.iter().find(fetch).unwrap_or(&group[0]).kind;
                        let start = done.saturating_sub(svc);
                        let mut chain_lo = start;
                        if let EventKind::ServeFetch { page, reader, queued_ns, .. } = *label {
                            let at = (done, si, ix.servers[si].len());
                            ix.fetch_by.entry((reader, page)).or_default().push(at);
                            chain_lo = start.saturating_sub(queued_ns);
                        }
                        ix.servers[si].push(Serve { track: *track, start, done, chain_lo, label });
                    }
                }
                TrackId::Fabric => {}
            }
        }
        chain(&mut ix.mgr);
        for v in ix.fetch_by.values_mut() {
            v.sort();
        }
        // Release lists are appended track by track: time-sorted within
        // each thread but interleaved across threads. The queries
        // binary-search them, so sort globally by instant.
        for v in ix.releases.values_mut() {
            v.sort();
        }
        ix
    }

    /// One thread's stalls, time-ordered and disjoint.
    pub(crate) fn stalls(&self, tid: u32) -> &[Stall] {
        self.waits.get(&tid).map_or(&[], Vec::as_slice)
    }

    /// Every reconstructed serve: the manager's, then each server's.
    pub(crate) fn serves(&self) -> impl Iterator<Item = &Serve<'a>> {
        self.mgr.iter().chain(self.servers.iter().flatten())
    }

    /// Latest manager serve for `(tid, op)` completing at or before `t`.
    fn mgr_serve_before(&self, tid: u32, op: &'static str, t: u64) -> Option<Serve<'a>> {
        let list = self.mgr_by.get(&(tid, op))?;
        let idx = list.partition_point(|&i| self.mgr[i].done <= t);
        Some(self.mgr[list[idx.checked_sub(1)?]])
    }

    /// Latest serve of `reader`'s fetch from `page` completing at or before
    /// `t`.
    fn fetch_serve_before(&self, reader: u32, page: u64, t: u64) -> Option<Serve<'a>> {
        let list = self.fetch_by.get(&(reader, page))?;
        let idx = list.partition_point(|&(done, _, _)| done <= t);
        let (_, s, i) = list[idx.checked_sub(1)?];
        Some(self.servers[s][i])
    }

    /// Why `tid`'s `stall` ended when it did: the `(thread, instant)` it
    /// was really waiting on, and the serve it rode — one that completed
    /// inside `(at, stall.end]`; an earlier one (a prefetch served before
    /// the stall began) carried none of the stall's time. `stall` may be
    /// clipped to the part a caller is looking at: the walk enters stalls
    /// mid-way, the export clips them to the thread's window.
    pub(crate) fn blocker(&self, tid: u32, stall: &Stall) -> Blocker<'a> {
        let (s, t) = (stall.start, stall.end);
        let (serve, tid, at, detail) = match stall.kind {
            WaitKind::Fetch { page } => {
                (self.fetch_serve_before(tid, page, t), tid, s, Detail::Page(page))
            }
            WaitKind::Mgr { op } => (self.mgr_serve_before(tid, op, t), tid, s, Detail::Op(op)),
            // The latest release at or before the grant is the blocker, if
            // it falls inside the stall.
            WaitKind::Lock { lock } => match latest(self.releases.get(&lock), t) {
                // Contended: the grant rode the releaser's `release` serve
                // — or nothing, when the releaser handed the lock over
                // itself (its serve is a `handoff`, logged off the path).
                Some((r, rtid)) if r > s && r < t => {
                    match self.mgr_serve_before(rtid, "release", t).filter(|sv| sv.done > r) {
                        Some(sv) => (Some(sv), rtid, r, Detail::LockFallback(lock)),
                        None => (None, rtid, r, Detail::LockBaton(lock)),
                    }
                }
                // Uncontended: a pure round trip — our own `acquire` serve.
                _ => (self.mgr_serve_before(tid, "acquire", t), tid, s, Detail::Lock(lock)),
            },
            // The last arrival of the stalled thread's own episode — the
            // one its latest arrival at or before the stall began — is the
            // blocker, if it falls inside the stall (an arrival at the next
            // episode may share the release's instant); the release rode
            // that arrival's `barrier-wait` serve.
            WaitKind::Barrier { barrier } => {
                let own = self.arrivals.get(&(barrier, tid)).map_or(&[][..], Vec::as_slice);
                let episode = own.partition_point(|&at| at <= s).checked_sub(1);
                let last = self.last_arrivals.get(&barrier);
                let arr = episode.and_then(|k| last.and_then(|last| last.get(k)).copied());
                let serve = arr.and_then(|(a, atid)| {
                    self.mgr_serve_before(atid, "barrier-wait", t).filter(|sv| sv.done >= a)
                });
                match arr {
                    Some((a, atid)) if a > s && a < t => (serve, atid, a, Detail::Barrier(barrier)),
                    _ => (serve, tid, s, Detail::Barrier(barrier)),
                }
            }
        };
        Blocker { serve: serve.filter(|sv| sv.done > at), tid, at, detail }
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

    while t > floor {
        let stalls = ix.stalls(tid);
        // The stall containing t (start < t <= end), if any.
        let idx = stalls.partition_point(|iv| iv.end < t);
        let Some(iv) = stalls.get(idx).filter(|iv| iv.start < t && iv.end >= t) else {
            // Compute back to the previous stall's end (or the floor).
            let prev_end = if idx > 0 { stalls[idx - 1].end } else { floor };
            let next = prev_end.clamp(floor, t - 1).max(floor);
            // `next < t`: prev_end < t by partition, floor < t by the loop.
            segs.push(PathSegment {
                tid,
                class: PathClass::Compute,
                start_ns: next,
                end_ns: t,
                detail: Detail::None,
            });
            t = next;
            continue;
        };
        // The part of the stall the walk is in, `(s, t]`, and why it ended.
        let b = ix.blocker(tid, &Stall { start: iv.start.max(floor), end: t, kind: iv.kind });
        debug_assert!(floor <= b.at && b.at < t, "the walk makes strict progress");
        // Cut `(b.at, t]` backwards at the blocker's boundaries: response
        // wire, service, the queue chain before it, then the wait on the
        // blocker itself. A boundary outside the interval clamps away.
        let (class, detail) = (iv.kind.class(), b.detail);
        let mut hi = t;
        let mut cut = |lo: u64, class: PathClass, detail: Detail| {
            let lo = lo.clamp(b.at, hi);
            if lo < hi {
                segs.push(PathSegment { tid, class, start_ns: lo, end_ns: hi, detail });
                hi = lo;
            }
        };
        if let Some(serve) = b.serve {
            cut(serve.done, class, detail);
            cut(serve.start, serve.class(), detail);
            cut(serve.chain_lo, PathClass::QueueWait, detail.queued());
        }
        cut(b.at, class, detail);
        (t, tid) = (b.at, b.tid);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use samhita_scl::{ServiceModel, SimTime};

    fn costs() -> ServiceCosts {
        ServiceCosts { mgr_service_ns: 300, service: ServiceModel::default(), page_size: 1024 }
    }

    fn ev(at_ns: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { at: SimTime::from_ns(at_ns), kind }
    }

    /// A one-page fetch of a written `page` served to `reader`, its request
    /// at the home for `queued_ns` before service began.
    fn served(page: u64, reader: u32, queued_ns: u64) -> EventKind {
        EventKind::ServeFetch { page, pages: 1, reader, written: 1, queued_ns }
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

    /// A lock stall that a released grant ended rides the releaser's
    /// `release` serve; one the releaser ended itself, handing the lock
    /// over, rides none — its `handoff` serve only logs what happened — so
    /// the whole of `(release, grant]` is lock-wait wire.
    #[test]
    fn a_handed_over_lock_carves_no_manager_service() {
        let path = |op: &'static str| {
            let trace = RunTrace::from_tracks(vec![
                (TrackId::Thread(0), vec![ev(2_000, EventKind::LockRelease { lock: 0 })]),
                (
                    TrackId::Thread(1),
                    vec![ev(2_400, EventKind::LockAcquire { lock: 0, wait_ns: 2_000 })],
                ),
                (TrackId::Manager, vec![ev(2_300, EventKind::MgrServe { op, tid: 0 })]),
            ]);
            let windows = [
                ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 2_100 },
                ThreadWindow { tid: 1, epoch_ns: 0, end_ns: 3_000 },
            ];
            critical_path(&trace, &windows, &costs())
        };
        let through_the_manager = path("release");
        assert_eq!(through_the_manager.class_total(PathClass::MgrService), 300);
        assert_eq!(through_the_manager.class_total(PathClass::LockWait), 100);
        assert_eq!(through_the_manager.lock_links(), (0, 1));
        let fallback =
            through_the_manager.segments.iter().filter(|s| s.class != PathClass::Compute);
        assert!(fallback.clone().all(|s| s.detail == Detail::LockFallback(0)), "{fallback:?}");
        let handed = path("handoff");
        assert_eq!(handed.total_ns(), 3_000);
        assert_eq!(handed.class_total(PathClass::MgrService), 0);
        assert_eq!(handed.class_total(PathClass::LockWait), 400);
        assert_eq!(handed.class_total(PathClass::Compute), 2_600);
        assert!(handed.segments.iter().any(|s| s.tid == 0), "the walk jumps to the releaser");
        assert_eq!(handed.lock_links(), (1, 0));
        let baton = handed.segments.iter().find(|s| s.class == PathClass::LockWait);
        assert_eq!(baton.map(|s| s.detail), Some(Detail::LockBaton(0)));
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
            (TrackId::MemServer(0), vec![ev(1_200, served(3, 0, 0)), ev(1_700, served(7, 0, 500))]),
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

    /// A fetch stall rides its own reader's serve of the page: another
    /// reader's serve of the same page that lands inside the stall is not
    /// the blocker, and neither is it a queue the stall waited in.
    #[test]
    fn a_fetch_stall_rides_its_own_readers_serve() {
        let fetch = EventKind::Fetch {
            page: 7,
            pages: 1,
            kind: crate::event::FetchKind::Demand,
            wait_ns: 1_500,
        };
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(2_000, fetch)]),
            (
                TrackId::MemServer(0),
                vec![
                    // Thread 0's serve in [700, 1200], thread 1's right
                    // behind it in [1200, 1700].
                    ev(1_200, served(7, 0, 0)),
                    ev(1_700, served(7, 1, 0)),
                ],
            ),
        ]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 2_000 }];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 2_000);
        assert_eq!(r.class_total(PathClass::QueueWait), 0);
        assert_eq!(r.class_total(PathClass::ServerService), 500);
        assert_eq!(r.class_total(PathClass::Fetch), 1_000);
        let served = r.segments.iter().find(|s| s.class == PathClass::ServerService);
        assert_eq!(served.map(|s| (s.start_ns, s.end_ns)), Some((700, 1_200)));
    }

    /// A refetch that reached the home before the batch its notice named
    /// was parked until the batch was applied, then served: its stall
    /// carves the service, and the time its request was at the home —
    /// parked, then behind the apply — is queue wait; the classes still
    /// tile the makespan.
    #[test]
    fn a_parked_fetch_queues_behind_the_batch_it_waited_for() {
        let fetch = EventKind::Fetch {
            page: 7,
            pages: 1,
            kind: crate::event::FetchKind::Refetch,
            wait_ns: 1_800,
        };
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(3_000, fetch)]),
            (TrackId::Thread(1), vec![ev(1_000, EventKind::DiffFlush { page: 7, bytes: 1_024 })]),
            (
                TrackId::MemServer(0),
                vec![
                    // The batch, applied in [2000, 2250]; the fetch, parked
                    // since about 1500, served in [2250, 2750].
                    ev(2_250, EventKind::ApplyDiff { page: 7, bytes: 1_024, writer: 1, batch: 1 }),
                    ev(2_750, served(7, 0, 750)),
                ],
            ),
        ]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 3_000 }];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 3_000);
        assert_eq!(r.class_total(PathClass::ServerService), 500);
        assert_eq!(r.class_total(PathClass::QueueWait), 750);
        assert_eq!(r.class_total(PathClass::Fetch), 250 + 300);
        assert_eq!(r.class_total(PathClass::Compute), 1_200);
        let queued = r.segments.iter().find(|s| s.class == PathClass::QueueWait).expect("queued");
        assert_eq!(
            (queued.start_ns, queued.end_ns, queued.detail),
            (1_500, 2_250, Detail::ServerQueue(7))
        );
    }

    /// A late prefetch whose request reached the home before its stall
    /// began, and was held there behind a batch still on its way: the stall
    /// is queue wait from its start to the serve, not fetch wire time.
    #[test]
    fn a_late_prefetch_queues_from_its_stall_when_its_request_got_there_first() {
        let fetch = EventKind::Fetch {
            page: 7,
            pages: 1,
            kind: crate::event::FetchKind::PrefetchLate,
            wait_ns: 3_000,
        };
        let issue = EventKind::RefetchIssue { page: 7, pages: 1 };
        let trace = RunTrace::from_tracks(vec![
            (TrackId::Thread(0), vec![ev(1_000, issue), ev(6_000, fetch)]),
            (
                TrackId::MemServer(0),
                vec![
                    // The request, at the home from 1200, is held until the
                    // batch it names is applied in [5000, 5250], then
                    // served in [5250, 5750]; the stall began at 3000.
                    ev(5_250, EventKind::ApplyDiff { page: 7, bytes: 1_024, writer: 1, batch: 1 }),
                    ev(5_750, served(7, 0, 4_050)),
                ],
            ),
        ]);
        let windows = [ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 6_000 }];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 6_000);
        assert_eq!(r.class_total(PathClass::Compute), 3_000);
        assert_eq!(r.class_total(PathClass::QueueWait), 2_250);
        assert_eq!(r.class_total(PathClass::ServerService), 500);
        assert_eq!(r.class_total(PathClass::Fetch), 250, "the response's wire time alone");
        let queued = r.segments.iter().find(|s| s.class == PathClass::QueueWait).expect("queued");
        assert_eq!(
            (queued.start_ns, queued.end_ns, queued.detail),
            (3_000, 5_250, Detail::ServerQueue(7))
        );
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

    /// A barrier reused across episodes: the thread released first arrives
    /// at the next episode in the very nanosecond the other is released.
    /// That arrival is not the other's blocker — its own episode's last
    /// arrival is — so the walk still jumps to the straggler.
    #[test]
    fn a_next_episode_arrival_is_not_the_blocker() {
        let arrive = |at| ev(at, EventKind::BarrierArrive { barrier: 0 });
        let release = |at, wait_ns| ev(at, EventKind::BarrierRelease { barrier: 0, wait_ns });
        let trace = RunTrace::from_tracks(vec![
            (
                TrackId::Thread(0),
                vec![arrive(1_000), release(4_000, 3_000), arrive(4_100), release(4_500, 400)],
            ),
            (
                TrackId::Thread(1),
                vec![arrive(3_800), release(4_000, 200), arrive(4_000), release(4_500, 500)],
            ),
        ]);
        let windows = [
            ThreadWindow { tid: 0, epoch_ns: 0, end_ns: 4_600 },
            ThreadWindow { tid: 1, epoch_ns: 0, end_ns: 4_600 },
        ];
        let r = critical_path(&trace, &windows, &costs());
        assert_eq!(r.total_ns(), 4_600);
        // (4100..4500] on episode 1, then (3800..4000] on episode 0 — not
        // thread 0's whole wait (1000..4000].
        assert_eq!(r.class_total(PathClass::BarrierWait), 600);
        assert_eq!(r.class_total(PathClass::Compute), 4_000);
    }

    /// `Detail` is the report's `detail` vocabulary: the strings are pinned
    /// (reports and `--out` files carry them), and both page-carrying
    /// variants give up their page for allocation-site lookup.
    #[test]
    fn detail_strings_and_pages_are_pinned() {
        for (detail, text) in [
            (Detail::None, ""),
            (Detail::Page(7), "page 7"),
            (Detail::ServerQueue(7), "server queue (page 7)"),
            (Detail::Op("alloc-shared"), "op alloc-shared"),
            (Detail::MgrQueueOp("alloc-shared"), "mgr queue (op alloc-shared)"),
            (Detail::Lock(3), "lock 3"),
            (Detail::LockBaton(3), "lock 3 baton"),
            (Detail::LockFallback(3), "lock 3 fallback"),
            (Detail::MgrQueueLock(3), "mgr queue (lock 3)"),
            (Detail::Barrier(1), "barrier 1"),
            (Detail::MgrQueueBarrier(1), "mgr queue (barrier 1)"),
        ] {
            assert_eq!(detail.to_string(), text);
            let on_a_page = matches!(detail, Detail::Page(_) | Detail::ServerQueue(_));
            assert_eq!(detail.page(), on_a_page.then_some(7), "{detail:?}");
        }
        assert_eq!(Detail::Page(7).queued(), Detail::ServerQueue(7));
        assert_eq!(Detail::Lock(3).queued(), Detail::MgrQueueLock(3));
        assert_eq!(Detail::LockFallback(3).queued(), Detail::MgrQueueLock(3));
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
