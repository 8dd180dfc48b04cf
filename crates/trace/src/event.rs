//! Trace event vocabulary.
//!
//! One [`TraceEvent`] records one protocol action at one virtual-time stamp.
//! Events live on *tracks*: one per compute thread, one per memory server,
//! one for the manager, and one for the fabric. Stamps on a single track are
//! monotone (each actor's virtual clock only moves forward), which the
//! exporters and the invariant checker rely on.

use samhita_scl::{MsgClass, SimTime};

/// Which actor's timeline an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrackId {
    /// A compute thread, by tid.
    Thread(u32),
    /// The central manager.
    Manager,
    /// The hot-standby manager (replays the primary's log; serves only
    /// after a failover).
    MgrStandby,
    /// A memory server, by index.
    MemServer(u32),
    /// The interconnect (one aggregate track; events carry src/dst).
    Fabric,
}

impl TrackId {
    /// Human-readable track label, as every export form spells it.
    pub fn label(&self) -> String {
        match self.label_parts() {
            (name, Some(index)) => format!("{name}{index}"),
            (name, None) => name.to_string(),
        }
    }

    /// The label as a fixed name and, on indexed tracks, the index after
    /// it: what the exporters write, without building a `String` per event.
    pub(crate) fn label_parts(&self) -> (&'static str, Option<u32>) {
        match *self {
            TrackId::Thread(t) => ("thread ", Some(t)),
            TrackId::Manager => ("manager", None),
            TrackId::MgrStandby => ("mgr standby", None),
            TrackId::MemServer(i) => ("mem server ", Some(i)),
            TrackId::Fabric => ("fabric", None),
        }
    }

    /// Stable numeric id for the Chrome trace-event `tid` field: compute
    /// threads keep their tid, service tracks are offset well past any
    /// plausible thread count so Perfetto sorts them below the threads.
    pub fn chrome_tid(&self) -> u64 {
        match self {
            TrackId::Thread(t) => u64::from(*t),
            TrackId::Manager => 1000,
            TrackId::MgrStandby => 999,
            TrackId::MemServer(i) => 1001 + u64::from(*i),
            TrackId::Fabric => 2000,
        }
    }
}

/// How a page became resident, for [`EventKind::Fetch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// Demand miss: a whole line was fetched synchronously.
    Demand,
    /// Re-fetch of invalidated pages within an otherwise resident line.
    Refetch,
    /// A previously issued prefetch had already arrived.
    PrefetchHit,
    /// A previously issued prefetch was still in flight and had to be waited
    /// for ("late" prefetch).
    PrefetchLate,
}

impl FetchKind {
    /// Short lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            FetchKind::Demand => "demand",
            FetchKind::Refetch => "refetch",
            FetchKind::PrefetchHit => "prefetch-hit",
            FetchKind::PrefetchLate => "prefetch-late",
        }
    }
}

/// One protocol action. Byte counts are payload bytes (what the protocol
/// moved), not wire bytes; `wait_ns` fields measure the virtual-time interval
/// the acting thread was stalled, ending at the event's stamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// `pages` consecutive pages from `page` became resident in the software
    /// cache (thread track).
    Fetch { page: u64, pages: u32, kind: FetchKind, wait_ns: u64 },
    /// An asynchronous prefetch of a line was issued (thread track).
    PrefetchIssue { page: u64, pages: u32 },
    /// An asynchronous refetch of `pages` consecutive pages from `page`, of
    /// a resident line whose used pages a release invalidated, was issued
    /// (thread track). It counts as a refetch; the fault that takes its
    /// response records a prefetch `Fetch`.
    RefetchIssue { page: u64, pages: u32 },
    /// A twin was created for an ordinary-region page (thread track).
    TwinCreate { page: u64 },
    /// A diff for `page` was flushed towards its home server (thread track).
    DiffFlush { page: u64, bytes: u64 },
    /// A fine-grain write set for `page` was flushed (thread track).
    FineFlush { page: u64, bytes: u64 },
    /// `page` was invalidated by a write notice from `writer`, whose update
    /// batch `batch` to the page's home the notice follows (thread track).
    Invalidate { page: u64, writer: u32, batch: u32 },
    /// A cache line was evicted to make room (thread track).
    Evict { line: u64, dirty_pages: u32 },
    /// Lock acquire request left for the manager (thread track).
    LockRequest { lock: u32 },
    /// Lock grant observed; `wait_ns` spans request → grant (thread track).
    LockAcquire { lock: u32, wait_ns: u64 },
    /// Lock released, after consistency flush (thread track).
    LockRelease { lock: u32 },
    /// Thread arrived at a barrier, after consistency flush (thread track).
    BarrierArrive { barrier: u32 },
    /// Barrier released this thread; `wait_ns` spans arrive → release.
    BarrierRelease { barrier: u32, wait_ns: u64 },
    /// A non-sync manager RPC (alloc, free, create, signal…) completed;
    /// `wait_ns` spans request → response (thread track).
    MgrRpc { op: &'static str, wait_ns: u64 },
    /// The manager finished serving a request from `tid` (manager track).
    MgrServe { op: &'static str, tid: u32 },
    /// A memory server applied a diff from thread `writer`'s update batch
    /// `batch` (mem-server track).
    ApplyDiff { page: u64, bytes: u64, writer: u32, batch: u32 },
    /// A memory server applied a fine-grain update from thread `writer`'s
    /// update batch `batch` (mem-server track; the host control client
    /// writes as `u32::MAX`, outside any batch: 0).
    ApplyFine { page: u64, bytes: u64, writer: u32, batch: u32 },
    /// A memory server served a fetch of `pages` consecutive pages from
    /// `page` to thread `reader` (mem-server track; the host control client
    /// reads as `u32::MAX`), `written` of which its home had written: the
    /// pages whose bytes the server read and the reply carried. The request
    /// was at the home for `queued_ns` before its service began: held until
    /// the update batches it named were applied, then queued.
    ServeFetch { page: u64, pages: u32, reader: u32, written: u32, queued_ns: u64 },
    /// A memory server overwrote a whole page (mem-server track).
    ServeWrite { page: u64 },
    /// A message entered the interconnect (fabric track).
    FabricSend { src: u64, dst: u64, class: MsgClass, bytes: u64 },
    /// The fault plan perturbed a send: `kind` is the fate label —
    /// `drop`, `partition`, `crash`, `duplicate`, or `delay` (fabric track).
    FaultInjected { src: u64, dst: u64, kind: &'static str },
    /// A thread re-sent a protocol request after detecting loss; `attempt`
    /// counts retransmissions of that request so far (thread track).
    Retry { op: &'static str, attempt: u32 },
    /// A thread gave up on memory server `from` and re-homed its traffic to
    /// the replica `to` (thread track).
    Failover { from: u32, to: u32 },
    /// A sync-time flush coalesced `parts` diff/fine updates bound for
    /// memory server `server` into one batched message of `bytes` wire
    /// bytes (thread track). The per-page `DiffFlush`/`FineFlush` events
    /// still precede this one, so byte-conservation checks are unchanged.
    BatchFlush { server: u32, parts: u32, bytes: u64 },
    /// A thread exhausted its retries against the primary manager and
    /// re-homed all manager traffic to the hot standby; `op` is the
    /// request that detected the crash (thread track).
    MgrFailover { op: &'static str },
    /// The active standby reclaimed `lock` from `holder` because its lease
    /// expired (standby track).
    LeaseReclaim { lock: u32, holder: u32 },
}

/// The vocabulary, one row per variant: its name and its coarse category
/// (the Chrome `cat` field, so Perfetto can filter). A row under `spans`
/// closes a stall and carries its length in a `wait_ns` field
/// ([`EventKind::wait_ns`]); the plain Chrome export draws it as an `"X"`
/// complete span and every row under `instants` as an `"i"` instant. The
/// exporters' per-variant pieces are spliced from these literals at compile
/// time, so a record's head costs one copy.
macro_rules! vocabulary {
    (
        spans { $($span:ident: $span_name:literal, $span_cat:literal;)* }
        instants { $($instant:ident: $name:literal, $cat:literal;)* }
    ) => {
        impl EventKind {
            /// Short lowercase event name used by the exporters.
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$span { .. } => $span_name,)*
                    $(EventKind::$instant { .. } => $name,)*
                }
            }

            /// Coarse category for the Chrome `cat` field.
            pub(crate) fn category(&self) -> &'static str {
                match self {
                    $(EventKind::$span { .. } => $span_cat,)*
                    $(EventKind::$instant { .. } => $cat,)*
                }
            }

            /// The stall interval this event closes, if it represents one.
            /// Used by the Chrome exporter to render a span instead of an
            /// instant.
            pub fn wait_ns(&self) -> Option<u64> {
                match self {
                    $(EventKind::$span { wait_ns, .. } => Some(*wait_ns),)*
                    $(EventKind::$instant { .. } => None,)*
                }
            }

            /// A plain Chrome record of this event, from its `,\n`
            /// separator to the value of its `tid`.
            pub(crate) fn chrome_head(&self) -> &'static str {
                match self {
                    $(EventKind::$span { .. } => concat!(
                        ",\n{\"name\":\"", $span_name, "\",\"cat\":\"", $span_cat,
                        "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
                    ),)*
                    $(EventKind::$instant { .. } => concat!(
                        ",\n{\"name\":\"", $name, "\",\"cat\":\"", $cat,
                        "\",\"ph\":\"i\",\"pid\":0,\"tid\":"
                    ),)*
                }
            }

            /// A JSONL line of this event, from after its `at_ns` value to
            /// its first argument.
            pub(crate) fn jsonl_name(&self) -> &'static str {
                match self {
                    $(EventKind::$span { .. } => concat!(",\"event\":\"", $span_name, "\","),)*
                    $(EventKind::$instant { .. } => concat!(",\"event\":\"", $name, "\","),)*
                }
            }
        }
    };
}

vocabulary! {
    spans {
        Fetch: "fetch", "mem";
        LockAcquire: "lock-acquire", "sync";
        BarrierRelease: "barrier-release", "sync";
        MgrRpc: "mgr-rpc", "mgr";
    }
    instants {
        PrefetchIssue: "prefetch-issue", "mem";
        RefetchIssue: "refetch-issue", "mem";
        TwinCreate: "twin-create", "regc";
        DiffFlush: "diff-flush", "regc";
        FineFlush: "fine-flush", "regc";
        Invalidate: "invalidate", "regc";
        Evict: "evict", "mem";
        LockRequest: "lock-request", "sync";
        LockRelease: "lock-release", "sync";
        BarrierArrive: "barrier-arrive", "sync";
        MgrServe: "mgr-serve", "mgr";
        ApplyDiff: "apply-diff", "regc";
        ApplyFine: "apply-fine", "regc";
        ServeFetch: "serve-fetch", "mem";
        ServeWrite: "serve-write", "mem";
        FabricSend: "fabric-send", "fabric";
        FaultInjected: "fault-injected", "fault";
        Retry: "retry", "fault";
        Failover: "failover", "fault";
        BatchFlush: "batch-flush", "regc";
        MgrFailover: "mgr-failover", "fault";
        LeaseReclaim: "lease-reclaim", "fault";
    }
}

/// One recorded protocol action with its virtual-time stamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time at which the action completed on its track.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}
