//! The wire protocol between compute threads, the manager, and the memory
//! servers.
//!
//! All messages share one enum so a single SCL fabric carries them. Tokens
//! correlate requests with responses: each compute thread issues tokens from
//! a private counter, so responses can arrive out of order (prefetches,
//! hints) and still be matched.

use std::fmt;

use samhita_mem::{MemRequest, MemResponse};
use samhita_regc::{Interval, Marks, NoticeSet};
use samhita_scl::{EndpointId, SimTime};

use crate::layout::Region;

/// Everything that travels on the fabric.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // payloads are described on each variant
pub enum Msg {
    /// Compute thread → memory server. `shadow` marks write-through replica
    /// copies: the server applies them like any update but keeps them out
    /// of the event trace, so replication does not perturb
    /// the observable protocol timeline.
    MemReq { token: u64, shadow: bool, stamp: Stamp, req: MemRequest },
    /// Memory server → compute thread.
    MemResp { token: u64, resp: MemResponse },
    /// Compute thread (or host control client) → manager.
    MgrReq { token: u64, tid: u32, req: MgrRequest },
    /// Manager → compute thread (or host control client).
    MgrResp { token: u64, resp: MgrResponse },
    /// Primary manager → hot standby: the unacknowledged suffix of the
    /// write-ahead log. Shipped after each serve; a batch always restarts
    /// at the first unacknowledged record, so a lost batch is repaired by
    /// the next one and the standby deduplicates by sequence number.
    MgrLog { records: Vec<MgrLogRecord> },
    /// Hot standby → primary manager: all records with `seq <= upto` have
    /// been applied and need not be shipped again.
    MgrLogAck { upto: u64 },
}

/// Where a memory request stands in the order of updates at its home. A
/// sender numbers its update batches per home; a request names the other
/// writers' batches it must follow that it has not named to this server
/// before, and the server holds it until it has applied them.
#[derive(Clone, Debug, Default)]
pub struct Stamp {
    /// The sending thread.
    pub tid: u32,
    /// The home whose pages the request is about.
    pub home: u32,
    /// An update batch's number among the sender's batches to `home`, its
    /// shadow copy's too; 0 for any other request.
    pub batch: u32,
    /// Other writers' batches to `home` to apply first.
    pub needs: Marks,
}

/// One mutation of the manager state machine. Manager state is a pure fold
/// of [`ManagerEngine::apply`](crate::manager::ManagerEngine) over the
/// sequence of these records, which is what makes the hot standby's replica
/// bit-identical: it folds the same records through the same function.
#[derive(Clone, Debug)]
pub struct MgrLogRecord {
    /// Position in the log (1-based, dense). `apply` refuses gaps.
    pub seq: u64,
    /// The mutation itself.
    pub op: MgrLogOp,
}

/// The mutation payload of a [`MgrLogRecord`].
#[derive(Clone, Debug)]
pub enum MgrLogOp {
    /// A client request served by the manager: the full request tuple,
    /// including its virtual arrival time, so replay reproduces service
    /// timing exactly.
    Request {
        /// Requester's endpoint (where responses go).
        src: EndpointId,
        /// Requesting thread.
        tid: u32,
        /// Idempotency token of the request.
        token: u64,
        /// The request.
        req: MgrRequest,
        /// Virtual delivery time at the manager.
        arrival: SimTime,
    },
    /// A standby-side lease sweep at virtual time `now`: every lock whose
    /// lease expired before `now` is reclaimed from its holder and handed
    /// to the next queued waiter. Only an *active* (post-takeover) standby
    /// generates these.
    ReclaimExpired {
        /// Virtual time of the sweep.
        now: SimTime,
    },
}

impl MgrLogRecord {
    /// Approximate wire payload for the cost model: a 16-byte record
    /// header (seq + op discriminant) plus the embedded request.
    pub fn wire_bytes(&self) -> usize {
        16 + match &self.op {
            MgrLogOp::Request { req, .. } => 16 + req.wire_bytes(),
            MgrLogOp::ReclaimExpired { .. } => 8,
        }
    }
}

/// Requests the manager services: allocation, synchronization, membership.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // payloads are described on each variant
pub enum MgrRequest {
    /// Announce a thread to the manager. `observer` marks clients that
    /// never participate in synchronization (the host control client):
    /// they are excluded from write-notice retention accounting.
    Register { observer: bool },
    /// Strategy-2 allocation from the shared zone.
    AllocShared { size: u64, align: u64 },
    /// Strategy-3 allocation, striped across memory servers.
    AllocStriped { size: u64 },
    /// Free a manager-mediated allocation.
    Free { addr: u64 },
    /// Create a mutual-exclusion variable.
    CreateLock,
    /// Create a barrier over `parties` threads.
    CreateBarrier { parties: u32 },
    /// Create a condition variable.
    CreateCond,
    /// Acquire a lock, publishing the `interval` of the flush before it;
    /// `last_seen` is the caller's notice watermark.
    Acquire { lock: u32, interval: Interval, last_seen: u64 },
    /// Release a lock after flushing; publishes the `interval` of the
    /// consistency region just exited. `handed` names the successor the
    /// releaser already granted the lock to itself, with that interval (a
    /// direct hand-off, served as `"handoff"`).
    Release { lock: u32, interval: Interval, handed: Option<Handed> },
    /// Enter a barrier after flushing; publishes `interval`.
    BarrierWait { barrier: u32, interval: Interval, last_seen: u64 },
    /// Atomically release `lock` and wait on `cond`; publishes `interval`.
    /// The response (a lock re-grant) arrives after a signal.
    CondWait { cond: u32, lock: u32, interval: Interval, last_seen: u64 },
    /// Wake one waiter of `cond`.
    CondSignal { cond: u32 },
    /// Wake all waiters of `cond`.
    CondBroadcast { cond: u32 },
    /// Thread departure; publishes the final flush.
    Exit { interval: Interval },
}

/// The successor a releasing holder granted its lock to directly: the
/// queued waiter its [`Successor`] hint named, and that waiter's request
/// token, which the grant answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handed {
    /// The successor's thread id.
    pub to: u32,
    /// The successor's acquire (or condition-wait) token.
    pub token: u64,
}

/// A successor hint, manager → the tail of a lock's queue, holder or
/// waiter, at the instant a request joins behind it: who is next. The
/// manager sends a waiter what its grant would carry
/// ([`MgrResponse::Advance`]) once it is the queue's head, or second with a
/// successor of its own, or by the fold that makes the head the holder. A
/// tail that releases with no other synchronization since its grant
/// completes its successor's grant itself — it sends the successor a
/// [`MgrResponse::Baton`] — and names the successor in its release
/// ([`Handed`]).
///
/// `relay` says the tail was still a waiter when the successor queued: the
/// successor is then advanced before the tail's grant is folded, so the
/// tail's baton must carry what that advance lacks — the [`Relay`] its own
/// grant gave it. A tail with nothing to relay releases through the
/// manager instead.
#[derive(Clone, Copy, Debug)]
pub struct Successor {
    /// The lock.
    pub lock: u32,
    /// The successor's thread id.
    pub tid: u32,
    /// The successor's endpoint, where the grant goes.
    pub ep: EndpointId,
    /// The successor's request token, which the grant answers.
    pub token: u64,
    /// Whether the baton must relay the tail's predecessor's interval.
    pub relay: bool,
}

/// What a baton carries before the holder's own interval: `notices`, for a
/// successor whose advance reached `after`, after which its grant reaches
/// `upto` (the later of the two). A holder granted by baton relays the
/// interval the baton brought, whose record names the successor a seer; a
/// holder granted by the manager relays what the log gained since the
/// successor's advance, up to the release that granted it.
#[derive(Clone, Debug, Default)]
pub struct Relay {
    /// The advance watermark the successor needs.
    pub after: u64,
    /// What the successor applies after its advance.
    pub notices: NoticeSet,
    /// The watermark the successor's grant reaches at least.
    pub upto: u64,
}

impl Relay {
    /// Nothing to relay, for a successor whose advance reached `after`.
    pub fn none(after: u64) -> Relay {
        Relay { after, notices: NoticeSet::default(), upto: after }
    }
}

/// Manager responses.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // payloads are described on each variant
pub enum MgrResponse {
    /// Registration accepted; carries the current notice watermark, which
    /// becomes the registrant's `last_seen` floor (notices older than this
    /// may be garbage-collected at any time), and the marks of every
    /// interval the run published before it: the registrant is never sent
    /// those notices, so its requests must follow their batches.
    Registered { watermark: u64, marks: Marks },
    /// Allocation result.
    Addr(u64),
    /// Generic acknowledgement (free, signal, exit, release).
    Ok,
    /// New synchronization object id.
    SyncId(u32),
    /// Barrier released: the merged unseen write notices plus the new
    /// watermark.
    BarrierReleased { notices: NoticeSet, watermark: u64 },
    /// A one-way hint to a lock's queue tail, under the token of the
    /// request its hold answers (or will): who is next (see [`Successor`]).
    Successor(Successor),
    /// To one of a lock's first two waiters behind a holder, under its
    /// request's token: what the log it has not seen amounts to now — the
    /// first part of its grant.
    Advance { notices: NoticeSet, watermark: u64 },
    /// A lock grant from the manager (also a condvar wake-up, which
    /// re-grants the lock), or the rest of one: what the log holds after
    /// `after` for the requester, up to the new `watermark` — the whole
    /// grant when `after` is the requester's own `last_seen` (an empty
    /// advance), else the rest of the grant whose advance reached `after`.
    /// A part without its advance is no grant: the requester asks again,
    /// and the manager answers with the whole. `relay` is what the
    /// requester's own baton is to relay, when a waiter behind it was sent
    /// its advance before the release this grant answers was folded.
    Rest { after: u64, notices: NoticeSet, watermark: u64, relay: Option<Relay> },
    /// The rest of a grant from the holder handing the lock over: what its
    /// hint asked it to relay, if anything, then its release interval,
    /// which the successor keeps to relay in turn.
    Baton { relay: Relay, interval: NoticeSet },
    /// Request failed.
    Err(MgrError),
}

/// Typed manager-side failures. Fixed-size and `Copy`, so the happy path
/// never allocates a diagnostic string; `Display` renders the full
/// diagnostic only when someone actually reports the error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MgrError {
    /// The shared zone could not satisfy an allocation of `size` bytes.
    SharedExhausted {
        /// Requested allocation size.
        size: u64,
    },
    /// The striped region could not satisfy an allocation of `size` bytes.
    StripedExhausted {
        /// Requested allocation size.
        size: u64,
    },
    /// `addr` does not name a live manager-mediated allocation.
    BadFree {
        /// The freed address.
        addr: u64,
        /// The address-space region `addr` falls in.
        region: Region,
    },
    /// A request named a lock id that was never created.
    UnknownLock {
        /// The offending lock id.
        lock: u32,
    },
    /// A request named a barrier id that was never created.
    UnknownBarrier {
        /// The offending barrier id.
        barrier: u32,
    },
    /// A request named a condition variable that was never created.
    UnknownCond {
        /// The offending condition-variable id.
        cond: u32,
    },
    /// A release of a lock the releasing thread does not hold (and that
    /// was not lease-reclaimed from it — a reclaimed holder's late release
    /// is absorbed silently).
    NotHolder {
        /// The lock id.
        lock: u32,
        /// The releasing thread.
        tid: u32,
    },
    /// A request from a thread the manager has no registration for.
    Unregistered {
        /// The unknown thread.
        tid: u32,
    },
}

impl fmt::Display for MgrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgrError::SharedExhausted { size } => {
                write!(f, "shared zone exhausted ({size} bytes)")
            }
            MgrError::StripedExhausted { size } => {
                write!(f, "striped region exhausted ({size} bytes)")
            }
            MgrError::BadFree { addr, region } => {
                write!(f, "free of {addr:#x} in {region:?}: not a live manager allocation")
            }
            MgrError::UnknownLock { lock } => write!(f, "unknown lock id {lock}"),
            MgrError::UnknownBarrier { barrier } => write!(f, "unknown barrier id {barrier}"),
            MgrError::UnknownCond { cond } => write!(f, "unknown condition variable id {cond}"),
            MgrError::NotHolder { lock, tid } => {
                write!(f, "release of lock {lock} not held by thread {tid}")
            }
            MgrError::Unregistered { tid } => write!(f, "thread {tid} is not registered"),
        }
    }
}

impl std::error::Error for MgrError {}

impl MgrRequest {
    /// Short operation label, for trace events.
    pub fn label(&self) -> &'static str {
        match self {
            MgrRequest::Register { .. } => "register",
            MgrRequest::AllocShared { .. } => "alloc-shared",
            MgrRequest::AllocStriped { .. } => "alloc-striped",
            MgrRequest::Free { .. } => "free",
            MgrRequest::CreateLock => "create-lock",
            MgrRequest::CreateBarrier { .. } => "create-barrier",
            MgrRequest::CreateCond => "create-cond",
            MgrRequest::Acquire { .. } => "acquire",
            MgrRequest::Release { handed: None, .. } => "release",
            MgrRequest::Release { handed: Some(_), .. } => "handoff",
            MgrRequest::BarrierWait { .. } => "barrier-wait",
            MgrRequest::CondWait { .. } => "cond-wait",
            MgrRequest::CondSignal { .. } => "cond-signal",
            MgrRequest::CondBroadcast { .. } => "cond-broadcast",
            MgrRequest::Exit { .. } => "exit",
        }
    }

    /// The caller's notice watermark, on a request a lock grant answers.
    pub fn last_seen(&self) -> Option<u64> {
        match *self {
            MgrRequest::Acquire { last_seen, .. } | MgrRequest::CondWait { last_seen, .. } => {
                Some(last_seen)
            }
            _ => None,
        }
    }

    /// Approximate wire payload for the cost model.
    pub fn wire_bytes(&self) -> usize {
        match self {
            MgrRequest::Register { .. }
            | MgrRequest::CreateLock
            | MgrRequest::CreateBarrier { .. }
            | MgrRequest::CreateCond
            | MgrRequest::CondSignal { .. }
            | MgrRequest::CondBroadcast { .. }
            | MgrRequest::Free { .. } => 16,
            MgrRequest::AllocShared { .. } | MgrRequest::AllocStriped { .. } => 24,
            MgrRequest::Acquire { interval, .. }
            | MgrRequest::Release { interval, .. }
            | MgrRequest::BarrierWait { interval, .. }
            | MgrRequest::Exit { interval } => 24 + interval.wire_bytes(),
            MgrRequest::CondWait { interval, .. } => 32 + interval.wire_bytes(),
        }
    }
}

impl MgrResponse {
    /// Wire payload for the cost model. A grant or release is its notice
    /// set's own encoding, whose 16-byte header has room for the watermark.
    pub fn wire_bytes(&self) -> usize {
        match self {
            MgrResponse::Registered { marks, .. } => 16 + marks.wire_bytes(),
            MgrResponse::Ok | MgrResponse::SyncId(_) => 16,
            MgrResponse::Addr(_) => 16,
            MgrResponse::BarrierReleased { notices, watermark: _ }
            | MgrResponse::Advance { notices, watermark: _ } => notices.wire_bytes(),
            // The watermarks fit the header too.
            MgrResponse::Rest { notices, relay: None, .. } => notices.wire_bytes(),
            MgrResponse::Rest { notices, relay: Some(relay), .. } => beside(notices, relay),
            MgrResponse::Baton { relay, interval } => beside(interval, relay),
            // Who is next: lock, thread, token.
            MgrResponse::Successor(_) => 16,
            MgrResponse::Err(_) => 16,
        }
    }
}

/// A set and a relay under one set header, their marks as one list or
/// two, whichever is shorter (a header bit says which), and a second
/// watermark when the relay's two differ: the set's size alone when
/// nothing is relayed.
fn beside(a: &NoticeSet, relay: &Relay) -> usize {
    let b = &relay.notices;
    if b.runs.is_empty() && b.updates.is_empty() && b.marks.is_empty() {
        return a.wire_bytes();
    }
    let apart = a.marks.wire_bytes() + b.marks.wire_bytes();
    let joined = match a.marks.is_empty() || b.marks.is_empty() {
        true => apart,
        false => a.marks.join(&b.marks).wire_bytes(),
    };
    let upto = if relay.upto == relay.after { 0 } else { 8 };
    a.wire_bytes() + b.wire_bytes() - 16 - apart + apart.min(joined) + upto
}

impl Msg {
    /// Approximate wire payload for the cost model.
    pub fn wire_bytes(&self) -> usize {
        match self {
            // A batch's number rides in its header; what it must follow is
            // a list of marks.
            Msg::MemReq { stamp, req, .. } => req.wire_bytes() + stamp.needs.wire_bytes(),
            Msg::MemResp { resp, .. } => resp.wire_bytes(),
            Msg::MgrReq { req, .. } => req.wire_bytes(),
            Msg::MgrResp { resp, .. } => resp.wire_bytes(),
            Msg::MgrLog { records } => {
                16 + records.iter().map(MgrLogRecord::wire_bytes).sum::<usize>()
            }
            Msg::MgrLogAck { .. } => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use samhita_regc::{FineUpdate, PageRun};

    use super::*;

    #[test]
    fn sync_requests_charge_for_page_lists() {
        let small = MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 };
        let big = MgrRequest::Acquire {
            lock: 0,
            interval: Interval { pages: vec![0; 100], ..Interval::default() },
            last_seen: 0,
        };
        assert_eq!(big.wire_bytes() - small.wire_bytes(), 800);
    }

    #[test]
    fn responses_charge_for_the_notice_set_they_carry() {
        let empty = MgrResponse::Rest {
            after: 0,
            notices: NoticeSet::default(),
            watermark: 0,
            relay: None,
        };
        assert_eq!(empty.wire_bytes(), 16, "an empty grant is a bare header");
        let run = |first_page, len| PageRun { first_page, len, writer: 0 };
        let update = |len| Arc::new(FineUpdate { page: 9, offset: 0, bytes: vec![0; len] });
        // A run costs varints of its gap from the last run, its length and
        // its writer: here 1 + 1 + 1 and 1 + 2 + 1 bytes…
        let notices = NoticeSet {
            runs: vec![run(1, 3), run(10, 500)].into(),
            updates: vec![],
            ..Default::default()
        };
        let released = MgrResponse::BarrierReleased { notices, watermark: 1 };
        assert_eq!(released.wire_bytes(), 16 + 3 + 4);
        // …and an update its header plus its payload.
        let notices = NoticeSet {
            runs: vec![run(1, 3)].into(),
            updates: vec![update(8), update(40)],
            ..Default::default()
        };
        let granted = MgrResponse::Rest { after: 0, notices, watermark: 2, relay: None };
        assert_eq!(granted.wire_bytes(), 16 + 3 + (16 + 8) + (16 + 40));
    }

    #[test]
    fn a_grant_is_charged_for_the_merge_not_for_the_suffix() {
        // 64 threads each flush two pages of a shared array and bump one
        // counter: 64 notices, 128 page entries and 64 updates in the log,
        // 64 × (16 + 2 × 8 + 24) = 3 584 bytes notice by notice.
        let mut log = samhita_regc::IntervalLog::new();
        for w in 0..64u32 {
            let bump = FineUpdate { page: 1000, offset: 0, bytes: vec![w as u8; 8] };
            log.publish(w, vec![2 * w as u64, 2 * w as u64 + 1], vec![bump]);
        }
        let notices = log.merged_since(0, 99);
        let granted = MgrResponse::Rest { after: 0, notices, watermark: 64, relay: None };
        // One run per writer, its gap, length and writer a byte each.
        assert_eq!(granted.wire_bytes(), 16 + 64 * 3 + 24);
    }

    #[test]
    fn mgr_errors_are_fixed_size_with_full_diagnostics() {
        // The error payload is a fixed-size Copy value on the wire…
        let e = MgrError::SharedExhausted { size: 4096 };
        assert_eq!(MgrResponse::Err(e).wire_bytes(), 16);
        // …but still renders the complete diagnostic on demand.
        assert_eq!(e.to_string(), "shared zone exhausted (4096 bytes)");
        assert_eq!(
            MgrError::StripedExhausted { size: 99 }.to_string(),
            "striped region exhausted (99 bytes)"
        );
        let bad = MgrError::BadFree { addr: 0x1000, region: Region::Reserved };
        assert_eq!(bad.to_string(), "free of 0x1000 in Reserved: not a live manager allocation");
    }

    #[test]
    fn log_records_charge_for_embedded_requests() {
        let req = MgrRequest::Acquire {
            lock: 0,
            interval: Interval { pages: vec![0; 10], ..Interval::default() },
            last_seen: 0,
        };
        let req_wire = req.wire_bytes();
        let rec = MgrLogRecord {
            seq: 1,
            op: MgrLogOp::Request {
                src: EndpointId(3),
                tid: 0,
                token: 7,
                req,
                arrival: SimTime::ZERO,
            },
        };
        assert_eq!(rec.wire_bytes(), 32 + req_wire);
        let sweep = MgrLogRecord { seq: 2, op: MgrLogOp::ReclaimExpired { now: SimTime::ZERO } };
        assert_eq!(sweep.wire_bytes(), 24);
        let batch_wire = Msg::MgrLog { records: vec![rec, sweep] }.wire_bytes();
        assert_eq!(batch_wire, 16 + 32 + req_wire + 24);
        assert_eq!(Msg::MgrLogAck { upto: 9 }.wire_bytes(), 16);
    }

    #[test]
    fn new_mgr_errors_are_fixed_size_with_full_diagnostics() {
        for (e, text) in [
            (MgrError::UnknownLock { lock: 3 }, "unknown lock id 3"),
            (MgrError::UnknownBarrier { barrier: 4 }, "unknown barrier id 4"),
            (MgrError::UnknownCond { cond: 5 }, "unknown condition variable id 5"),
            (MgrError::NotHolder { lock: 1, tid: 2 }, "release of lock 1 not held by thread 2"),
            (MgrError::Unregistered { tid: 9 }, "thread 9 is not registered"),
        ] {
            assert_eq!(MgrResponse::Err(e).wire_bytes(), 16);
            assert_eq!(e.to_string(), text);
        }
    }

    #[test]
    fn msg_delegates_to_payload() {
        let req = MgrRequest::Register { observer: false };
        let wire = req.wire_bytes();
        assert_eq!(Msg::MgrReq { token: 1, tid: 2, req }.wire_bytes(), wire);
        let mreq = MemRequest::FetchLine { first: samhita_mem::PageId(0), pages: 1 };
        let mwire = mreq.wire_bytes();
        assert_eq!(
            Msg::MemReq { token: 1, shadow: true, stamp: Stamp::default(), req: mreq }.wire_bytes(),
            mwire
        );
    }
}
