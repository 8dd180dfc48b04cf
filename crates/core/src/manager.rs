//! The manager: allocation, synchronization, and membership services.
//!
//! The paper routes *all* synchronization through a single manager process —
//! and §V names the resulting overhead as a cost to optimize. The engine
//! here is pure ((request, arrival time) → outgoing messages), with its own
//! [`VirtualResource`] so request bursts queue; the SCL event loop lives in
//! [`crate::system`].
//!
//! The manager is also the publication point for RegC write notices: every
//! flush-carrying request (`Acquire`, `Release`, `BarrierWait`, `CondWait`,
//! `Exit`) publishes an interval — pages, fine updates, and the writer's
//! update-batch marks — and every blocking grant (a lock `Rest`,
//! `BarrierReleased`) returns what the notices the recipient has not yet
//! seen amount to for it — one merged, run-encoded
//! [`NoticeSet`], not the log suffix.
//!
//! Since PR 8 the engine is a **write-ahead-logged state machine**: every
//! mutation first becomes a typed [`MgrLogRecord`] (via [`record`]) and is
//! then folded through the single [`apply`] entry point, so the whole
//! manager state is a pure fold over the log. The event loop ships the log
//! to a hot-standby engine on another node, which folds the identical
//! records through the identical function and is therefore a bit-identical
//! replica — including its [`VirtualResource`] clock, so post-failover
//! service times match what the primary would have produced.
//!
//! [`record`]: ManagerEngine::record
//! [`apply`]: ManagerEngine::apply

use std::collections::{HashMap, VecDeque};

use samhita_regc::{Interval, IntervalLog, Marks, NoticeSet, Seers};
use samhita_scl::{EndpointId, ResourceStats, SimTime, VirtualResource};

use crate::config::SamhitaConfig;
use crate::freelist::FreeListAlloc;
use crate::layout::{AddressLayout, Region};
use crate::msg::{
    Handed, MgrError, MgrLogOp, MgrLogRecord, MgrRequest, MgrResponse, Relay, Successor,
};

/// Size cap of the striped region (virtual space, not memory).
const STRIPED_REGION_BYTES: u64 = 1 << 40;

#[derive(Clone, Debug)]
struct Waiter {
    tid: u32,
    token: u64,
    /// Virtual time at which this waiter's request finished manager service.
    ready: SimTime,
    last_seen: u64,
    /// The advance a lock waiter was sent, kept until it holds: a release
    /// that names it is folded as a direct hand-off.
    advanced: Option<Advanced>,
    /// What a lock's head is to be granted beyond its advance and the
    /// holder's interval, from the fold that made the holder until the head
    /// holds (see [`Relayed`]).
    relayed: Option<Relayed>,
    /// The requests it sent while advanced, in arrival order: a hand-off
    /// to it is still on the wire, and they follow it. Served by the fold
    /// that makes it the holder.
    parked: Vec<Parked>,
}

impl Waiter {
    fn new(tid: u32, token: u64, ready: SimTime, last_seen: u64) -> Self {
        Waiter { tid, token, ready, last_seen, advanced: None, relayed: None, parked: Vec::new() }
    }
}

/// The advance sent to the head or the second waiter of a held lock.
#[derive(Clone, Debug)]
struct Advanced {
    /// The advance, where whole grants are filed (empty elsewhere).
    notices: NoticeSet,
    watermark: u64,
}

/// What the holder relays to the queue's head: relayed by the holder — or
/// granted by the manager, if it grants the head itself.
#[derive(Clone, Debug)]
struct Relayed {
    relay: Relay,
    /// Whether `relay` is the holder's predecessor's interval, whose record
    /// names the head a seer — so every grant of the head must carry it —
    /// rather than what the log gained since the head's advance, which a
    /// grant from the log carries anyway.
    seen: bool,
}

/// A request from a thread holding a grant the manager has not folded yet:
/// an advanced waiter whose holder's hand-off is still on the wire.
#[derive(Clone, Debug)]
struct Parked {
    src: EndpointId,
    token: u64,
    req: MgrRequest,
    arrival: SimTime,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<u32>,
    /// The token of the request the current hold answered.
    hold: u64,
    /// The waiters, in order. Behind a holder the head is advanced, and the
    /// second from when it has a successor or its head is about to hold.
    queue: VecDeque<Waiter>,
    /// Virtual time of the last release (a grant can never precede it).
    free_at: SimTime,
    /// When the current holder's lease expires. A standby that has taken
    /// over may reclaim the lock past this instant; the primary never
    /// reclaims (holders it granted to can always reach it to release).
    leased_until: SimTime,
}

#[derive(Clone, Debug)]
struct BarrierState {
    parties: u32,
    waiting: Vec<Waiter>,
}

#[derive(Clone, Debug, Default)]
struct CondState {
    waiters: VecDeque<(Waiter, u32 /* lock to re-acquire */)>,
}

#[derive(Clone, Debug)]
struct ThreadInfo {
    ep: EndpointId,
    /// Floor of notices this thread may still request
    /// (`merged_since(last_seen, ..)`). Updated at every grant/release
    /// delivery; drives log truncation.
    last_seen: u64,
    /// Observers (the host control client) never receive notices and are
    /// excluded from retention accounting.
    observer: bool,
}

/// A message the event loop must send on the engine's behalf.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Request token being answered.
    pub token: u64,
    /// Virtual send time.
    pub at: SimTime,
    /// The response payload.
    pub resp: MgrResponse,
    /// A whole grant, kept to answer a retransmission, not sent: it went
    /// itself, or in parts, the rest maybe from the holder.
    pub filed: bool,
}

impl Outgoing {
    fn reply(dst: EndpointId, token: u64, at: SimTime, resp: MgrResponse) -> Self {
        Outgoing { dst, token, at, resp, filed: false }
    }

    fn filed(dst: EndpointId, token: u64, at: SimTime, resp: MgrResponse) -> Self {
        Outgoing { filed: true, ..Outgoing::reply(dst, token, at, resp) }
    }
}

/// The manager's request-processing engine.
pub struct ManagerEngine {
    layout: AddressLayout,
    mgr_service: SimTime,
    barrier_release: SimTime,
    shared: FreeListAlloc,
    striped: FreeListAlloc,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    conds: Vec<CondState>,
    intervals: IntervalLog,
    /// `[home][writer]`: the highest update batch an interval published
    /// since the run's threads began registering names — what a thread
    /// that registers after them must have its requests follow. Cleared as
    /// the run's last thread exits; the host settles every home before the
    /// next run starts. Sized for every home and thread up front, so
    /// publishing never allocates.
    run_marks: Vec<Vec<u32>>,
    threads: HashMap<u32, ThreadInfo>,
    resource: VirtualResource,
    /// Late releases from lease-reclaimed holders, absorbed without
    /// mutating lock state (their write notices still publish).
    stale_releases: u64,
    /// Service-completion time of the most recent request (for tracing).
    last_done: SimTime,
    /// Sequence number of the last log record folded in. `apply` refuses
    /// gaps, so two engines with equal `applied_seq` have equal state.
    applied_seq: u64,
    /// Lease length added to every grant instant.
    lease: SimTime,
    /// Acknowledge `Release` requests with an `Ok` (standby mode): a
    /// release may then never vanish silently in a crash window.
    ack_releases: bool,
    /// File the whole of a grant sent in parts (see [`Outgoing::filed`]):
    /// only a replica that answers retransmissions reads it.
    file_grants: bool,
    /// Lock → holder it was lease-reclaimed from; the holder's eventual
    /// late release is absorbed instead of treated as a protocol error.
    reclaimed: HashMap<u32, u32>,
    /// (lock, old holder) pairs reclaimed by the latest sweep, for the
    /// event loop to trace. Drained by [`ManagerEngine::take_reclaims`].
    reclaims: Vec<(u32, u32)>,
    /// `(done, op, tid)` of every request served since the last drain, for
    /// the event loop to trace. Drained by [`ManagerEngine::take_served`].
    served: Vec<(SimTime, &'static str, u32)>,
}

impl ManagerEngine {
    /// Build the engine for a configuration.
    pub fn new(cfg: &SamhitaConfig) -> Self {
        let layout = AddressLayout::new(cfg);
        let (mgr_service, barrier_release) = cfg.mgr_costs();
        ManagerEngine {
            mgr_service: SimTime::from_ns(mgr_service),
            barrier_release: SimTime::from_ns(barrier_release),
            shared: FreeListAlloc::new(layout.shared_base, layout.shared_end),
            striped: FreeListAlloc::new(
                layout.striped_base,
                layout.striped_base + STRIPED_REGION_BYTES,
            ),
            layout,
            locks: Vec::new(),
            barriers: Vec::new(),
            conds: Vec::new(),
            intervals: IntervalLog::new(),
            run_marks: vec![vec![0; cfg.max_threads as usize]; cfg.mem_servers as usize],
            threads: HashMap::new(),
            resource: VirtualResource::new(),
            stale_releases: 0,
            last_done: SimTime::ZERO,
            applied_seq: 0,
            lease: SimTime::from_ns(cfg.mgr_lease_ns),
            ack_releases: cfg.manager_standby,
            file_grants: cfg.replay_protected(),
            reclaimed: HashMap::new(),
            reclaims: Vec::new(),
            served: Vec::new(),
        }
    }

    /// When the most recently handled request finished manager service —
    /// the virtual-time stamp for that request's trace event.
    pub fn last_done(&self) -> SimTime {
        self.last_done
    }

    /// Process one request. `src` is the requester's endpoint, `arrival` the
    /// virtual delivery time of the request at the manager. Equivalent to
    /// [`record`](Self::record) followed by [`apply`](Self::apply).
    pub fn handle(
        &mut self,
        src: EndpointId,
        tid: u32,
        token: u64,
        req: MgrRequest,
        arrival: SimTime,
    ) -> Vec<Outgoing> {
        let rec = self.record(src, tid, token, req, arrival);
        self.apply(rec)
    }

    /// Stamp a client request as the next write-ahead log record. Does not
    /// mutate any state: the record only takes effect (and the sequence
    /// number is only consumed) when it is folded in by
    /// [`apply`](Self::apply).
    pub fn record(
        &self,
        src: EndpointId,
        tid: u32,
        token: u64,
        req: MgrRequest,
        arrival: SimTime,
    ) -> MgrLogRecord {
        MgrLogRecord {
            seq: self.applied_seq + 1,
            op: MgrLogOp::Request { src, tid, token, req, arrival },
        }
    }

    /// Stamp a lease-expiry sweep as the next write-ahead log record
    /// (generated only by an active standby after takeover).
    pub fn record_reclaim(&self, now: SimTime) -> MgrLogRecord {
        MgrLogRecord { seq: self.applied_seq + 1, op: MgrLogOp::ReclaimExpired { now } }
    }

    /// Sequence number of the last record folded in.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Fold one log record into the state machine — the **only** mutation
    /// entry point. Primary and standby both call this, with the identical
    /// record stream, which is the whole replication argument: state is a
    /// pure fold of `apply` over the log.
    ///
    /// # Panics
    /// If `rec.seq` is not exactly `applied_seq() + 1` (a log gap would
    /// silently fork the replica).
    pub fn apply(&mut self, rec: MgrLogRecord) -> Vec<Outgoing> {
        assert_eq!(
            rec.seq,
            self.applied_seq + 1,
            "manager log gap: applying record {} after {}",
            rec.seq,
            self.applied_seq
        );
        self.applied_seq = rec.seq;
        match rec.op {
            MgrLogOp::Request { src, tid, token, req, arrival } => {
                self.serve(src, tid, token, req, arrival)
            }
            MgrLogOp::ReclaimExpired { now } => self.reclaim_expired(now),
        }
    }

    fn serve(
        &mut self,
        src: EndpointId,
        tid: u32,
        token: u64,
        req: MgrRequest,
        arrival: SimTime,
    ) -> Vec<Outgoing> {
        // An advanced waiter — one of the first two of a lock's queue — is
        // blocked until granted; that it asks for more means a hand-off to
        // it is still on the wire. Its requests follow that hand-off, whose
        // interval happened before them.
        let mut waiters = self.locks.iter_mut().flat_map(|l| l.queue.iter_mut().take(2));
        if let Some(w) = waiters.find(|w| w.tid == tid && w.advanced.is_some()) {
            w.parked.push(Parked { src, token, req, arrival });
            return Vec::new();
        }
        let (_, done) = self.resource.reserve(arrival, self.mgr_service);
        self.last_done = done;
        self.served.push((done, req.label(), tid));
        let reply = |resp| vec![Outgoing::reply(src, token, done, resp)];
        if let Err(e) = self.admit(tid, &req) {
            return reply(MgrResponse::Err(e));
        }
        let resp = match req {
            MgrRequest::Register { observer } => {
                let watermark = self.intervals.watermark();
                self.threads.insert(tid, ThreadInfo { ep: src, last_seen: watermark, observer });
                let published = self.run_marks.iter().flatten().any(|&b| b > 0);
                let marks = match published {
                    true => Marks::from_batches(self.run_marks.clone()),
                    false => Marks::default(),
                };
                MgrResponse::Registered { watermark, marks }
            }
            MgrRequest::AllocShared { size, align } => {
                match self.shared.alloc(size, align.max(8)) {
                    Some(addr) => MgrResponse::Addr(addr),
                    None => MgrResponse::Err(MgrError::SharedExhausted { size }),
                }
            }
            MgrRequest::AllocStriped { size } => {
                // Line-aligned so consecutive lines of the allocation rotate
                // across memory servers from its first byte.
                match self.striped.alloc(size, self.layout.line_bytes) {
                    Some(addr) => MgrResponse::Addr(addr),
                    None => MgrResponse::Err(MgrError::StripedExhausted { size }),
                }
            }
            MgrRequest::Free { addr } => match self.layout.region_of(addr) {
                Region::Shared if self.shared.is_live(addr) => {
                    self.shared.free(addr);
                    MgrResponse::Ok
                }
                Region::Striped if self.striped.is_live(addr) => {
                    self.striped.free(addr);
                    MgrResponse::Ok
                }
                region => MgrResponse::Err(MgrError::BadFree { addr, region }),
            },
            MgrRequest::CreateLock => {
                self.locks.push(LockState::default());
                MgrResponse::SyncId(self.locks.len() as u32 - 1)
            }
            MgrRequest::CreateBarrier { parties } => {
                assert!(parties >= 1, "barrier over zero parties");
                self.barriers.push(BarrierState { parties, waiting: Vec::new() });
                MgrResponse::SyncId(self.barriers.len() as u32 - 1)
            }
            MgrRequest::CreateCond => {
                self.conds.push(CondState::default());
                MgrResponse::SyncId(self.conds.len() as u32 - 1)
            }
            MgrRequest::CondSignal { cond } | MgrRequest::CondBroadcast { cond } => {
                let n = if matches!(req, MgrRequest::CondSignal { .. }) { 1 } else { usize::MAX };
                let mut out = self.wake_waiters(cond, done, n);
                out.extend(reply(MgrResponse::Ok));
                return out;
            }
            MgrRequest::Exit { interval } => {
                self.publish(tid, [None; 2], interval);
                self.threads.remove(&tid);
                if self.threads.values().all(|t| t.observer) {
                    self.run_marks.iter_mut().for_each(|by_writer| by_writer.fill(0));
                }
                MgrResponse::Ok
            }
            MgrRequest::Acquire { lock, interval, last_seen } => {
                self.publish(tid, [None; 2], interval);
                return self.take_or_enqueue(lock, Waiter::new(tid, token, done, last_seen), done);
            }
            MgrRequest::Release { lock, interval, handed } => {
                let mut out = match handed.filter(|h| self.hinted_head(lock, tid, h)) {
                    Some(h) => self.hand_over(lock, tid, h, interval, done),
                    None => self.release_lock(lock, tid, interval, done),
                };
                // In standby mode, releases are acknowledged so the client
                // can retry (and fail over) one that vanished in a crash
                // window. Skip the ack when the release itself already
                // produced a response for the releaser.
                if self.ack_releases && !out.iter().any(|o| o.dst == src && o.token == token) {
                    out.extend(reply(MgrResponse::Ok));
                }
                return out;
            }
            MgrRequest::BarrierWait { barrier, interval, last_seen } => {
                self.publish(tid, [None; 2], interval);
                let state = &mut self.barriers[barrier as usize];
                state.waiting.push(Waiter::new(tid, token, done, last_seen));
                if state.waiting.len() as u32 == state.parties {
                    return self.release_barrier(barrier);
                }
                return Vec::new();
            }
            MgrRequest::CondWait { cond, lock, interval, last_seen } => {
                let waiter = Waiter::new(tid, token, done, last_seen);
                self.conds[cond as usize].waiters.push_back((waiter, lock));
                // Atomically release the lock the caller held.
                return self.release_lock(lock, tid, interval, done);
            }
        };
        reply(resp)
    }

    /// Why `tid`'s request is refused, checked before anything is published
    /// or queued, so a refused flush never becomes visible to later
    /// grantees: a flush-carrying sync request needs a registered thread,
    /// then a known object — a release, and the release a cond wait makes,
    /// a lock `tid` may release ([`check_release`](Self::check_release)),
    /// before the cond. A signal publishes nothing and names only a cond.
    fn admit(&self, tid: u32, req: &MgrRequest) -> Result<(), MgrError> {
        let known = |id: u32, len: usize, e: MgrError| ((id as usize) < len).then_some(()).ok_or(e);
        let cond_known = |cond| known(cond, self.conds.len(), MgrError::UnknownCond { cond });
        let registered =
            self.threads.contains_key(&tid).then_some(()).ok_or(MgrError::Unregistered { tid });
        match *req {
            MgrRequest::Acquire { lock, .. } => {
                registered.and(known(lock, self.locks.len(), MgrError::UnknownLock { lock }))
            }
            MgrRequest::Release { lock, .. } => registered.and(self.check_release(lock, tid)),
            MgrRequest::BarrierWait { barrier, .. } => registered.and(known(
                barrier,
                self.barriers.len(),
                MgrError::UnknownBarrier { barrier },
            )),
            MgrRequest::CondWait { cond, lock, .. } => {
                registered.and(self.check_release(lock, tid)).and(cond_known(cond))
            }
            MgrRequest::CondSignal { cond } | MgrRequest::CondBroadcast { cond } => {
                cond_known(cond)
            }
            _ => Ok(()),
        }
    }

    /// Release every waiter of the full `barrier`: each is answered with
    /// what the log holds that it has not seen, once the last arrival and
    /// the release cost are past.
    fn release_barrier(&mut self, barrier: u32) -> Vec<Outgoing> {
        let waiters = std::mem::take(&mut self.barriers[barrier as usize].waiting);
        let release_at = waiters.iter().map(|w| w.ready).fold(SimTime::ZERO, SimTime::max)
            + self.barrier_release;
        let watermark = self.intervals.watermark();
        // Merge for the waiter that has seen the most first: each further
        // merge then extends the one before it backwards (waiters that
        // passed a lock on the way here are one grant apart) instead of
        // starting over.
        let mut order: Vec<usize> = (0..waiters.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(waiters[i].last_seen));
        let mut sets = vec![NoticeSet::default(); waiters.len()];
        for i in order {
            let w = &waiters[i];
            sets[i] = self.intervals.merged_since(w.last_seen, w.tid);
            self.mark_seen(w.tid, watermark);
        }
        self.truncate_seen_by_all(watermark);
        let answer = |(w, notices): (Waiter, NoticeSet)| {
            let resp = MgrResponse::BarrierReleased { notices, watermark };
            Outgoing::reply(self.ep_of(w.tid), w.token, release_at, resp)
        };
        waiters.into_iter().zip(sets).map(answer).collect()
    }

    /// Record a sync op's interval as a write notice, seen already by the
    /// thread it was handed to, if any. The request was admitted first
    /// ([`admit`](Self::admit)).
    fn publish(&mut self, tid: u32, seen_by: Seers, interval: Interval) {
        if !interval.is_empty() {
            for (home, &batch) in (0..).zip(&interval.batches) {
                Marks::raise(&mut self.run_marks, home, tid, batch);
            }
            self.intervals.publish_seen_by(tid, seen_by, interval);
        }
    }

    fn ep_of(&self, tid: u32) -> EndpointId {
        self.threads.get(&tid).unwrap_or_else(|| panic!("unregistered thread {tid}")).ep
    }

    /// Grant `waiter` the log since what it was sent — its advance, if it
    /// was sent one, else nothing (an empty advance at its own watermark),
    /// and before that the interval relayed to it whose record names it a
    /// seer, which only its grant can carry — with what it is to `relay`,
    /// and file the whole grant, for a retransmission if a part was lost.
    fn grant(&mut self, waiter: Waiter, relay: Option<Relay>, at: SimTime) -> Vec<Outgoing> {
        let (first, after) = waiter
            .advanced
            .map_or((NoticeSet::default(), waiter.last_seen), |a| (a.notices, a.watermark));
        let mut notices = self.intervals.merged_since(after, waiter.tid);
        if let Some(seen) = waiter.relayed.filter(|r| r.seen) {
            notices = seen.relay.notices.followed_by(&notices);
        }
        let watermark = self.intervals.watermark();
        self.mark_seen(waiter.tid, watermark);
        self.truncate_seen_by_all(watermark);
        let (ep, token) = (self.ep_of(waiter.tid), waiter.token);
        let whole = self.file_grants.then(|| {
            let (notices, relay) = (first.followed_by(&notices), relay.clone());
            let whole = MgrResponse::Rest { after: waiter.last_seen, notices, watermark, relay };
            Outgoing::filed(ep, token, at, whole)
        });
        let rest = MgrResponse::Rest { after, notices, watermark, relay };
        std::iter::once(Outgoing::reply(ep, token, at, rest)).chain(whole).collect()
    }

    /// Record that `tid` has now seen everything up to `watermark`.
    fn mark_seen(&mut self, tid: u32, watermark: u64) {
        if let Some(info) = self.threads.get_mut(&tid) {
            info.last_seen = info.last_seen.max(watermark);
        }
    }

    /// Garbage-collect the notice records every participant has seen: one
    /// pass over the registered threads, so once per grant and once per
    /// barrier release, not once per waiter released.
    fn truncate_seen_by_all(&mut self, watermark: u64) {
        let floor = self
            .threads
            .values()
            .filter(|t| !t.observer)
            .map(|t| t.last_seen)
            .min()
            .unwrap_or(watermark);
        self.intervals.truncate_seen(floor);
    }

    /// Number of retained write-notice records (diagnostics / tests).
    pub fn retained_notices(&self) -> usize {
        self.intervals.len()
    }

    /// Why `tid` may not release `lock`, if it may not: the lock is unknown,
    /// or `tid` neither holds it nor had it lease-reclaimed.
    fn check_release(&self, lock: u32, tid: u32) -> Result<(), MgrError> {
        match self.locks.get(lock as usize) {
            None => Err(MgrError::UnknownLock { lock }),
            Some(s) if s.holder != Some(tid) && self.reclaimed.get(&lock) != Some(&tid) => {
                Err(MgrError::NotHolder { lock, tid })
            }
            Some(_) => Ok(()),
        }
    }

    /// Release `lock` held by `tid` at time `done`, publishing its
    /// `interval` and granting to the next queued waiter if any. The request
    /// was admitted ([`check_release`](Self::check_release)), so a `tid` that
    /// does not hold `lock` had it lease-reclaimed: its late release is
    /// absorbed (its write notices stand).
    ///
    /// The waiter behind the one granted may have been advanced before this
    /// release, and before whatever else the releaser did while it held
    /// the lock: the grant carries what the log gained since that advance,
    /// for the grantee to relay — nothing, for a waiter advanced only now.
    fn release_lock(
        &mut self,
        lock: u32,
        tid: u32,
        interval: Interval,
        done: SimTime,
    ) -> Vec<Outgoing> {
        self.publish(tid, [None; 2], interval);
        if self.locks[lock as usize].holder != Some(tid) {
            self.reclaimed.remove(&lock);
            self.stale_releases += 1;
            return Vec::new();
        }
        // The waiter behind the next, advanced now if not before: then it
        // lacks nothing this release published.
        let mut out: Vec<_> = self.advance_waiter(lock, 1, done).into_iter().collect();
        let state = &mut self.locks[lock as usize];
        state.holder = None;
        state.free_at = done;
        let Some(next) = state.queue.pop_front() else { return out };
        let at = done.max(next.ready);
        out.extend(self.take_lock(lock, next, at));
        out
    }

    /// Make `waiter` the holder of `lock` from `at`: it is granted — the
    /// rest of its grant, if it was sent an advance, with what a record
    /// names it a seer of — with what it is to relay to the head, if the
    /// head was advanced: what the log gained since. The waiters behind it
    /// are sent their advances ([`advance`](Self::advance)), and the
    /// requests it parked as an advanced waiter are served: a standby whose
    /// log ended before the grant the primary sent it reclaims the lock and
    /// grants it again.
    fn take_lock(&mut self, lock: u32, mut waiter: Waiter, at: SimTime) -> Vec<Outgoing> {
        let (tid, state) = (waiter.tid, &mut self.locks[lock as usize]);
        let relay = state.queue.front_mut().and_then(|head| {
            let after = head.advanced.as_ref()?.watermark;
            let notices = self.intervals.merged_since(after, head.tid);
            let relay = Relay { after, notices, upto: self.intervals.watermark() };
            head.relayed = Some(Relayed { relay: relay.clone(), seen: false });
            Some(relay)
        });
        state.holder = Some(tid);
        state.hold = waiter.token;
        state.leased_until = at + self.lease;
        let parked = std::mem::take(&mut waiter.parked);
        let mut out = self.grant(waiter, relay, at);
        out.extend(self.advance(lock, at));
        out.extend(self.serve_parked(tid, parked));
        out
    }

    /// Serve, in arrival order, the requests `tid` parked as an advanced
    /// waiter, now that it holds the lock.
    fn serve_parked(&mut self, tid: u32, parked: Vec<Parked>) -> Vec<Outgoing> {
        parked.into_iter().flat_map(|p| self.serve(p.src, tid, p.token, p.req, p.arrival)).collect()
    }

    /// Queue `waiter` on the held `lock`, MCS-style: the queue's tail —
    /// holder or waiter — is told at once who follows it, under the token
    /// of the request its hold answers, so a holder has its successor's
    /// name long before it releases. A tail that is a waiter must relay what
    /// the newcomer's advance will lack — the newcomer is advanced before
    /// the tail's grant is folded. A newcomer that is the head is sent its
    /// advance, and so is a second waiter that has a successor now.
    fn enqueue(&mut self, lock: u32, waiter: Waiter, at: SimTime) -> Vec<Outgoing> {
        let state = &self.locks[lock as usize];
        let holder = state.holder.expect("a queue forms behind a holder");
        let (tail, hold, relay) =
            state.queue.back().map_or((holder, state.hold, false), |w| (w.tid, w.token, true));
        let (ep, token) = (self.ep_of(waiter.tid), waiter.token);
        let next = Successor { lock, tid: waiter.tid, ep, token, relay };
        let hint = Outgoing::reply(self.ep_of(tail), hold, at, MgrResponse::Successor(next));
        self.locks[lock as usize].queue.push_back(waiter);
        std::iter::once(hint).chain(self.advance(lock, at)).collect()
    }

    /// Send `lock`'s head, and its second waiter once a third queues behind
    /// it, their advances if they were not sent one: what their grants
    /// would carry now. A second waiter is advanced once its successor's
    /// hint is on its way — so it holds that hint before it can be granted
    /// — or, at the latest, by the fold that makes its predecessor the
    /// holder (in [`hand_over`](Self::hand_over), before the hand-off's
    /// interval is published: its hint told the head to relay it, so its
    /// advance must lack it).
    fn advance(&mut self, lock: u32, at: SimTime) -> Vec<Outgoing> {
        let behind_second = self.locks[lock as usize].queue.len() > 2;
        let head = self.advance_waiter(lock, 0, at);
        head.into_iter()
            .chain(behind_second.then(|| self.advance_waiter(lock, 1, at)).flatten())
            .collect()
    }

    /// Send the `i`-th waiter of the held `lock`, if it was sent none, its
    /// advance. No record names it a seer yet, so the merge is all of it;
    /// what the log gains later comes by baton.
    fn advance_waiter(&mut self, lock: u32, i: usize, at: SimTime) -> Option<Outgoing> {
        let state = &self.locks[lock as usize];
        let w = state.queue.get(i).filter(|w| state.holder.is_some() && w.advanced.is_none())?;
        let (tid, token) = (w.tid, w.token);
        let notices = self.intervals.merged_since(w.last_seen, tid);
        let watermark = self.intervals.watermark();
        // Kept only to file the whole grant the waiter may be sent in parts.
        let kept = if self.file_grants { notices.clone() } else { NoticeSet::default() };
        self.locks[lock as usize].queue[i].advanced = Some(Advanced { notices: kept, watermark });
        let advance = MgrResponse::Advance { notices, watermark };
        Some(Outgoing::reply(self.ep_of(tid), token, at, advance))
    }

    /// Whether `tid`'s release names the advanced head of the `lock` it
    /// holds — a hand-off to fold. Anything else (a hint that went stale, a
    /// holder that lost its lease) is released as usual.
    fn hinted_head(&self, lock: u32, tid: u32, handed: &Handed) -> bool {
        let held = self.locks.get(lock as usize).filter(|s| s.holder == Some(tid));
        let head = held.and_then(|s| s.queue.front()).filter(|w| w.advanced.is_some());
        head.is_some_and(|w| (w.tid, w.token) == (handed.to, handed.token))
    }

    /// Fold `holder`'s direct hand-off of `lock` to the advanced head: its
    /// interval is published as already seen by the successor, which got
    /// it with the grant, and by the next waiter, advanced before this
    /// fold, to which the successor relays it — so it is kept on that
    /// waiter's record until it holds. The successor holds from `done`, the
    /// new second waiter is sent its advance, and the requests the
    /// successor parked before this release arrived are served. The
    /// successor's grant is rebuilt as it assembled it — its advance, what
    /// was relayed to it, the holder's interval — to answer a
    /// retransmission if a part was lost.
    fn hand_over(
        &mut self,
        lock: u32,
        holder: u32,
        handed: Handed,
        interval: Interval,
        done: SimTime,
    ) -> Vec<Outgoing> {
        // The waiter behind the successor, advanced before this interval
        // is published (see `advance`).
        let mut out: Vec<_> = self.advance_waiter(lock, 1, done).into_iter().collect();
        let state = &mut self.locks[lock as usize];
        let Waiter { tid, token, last_seen, advanced, relayed, parked, .. } =
            state.queue.pop_front().expect("the advanced head is queued");
        debug_assert_eq!((tid, token), (handed.to, handed.token));
        let advanced = advanced.expect("an advanced head");
        let before = relayed.map_or(Relay::none(0), |r| r.relay);
        let second = state.queue.front().filter(|w| w.advanced.is_some()).map(|w| w.tid);
        state.holder = Some(tid);
        state.hold = token;
        state.free_at = done;
        state.leased_until = done + self.lease;
        let own = match second.is_some() || self.file_grants {
            true => NoticeSet::interval(holder, &interval),
            false => NoticeSet::default(),
        };
        let relay = Relay { notices: own, ..Relay::none(advanced.watermark) };
        let watermark = advanced.watermark.max(before.upto);
        let whole = self.file_grants.then(|| {
            let notices = advanced.notices.followed_by(&before.notices).followed_by(&relay.notices);
            let relay = second.map(|_| relay.clone());
            let whole = MgrResponse::Rest { after: last_seen, notices, watermark, relay };
            Outgoing::filed(self.ep_of(tid), token, done, whole)
        });
        if second.is_some() {
            self.locks[lock as usize].queue[0].relayed = Some(Relayed { relay, seen: true });
        }
        self.publish(holder, [Some(handed.to), second], interval);
        self.mark_seen(tid, watermark);
        self.truncate_seen_by_all(self.intervals.watermark());
        out.extend(whole);
        out.extend(self.advance(lock, done));
        out.extend(self.serve_parked(tid, parked));
        out
    }

    /// Queue `waiter` for `lock` at `now`: it takes a free lock once it is
    /// ready and the last release is past, and queues behind a held one.
    fn take_or_enqueue(&mut self, lock: u32, waiter: Waiter, now: SimTime) -> Vec<Outgoing> {
        let state = &self.locks[lock as usize];
        if state.holder.is_none() {
            let at = waiter.ready.max(state.free_at);
            self.take_lock(lock, waiter, at)
        } else {
            self.enqueue(lock, waiter, now)
        }
    }

    /// Move up to `n` condvar waiters onto their lock queues (or grant
    /// directly when the lock is free). `cond` was admitted; each lock was
    /// when its waiter queued.
    fn wake_waiters(&mut self, cond: u32, now: SimTime, n: usize) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for _ in 0..n {
            let Some((mut waiter, lock)) = self.conds[cond as usize].waiters.pop_front() else {
                break;
            };
            waiter.ready = waiter.ready.max(now);
            out.extend(self.take_or_enqueue(lock, waiter, now));
        }
        out
    }

    /// Reclaim every lock whose lease expired before `now` (the
    /// [`MgrLogOp::ReclaimExpired`] fold step): the holder is deposed, its
    /// eventual late release will be absorbed, and the next queued waiter
    /// (if any) is granted at `now`.
    fn reclaim_expired(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for lock in 0..self.locks.len() as u32 {
            let state = &mut self.locks[lock as usize];
            let Some(holder) = state.holder else { continue };
            if state.leased_until > now {
                continue;
            }
            state.holder = None;
            state.free_at = state.free_at.max(state.leased_until);
            let next = state.queue.pop_front();
            let at = next.as_ref().map(|n| now.max(n.ready).max(state.free_at));
            self.reclaimed.insert(lock, holder);
            self.reclaims.push((lock, holder));
            state.queue.iter_mut().for_each(|w| w.advanced = None);
            if let (Some(next), Some(at)) = (next, at) {
                out.extend(self.take_lock(lock, next, at));
            }
        }
        out
    }

    /// Earliest lease expiry among currently held locks — the virtual
    /// deadline an active standby sleeps until between requests.
    pub fn next_lease_expiry(&self) -> Option<SimTime> {
        self.locks.iter().filter(|s| s.holder.is_some()).map(|s| s.leased_until).min()
    }

    /// Drain `(done, op, tid)` of the requests served since the last drain,
    /// for `MgrServe` trace emission: what [`apply`](Self::apply) served,
    /// including requests parked earlier and served by this record.
    pub fn take_served(&mut self) -> Vec<(SimTime, &'static str, u32)> {
        std::mem::take(&mut self.served)
    }

    /// Drain the (lock, deposed holder) pairs reclaimed since the last
    /// drain, for `LeaseReclaim` trace emission.
    pub fn take_reclaims(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.reclaims)
    }

    /// The service resource's accounting: requests served, busy and queue
    /// time. What was served is [`take_served`](Self::take_served)'s stream.
    pub fn stats(&self) -> ResourceStats {
        self.resource.stats()
    }

    /// Late releases absorbed from lease-reclaimed holders.
    pub fn stale_releases(&self) -> u64 {
        self.stale_releases
    }

    /// Reset the manager resource's queue accounting between runs.
    pub fn reset_queue_accounting(&mut self) {
        self.resource.reset_queue_accounting();
    }

    /// Notice-log watermark (tests / diagnostics).
    pub fn notice_watermark(&self) -> u64 {
        self.intervals.watermark()
    }
}

#[cfg(test)]
mod tests {
    use samhita_regc::{FineUpdate, PageRun};

    use super::*;

    const T0: u32 = 0;
    const T1: u32 = 1;
    const T2: u32 = 2;
    const T3: u32 = 3;
    const EP0: EndpointId = EndpointId(10);
    const EP1: EndpointId = EndpointId(11);
    const EP2: EndpointId = EndpointId(12);
    const EP3: EndpointId = EndpointId(13);

    /// A release of `lock` publishing `pages`, handed to `(tid, token)`.
    fn release(lock: u32, pages: Vec<u64>, to: Option<(u32, u64)>) -> MgrRequest {
        let handed = to.map(|(to, token)| Handed { to, token });
        MgrRequest::Release { lock, interval: Interval { pages, ..Interval::default() }, handed }
    }

    fn acquire(lock: u32, last_seen: u64) -> MgrRequest {
        MgrRequest::Acquire { lock, interval: Interval::default(), last_seen }
    }

    /// The one successor hint among `out`: (holder endpoint, hold token,
    /// hint).
    fn hint_in(out: &[Outgoing]) -> Option<(EndpointId, u64, Successor)> {
        let mut hints = out.iter().filter_map(|o| match &o.resp {
            MgrResponse::Successor(s) => Some((o.dst, o.token, *s)),
            _ => None,
        });
        let hint = hints.next();
        assert!(hints.next().is_none(), "one hint at a time: {out:?}");
        hint
    }

    /// The one advance among `out`: (head endpoint, its token, notices,
    /// watermark).
    fn advance_in(out: &[Outgoing]) -> Option<(EndpointId, u64, NoticeSet, u64)> {
        out.iter().find_map(|o| match &o.resp {
            MgrResponse::Advance { notices, watermark } => {
                Some((o.dst, o.token, notices.clone(), *watermark))
            }
            _ => None,
        })
    }

    /// An engine that files the whole of a grant sent in parts, as one
    /// under replay protection does, so the tests see it.
    fn filing(cfg: &SamhitaConfig) -> ManagerEngine {
        ManagerEngine { file_grants: true, ..ManagerEngine::new(cfg) }
    }

    fn engine() -> ManagerEngine {
        let cfg = SamhitaConfig::small_for_tests();
        let mut e = filing(&cfg);
        e.handle(EP0, T0, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        e.handle(EP1, T1, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        e
    }

    fn lock_id(e: &mut ManagerEngine) -> u32 {
        match &e.handle(EP0, T0, 2, MgrRequest::CreateLock, SimTime::ZERO)[0].resp {
            MgrResponse::SyncId(id) => *id,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_and_create_objects() {
        let mut e = engine();
        let out = e.handle(EP0, T0, 5, MgrRequest::CreateBarrier { parties: 2 }, SimTime::ZERO);
        assert!(matches!(out[0].resp, MgrResponse::SyncId(0)));
        let out = e.handle(EP0, T0, 6, MgrRequest::CreateCond, SimTime::ZERO);
        assert!(matches!(out[0].resp, MgrResponse::SyncId(0)));
    }

    #[test]
    fn uncontended_acquire_grants_immediately() {
        let mut e = engine();
        let l = lock_id(&mut e);
        let out = e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire { lock: l, interval: Interval::default(), last_seen: 0 },
            SimTime::from_us(1),
        );
        // The grant is whole — a rest after the requester's own watermark
        // — and kept to answer a retransmission.
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].dst, out[0].filed, out[1].filed), (EP0, false, true));
        assert!(matches!(out[0].resp, MgrResponse::Rest { after: 0, .. }));
        assert!(out[0].at >= SimTime::from_us(1));
    }

    #[test]
    fn contended_acquire_queues_until_release() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire { lock: l, interval: Interval::default(), last_seen: 0 },
            SimTime::ZERO,
        );
        // Second acquire: queued; the holder is told who is next, and the
        // newcomer, now the head, is sent its advance.
        let out = e.handle(
            EP1,
            T1,
            4,
            MgrRequest::Acquire { lock: l, interval: Interval::default(), last_seen: 0 },
            SimTime::from_ns(10),
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0].resp, MgrResponse::Successor(s) if s.tid == T1));
        assert!(matches!(out[1].resp, MgrResponse::Advance { .. }) && out[1].dst == EP1);
        // Release by T0 grants T1, no earlier than the release.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::Release {
                lock: l,
                interval: Interval { pages: vec![7], ..Interval::default() },
                handed: None,
            },
            SimTime::from_us(5),
        );
        // T1 was sent its grant's advance when it queued; it is sent the
        // rest, and the whole is kept.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.dst == EP1 && o.at >= SimTime::from_us(5)));
        assert!(matches!(out[0].resp, MgrResponse::Rest { after: 0, watermark: 1, .. }));
        assert!(out[1].filed);
        // The grant carries the releaser's write notice for page 7.
        match &out[1].resp {
            MgrResponse::Rest { after: 0, notices, watermark, .. } => {
                assert_eq!(notices.runs[..], [PageRun { first_page: 7, len: 1, writer: T0 }]);
                assert!(notices.updates.is_empty());
                assert_eq!(*watermark, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A refused release publishes nothing: its flush must not reach later
    /// grantees under an error response.
    #[test]
    fn foreign_release_reports_a_typed_error() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(EP0, T0, 3, acquire(l, 0), SimTime::ZERO);
        let refused =
            [(l, MgrError::NotHolder { lock: l, tid: T1 }), (9, MgrError::UnknownLock { lock: 9 })];
        for (token, (lock, want)) in (4..).zip(refused) {
            let out = e.handle(EP1, T1, token, release(lock, vec![7], None), SimTime::ZERO);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].dst, EP1);
            assert!(matches!(&out[0].resp, MgrResponse::Err(e) if *e == want), "{:?}", out[0].resp);
        }
        assert_eq!(e.notice_watermark(), 0);
        // The rightful holder is undisturbed and can still release.
        let out = e.handle(EP0, T0, 5, release(l, vec![7], None), SimTime::ZERO);
        assert!(out.is_empty(), "uncontended release sends nothing without ack mode");
        assert_eq!(e.notice_watermark(), 1);
    }

    #[test]
    fn unknown_sync_ids_report_typed_errors() {
        let mut e = engine();
        let l = lock_id(&mut e);
        // T0 holds `l`; nothing is published on the way.
        e.handle(EP0, T0, 3, acquire(l, 0), SimTime::ZERO);
        let flush = || Interval { pages: vec![7], ..Interval::default() };
        let acq = |lock| MgrRequest::Acquire { lock, interval: flush(), last_seen: 0 };
        let rel = |lock| MgrRequest::Release { lock, interval: flush(), handed: None };
        let wait = |barrier| MgrRequest::BarrierWait { barrier, interval: flush(), last_seen: 0 };
        let cwait =
            |cond, lock| MgrRequest::CondWait { cond, lock, interval: flush(), last_seen: 0 };
        let (unreg, ep_unreg) = (42, EndpointId(77));
        // Each flush-carrying request is refused from an unregistered
        // thread before its object is looked at; a signal, which publishes
        // nothing, only for its cond.
        let cases: Vec<(EndpointId, u32, MgrRequest, MgrError)> = vec![
            (ep_unreg, unreg, acq(l), MgrError::Unregistered { tid: unreg }),
            (ep_unreg, unreg, rel(l), MgrError::Unregistered { tid: unreg }),
            (ep_unreg, unreg, wait(7), MgrError::Unregistered { tid: unreg }),
            (ep_unreg, unreg, cwait(5, l), MgrError::Unregistered { tid: unreg }),
            (
                ep_unreg,
                unreg,
                MgrRequest::CondSignal { cond: 5 },
                MgrError::UnknownCond { cond: 5 },
            ),
            (
                ep_unreg,
                unreg,
                MgrRequest::CondBroadcast { cond: 5 },
                MgrError::UnknownCond { cond: 5 },
            ),
            // Unknown and foreign objects, from a registered thread.
            (EP1, T1, acq(9), MgrError::UnknownLock { lock: 9 }),
            (EP1, T1, rel(9), MgrError::UnknownLock { lock: 9 }),
            (EP1, T1, rel(l), MgrError::NotHolder { lock: l, tid: T1 }),
            (EP1, T1, wait(7), MgrError::UnknownBarrier { barrier: 7 }),
            // A cond wait releases its lock first: the lock is checked
            // before the cond.
            (EP1, T1, cwait(5, 9), MgrError::UnknownLock { lock: 9 }),
            (EP1, T1, cwait(5, l), MgrError::NotHolder { lock: l, tid: T1 }),
            (EP0, T0, cwait(5, l), MgrError::UnknownCond { cond: 5 }),
            (EP1, T1, MgrRequest::CondSignal { cond: 5 }, MgrError::UnknownCond { cond: 5 }),
            (EP1, T1, MgrRequest::CondBroadcast { cond: 5 }, MgrError::UnknownCond { cond: 5 }),
        ];
        for (i, (ep, tid, req, want)) in cases.into_iter().enumerate() {
            let out = e.handle(ep, tid, 10 + i as u64, req, SimTime::ZERO);
            assert_eq!(out.len(), 1, "case {i}: {out:?}");
            assert_eq!(out[0].dst, ep, "case {i}");
            match &out[0].resp {
                MgrResponse::Err(got) => assert_eq!(*got, want, "case {i}"),
                other => panic!("case {i}: unexpected {other:?}"),
            }
            // A refused request publishes nothing.
            assert_eq!(e.notice_watermark(), 0, "case {i}");
        }
        // T0 still holds `l`: it can release it.
        assert!(e.handle(EP0, T0, 99, rel(l), SimTime::ZERO).is_empty());
        assert_eq!(e.notice_watermark(), 1);
    }

    /// Folding the identical record stream through `apply` on a second
    /// engine reproduces the primary bit-for-bit — the replication
    /// argument for the hot standby.
    #[test]
    fn log_replay_reproduces_state_and_responses() {
        let cfg = SamhitaConfig::small_for_tests();
        let (mut primary, mut standby) = (filing(&cfg), filing(&cfg));
        let script: Vec<(EndpointId, u32, u64, MgrRequest)> = vec![
            (EP0, T0, 1, MgrRequest::Register { observer: false }),
            (EP1, T1, 1, MgrRequest::Register { observer: false }),
            (EP0, T0, 2, MgrRequest::CreateLock),
            (EP0, T0, 3, MgrRequest::AllocShared { size: 4096, align: 8 }),
            (
                EP0,
                T0,
                4,
                MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 },
            ),
            (
                EP1,
                T1,
                5,
                MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 },
            ),
            (
                EP0,
                T0,
                6,
                MgrRequest::Release {
                    lock: 0,
                    interval: Interval { pages: vec![3], ..Interval::default() },
                    handed: None,
                },
            ),
            // T0 again, behind T1 now; T1 hands it over directly…
            (EP2, T2, 1, MgrRequest::Register { observer: false }),
            (
                EP0,
                T0,
                7,
                MgrRequest::Acquire {
                    lock: 0,
                    interval: Interval { pages: vec![4], ..Interval::default() },
                    last_seen: 1,
                },
            ),
            (EP1, T1, 6, release(0, vec![5], Some((T0, 7)))),
            // …T2 queues behind T0, which releases to it directly, and
            // T2's own release overtakes that hand-off on the wire.
            (
                EP2,
                T2,
                2,
                MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 1 },
            ),
            (EP2, T2, 3, release(0, vec![6], None)),
            (EP0, T0, 8, release(0, vec![7], Some((T2, 2)))),
        ];
        let (mut handed, mut released) = (0, 0);
        for (i, (src, tid, token, req)) in script.into_iter().enumerate() {
            let arrival = SimTime::from_ns(100 * i as u64);
            let rec = primary.record(src, tid, token, req, arrival);
            let shipped = rec.clone();
            let a = primary.apply(rec);
            let b = standby.apply(shipped);
            assert_eq!(a.len(), b.len(), "record {i}: diverging fan-out");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.dst, y.dst);
                assert_eq!(x.token, y.token);
                assert_eq!(x.at, y.at, "record {i}: service times diverge");
                assert_eq!(x.filed, y.filed);
                assert_eq!(format!("{:?}", x.resp), format!("{:?}", y.resp));
                handed += usize::from(x.filed);
            }
            let served = primary.take_served();
            assert_eq!(served, standby.take_served(), "record {i}");
            released += releases(&served);
        }
        assert_eq!(handed, 4, "two hand-offs, and two grants from the manager");
        assert_eq!(released, 4, "the parked release was served");
        assert_eq!(primary.applied_seq(), standby.applied_seq());
        assert_eq!(primary.notice_watermark(), standby.notice_watermark());
        assert_eq!(primary.last_done(), standby.last_done());
        assert_eq!(primary.stats(), standby.stats());
    }

    #[test]
    #[should_panic(expected = "manager log gap")]
    fn apply_refuses_log_gaps() {
        let cfg = SamhitaConfig::small_for_tests();
        let mut e = ManagerEngine::new(&cfg);
        let rec = e.record(EP0, T0, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        let skipped = MgrLogRecord { seq: rec.seq + 1, op: rec.op };
        e.apply(skipped);
    }

    fn leased_engine() -> ManagerEngine {
        let cfg = SamhitaConfig {
            manager_standby: true,
            mgr_lease_ns: 1_000, // 1 µs leases so expiry is easy to reach
            ..SamhitaConfig::small_for_tests()
        };
        let mut e = ManagerEngine::new(&cfg);
        e.handle(EP0, T0, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        e.handle(EP1, T1, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        e.handle(EP0, T0, 2, MgrRequest::CreateLock, SimTime::ZERO);
        e
    }

    #[test]
    fn expired_leases_are_reclaimed_and_waiters_granted() {
        let mut e = leased_engine();
        let out = e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 },
            SimTime::ZERO,
        );
        let granted_at = out[0].at;
        e.handle(
            EP1,
            T1,
            4,
            MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 },
            SimTime::from_ns(100),
        );
        let expiry = e.next_lease_expiry().expect("a held lock has a lease");
        assert_eq!(expiry, granted_at + SimTime::from_ns(1_000));
        // Before expiry a sweep reclaims nothing.
        let rec = e.record_reclaim(SimTime::from_ns(1));
        assert!(e.apply(rec).is_empty());
        assert!(e.take_reclaims().is_empty());
        // After expiry the sweep deposes T0 and grants the queued T1.
        let sweep_at = expiry + SimTime::from_ns(1);
        let rec = e.record_reclaim(sweep_at);
        let out = e.apply(rec);
        assert_eq!(e.take_reclaims(), vec![(0, T0)]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.dst == EP1));
        // Whole: a reclaimed lock's advance is forgotten.
        assert!(matches!(out[0].resp, MgrResponse::Rest { after: 0, .. }) && out[1].filed);
        assert!(out[0].at >= sweep_at);
        // The deposed holder's late release is absorbed: no error, its
        // notices still publish, and the new holder keeps the lock.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::Release {
                lock: 0,
                interval: Interval { pages: vec![9], ..Interval::default() },
                handed: None,
            },
            sweep_at + SimTime::from_ns(50),
        );
        assert_eq!(out.len(), 1, "standby mode still acks the stale release");
        assert_eq!(out[0].dst, EP0);
        assert!(matches!(out[0].resp, MgrResponse::Ok));
        assert_eq!(e.stale_releases(), 1);
        assert_eq!(e.notice_watermark(), 1, "the stale release's flush still published");
        // T1 still holds: its own release must succeed.
        let out = e.handle(
            EP1,
            T1,
            6,
            MgrRequest::Release { lock: 0, interval: Interval::default(), handed: None },
            sweep_at + SimTime::from_ns(100),
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].resp, MgrResponse::Ok), "ack mode acknowledges releases");
    }

    #[test]
    fn releases_are_acknowledged_in_standby_mode() {
        let mut e = leased_engine();
        e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire { lock: 0, interval: Interval::default(), last_seen: 0 },
            SimTime::ZERO,
        );
        let out = e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release { lock: 0, interval: Interval::default(), handed: None },
            SimTime::from_ns(500),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP0);
        assert_eq!(out[0].token, 4);
        assert!(matches!(out[0].resp, MgrResponse::Ok));
    }

    #[test]
    fn barrier_releases_all_at_max_arrival() {
        let mut e = engine();
        e.handle(EP0, T0, 2, MgrRequest::CreateBarrier { parties: 2 }, SimTime::ZERO);
        let out = e.handle(
            EP0,
            T0,
            3,
            MgrRequest::BarrierWait {
                barrier: 0,
                interval: Interval { pages: vec![1], ..Interval::default() },
                last_seen: 0,
            },
            SimTime::from_us(1),
        );
        assert!(out.is_empty(), "first arrival waits");
        let out = e.handle(
            EP1,
            T1,
            4,
            MgrRequest::BarrierWait {
                barrier: 0,
                interval: Interval { pages: vec![2], ..Interval::default() },
                last_seen: 0,
            },
            SimTime::from_us(9),
        );
        assert_eq!(out.len(), 2, "last arrival releases everyone");
        let release_at = out[0].at;
        assert!(out.iter().all(|o| o.at == release_at));
        assert!(release_at > SimTime::from_us(9), "release after the straggler");
        // Each participant is sent the other's page, not its own.
        for (o, theirs) in out.iter().zip([(2, T1), (1, T0)]) {
            match &o.resp {
                MgrResponse::BarrierReleased { notices, watermark } => {
                    let (first_page, writer) = theirs;
                    assert_eq!(notices.runs[..], [PageRun { first_page, len: 1, writer }]);
                    assert_eq!(*watermark, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The barrier is reusable.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::BarrierWait { barrier: 0, interval: Interval::default(), last_seen: 2 },
            SimTime::from_us(20),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn condvar_wait_signal_handoff() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(EP0, T0, 9, MgrRequest::CreateCond, SimTime::ZERO);
        // T0 holds the lock and waits on the cond (releasing the lock).
        e.handle(
            EP0,
            T0,
            10,
            MgrRequest::Acquire { lock: l, interval: Interval::default(), last_seen: 0 },
            SimTime::ZERO,
        );
        let out = e.handle(
            EP0,
            T0,
            11,
            MgrRequest::CondWait {
                cond: 0,
                lock: l,
                interval: Interval { pages: vec![3], ..Interval::default() },
                last_seen: 0,
            },
            SimTime::from_us(1),
        );
        assert!(out.is_empty(), "no one queued on the lock");
        // T1 can now take the lock, then signals.
        let out = e.handle(
            EP1,
            T1,
            12,
            MgrRequest::Acquire { lock: l, interval: Interval::default(), last_seen: 0 },
            SimTime::from_us(2),
        );
        assert_eq!(out.len(), 2, "granted, and the whole kept");
        let out = e.handle(EP1, T1, 13, MgrRequest::CondSignal { cond: 0 }, SimTime::from_us(3));
        // Signal moved T0 onto the lock queue, at its head: the holder is
        // hinted, the signaler gets an Ok.
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0].resp, MgrResponse::Successor(s) if (s.tid, s.token) == (T0, 11)));
        assert!(matches!(out[2].resp, MgrResponse::Ok));
        // T1 releases: T0 is re-granted the lock (token 11 — the CondWait).
        let out = e.handle(
            EP1,
            T1,
            14,
            MgrRequest::Release { lock: l, interval: Interval::default(), handed: None },
            SimTime::from_us(4),
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| (o.dst, o.token) == (EP0, 11)));
        assert!(matches!(out[0].resp, MgrResponse::Rest { .. }));
        assert!(matches!(out[1].resp, MgrResponse::Rest { .. }) && out[1].filed);
    }

    #[test]
    fn signal_with_no_waiters_is_ok() {
        let mut e = engine();
        e.handle(EP0, T0, 2, MgrRequest::CreateCond, SimTime::ZERO);
        let out = e.handle(EP0, T0, 3, MgrRequest::CondSignal { cond: 0 }, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].resp, MgrResponse::Ok));
    }

    #[test]
    fn alloc_free_roundtrip_by_region() {
        let mut e = engine();
        let shared = match &e.handle(
            EP0,
            T0,
            2,
            MgrRequest::AllocShared { size: 4096, align: 8 },
            SimTime::ZERO,
        )[0]
        .resp
        {
            MgrResponse::Addr(a) => *a,
            other => panic!("unexpected {other:?}"),
        };
        let striped =
            match &e.handle(EP0, T0, 3, MgrRequest::AllocStriped { size: 1 << 20 }, SimTime::ZERO)
                [0]
            .resp
            {
                MgrResponse::Addr(a) => *a,
                other => panic!("unexpected {other:?}"),
            };
        let layout = AddressLayout::new(&SamhitaConfig::small_for_tests());
        assert_eq!(layout.region_of(shared), Region::Shared);
        assert_eq!(layout.region_of(striped), Region::Striped);
        assert_eq!(striped % layout.line_bytes, 0, "striped allocations are line-aligned");
        for addr in [shared, striped] {
            let out = e.handle(EP0, T0, 4, MgrRequest::Free { addr }, SimTime::ZERO);
            assert!(matches!(out[0].resp, MgrResponse::Ok));
        }
        // Double free reports an error instead of panicking the manager.
        let out = e.handle(EP0, T0, 5, MgrRequest::Free { addr: shared }, SimTime::ZERO);
        assert!(matches!(out[0].resp, MgrResponse::Err(_)));
    }

    #[test]
    fn manager_requests_queue_on_its_resource() {
        let mut e = engine();
        let a = e.handle(EP0, T0, 2, MgrRequest::CreateLock, SimTime::ZERO)[0].at;
        let b = e.handle(EP0, T0, 3, MgrRequest::CreateLock, SimTime::ZERO)[0].at;
        assert!(b > a, "same-arrival requests serialize at the manager");
    }

    #[test]
    fn notice_log_is_garbage_collected_once_everyone_has_seen() {
        let mut e = engine();
        e.handle(EP0, T0, 2, MgrRequest::CreateBarrier { parties: 2 }, SimTime::ZERO);
        let mut seen = [0u64; 2];
        for round in 0..50u64 {
            for (tid, ep) in [(T0, EP0), (T1, EP1)] {
                let out = e.handle(
                    ep,
                    tid,
                    10 + round,
                    MgrRequest::BarrierWait {
                        barrier: 0,
                        interval: Interval { pages: vec![round], ..Interval::default() },
                        last_seen: seen[tid as usize],
                    },
                    SimTime::from_us(round),
                );
                for o in out {
                    if let MgrResponse::BarrierReleased { watermark, .. } = o.resp {
                        // Track each participant's watermark like the real
                        // thread context would.
                        seen = [watermark; 2];
                    }
                }
            }
            // Retention must stay bounded by one round's publications, not
            // grow with history.
            assert!(
                e.retained_notices() <= 4,
                "round {round}: {} notices retained",
                e.retained_notices()
            );
        }
        assert!(e.notice_watermark() >= 100);
    }

    #[test]
    fn observers_do_not_block_truncation() {
        let mut e = engine();
        // A host-like observer registered from the start with last_seen 0.
        e.handle(EndpointId(99), 999, 1, MgrRequest::Register { observer: true }, SimTime::ZERO);
        e.handle(EP0, T0, 2, MgrRequest::CreateBarrier { parties: 2 }, SimTime::ZERO);
        let mut seen = [0u64; 2];
        for round in 0..10u64 {
            for (tid, ep) in [(T0, EP0), (T1, EP1)] {
                let out = e.handle(
                    ep,
                    tid,
                    10,
                    MgrRequest::BarrierWait {
                        barrier: 0,
                        interval: Interval { pages: vec![round], ..Interval::default() },
                        last_seen: seen[tid as usize],
                    },
                    SimTime::ZERO,
                );
                for o in out {
                    if let MgrResponse::BarrierReleased { watermark, .. } = o.resp {
                        seen = [watermark; 2];
                    }
                }
            }
        }
        assert!(e.retained_notices() <= 4, "observer pinned the log: {}", e.retained_notices());
    }

    #[test]
    fn late_registrants_start_at_the_current_watermark() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire {
                lock: l,
                interval: Interval { pages: vec![1], ..Interval::default() },
                last_seen: 0,
            },
            SimTime::ZERO,
        );
        e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release {
                lock: l,
                interval: Interval { pages: vec![2], batches: vec![0, 3], ..Interval::default() },
                handed: None,
            },
            SimTime::ZERO,
        );
        // The registrant is never sent the two notices, so it is told the
        // batches they name.
        let out =
            e.handle(EndpointId(50), 7, 5, MgrRequest::Register { observer: false }, SimTime::ZERO);
        match &out[0].resp {
            MgrResponse::Registered { watermark, marks } => {
                assert_eq!((*watermark, marks.batch(1, T0), marks.batch(0, T0)), (2, 3, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Once the run's last thread is gone, the next run starts on homes
        // the host has settled: nothing to follow.
        for (ep, tid) in [(EP0, T0), (EP1, T1), (EndpointId(50), 7)] {
            e.handle(ep, tid, 9, MgrRequest::Exit { interval: Interval::default() }, SimTime::ZERO);
        }
        let out =
            e.handle(EndpointId(51), 8, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        match &out[0].resp {
            MgrResponse::Registered { watermark, marks } => {
                assert_eq!((*watermark, marks.is_empty()), (2, true));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_track_activity() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire {
                lock: l,
                interval: Interval { pages: vec![1], ..Interval::default() },
                last_seen: 0,
            },
            SimTime::ZERO,
        );
        e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release { lock: l, interval: Interval::default(), handed: None },
            SimTime::ZERO,
        );
        let ops: Vec<_> = e.take_served().into_iter().map(|(_, op, tid)| (op, tid)).collect();
        assert_eq!(ops[ops.len() - 2..], [("acquire", T0), ("release", T0)]);
        let s = e.stats();
        assert_eq!(s.requests, ops.len() as u64);
        assert_eq!(s.busy_ns, s.requests * e.mgr_service.as_ns());
        assert_eq!(e.notice_watermark(), 1, "one interval published");
    }

    /// Three threads' engine, lock 0 held by T0 since `at` 0.
    fn held_by_t0() -> ManagerEngine {
        let mut e = engine();
        e.handle(EP2, T2, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        lock_id(&mut e);
        e.handle(EP0, T0, 3, acquire(0, 0), SimTime::ZERO);
        e
    }

    /// How many of `served` are lock releases: plain, or handing off.
    fn releases(served: &[(SimTime, &str, u32)]) -> usize {
        served.iter().filter(|s| matches!(s.1, "release" | "handoff")).count()
    }

    /// The relay a manager's grant names, if any.
    fn relay_in(o: &Outgoing) -> Option<Relay> {
        match &o.resp {
            MgrResponse::Rest { relay, .. } => relay.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn page(first_page: u64, writer: u32) -> PageRun {
        PageRun { first_page, len: 1, writer }
    }

    #[test]
    fn a_second_waiter_is_advanced_at_once_when_someone_queues_behind_it() {
        let mut e = held_by_t0();
        e.handle(EP3, T3, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        // T1 queues behind T0: T0 is told, under its hold's token…
        let out = e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        let (to, hold, hint) = hint_in(&out).expect("a hint to the holder");
        assert_eq!((out.len(), to, hold), (2, EP0, 3));
        assert_eq!((hint.lock, hint.tid, hint.ep, hint.token), (0, T1, EP1, 4));
        // …and T1, the head, is sent in advance what its grant would carry.
        let (to, token, _, watermark) = advance_in(&out).expect("an advance to the head");
        assert_eq!((to, token, watermark), (EP1, 4, 0));
        // T2 queues behind T1, which only waits: T1 is told at once, under
        // the token its grant will answer. T2, the tail, is sent nothing.
        let out = e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        let (to, hold, hint) = hint_in(&out).expect("a hint to the waiting head");
        assert_eq!((out.len(), to, hold, hint.tid, hint.token), (1, EP1, 4, T2, 2));
        // T3 queues behind T2: T2 is hinted and, second with a successor,
        // advanced at once, so it holds its hint before it can be granted.
        let out = e.handle(EP3, T3, 2, acquire(0, 0), SimTime::from_us(3));
        let (to, hold, _) = hint_in(&out).expect("a hint to the second");
        let (at, token, _, watermark) = advance_in(&out).expect("an advance to the second");
        assert_eq!((out.len(), to, hold, at, token, watermark), (2, EP2, 2, EP2, 2, 0));
        // T0 releases through the manager: T1 is granted — the rest of the
        // grant its advance began. T3, second and the tail, waits.
        let out = e.handle(EP0, T0, 5, release(0, vec![9], None), SimTime::from_us(4));
        assert!(matches!(out[0].resp, MgrResponse::Rest { after: 0, watermark: 1, .. }));
        assert!(matches!(out[1].resp, MgrResponse::Rest { .. }) && out[1].filed);
        assert_eq!(out.len(), 2, "T1 already knows T2, and T2 has its advance");
        // T1's grant names what T2's advance lacks, for T1 to relay: T0's
        // page 9, from T2's advance on.
        let relay = relay_in(&out[0]).expect("a relay for T2");
        assert_eq!((relay.after, &relay.notices.runs[..], relay.upto), (0, &[page(9, T0)][..], 1));
    }

    /// A second waiter nobody queued behind is advanced by the fold that
    /// makes the head the holder, before the holder's interval is
    /// published: the head, hinted to relay it, carries it.
    #[test]
    fn a_lone_second_waiter_is_advanced_by_the_fold_before_its_head() {
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        let out = e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        assert!(advance_in(&out).is_none());
        let out = e.handle(EP0, T0, 5, release(0, vec![7], Some((T1, 4))), SimTime::from_us(3));
        let (to, token, notices, watermark) = advance_in(&out).expect("an advance to T2");
        assert_eq!((to, token, notices.runs.len(), watermark), (EP2, 2, 0, 0));
    }

    #[test]
    fn the_relay_flag_is_set_exactly_when_the_tail_is_a_waiter() {
        let mut e = held_by_t0();
        let relay = |out: &[Outgoing]| hint_in(out).map(|(to, _, hint)| (to, hint.tid, hint.relay));
        let out = e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        assert_eq!(relay(&out), Some((EP0, T1, false)), "the holder's");
        let out = e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        assert_eq!(relay(&out), Some((EP1, T2, true)), "the waiting head's");
        e.handle(EP0, T0, 5, release(0, vec![], Some((T1, 4))), SimTime::from_us(3));
        let out = e.handle(EP0, T0, 6, acquire(0, 0), SimTime::from_us(4));
        assert_eq!(relay(&out), Some((EP2, T0, true)), "the waiting second's");
        e.handle(EP1, T1, 5, release(0, vec![], Some((T2, 2))), SimTime::from_us(5));
        e.handle(EP2, T2, 3, release(0, vec![], Some((T0, 6))), SimTime::from_us(6));
        // T0 holds, nobody waits: T1 is the holder's successor again.
        let out = e.handle(EP1, T1, 6, acquire(0, 0), SimTime::from_us(7));
        assert_eq!(relay(&out), Some((EP0, T1, false)), "the holder's, again");
    }

    /// T0 hands the lock to T1 while T2 waits behind it, advanced: T0's
    /// record names both, and when T1 releases through the manager, T2's
    /// grant carries T0's interval from the lock record — its merge skips
    /// it.
    #[test]
    fn a_record_that_names_the_head_is_carried_by_its_grant_from_the_manager() {
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        e.handle(EP0, T0, 5, release(0, vec![7], Some((T1, 4))), SimTime::from_us(3));
        let out = e.handle(EP1, T1, 5, release(0, vec![8], None), SimTime::from_us(4));
        let rest = out.iter().find(|o| o.dst == EP2 && !o.filed).expect("T2's rest");
        assert!(matches!(&rest.resp, MgrResponse::Rest { after: 0, notices, watermark: 2, .. }
            if notices.runs[..] == [page(7, T0), page(8, T1)]));
        // And never again: T2's next grant from the log has neither.
        e.handle(EP2, T2, 3, release(0, vec![], None), SimTime::from_us(5));
        let out = e.handle(EP2, T2, 4, acquire(0, 2), SimTime::from_us(6));
        assert!(
            matches!(&out[0].resp, MgrResponse::Rest { notices, .. } if notices.runs.is_empty())
        );
    }

    /// T0 releases through the manager while T1 and T2 wait, T2 advanced
    /// already — T3 queued behind it: T1, granted by the manager, relays
    /// what T2's advance lacks — T0's interval, kept in the lock record —
    /// and T2's grant, filed as T2 assembles it, is its advance, that relay
    /// and T1's interval. A second waiter advanced only by the release
    /// lacks nothing: the relay is empty.
    #[test]
    fn the_successor_of_a_manager_granted_holder_gets_the_relayed_interval_from_the_lock_record() {
        let mut e = held_by_t0();
        e.handle(EP3, T3, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        e.handle(EP3, T3, 2, acquire(0, 0), SimTime::from_us(2));
        let out = e.handle(EP0, T0, 5, release(0, vec![9], None), SimTime::from_us(3));
        let granted = out.iter().find(|o| o.dst == EP1 && !o.filed).expect("T1's rest");
        let relay = relay_in(granted).expect("T1 relays");
        assert_eq!((relay.after, relay.upto), (0, 1));
        let out = e.handle(EP1, T1, 5, release(0, vec![8], Some((T2, 2))), SimTime::from_us(4));
        let kept: Vec<_> = out.iter().filter(|o| o.filed && o.dst == EP2).collect();
        let want = relay.notices.followed_by(&NoticeSet::interval(
            T1,
            &Interval { pages: vec![8], ..Default::default() },
        ));
        assert_eq!(want.runs[..], [page(8, T1), page(9, T0)]);
        assert!(matches!(&kept[..], [o] if matches!(&o.resp,
            MgrResponse::Rest { after: 0, notices, watermark: 1, .. } if *notices == want)));
        // T2 advanced by that release, after T0's interval: T1 relays none.
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(2));
        let out = e.handle(EP0, T0, 5, release(0, vec![9], None), SimTime::from_us(3));
        let (.., notices, _) = advance_in(&out).expect("T2 advanced by the release");
        assert_eq!(notices.runs[..], [page(9, T0)]);
        let granted = out.iter().find(|o| o.dst == EP1 && !o.filed).expect("T1's rest");
        let relay = relay_in(granted).expect("T1 relays");
        assert_eq!((relay.after, relay.notices, relay.upto), (1, NoticeSet::default(), 1));
    }

    #[test]
    fn a_release_naming_the_hinted_head_hands_the_lock_over() {
        let mut e = held_by_t0();
        let out = e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        hint_in(&out).expect("hinted");
        let (.., advance, ahead) = advance_in(&out).expect("an advance");
        let update = FineUpdate { page: 2, offset: 0, bytes: vec![5; 8] };
        let handoff = MgrRequest::Release {
            lock: 0,
            interval: Interval {
                pages: vec![7],
                updates: vec![update.clone()],
                ..Default::default()
            },
            handed: Some(Handed { to: T1, token: 4 }),
        };
        assert_eq!(handoff.label(), "handoff");
        let out = e.handle(EP0, T0, 5, handoff, SimTime::from_us(2));
        // The grant T0 sent is the one the manager keeps — never sends.
        assert_eq!(out.len(), 1, "{out:?}");
        let interval = Interval { pages: vec![7], updates: vec![update], ..Interval::default() };
        let want = advance.followed_by(&NoticeSet::interval(T0, &interval));
        assert_eq!((out[0].dst, out[0].token, out[0].filed), (EP1, 4, true));
        match &out[0].resp {
            MgrResponse::Rest { after: 0, notices, watermark, .. } => {
                assert_eq!((notices, *watermark), (&want, ahead));
            }
            other => panic!("unexpected {other:?}"),
        }
        // T1 holds: its release is no error, and frees the lock.
        assert!(e.handle(EP1, T1, 5, release(0, vec![], None), SimTime::from_us(3)).is_empty());
        // T0's interval is T2's news, and never T1's: T1 applied it with
        // the grant.
        let granted = |out: &[Outgoing]| match &out[0].resp {
            MgrResponse::Rest { notices, .. } => notices.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let t2 = granted(&e.handle(EP2, T2, 3, acquire(0, 0), SimTime::from_us(4)));
        assert_eq!(t2.runs[..], [PageRun { first_page: 7, len: 1, writer: T0 }]);
        e.handle(EP2, T2, 4, release(0, vec![], None), SimTime::from_us(5));
        let t1 = granted(&e.handle(EP1, T1, 6, acquire(0, ahead), SimTime::from_us(6)));
        assert_eq!(t1, NoticeSet::default(), "T1 is sent T0's interval again");
        assert_eq!(releases(&e.take_served()), 3);
    }

    #[test]
    fn a_successors_request_that_overtakes_the_hand_off_waits_for_it() {
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(1));
        e.take_served();
        // T1 was handed the lock and released it; its release arrives
        // first, and is held back — T1 is not the holder yet.
        let served = e.stats().requests;
        assert!(e.handle(EP1, T1, 5, release(0, vec![8], None), SimTime::from_us(2)).is_empty());
        assert_eq!(e.stats().requests, served, "a parked request is not served");
        assert!(e.take_served().is_empty());
        let out = e.handle(EP0, T0, 5, release(0, vec![7], Some((T1, 4))), SimTime::from_us(3));
        // The hand-off, then T1's release behind it: T2 granted in order,
        // with both intervals, T1's after T0's.
        let ops: Vec<_> = e.take_served().into_iter().map(|(_, op, tid)| (op, tid)).collect();
        assert_eq!(ops, vec![("handoff", T0), ("release", T1)]);
        let granted: Vec<_> = out.iter().filter(|o| o.dst == EP2 && o.filed).collect();
        assert_eq!(granted.len(), 1, "{out:?}");
        assert_eq!(granted[0].token, 2);
        match &granted[0].resp {
            MgrResponse::Rest { after: 0, notices, watermark, .. } => {
                let runs = [
                    PageRun { first_page: 7, len: 1, writer: T0 },
                    PageRun { first_page: 8, len: 1, writer: T1 },
                ];
                assert_eq!((&notices.runs[..], *watermark), (&runs[..], 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(granted[0].at > out[0].at, "served after the hand-off");
    }

    /// An advanced head's requests that overtake the fold making it the
    /// holder — its release, then its acquire of another lock — wait for
    /// that fold, which serves them in arrival order, whether the holder
    /// handed the lock over or released it through the manager. A thread
    /// that waits for nothing is served meanwhile.
    #[test]
    fn an_advanced_heads_early_requests_are_served_in_order_when_it_holds() {
        for handed in [Some((T1, 4)), None] {
            let mut e = held_by_t0();
            let other = lock_id(&mut e);
            e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
            e.take_served();
            let early = e.handle(EP1, T1, 5, release(0, vec![8], None), SimTime::from_us(2));
            assert!(early.is_empty(), "parked");
            assert!(e.handle(EP1, T1, 6, acquire(other, 0), SimTime::from_us(3)).is_empty());
            e.handle(EP2, T2, 2, MgrRequest::CreateCond, SimTime::from_us(3));
            let ops = |e: &mut ManagerEngine| -> Vec<_> {
                e.take_served().into_iter().map(|(_, op, tid)| (op, tid)).collect()
            };
            assert_eq!(ops(&mut e), [("create-cond", T2)]);
            let out = e.handle(EP0, T0, 5, release(0, vec![7], handed), SimTime::from_us(4));
            let first = if handed.is_some() { "handoff" } else { "release" };
            assert_eq!(ops(&mut e), [(first, T0), ("release", T1), ("acquire", T1)]);
            let granted = out.iter().find(|o| (o.dst, o.token, o.filed) == (EP1, 6, false));
            assert!(matches!(granted.map(|o| &o.resp), Some(MgrResponse::Rest { .. })), "{out:?}");
            // T1's release freed lock 0: T2 is granted it at once.
            let out = e.handle(EP2, T2, 3, acquire(0, 0), SimTime::from_us(5));
            assert!(matches!(&out[..], [o, ..] if o.dst == EP2
                && matches!(o.resp, MgrResponse::Rest { .. })));
        }
    }

    /// A chain of batons can outrun the manager: T1, hinted while it
    /// waited, hands the lock to T2 before T0's hand-off to T1 arrives. T1's
    /// hand-off waits for T0's, and T2's grant is its advance — sent by the
    /// fold of T0's, before T0's interval was published — followed by T0's
    /// interval, relayed, and T1's.
    #[test]
    fn a_hand_off_that_overtakes_the_one_before_it_waits_for_it() {
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        let out = e.handle(EP2, T2, 2, acquire(0, 0), SimTime::from_us(1));
        assert_eq!(hint_in(&out).map(|(to, hold, h)| (to, hold, h.relay)), Some((EP1, 4, true)));
        let t1 = release(0, vec![8], Some((T2, 2)));
        assert!(e.handle(EP1, T1, 5, t1, SimTime::from_us(2)).is_empty(), "parked");
        let out = e.handle(EP0, T0, 5, release(0, vec![7], Some((T1, 4))), SimTime::from_us(3));
        let ops: Vec<_> = e.take_served().into_iter().map(|(_, op, tid)| (op, tid)).collect();
        assert_eq!(ops[ops.len() - 2..], [("handoff", T0), ("handoff", T1)]);
        let (to, _, notices, watermark) = advance_in(&out).expect("an advance to T2");
        assert_eq!((to, notices.runs.len(), watermark), (EP2, 0, 0));
        let kept: Vec<_> = out.iter().filter(|o| o.filed && o.dst == EP2).collect();
        assert!(matches!(&kept[..], [o] if matches!(&o.resp,
            MgrResponse::Rest { after: 0, notices, watermark: 0, .. }
                if notices.runs[..] == [page(7, T0), page(8, T1)])));
        // T2 holds: its release frees the lock. Both intervals name it: a
        // grant from the log carries neither.
        assert!(e.handle(EP2, T2, 3, release(0, vec![], None), SimTime::from_us(4)).is_empty());
        let ops: Vec<_> = e.take_served().into_iter().map(|(_, op, tid)| (op, tid)).collect();
        assert_eq!(ops, [("release", T2)], "the third release");
        let out = e.handle(EP2, T2, 4, acquire(0, 0), SimTime::from_us(5));
        assert!(
            matches!(&out[0].resp, MgrResponse::Rest { notices, .. } if notices.runs.is_empty())
        );
    }

    #[test]
    fn a_lost_baton_is_answered_from_the_log_with_the_baton() {
        // A lost baton surfaces as a retransmission of the successor's
        // acquire; the replica answers it with what the hand-off filed —
        // the very grant the holder built, on a standby as on the primary.
        let cfg = SamhitaConfig { manager_standby: true, ..SamhitaConfig::small_for_tests() };
        let (mut primary, mut standby) = (ManagerEngine::new(&cfg), ManagerEngine::new(&cfg));
        let (mut filed, mut advance) = (Vec::new(), None);
        for (src, tid, token, req) in [
            (EP0, T0, 1, MgrRequest::Register { observer: false }),
            (EP1, T1, 1, MgrRequest::Register { observer: false }),
            (EP0, T0, 2, MgrRequest::CreateLock),
            (EP0, T0, 3, acquire(0, 0)),
            (EP1, T1, 2, acquire(0, 0)),
            (EP0, T0, 4, release(0, vec![3], Some((T1, 2)))),
        ] {
            let rec = primary.record(src, tid, token, req, SimTime::ZERO);
            standby.apply(rec.clone());
            filed = primary.apply(rec);
            advance = advance_in(&filed).or(advance);
        }
        let (.., notices, _) = advance.expect("T1 was sent an advance");
        let baton = notices.followed_by(&NoticeSet::interval(
            T0,
            &Interval { pages: vec![3], ..Default::default() },
        ));
        let kept: Vec<_> = filed.iter().filter(|o| o.filed && o.dst == EP1).collect();
        assert_eq!(kept.len(), 1);
        assert!(matches!(
            &kept[0].resp,
            MgrResponse::Rest { after: 0, notices, watermark: 0, .. } if *notices == baton
        ));
        assert!(ManagerEngine::new(&cfg).file_grants, "a standby replays answers");
        let plain = SamhitaConfig::small_for_tests();
        assert!(!ManagerEngine::new(&plain).file_grants, "nothing replays, nothing is filed");
        // The release itself is acknowledged, and nothing else is sent.
        let sent: Vec<_> = filed.iter().filter(|o| !o.filed).collect();
        assert!(matches!(&sent[..], [o] if o.dst == EP0 && matches!(o.resp, MgrResponse::Ok)));
        assert_eq!(primary.stats(), standby.stats());
    }

    #[test]
    fn a_stale_hint_is_released_through_the_manager() {
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        // T0 names T1 under a token the hint never carried (a hint of an
        // earlier hold): an ordinary release, T1 granted by the manager.
        let out = e.handle(EP0, T0, 5, release(0, vec![7], Some((T1, 3))), SimTime::from_us(2));
        assert_eq!(e.take_served().last().map(|s| s.1), Some("handoff"));
        let [rest, whole] = &out[..] else { panic!("the rest of a grant, and the whole: {out:?}") };
        assert!(!rest.filed && rest.dst == EP1 && whole.filed && whole.dst == EP1);
        assert!(matches!(&rest.resp, MgrResponse::Rest { after: 0, notices, watermark: 1, .. }
            if notices.runs[..] == [PageRun { first_page: 7, len: 1, writer: T0 }]));
        // And one naming a thread that is not the head, likewise.
        let mut e = held_by_t0();
        e.handle(EP1, T1, 4, acquire(0, 0), SimTime::from_us(1));
        let out = e.handle(EP0, T0, 5, release(0, vec![], Some((T2, 4))), SimTime::from_us(2));
        assert!(matches!(&out[..], [rest, _] if matches!(rest.resp, MgrResponse::Rest { .. })));
    }
}

#[cfg(test)]
mod stress {
    use super::*;
    use crate::msg::Handed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Randomized lock traffic from many clients, releasing through the
    /// manager or handing the lock to the hinted successor directly —
    /// relaying what its grant gave it when the hint asks, falling back when
    /// it has nothing — and sometimes with the successor's own release
    /// overtaking that hand-off on the wire: exactly one holder at any time,
    /// every acquire granted exactly once (by the manager or by the holder),
    /// grants never preceding the releases that enabled them, and a standby
    /// folding the same records answering exactly the same.
    #[test]
    fn lock_service_invariants_under_random_traffic() {
        let cfg = SamhitaConfig::small_for_tests();
        let mut e = ManagerEngine { file_grants: true, ..ManagerEngine::new(&cfg) };
        let mut replica = ManagerEngine { file_grants: true, ..ManagerEngine::new(&cfg) };
        let mut handle = |tid: u32, token: u64, req: MgrRequest, at: SimTime| {
            let rec = e.record(EndpointId(100 + tid), tid, token, req, at);
            let out = e.apply(rec.clone());
            let again = replica.apply(rec);
            assert_eq!(format!("{out:?}"), format!("{again:?}"), "the replica diverged");
            out
        };
        const CLIENTS: u32 = 6;
        for tid in 0..CLIENTS {
            handle(tid, 1, MgrRequest::Register { observer: false }, SimTime::ZERO);
        }
        handle(0, 2, MgrRequest::CreateLock, SimTime::ZERO);

        let mut rng = StdRng::seed_from_u64(2024);
        // The clients' own view: who holds (and under which token), who
        // waits, which hold each hint was sent for, how far each advance
        // reached, what each holder is to relay.
        let mut holder: Option<(u32, u64)> = None;
        let mut kept: HashMap<u32, Relay> = HashMap::new();
        let mut waiting: Vec<u32> = Vec::new();
        let mut idle: Vec<u32> = (0..CLIENTS).collect();
        let mut hints: HashMap<(u32, u64), (u32, u64, bool)> = HashMap::new();
        let mut advances: Vec<(u32, u64)> = Vec::new();
        let mut seen = [0u64; CLIENTS as usize];
        let (mut granted, mut acquires, mut handoffs, mut overtaken) = (0u32, 0u32, 0u32, 0u32);
        let mut now = SimTime::ZERO;
        let mut last_release = SimTime::ZERO;
        let mut token = 10u64;

        let mut absorb = |outs: Vec<Outgoing>,
                          holder: &mut Option<(u32, u64)>,
                          waiting: &mut Vec<u32>,
                          seen: &mut [u64],
                          granted: &mut u32,
                          kept: &mut HashMap<u32, Relay>,
                          last_release: SimTime| {
            for out in outs {
                let tid = out.dst.0 - 100;
                match out.resp {
                    MgrResponse::Successor(s) => {
                        hints.insert((tid, out.token), (s.tid, s.token, s.relay));
                    }
                    MgrResponse::Advance { watermark, .. } => {
                        assert!(waiting.contains(&tid), "an advance goes to a waiter");
                        advances.push((tid, watermark));
                    }
                    // The whole of a grant: the manager only files it.
                    MgrResponse::Rest { .. } if out.filed => {}
                    MgrResponse::Rest { watermark, relay, .. } => {
                        assert!(out.at >= last_release, "grant precedes enabling release");
                        seen[tid as usize] = watermark;
                        match relay {
                            Some(relay) => kept.insert(tid, relay),
                            None => kept.remove(&tid),
                        };
                        assert!(holder.is_none(), "two holders at once");
                        *holder = Some((tid, out.token));
                        waiting.retain(|&w| w != tid);
                        *granted += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            (std::mem::take(&mut hints), std::mem::take(&mut advances))
        };
        let mut known: HashMap<(u32, u64), (u32, u64, bool)> = HashMap::new();
        let mut ahead: HashMap<u32, u64> = HashMap::new();

        for _ in 0..600 {
            now += SimTime::from_ns(50);
            token += 1;
            if rng.gen_bool(0.5) && !idle.is_empty() {
                // A random idle client asks for the lock.
                let tid = idle.swap_remove(rng.gen_range(0..idle.len()));
                acquires += 1;
                waiting.push(tid);
                let last_seen = seen[tid as usize];
                let req = MgrRequest::Acquire {
                    lock: 0,
                    interval: Interval { pages: vec![3], ..Interval::default() },
                    last_seen,
                };
                let outs = handle(tid, token, req, now);
                let (h, a) = absorb(
                    outs,
                    &mut holder,
                    &mut waiting,
                    &mut seen,
                    &mut granted,
                    &mut kept,
                    last_release,
                );
                known.extend(h);
                ahead.extend(a);
            } else if let Some((h, hold)) = holder.take() {
                last_release = now;
                idle.push(h);
                let relay = kept.remove(&h);
                let hint = known.remove(&(h, hold)).filter(|_| rng.gen_bool(0.7));
                // A hint that asks for a relay needs something to relay.
                let hint = hint.filter(|&(.., asks)| !asks || relay.is_some());
                let Some((to, to_token, asks)) = hint else {
                    let req = MgrRequest::Release {
                        lock: 0,
                        interval: Interval::default(),
                        handed: None,
                    };
                    let outs = handle(h, token, req, now);
                    let (h, a) = absorb(
                        outs,
                        &mut holder,
                        &mut waiting,
                        &mut seen,
                        &mut granted,
                        &mut kept,
                        last_release,
                    );
                    known.extend(h);
                    ahead.extend(a);
                    continue;
                };
                // The baton: the successor holds from here on.
                assert!(waiting.contains(&to), "a hint names a waiter");
                waiting.retain(|&w| w != to);
                granted += 1;
                handoffs += 1;
                let relay = relay.filter(|_| asks).unwrap_or_else(|| Relay::none(seen[h as usize]));
                assert!(ahead[&to] >= relay.after, "the successor's advance falls short");
                seen[to as usize] = ahead[&to].max(relay.upto);
                kept.insert(to, Relay::none(ahead[&to]));
                holder = Some((to, to_token));
                if rng.gen_bool(0.3) {
                    // …and releases before the hand-off reaches the manager.
                    overtaken += 1;
                    holder = None;
                    idle.push(to);
                    let req = MgrRequest::Release {
                        lock: 0,
                        interval: Interval { pages: vec![1], ..Interval::default() },
                        handed: None,
                    };
                    assert!(handle(to, token + 1_000_000, req, now).is_empty(), "parked");
                }
                let handed = Some(Handed { to, token: to_token });
                let req = MgrRequest::Release {
                    lock: 0,
                    interval: Interval { pages: vec![2], ..Interval::default() },
                    handed,
                };
                let outs = handle(h, token, req, now + SimTime::from_ns(10));
                let (h, a) = absorb(
                    outs,
                    &mut holder,
                    &mut waiting,
                    &mut seen,
                    &mut granted,
                    &mut kept,
                    last_release,
                );
                known.extend(h);
                ahead.extend(a);
            }
        }
        // Drain: release until the queue is empty.
        while let Some((h, _)) = holder.take() {
            now += SimTime::from_ns(50);
            token += 1;
            let req = MgrRequest::Release { lock: 0, interval: Interval::default(), handed: None };
            let outs = handle(h, token, req, now);
            idle.push(h);
            let (h, a) =
                absorb(outs, &mut holder, &mut waiting, &mut seen, &mut granted, &mut kept, now);
            known.extend(h);
            ahead.extend(a);
        }
        assert!(waiting.is_empty(), "acquires left ungranted: {waiting:?}");
        assert_eq!(granted, acquires, "every acquire granted exactly once");
        assert!(handoffs > 20 && overtaken > 5, "{handoffs} hand-offs, {overtaken} overtaken");
        let served = e.take_served();
        assert_eq!(served.iter().filter(|s| s.1 == "acquire").count(), acquires as usize);
        let releases = served.iter().filter(|s| matches!(s.1, "release" | "handoff")).count();
        assert_eq!(releases, granted as usize);
        assert_eq!(served, replica.take_served());
        assert_eq!(e.stats(), replica.stats());
    }
}
