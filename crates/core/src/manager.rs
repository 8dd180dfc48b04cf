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
//! `Exit`) publishes an interval, and every blocking grant (`Granted`,
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

use samhita_regc::{FineUpdate, IntervalLog, NoticeSet};
use samhita_scl::{EndpointId, SimTime, VirtualResource};

use crate::config::SamhitaConfig;
use crate::freelist::FreeListAlloc;
use crate::layout::{AddressLayout, Region};
use crate::msg::{MgrError, MgrLogOp, MgrLogRecord, MgrRequest, MgrResponse};

/// Size cap of the striped region (virtual space, not memory).
const STRIPED_REGION_BYTES: u64 = 1 << 40;

#[derive(Clone, Debug)]
struct Waiter {
    tid: u32,
    token: u64,
    /// Virtual time at which this waiter's request finished manager service.
    ready: SimTime,
    last_seen: u64,
}

#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<u32>,
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
}

/// Manager activity counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Total requests handled.
    pub requests: u64,
    /// Lock acquisitions requested.
    pub acquires: u64,
    /// Lock releases processed.
    pub releases: u64,
    /// Barrier arrivals processed.
    pub barrier_waits: u64,
    /// Barrier episodes released.
    pub barrier_releases: u64,
    /// Condition-variable waits queued.
    pub cond_waits: u64,
    /// Condition-variable signals/broadcasts processed.
    pub cond_signals: u64,
    /// Allocation requests served.
    pub allocs: u64,
    /// Frees served.
    pub frees: u64,
    /// Write-notice intervals published.
    pub notices_published: u64,
    /// Locks reclaimed from expired leases (standby takeover only).
    pub lease_reclaims: u64,
    /// Late releases from lease-reclaimed holders, absorbed without
    /// mutating lock state (their write notices still publish).
    pub stale_releases: u64,
    /// Write-ahead log records shipped to the hot standby (0 when no
    /// standby is configured; counted by the event loop).
    pub log_records_shipped: u64,
    /// Virtual busy time of the manager's service resource.
    pub busy_ns: u64,
    /// Total virtual time requests queued before manager service began.
    pub queue_wait_ns: u64,
    /// Peak system occupancy observed at any arrival (1 = uncontended).
    pub peak_queue_depth: u64,
    /// Sum of arrival-sampled occupancies (mean = sum / requests).
    pub queue_depth_sum: u64,
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
    threads: HashMap<u32, ThreadInfo>,
    resource: VirtualResource,
    stats: ManagerStats,
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
    /// Lock → holder it was lease-reclaimed from; the holder's eventual
    /// late release is absorbed instead of treated as a protocol error.
    reclaimed: HashMap<u32, u32>,
    /// (lock, old holder) pairs reclaimed by the latest sweep, for the
    /// event loop to trace. Drained by [`ManagerEngine::take_reclaims`].
    reclaims: Vec<(u32, u32)>,
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
            threads: HashMap::new(),
            resource: VirtualResource::new(),
            stats: ManagerStats::default(),
            last_done: SimTime::ZERO,
            applied_seq: 0,
            lease: SimTime::from_ns(cfg.mgr_lease_ns),
            ack_releases: cfg.manager_standby,
            reclaimed: HashMap::new(),
            reclaims: Vec::new(),
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
        self.stats.requests += 1;
        let (_, done) = self.resource.reserve(arrival, self.mgr_service);
        self.last_done = done;
        match req {
            MgrRequest::Register { observer } => {
                let watermark = self.intervals.watermark();
                self.threads.insert(tid, ThreadInfo { ep: src, last_seen: watermark, observer });
                vec![Outgoing {
                    dst: src,
                    token,
                    at: done,
                    resp: MgrResponse::Registered { watermark },
                }]
            }
            MgrRequest::AllocShared { size, align } => {
                self.stats.allocs += 1;
                let resp = match self.shared.alloc(size, align.max(8)) {
                    Some(addr) => MgrResponse::Addr(addr),
                    None => MgrResponse::Err(MgrError::SharedExhausted { size }),
                };
                vec![Outgoing { dst: src, token, at: done, resp }]
            }
            MgrRequest::AllocStriped { size } => {
                self.stats.allocs += 1;
                // Line-aligned so consecutive lines of the allocation rotate
                // across memory servers from its first byte.
                let resp = match self.striped.alloc(size, self.layout.line_bytes) {
                    Some(addr) => MgrResponse::Addr(addr),
                    None => MgrResponse::Err(MgrError::StripedExhausted { size }),
                };
                vec![Outgoing { dst: src, token, at: done, resp }]
            }
            MgrRequest::Free { addr } => {
                self.stats.frees += 1;
                let resp = match self.layout.region_of(addr) {
                    Region::Shared if self.shared.is_live(addr) => {
                        self.shared.free(addr);
                        MgrResponse::Ok
                    }
                    Region::Striped if self.striped.is_live(addr) => {
                        self.striped.free(addr);
                        MgrResponse::Ok
                    }
                    region => MgrResponse::Err(MgrError::BadFree { addr, region }),
                };
                vec![Outgoing { dst: src, token, at: done, resp }]
            }
            MgrRequest::CreateLock => {
                self.locks.push(LockState::default());
                let id = (self.locks.len() - 1) as u32;
                vec![Outgoing { dst: src, token, at: done, resp: MgrResponse::SyncId(id) }]
            }
            MgrRequest::CreateBarrier { parties } => {
                assert!(parties >= 1, "barrier over zero parties");
                self.barriers.push(BarrierState { parties, waiting: Vec::new() });
                let id = (self.barriers.len() - 1) as u32;
                vec![Outgoing { dst: src, token, at: done, resp: MgrResponse::SyncId(id) }]
            }
            MgrRequest::CreateCond => {
                self.conds.push(CondState::default());
                let id = (self.conds.len() - 1) as u32;
                vec![Outgoing { dst: src, token, at: done, resp: MgrResponse::SyncId(id) }]
            }
            MgrRequest::Acquire { lock, pages, updates, last_seen } => {
                self.stats.acquires += 1;
                if !self.threads.contains_key(&tid) {
                    let resp = MgrResponse::Err(MgrError::Unregistered { tid });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                if lock as usize >= self.locks.len() {
                    let resp = MgrResponse::Err(MgrError::UnknownLock { lock });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                self.publish(tid, pages, updates);
                let waiter = Waiter { tid, token, ready: done, last_seen };
                let lease = self.lease;
                let state = &mut self.locks[lock as usize];
                if state.holder.is_none() {
                    state.holder = Some(tid);
                    let at = done.max(state.free_at);
                    state.leased_until = at + lease;
                    vec![self.grant(waiter, at)]
                } else {
                    state.queue.push_back(waiter);
                    Vec::new()
                }
            }
            MgrRequest::Release { lock, pages, updates, last_seen: _ } => {
                self.stats.releases += 1;
                if !self.threads.contains_key(&tid) {
                    let resp = MgrResponse::Err(MgrError::Unregistered { tid });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                self.publish(tid, pages, updates);
                let mut out = self.release_lock(lock, tid, done, src, token);
                // In standby mode, releases are acknowledged so the client
                // can retry (and fail over) one that vanished in a crash
                // window. Skip the ack when the release itself already
                // produced a response for the releaser.
                if self.ack_releases && !out.iter().any(|o| o.dst == src && o.token == token) {
                    out.push(Outgoing { dst: src, token, at: done, resp: MgrResponse::Ok });
                }
                out
            }
            MgrRequest::BarrierWait { barrier, pages, updates, last_seen } => {
                self.stats.barrier_waits += 1;
                if !self.threads.contains_key(&tid) {
                    let resp = MgrResponse::Err(MgrError::Unregistered { tid });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                if barrier as usize >= self.barriers.len() {
                    let resp = MgrResponse::Err(MgrError::UnknownBarrier { barrier });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                self.publish(tid, pages, updates);
                let state = &mut self.barriers[barrier as usize];
                state.waiting.push(Waiter { tid, token, ready: done, last_seen });
                if state.waiting.len() as u32 == state.parties {
                    self.stats.barrier_releases += 1;
                    let state = &mut self.barriers[barrier as usize];
                    let release_at =
                        state.waiting.iter().map(|w| w.ready).fold(SimTime::ZERO, SimTime::max)
                            + self.barrier_release;
                    let waiters = std::mem::take(&mut state.waiting);
                    let watermark = self.intervals.watermark();
                    // Merge for the waiter that has seen the most first:
                    // each further merge then extends the one before it
                    // backwards (waiters that passed a lock on the way here
                    // are one grant apart) instead of starting over.
                    let mut order: Vec<usize> = (0..waiters.len()).collect();
                    order.sort_by_key(|&i| std::cmp::Reverse(waiters[i].last_seen));
                    let mut sets = vec![NoticeSet::default(); waiters.len()];
                    for i in order {
                        let w = &waiters[i];
                        sets[i] = self.intervals.merged_since(w.last_seen, w.tid);
                        self.mark_seen(w.tid, watermark);
                    }
                    self.truncate_seen_by_all(watermark);
                    let answer = |(w, notices): (Waiter, NoticeSet)| Outgoing {
                        dst: self.ep_of(w.tid),
                        token: w.token,
                        at: release_at,
                        resp: MgrResponse::BarrierReleased { notices, watermark },
                    };
                    waiters.into_iter().zip(sets).map(answer).collect()
                } else {
                    Vec::new()
                }
            }
            MgrRequest::CondWait { cond, lock, pages, updates, last_seen } => {
                self.stats.cond_waits += 1;
                if !self.threads.contains_key(&tid) {
                    let resp = MgrResponse::Err(MgrError::Unregistered { tid });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                if self.locks.get(lock as usize).is_none() {
                    let resp = MgrResponse::Err(MgrError::UnknownLock { lock });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                if cond as usize >= self.conds.len() {
                    let resp = MgrResponse::Err(MgrError::UnknownCond { cond });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                self.publish(tid, pages, updates);
                let waiter = Waiter { tid, token, ready: done, last_seen };
                self.conds[cond as usize].waiters.push_back((waiter, lock));
                // Atomically release the lock the caller held.
                self.release_lock(lock, tid, done, src, token)
            }
            MgrRequest::CondSignal { cond } => {
                self.stats.cond_signals += 1;
                if self.conds.get(cond as usize).is_none() {
                    let resp = MgrResponse::Err(MgrError::UnknownCond { cond });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                let mut out = self.wake_waiters(cond, done, 1);
                out.push(Outgoing { dst: src, token, at: done, resp: MgrResponse::Ok });
                out
            }
            MgrRequest::CondBroadcast { cond } => {
                self.stats.cond_signals += 1;
                if self.conds.get(cond as usize).is_none() {
                    let resp = MgrResponse::Err(MgrError::UnknownCond { cond });
                    return vec![Outgoing { dst: src, token, at: done, resp }];
                }
                let mut out = self.wake_waiters(cond, done, usize::MAX);
                out.push(Outgoing { dst: src, token, at: done, resp: MgrResponse::Ok });
                out
            }
            MgrRequest::Exit { pages, updates } => {
                self.publish(tid, pages, updates);
                self.threads.remove(&tid);
                vec![Outgoing { dst: src, token, at: done, resp: MgrResponse::Ok }]
            }
        }
    }

    /// Record a sync op's flushed pages and fine updates as a write-notice
    /// interval. Callers must validate the request (registered thread, known
    /// sync-object id) *first*: a rejected request publishes nothing, so its
    /// flush never becomes visible to later grantees under an error response.
    fn publish(&mut self, tid: u32, pages: Vec<u64>, updates: Vec<FineUpdate>) {
        if !pages.is_empty() || !updates.is_empty() {
            self.stats.notices_published += 1;
            self.intervals.publish(tid, pages, updates);
        }
    }

    fn ep_of(&self, tid: u32) -> EndpointId {
        self.threads.get(&tid).unwrap_or_else(|| panic!("unregistered thread {tid}")).ep
    }

    fn grant(&mut self, waiter: Waiter, at: SimTime) -> Outgoing {
        let notices = self.intervals.merged_since(waiter.last_seen, waiter.tid);
        let watermark = self.intervals.watermark();
        self.mark_seen(waiter.tid, watermark);
        self.truncate_seen_by_all(watermark);
        Outgoing {
            dst: self.ep_of(waiter.tid),
            token: waiter.token,
            at,
            resp: MgrResponse::Granted { notices, watermark },
        }
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

    /// Release `lock` held by `tid` at time `done`, granting to the next
    /// queued waiter if any. A release of a lock `tid` does not hold is a
    /// typed error back to `src` — except when the lock was lease-reclaimed
    /// from `tid`, in which case the late release is absorbed (its write
    /// notices, published by the caller, stand).
    fn release_lock(
        &mut self,
        lock: u32,
        tid: u32,
        done: SimTime,
        src: EndpointId,
        token: u64,
    ) -> Vec<Outgoing> {
        let lease = self.lease;
        let Some(state) = self.locks.get_mut(lock as usize) else {
            let resp = MgrResponse::Err(MgrError::UnknownLock { lock });
            return vec![Outgoing { dst: src, token, at: done, resp }];
        };
        if state.holder != Some(tid) {
            if self.reclaimed.get(&lock) == Some(&tid) {
                self.reclaimed.remove(&lock);
                self.stats.stale_releases += 1;
                return Vec::new();
            }
            let resp = MgrResponse::Err(MgrError::NotHolder { lock, tid });
            return vec![Outgoing { dst: src, token, at: done, resp }];
        }
        let state = self.locks.get_mut(lock as usize).expect("checked above");
        state.holder = None;
        state.free_at = done;
        if let Some(next) = state.queue.pop_front() {
            state.holder = Some(next.tid);
            let at = done.max(next.ready);
            state.leased_until = at + lease;
            vec![self.grant(next, at)]
        } else {
            Vec::new()
        }
    }

    /// Move up to `n` condvar waiters onto their lock queues (or grant
    /// directly when the lock is free). The caller has validated `cond`;
    /// queued locks were validated when the waiter enqueued.
    fn wake_waiters(&mut self, cond: u32, now: SimTime, n: usize) -> Vec<Outgoing> {
        let lease = self.lease;
        let mut out = Vec::new();
        for _ in 0..n {
            let Some((mut waiter, lock)) = self
                .conds
                .get_mut(cond as usize)
                .expect("caller validated cond")
                .waiters
                .pop_front()
            else {
                break;
            };
            waiter.ready = waiter.ready.max(now);
            let state = self.locks.get_mut(lock as usize).expect("validated at CondWait");
            if state.holder.is_none() {
                state.holder = Some(waiter.tid);
                let at = waiter.ready.max(state.free_at);
                state.leased_until = at + lease;
                out.push(self.grant(waiter, at));
            } else {
                state.queue.push_back(waiter);
            }
        }
        out
    }

    /// Reclaim every lock whose lease expired before `now` (the
    /// [`MgrLogOp::ReclaimExpired`] fold step): the holder is deposed, its
    /// eventual late release will be absorbed, and the next queued waiter
    /// (if any) is granted at `now`.
    fn reclaim_expired(&mut self, now: SimTime) -> Vec<Outgoing> {
        let lease = self.lease;
        let mut out = Vec::new();
        for lock in 0..self.locks.len() as u32 {
            let state = &mut self.locks[lock as usize];
            let Some(holder) = state.holder else { continue };
            if state.leased_until > now {
                continue;
            }
            state.holder = None;
            state.free_at = state.free_at.max(state.leased_until);
            let granted = if let Some(next) = state.queue.pop_front() {
                state.holder = Some(next.tid);
                let at = now.max(next.ready).max(state.free_at);
                state.leased_until = at + lease;
                Some((next, at))
            } else {
                None
            };
            self.stats.lease_reclaims += 1;
            self.reclaimed.insert(lock, holder);
            self.reclaims.push((lock, holder));
            if let Some((next, at)) = granted {
                out.push(self.grant(next, at));
            }
        }
        out
    }

    /// Earliest lease expiry among currently held locks — the virtual
    /// deadline an active standby sleeps until between requests.
    pub fn next_lease_expiry(&self) -> Option<SimTime> {
        self.locks.iter().filter(|s| s.holder.is_some()).map(|s| s.leased_until).min()
    }

    /// Drain the (lock, deposed holder) pairs reclaimed since the last
    /// drain, for `LeaseReclaim` trace emission.
    pub fn take_reclaims(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.reclaims)
    }

    /// Activity counters.
    pub fn stats(&self) -> ManagerStats {
        let mut s = self.stats;
        let r = self.resource.stats();
        s.busy_ns = r.busy_ns;
        s.queue_wait_ns = r.queue_wait_ns;
        s.peak_queue_depth = r.peak_depth;
        s.queue_depth_sum = r.depth_sum;
        s
    }

    /// Reset the manager resource's queue accounting between runs.
    pub fn reset_queue_accounting(&self) {
        self.resource.reset_queue_accounting();
    }

    /// Notice-log watermark (tests / diagnostics).
    pub fn notice_watermark(&self) -> u64 {
        self.intervals.watermark()
    }
}

#[cfg(test)]
mod tests {
    use samhita_regc::PageRun;

    use super::*;

    const T0: u32 = 0;
    const T1: u32 = 1;
    const EP0: EndpointId = EndpointId(10);
    const EP1: EndpointId = EndpointId(11);

    fn engine() -> ManagerEngine {
        let cfg = SamhitaConfig::small_for_tests();
        let mut e = ManagerEngine::new(&cfg);
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
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::from_us(1),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP0);
        assert!(matches!(out[0].resp, MgrResponse::Granted { .. }));
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
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        // Second acquire: queued, nothing sent.
        let out = e.handle(
            EP1,
            T1,
            4,
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::from_ns(10),
        );
        assert!(out.is_empty());
        // Release by T0 grants T1, no earlier than the release.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::Release { lock: l, pages: vec![7], updates: vec![], last_seen: 0 },
            SimTime::from_us(5),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP1);
        assert!(out[0].at >= SimTime::from_us(5));
        // The grant carries the releaser's write notice for page 7.
        match &out[0].resp {
            MgrResponse::Granted { notices, watermark } => {
                assert_eq!(notices.runs, vec![PageRun { first_page: 7, len: 1, writer: T0 }]);
                assert!(notices.updates.is_empty());
                assert_eq!(*watermark, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn foreign_release_reports_a_typed_error() {
        let mut e = engine();
        let l = lock_id(&mut e);
        e.handle(
            EP0,
            T0,
            3,
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let out = e.handle(
            EP1,
            T1,
            4,
            MgrRequest::Release { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP1);
        assert!(
            matches!(out[0].resp, MgrResponse::Err(MgrError::NotHolder { lock: 0, tid: 1 })),
            "unexpected {:?}",
            out[0].resp
        );
        // The rightful holder is undisturbed and can still release.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::Release { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        assert!(out.is_empty(), "uncontended release sends nothing without ack mode");
    }

    #[test]
    fn unknown_sync_ids_report_typed_errors() {
        let mut e = engine();
        let cases: Vec<(MgrRequest, MgrError)> = vec![
            (
                MgrRequest::Acquire { lock: 9, pages: vec![], updates: vec![], last_seen: 0 },
                MgrError::UnknownLock { lock: 9 },
            ),
            (
                MgrRequest::Release { lock: 9, pages: vec![], updates: vec![], last_seen: 0 },
                MgrError::UnknownLock { lock: 9 },
            ),
            (
                MgrRequest::BarrierWait {
                    barrier: 7,
                    pages: vec![],
                    updates: vec![],
                    last_seen: 0,
                },
                MgrError::UnknownBarrier { barrier: 7 },
            ),
            (
                MgrRequest::CondWait {
                    cond: 5,
                    lock: 9,
                    pages: vec![],
                    updates: vec![],
                    last_seen: 0,
                },
                MgrError::UnknownLock { lock: 9 },
            ),
            (MgrRequest::CondSignal { cond: 5 }, MgrError::UnknownCond { cond: 5 }),
            (MgrRequest::CondBroadcast { cond: 5 }, MgrError::UnknownCond { cond: 5 }),
        ];
        for (i, (req, want)) in cases.into_iter().enumerate() {
            let out = e.handle(EP0, T0, 10 + i as u64, req, SimTime::ZERO);
            assert_eq!(out.len(), 1);
            match &out[0].resp {
                MgrResponse::Err(got) => assert_eq!(*got, want),
                other => panic!("case {i}: unexpected {other:?}"),
            }
        }
        // An unregistered thread gets a typed error instead of a panic.
        let out = e.handle(
            EndpointId(77),
            42,
            99,
            MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        assert!(matches!(out[0].resp, MgrResponse::Err(MgrError::Unregistered { tid: 42 })));
    }

    /// Folding the identical record stream through `apply` on a second
    /// engine reproduces the primary bit-for-bit — the replication
    /// argument for the hot standby.
    #[test]
    fn log_replay_reproduces_state_and_responses() {
        let cfg = SamhitaConfig::small_for_tests();
        let mut primary = ManagerEngine::new(&cfg);
        let mut standby = ManagerEngine::new(&cfg);
        let script: Vec<(EndpointId, u32, u64, MgrRequest)> = vec![
            (EP0, T0, 1, MgrRequest::Register { observer: false }),
            (EP1, T1, 1, MgrRequest::Register { observer: false }),
            (EP0, T0, 2, MgrRequest::CreateLock),
            (EP0, T0, 3, MgrRequest::AllocShared { size: 4096, align: 8 }),
            (
                EP0,
                T0,
                4,
                MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
            ),
            (
                EP1,
                T1,
                5,
                MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
            ),
            (
                EP0,
                T0,
                6,
                MgrRequest::Release { lock: 0, pages: vec![3], updates: vec![], last_seen: 0 },
            ),
        ];
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
                assert_eq!(format!("{:?}", x.resp), format!("{:?}", y.resp));
            }
        }
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
            MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let granted_at = out[0].at;
        e.handle(
            EP1,
            T1,
            4,
            MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
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
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP1);
        assert!(matches!(out[0].resp, MgrResponse::Granted { .. }));
        assert!(out[0].at >= sweep_at);
        assert_eq!(e.stats().lease_reclaims, 1);
        // The deposed holder's late release is absorbed: no error, its
        // notices still publish, and the new holder keeps the lock.
        let out = e.handle(
            EP0,
            T0,
            5,
            MgrRequest::Release { lock: 0, pages: vec![9], updates: vec![], last_seen: 0 },
            sweep_at + SimTime::from_ns(50),
        );
        assert_eq!(out.len(), 1, "standby mode still acks the stale release");
        assert_eq!(out[0].dst, EP0);
        assert!(matches!(out[0].resp, MgrResponse::Ok));
        let s = e.stats();
        assert_eq!(s.stale_releases, 1);
        assert_eq!(s.notices_published, 1, "the stale release's flush still published");
        // T1 still holds: its own release must succeed.
        let out = e.handle(
            EP1,
            T1,
            6,
            MgrRequest::Release { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
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
            MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let out = e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
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
            MgrRequest::BarrierWait { barrier: 0, pages: vec![1], updates: vec![], last_seen: 0 },
            SimTime::from_us(1),
        );
        assert!(out.is_empty(), "first arrival waits");
        let out = e.handle(
            EP1,
            T1,
            4,
            MgrRequest::BarrierWait { barrier: 0, pages: vec![2], updates: vec![], last_seen: 0 },
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
                    assert_eq!(notices.runs, vec![PageRun { first_page, len: 1, writer }]);
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
            MgrRequest::BarrierWait { barrier: 0, pages: vec![], updates: vec![], last_seen: 2 },
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
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let out = e.handle(
            EP0,
            T0,
            11,
            MgrRequest::CondWait {
                cond: 0,
                lock: l,
                pages: vec![3],
                updates: vec![],
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
            MgrRequest::Acquire { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::from_us(2),
        );
        assert_eq!(out.len(), 1);
        let out = e.handle(EP1, T1, 13, MgrRequest::CondSignal { cond: 0 }, SimTime::from_us(3));
        // Signal moved T0 onto the lock queue; signaler gets an Ok.
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].resp, MgrResponse::Ok));
        // T1 releases: T0 is re-granted the lock (token 11 — the CondWait).
        let out = e.handle(
            EP1,
            T1,
            14,
            MgrRequest::Release { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::from_us(4),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, EP0);
        assert_eq!(out[0].token, 11);
        assert!(matches!(out[0].resp, MgrResponse::Granted { .. }));
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
                        pages: vec![round],
                        updates: vec![],
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
                        pages: vec![round],
                        updates: vec![],
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
            MgrRequest::Acquire { lock: l, pages: vec![1], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release { lock: l, pages: vec![2], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let out =
            e.handle(EndpointId(50), 7, 5, MgrRequest::Register { observer: false }, SimTime::ZERO);
        match &out[0].resp {
            MgrResponse::Registered { watermark } => assert_eq!(*watermark, 2),
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
            MgrRequest::Acquire { lock: l, pages: vec![1], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        e.handle(
            EP0,
            T0,
            4,
            MgrRequest::Release { lock: l, pages: vec![], updates: vec![], last_seen: 0 },
            SimTime::ZERO,
        );
        let s = e.stats();
        assert_eq!(s.acquires, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.notices_published, 1);
        assert!(s.busy_ns > 0);
        assert_eq!(e.notice_watermark(), 1);
    }
}

#[cfg(test)]
mod stress {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Randomized lock traffic from many clients: exactly one holder at any
    /// time, every acquire eventually granted, grants never precede the
    /// releases that enabled them.
    #[test]
    fn lock_service_invariants_under_random_traffic() {
        let cfg = SamhitaConfig::small_for_tests();
        let mut e = ManagerEngine::new(&cfg);
        const CLIENTS: u32 = 6;
        for tid in 0..CLIENTS {
            e.handle(
                EndpointId(100 + tid),
                tid,
                1,
                MgrRequest::Register { observer: false },
                SimTime::ZERO,
            );
        }
        e.handle(EndpointId(100), 0, 2, MgrRequest::CreateLock, SimTime::ZERO);

        let mut rng = StdRng::seed_from_u64(2024);
        let mut holder: Option<u32> = None;
        let mut waiting: Vec<u32> = Vec::new();
        let mut idle: Vec<u32> = (0..CLIENTS).collect();
        let mut granted_count = 0u32;
        let mut acquires = 0u32;
        let mut now = SimTime::ZERO;
        let mut last_release = SimTime::ZERO;

        let absorb = |outs: Vec<Outgoing>,
                      holder: &mut Option<u32>,
                      waiting: &mut Vec<u32>,
                      granted: &mut u32,
                      last_release: SimTime| {
            for out in outs {
                assert!(matches!(out.resp, MgrResponse::Granted { .. }));
                assert!(out.at >= last_release, "grant precedes enabling release");
                let tid = out.dst.0 - 100;
                assert!(holder.is_none(), "two holders at once");
                *holder = Some(tid);
                waiting.retain(|&w| w != tid);
                *granted += 1;
            }
        };

        for step in 0..400 {
            now += SimTime::from_ns(50);
            let tok = 10 + step;
            if rng.gen_bool(0.5) && !idle.is_empty() {
                // A random idle client asks for the lock.
                let tid = idle.swap_remove(rng.gen_range(0..idle.len()));
                acquires += 1;
                let outs = e.handle(
                    EndpointId(100 + tid),
                    tid,
                    tok,
                    MgrRequest::Acquire { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
                    now,
                );
                if outs.is_empty() {
                    waiting.push(tid);
                } else {
                    assert!(holder.is_none());
                    absorb(outs, &mut holder, &mut waiting, &mut granted_count, last_release);
                    assert_eq!(holder, Some(tid));
                }
            } else if let Some(h) = holder.take() {
                // The holder releases.
                last_release = now;
                let outs = e.handle(
                    EndpointId(100 + h),
                    h,
                    tok,
                    MgrRequest::Release { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
                    now,
                );
                idle.push(h);
                absorb(outs, &mut holder, &mut waiting, &mut granted_count, last_release);
                if let Some(new_holder) = holder {
                    assert!(!waiting.contains(&new_holder));
                }
            }
        }
        // Drain: release until the queue is empty.
        while let Some(h) = holder.take() {
            now += SimTime::from_ns(50);
            let outs = e.handle(
                EndpointId(100 + h),
                h,
                9999,
                MgrRequest::Release { lock: 0, pages: vec![], updates: vec![], last_seen: 0 },
                now,
            );
            idle.push(h);
            absorb(outs, &mut holder, &mut waiting, &mut granted_count, now);
        }
        assert!(waiting.is_empty(), "acquires left ungranted: {waiting:?}");
        assert_eq!(granted_count, acquires, "every acquire granted exactly once");
        let s = e.stats();
        assert_eq!(s.acquires, acquires as u64);
        assert_eq!(s.releases, granted_count as u64);
    }
}
