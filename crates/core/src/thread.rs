//! The compute-thread context: the whole client side of the DSM.
//!
//! A [`ThreadCtx`] is handed to each compute thread by
//! [`crate::system::Samhita::run`]. It owns the thread's software cache,
//! region state, fine-grain write set, and virtual clock, and exposes the
//! programming interface the paper describes as "very similar to that
//! presented by Pthreads": allocation, typed loads and stores into the
//! shared global address space, mutual-exclusion locks, condition variables
//! and barriers. All fabric traffic goes through a typed transport
//! [`crate::proto::Channel`], which owns token correlation, retry/backoff,
//! failover, and cost accounting.
//!
//! ## Time accounting
//!
//! Every access is charged against the virtual clock. Synchronization
//! operations record their elapsed time in the `sync` bucket; everything
//! else — including demand-fetch misses and the invalidation refetches
//! caused by false sharing — is compute time, exactly the split the paper's
//! figures use.
//!
//! ## Consistency operations
//!
//! Per RegC, every synchronization operation doubles as a consistency
//! operation: dirty ordinary pages are diffed and flushed to their homes,
//! the fine-grain write set is flushed as object-level updates, a write
//! notice is published through the manager, and incoming notices invalidate
//! stale cached pages. The flush does not wait for its updates to be
//! applied: the notice carries the flusher's batch marks, and a reader's
//! later requests to a home name the batches the home must apply first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use samhita_mem::{HomeMap, MemRequest, MemResponse, PageFrame, PageId};
use samhita_regc::{
    FineUpdate, Interval, Marks, NoticeSet, PageState, RegionKind, RegionState, UpdateBatch,
    UpdatePart, WriteSet,
};
use samhita_scl::{Endpoint, EndpointId, MsgClass, RetryPolicy, SimTime};
use samhita_trace::{EventKind, FetchKind, TraceBuf};

use crate::cache::{PageRef, SoftCache};
use crate::config::{ConsistencyVariant, SamhitaConfig};
use crate::freelist::FreeListAlloc;
use crate::layout::{AddressLayout, Region};
use crate::msg::{Handed, MgrRequest, MgrResponse, Msg};
use crate::proto::{Channel, Prefetch};
use crate::stats::ThreadStats;

/// The most doubles [`ThreadCtx::update_f64s`] hands its function at once:
/// the stack buffer a run is decoded into and encoded back from.
pub const UPDATE_RUN: usize = 64;

/// The five wait-class sums of `s`, which a thread reports from its timing
/// epoch: [`ThreadCtx::start_timing`] snapshots them so pre-warm-up waits do
/// not break the per-thread conservation identity
/// `compute + waits + idle == makespan`.
fn wait_sums(s: &mut ThreadStats) -> [&mut u64; 5] {
    [
        &mut s.fetch_wait_ns,
        &mut s.lock_wait_ns,
        &mut s.barrier_wait_ns,
        &mut s.mgr_wait_ns,
        &mut s.flush_wait_ns,
    ]
}

/// The per-thread handle to the shared global address space.
pub struct ThreadCtx {
    tid: u32,
    nthreads: u32,
    cfg: Arc<SamhitaConfig>,
    layout: AddressLayout,
    home_map: HomeMap,

    /// The thread's typed transport: clock, tokens, retries, failover.
    chan: Channel,

    sync_time: SimTime,
    /// Timing epoch (see [`ThreadCtx::start_timing`]).
    epoch_clock: SimTime,
    epoch_sync: SimTime,
    /// The wait-class sums at the epoch.
    epoch_waits: [u64; 5],

    cache: SoftCache,
    region: RegionState,
    writeset: WriteSet,
    /// Pages flushed (sync flushes and evictions) not yet published.
    pending_pages: BTreeSet<u64>,
    last_seen: u64,

    arena: FreeListAlloc,
}

impl ThreadCtx {
    /// Build and register a thread context whose clock starts at `start`.
    /// Called by the system; not part of the public API.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        start: SimTime,
        tid: u32,
        nthreads: u32,
        cfg: Arc<SamhitaConfig>,
        ep: Endpoint<Msg>,
        mgr_ep: EndpointId,
        standby_ep: Option<EndpointId>,
        mem_eps: Vec<EndpointId>,
    ) -> Self {
        let layout = AddressLayout::new(&cfg);
        let (arena_lo, arena_hi) = layout.arena_range(tid);
        let cache = SoftCache::new(
            cfg.page_size,
            cfg.line_pages as usize,
            cfg.cache_capacity_lines,
            cfg.eviction,
        );
        let home_map = HomeMap::new(cfg.mem_servers, cfg.line_pages);
        // Per-thread jitter stream: deterministic, but decorrelated across
        // threads so retransmissions do not synchronize.
        let retry = RetryPolicy {
            base: SimTime::from_ns(cfg.retry.base_ns),
            cap: SimTime::from_ns(cfg.retry.cap_ns),
            max_attempts: cfg.retry.max_attempts,
            seed: cfg.faults.seed ^ (u64::from(tid) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Grant-liveness probe for blocked manager requests (see
        // `Channel::probe_ns`): one lease period, so a waiter orphaned by a
        // manager crash resurfaces on the same timescale the standby uses
        // to reclaim expired leases.
        let probe_ns = standby_ep.is_some().then_some(cfg.mgr_lease_ns);
        // How long a holder granted by baton waits for a hint that may be
        // in flight: the manager's serve of the acquire behind it, and the
        // NIC's per-message overhead on the way out.
        let grace = SimTime::from_ns(cfg.mgr_costs().0 + cfg.fabric.link().per_msg_overhead_ns);
        let chan = Channel::new(
            tid,
            ep,
            mgr_ep,
            standby_ep,
            probe_ns,
            grace,
            mem_eps,
            cfg.costs.send_ns as f64,
            cfg.replica_offset,
            home_map,
            retry,
        );
        let mut ctx = ThreadCtx {
            tid,
            nthreads,
            cfg,
            layout,
            home_map,
            chan,
            sync_time: SimTime::ZERO,
            epoch_clock: start,
            epoch_sync: SimTime::ZERO,
            epoch_waits: [0; 5],
            cache,
            region: RegionState::new(),
            writeset: WriteSet::new(),
            pending_pages: BTreeSet::new(),
            last_seen: 0,
            arena: FreeListAlloc::new(arena_lo, arena_hi),
        };
        ctx.chan.advance_to(start);
        match ctx.chan.rpc_mgr(MgrRequest::Register { observer: false }, MsgClass::Control) {
            MgrResponse::Registered { watermark, marks } => {
                ctx.last_seen = watermark;
                ctx.chan.require(&marks);
            }
            other => panic!("unexpected registration response: {other:?}"),
        }
        // Registration is setup, not application time.
        ctx.chan.reset_clock(start);
        ctx
    }

    /// Attach the thread's event buffer. Called by the system after
    /// construction (registration is setup, not a traced protocol event), so
    /// every stamp in the buffer is on the post-reset application timeline.
    pub(crate) fn attach_trace(&mut self, buf: TraceBuf) {
        self.chan.attach_trace(buf);
    }

    /// Close a fetch stall that started at `t0`.
    fn record_fetch(&mut self, page: u64, pages: u32, kind: FetchKind, t0: SimTime) {
        let wait_ns = (self.chan.now() - t0).as_ns();
        self.chan.note(EventKind::Fetch { page, pages, kind, wait_ns });
    }

    // ------------------------------------------------------------------
    // Identity and time
    // ------------------------------------------------------------------

    /// This thread's id within the run (0-based).
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Number of compute threads in the run.
    pub fn nthreads(&self) -> u32 {
        self.nthreads
    }

    /// The thread's virtual clock.
    pub fn now(&self) -> SimTime {
        self.chan.now()
    }

    /// Time spent in synchronization operations so far.
    pub fn sync_time(&self) -> SimTime {
        self.sync_time
    }

    /// Restart the measurement epoch: the reported [`crate::ThreadStats`]
    /// cover only work after the last call. Benchmarks call this after their
    /// initialization/warm-up phase, exactly where a wall-clock benchmark
    /// would start its timer.
    pub fn start_timing(&mut self) {
        self.epoch_clock = self.chan.now();
        self.epoch_sync = self.sync_time;
        self.epoch_waits = wait_sums(&mut self.chan.stats).map(|w| *w);
    }

    /// Charge `flops` floating-point operations of pure computation.
    pub fn compute(&mut self, flops: u64) {
        self.chan.charge(flops as f64 * self.cfg.costs.flop_ns);
    }

    fn charge_mem_ops(&mut self, bytes: usize) {
        let ops = bytes.div_ceil(8) as f64;
        self.chan.charge(ops * self.cfg.costs.mem_op_ns);
    }

    // ------------------------------------------------------------------
    // Allocation (the three strategies)
    // ------------------------------------------------------------------

    /// Allocate `size` bytes in the shared global address space.
    ///
    /// Strategy follows the paper: sizes up to the small threshold come from
    /// this thread's arena (local, no manager round-trip, no false sharing
    /// with other threads by construction); medium sizes from the manager's
    /// shared zone; large sizes striped across memory servers.
    ///
    /// # Panics
    /// Panics when the address space region is exhausted.
    pub fn alloc(&mut self, size: u64, align: u64) -> u64 {
        assert!(size > 0, "zero-size allocation");
        let align = align.max(8);
        if size <= self.cfg.small_threshold {
            self.charge_mem_ops(16); // local free-list walk
            if let Some(addr) = self.arena.alloc(size, align) {
                return addr;
            }
            // Arena exhausted: overflow to the shared zone like the
            // original allocator would.
        }
        let req = if size >= self.cfg.large_threshold {
            MgrRequest::AllocStriped { size }
        } else {
            MgrRequest::AllocShared { size, align }
        };
        match self.rpc_mgr_traced(req, MsgClass::Control) {
            MgrResponse::Addr(addr) => addr,
            other => panic!("unexpected allocation response: {other:?}"),
        }
    }

    /// Free an allocation made by [`ThreadCtx::alloc`] (any thread may free
    /// manager-mediated allocations; arena allocations must be freed by
    /// their owner).
    pub fn free(&mut self, addr: u64) {
        match self.layout.region_of(addr) {
            Region::Arena(owner) if owner == self.tid => {
                self.charge_mem_ops(16);
                self.arena.free(addr);
            }
            Region::Arena(owner) => {
                panic!("thread {} freeing thread {owner}'s arena allocation", self.tid)
            }
            Region::Shared | Region::Striped => {
                let resp = self.rpc_mgr_traced(MgrRequest::Free { addr }, MsgClass::Control);
                assert!(matches!(resp, MgrResponse::Ok), "unexpected free response: {resp:?}");
            }
            Region::Reserved => panic!("free of reserved address {addr:#x}"),
        }
    }

    // ------------------------------------------------------------------
    // Loads and stores
    // ------------------------------------------------------------------

    /// Read `out.len()` bytes from global address `addr`.
    pub fn read_bytes(&mut self, addr: u64, out: &mut [u8]) {
        let end = addr + out.len() as u64;
        for (page, off, range) in self.layout.pages(addr, out.len()) {
            let at = self.ensure_resident(page, end);
            let dst = &mut out[range];
            dst.copy_from_slice(&self.cache.bytes(at)[off..off + dst.len()]);
        }
        self.charge_mem_ops(out.len());
    }

    /// Write `data` to global address `addr`, applying the RegC protocol.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let region = self.effective_region();
        let end = addr + data.len() as u64;
        for (page, off, range) in self.layout.pages(addr, data.len()) {
            let src = &data[range];
            let within = off..off + src.len();
            self.write_chunk(page, end, within, region, true, |dst| dst.copy_from_slice(src));
        }
        self.charge_mem_ops(data.len());
    }

    /// Store to the bytes `within` `page`, part of an access that ends
    /// before `end`, through the cache — `fill` turns the current bytes
    /// into the new ones, which it does not read when the store is `pure`
    /// — and do the per-store accounting: twin statistics and trace,
    /// fine-grain logging. A pure ordinary-region store of a whole page
    /// reads nothing of the page: it claims the page if it is not valid,
    /// and its `fill` gets bytes of no particular value either way
    /// ([`SoftCache::write`]).
    fn write_chunk(
        &mut self,
        page: u64,
        end: u64,
        within: std::ops::Range<usize>,
        region: RegionKind,
        pure: bool,
        fill: impl FnOnce(&mut [u8]),
    ) {
        let (off, len) = (within.start, within.len());
        let whole = pure && len == self.cfg.page_size && region == RegionKind::Ordinary;
        let claimed = if whole { self.try_claim(page) } else { None };
        let at = claimed.unwrap_or_else(|| self.ensure_resident(page, end));
        let outcome = self.cache.write(at, off, len, region, whole, fill);
        if outcome.twin_created {
            self.chan.note(EventKind::TwinCreate { page });
        }
        if outcome.log_fine_grain {
            let addr = page * self.cfg.page_size as u64 + off as u64;
            self.writeset.record(addr, &self.cache.bytes(at)[off..off + len]);
        }
    }

    /// Read one `f64`.
    pub fn read_f64(&mut self, addr: u64) -> f64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        f64::from_le_bytes(b)
    }

    /// Write one `f64`.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read one `u64`.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write one `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read `out.len()` consecutive `f64`s starting at `addr`, which must
    /// be 8-byte aligned (elements never straddle pages).
    pub fn read_f64_slice(&mut self, addr: u64, out: &mut [f64]) {
        assert_eq!(addr % 8, 0, "f64 block at unaligned address {addr:#x}");
        let end = addr + out.len() as u64 * 8;
        for (page, off, range) in self.layout.pages(addr, out.len() * 8) {
            let at = self.ensure_resident(page, end);
            let src = &self.cache.bytes(at)[off..off + range.len()];
            for (v, b) in out[range.start / 8..range.end / 8].iter_mut().zip(src.chunks_exact(8)) {
                *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        self.charge_mem_ops(out.len() * 8);
    }

    /// Write `src` as consecutive `f64`s starting at `addr`, which must be
    /// 8-byte aligned.
    pub fn write_f64_slice(&mut self, addr: u64, src: &[f64]) {
        assert_eq!(addr % 8, 0, "f64 block at unaligned address {addr:#x}");
        let region = self.effective_region();
        let end = addr + src.len() as u64 * 8;
        for (page, off, range) in self.layout.pages(addr, src.len() * 8) {
            let vals = &src[range.start / 8..range.end / 8];
            self.write_chunk(page, end, off..off + range.len(), region, true, |dst| {
                for (b, v) in dst.chunks_exact_mut(8).zip(vals) {
                    b.copy_from_slice(&v.to_le_bytes());
                }
            });
        }
        self.charge_mem_ops(src.len() * 8);
    }

    /// Read-modify-write `n` consecutive `f64`s starting at the 8-byte
    /// aligned `addr`, a run at a time: `f(i0, xs)` updates in place the
    /// values at indices `i0..i0 + xs.len()`, every index once and in
    /// ascending order, in runs of at most [`UPDATE_RUN`] that never cross a
    /// page. One protocol application per touched page, two memory
    /// operations charged per element — the bulk path the kernels use for
    /// their inner loops.
    pub fn update_f64s(&mut self, addr: u64, n: usize, mut f: impl FnMut(usize, &mut [f64])) {
        assert_eq!(addr % 8, 0, "f64 block at unaligned address {addr:#x}");
        let region = self.effective_region();
        let end = addr + n as u64 * 8;
        for (page, off, range) in self.layout.pages(addr, n * 8) {
            self.write_chunk(page, end, off..off + range.len(), region, false, |dst| {
                let mut buf = [0f64; UPDATE_RUN];
                for (k, run) in dst.chunks_mut(UPDATE_RUN * 8).enumerate() {
                    let xs = &mut buf[..run.len() / 8];
                    for (x, b) in xs.iter_mut().zip(run.chunks_exact(8)) {
                        *x = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                    }
                    f(range.start / 8 + k * UPDATE_RUN, xs);
                    for (b, x) in run.chunks_exact_mut(8).zip(xs.iter()) {
                        b.copy_from_slice(&x.to_le_bytes());
                    }
                }
            });
        }
        self.charge_mem_ops(n * 16); // one load + one store per element
    }

    fn effective_region(&self) -> RegionKind {
        match self.cfg.consistency {
            // Whole-page ablation: every store follows the ordinary-region
            // (twin + page diff) path, even inside critical sections.
            ConsistencyVariant::WholePage => RegionKind::Ordinary,
            ConsistencyVariant::FineGrain => self.region.kind(),
        }
    }

    // ------------------------------------------------------------------
    // Synchronization (each op is also a consistency operation)
    // ------------------------------------------------------------------

    /// Acquire a mutual-exclusion lock, entering a consistency region.
    pub fn lock(&mut self, lock: u32) {
        self.sync_round_trip(
            EventKind::LockRequest { lock },
            |interval, last_seen| MgrRequest::Acquire { lock, interval, last_seen },
            |wait_ns| EventKind::LockAcquire { lock, wait_ns },
            |ctx| ctx.region.enter(),
        );
    }

    /// Release a lock, flushing consistency-region updates at fine grain.
    ///
    /// When the manager has hinted who is next — it does as the successor
    /// queues, so mostly long before — and this thread has not synchronized
    /// since the lock was granted, the release hands the lock over
    /// directly: this thread sends the successor a baton with its release
    /// interval, which completes the grant the manager sent it in advance,
    /// and the release the manager gets names it. A hint that says `relay`
    /// asks the baton to carry, first, what this thread's grant gave it to
    /// relay: the interval its own baton brought, or what the manager's
    /// grant named. A holder granted by baton that has no hint yet waits a
    /// moment for one that may be on its way. With nothing to relay, no
    /// hint, a stale one, or a nested acquisition or barrier since the
    /// grant, the lock is released through the manager, which grants the
    /// next waiter itself.
    pub fn unlock(&mut self, lock: u32) {
        let t0 = self.chan.now();
        self.region.exit();
        let interval = self.flush_all();
        // Stamped after the flush and before the wire sends: on a correct
        // run this always precedes the next holder's grant stamp, which is
        // what lets the trace checker treat [acquire, release] as the hold.
        self.chan.trace(|| EventKind::LockRelease { lock });
        let handed = self.chan.end_hold(lock, self.last_seen).map(|(next, mut relay)| {
            // The successor checks its advance covers what this thread saw
            // but the baton carries.
            let interval = NoticeSet::interval(self.tid, &interval);
            relay.notices = relay.notices.ahead_of(&interval);
            self.chan.send_baton(&next, MgrResponse::Baton { relay, interval });
            Handed { to: next.tid, token: next.token }
        });
        let req = MgrRequest::Release { lock, interval, handed };
        if self.chan.acked_releases() {
            // With a hot standby, a fire-and-forget release could vanish
            // with the crashed primary and leave the lock held until its
            // lease expires. Upgrade to a full RPC: the channel's
            // retry/failover machinery lands it at whichever manager is
            // alive, and the stall is attributed like any manager wait.
            let resp = self.rpc_mgr_traced(req, MsgClass::Sync);
            assert!(matches!(resp, MgrResponse::Ok), "unexpected release response: {resp:?}");
        } else {
            // Fire-and-forget: the manager orders the release before any
            // subsequent grant; the releaser only pays the send cost (plus
            // backoff for any retransmission after a send-time drop).
            self.chan.send_mgr_oneway(req, MsgClass::Sync);
        }
        self.sync_time += self.chan.now() - t0;
    }

    /// Wait at a barrier.
    pub fn barrier(&mut self, barrier: u32) {
        self.sync_round_trip(
            EventKind::BarrierArrive { barrier },
            |interval, last_seen| MgrRequest::BarrierWait { barrier, interval, last_seen },
            |wait_ns| EventKind::BarrierRelease { barrier, wait_ns },
            |ctx| {
                if ctx.cfg.prefetch {
                    ctx.refetch_used();
                }
            },
        );
    }

    /// Atomically release `lock` and wait on condition variable `cond`;
    /// re-acquires the lock before returning. Must be called while holding
    /// `lock` (as with Pthreads, that is a caller obligation).
    pub fn cond_wait(&mut self, cond: u32, lock: u32) {
        // On the trace, a cond wait is a lock release (the atomic handoff to
        // the manager) followed by a re-acquire at wake-up, which is a lock
        // acquisition and a lock wait, on the trace and in the report alike.
        self.sync_round_trip(
            EventKind::LockRelease { lock },
            |interval, last_seen| MgrRequest::CondWait { cond, lock, interval, last_seen },
            |wait_ns| EventKind::LockAcquire { lock, wait_ns },
            |_| {},
        );
    }

    /// Wake one waiter of `cond`.
    pub fn cond_signal(&mut self, cond: u32) {
        self.signal(MgrRequest::CondSignal { cond });
    }

    /// Wake all waiters of `cond`.
    pub fn cond_broadcast(&mut self, cond: u32) {
        self.signal(MgrRequest::CondBroadcast { cond });
    }

    /// Send a cond signal or broadcast, counted as sync time.
    fn signal(&mut self, req: MgrRequest) {
        let t0 = self.chan.now();
        let resp = self.rpc_mgr_traced(req, MsgClass::Sync);
        assert!(matches!(resp, MgrResponse::Ok), "unexpected signal response: {resp:?}");
        self.sync_time += self.chan.now() - t0;
    }

    /// The round trip of a blocking synchronization, each its consistency
    /// operation: flush, stamp `arrive`, send the request `req` makes of
    /// the interval and this thread's watermark, note the wait it ended
    /// (`waited`), apply the notices the answer carries and take its
    /// watermark, run `then`, and count it all as sync time.
    fn sync_round_trip(
        &mut self,
        arrive: EventKind,
        req: impl FnOnce(Interval, u64) -> MgrRequest,
        waited: impl FnOnce(u64) -> EventKind,
        then: impl FnOnce(&mut Self),
    ) {
        let t0 = self.chan.now();
        let interval = self.flush_all();
        let req_at = self.chan.now();
        self.chan.trace(|| arrive);
        let (notices, watermark) =
            match self.chan.rpc_mgr(req(interval, self.last_seen), MsgClass::Sync) {
                MgrResponse::Rest { notices, watermark, .. }
                | MgrResponse::BarrierReleased { notices, watermark } => (notices, watermark),
                other => panic!("unexpected sync response: {other:?}"),
            };
        self.chan.note(waited((self.chan.now() - req_at).as_ns()));
        self.apply_notices(&notices);
        self.last_seen = watermark;
        then(self);
        self.sync_time += self.chan.now() - t0;
    }

    /// Create a lock from a running thread (locks are more typically created
    /// by the host before `run`).
    pub fn create_lock(&mut self) -> u32 {
        match self.rpc_mgr_traced(MgrRequest::CreateLock, MsgClass::Control) {
            MgrResponse::SyncId(id) => id,
            other => panic!("unexpected create-lock response: {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Internals: residency, flushing
    // ------------------------------------------------------------------

    /// Make `page` — of an access that ends before address `end` — resident
    /// and valid, faulting (and prefetching) as needed, and stamp it as
    /// used. The returned reference is what the read or write that follows
    /// indexes the cache with: a hit costs one lookup.
    fn ensure_resident(&mut self, page: u64, end: u64) -> PageRef {
        let line = self.cache.line_of(page);
        let line_pages = self.cache.line_pages() as u32;
        if let Some((at, state)) = self.cache.resolve(page) {
            if state == PageState::Invalid {
                // The run refetched at the last release, if one is out for
                // this line: it fills what is still invalid.
                let t0 = self.chan.now();
                if let Some((first, frames, kind)) = self.take_prefetch(line, t0) {
                    self.fill_run(first, frames, kind, t0);
                }
                if self.cache.page_state(page) == Some(PageState::Invalid) {
                    // Revalidation after invalidation notices: false-sharing
                    // refetch traffic. One fetch for the pages of the line
                    // this thread has used or is accessing, not the whole
                    // line.
                    let t0 = self.chan.now();
                    let last = (end - 1) / self.cfg.page_size as u64;
                    let (first, pages) = self.cache.refetch_run(at, last);
                    let frames = self.fetch_run(line, first, pages);
                    self.fill_run(first, frames, FetchKind::Refetch, t0);
                }
            }
            self.cache.touch(at);
            return at;
        }

        let first_page = line * self.cache.line_pages() as u64;
        let t0 = self.chan.now();
        let (pages, kind) = match self.take_prefetch(line, t0) {
            Some((_, pages, kind)) => (pages, kind),
            None => (self.fetch_run(line, first_page, line_pages), FetchKind::Demand),
        };
        self.install_line(line, pages);
        self.record_fetch(first_page, line_pages, kind, t0);
        let (at, _) = self.cache.resolve(page).expect("line was just installed");
        self.cache.touch(at);

        // Anticipatory paging: ask for the adjacent line asynchronously.
        if self.cfg.prefetch {
            self.maybe_prefetch(line + 1);
        }
        at
    }

    /// Take the prefetch of `line` — the whole line, or the run refetched at
    /// a release if the line is resident — for a fault that began at `t0`:
    /// its first page, pages and how it was taken. A completed prefetch is
    /// free unless the fault outran it; one still in flight is waited for,
    /// unless its response was delivered already — then it was free, a hit.
    /// `None` when there is none, or its response was lost on the wire (the
    /// wait for the lost copy was the timeout): the caller fetches itself.
    fn take_prefetch(
        &mut self,
        line: u64,
        t0: SimTime,
    ) -> Option<(u64, Vec<PageFrame>, FetchKind)> {
        let (first, pages) = match self.chan.take_prefetch(line)? {
            Prefetch::Ready(deliver, first, pages) => {
                self.chan.advance_to(deliver);
                return Some((first, pages, FetchKind::PrefetchHit));
            }
            Prefetch::InFlight(token) => self.chan.await_prefetch(token)?,
        };
        let late = self.chan.now() > t0;
        Some((first, pages, if late { FetchKind::PrefetchLate } else { FetchKind::PrefetchHit }))
    }

    /// Anticipatory paging at a release: refetch, asynchronously, the run of
    /// each resident line holding pages this thread used that the release
    /// invalidated ([`SoftCache::take_used_runs`]), so that the fault on it
    /// finds the pages on their way. Each request is stamped after the
    /// release's marks, so its home answers it only once it has applied the
    /// batches the notices named; a later notice for the line, or its
    /// eviction, drops the response. A refetch counts as one when it is
    /// sent, as the fault's does.
    fn refetch_used(&mut self) {
        for (first, pages) in self.cache.take_used_runs() {
            let line = self.cache.line_of(first);
            if !self.chan.prefetch_pending_for(line) && self.prefetch(line, first, pages) {
                self.chan.note(EventKind::RefetchIssue { page: first, pages });
            }
        }
    }

    /// Ask `line`'s home, asynchronously, for `pages` of its pages from
    /// `first` ([`Channel::try_prefetch`]): whether the request went out.
    fn prefetch(&mut self, line: u64, first: u64, pages: u32) -> bool {
        let home = self.home_map.home_of_line(line);
        self.chan.try_prefetch(home, line, MemRequest::FetchLine { first: PageId(first), pages })
    }

    /// Claim `page` for a pure ordinary-region store that overwrites all of
    /// it, when it is not valid here ([`SoftCache::claim_page`]): under RegC
    /// the store is owed the page only at the next synchronization, and it
    /// is the whole page. Nothing is fetched, filled or prefetched. A page
    /// whose line a prefetch is bringing is left to the prefetch: its copy of
    /// the line would outlive the claimed one. `None` when not claimed.
    fn try_claim(&mut self, page: u64) -> Option<PageRef> {
        let line = self.cache.line_of(page);
        let valid = self.cache.page_state(page).is_some_and(|s| s != PageState::Invalid);
        if valid || self.chan.prefetch_pending_for(line) {
            return None;
        }
        if !self.cache.contains_line(line) {
            self.make_room();
        }
        let at = self.cache.claim_page(page);
        self.cache.touch(at);
        Some(at)
    }

    /// Fetch `pages` consecutive pages of `line` from `first` synchronously
    /// from the line's (effective) home.
    fn fetch_run(&mut self, line: u64, first: u64, pages: u32) -> Vec<PageFrame> {
        let server = self.home_map.home_of_line(line);
        let req = MemRequest::FetchLine { first: PageId(first), pages };
        match self.chan.rpc_mem(server, req, MsgClass::Data).0 {
            MemResponse::Line { pages, .. } => pages,
            other => panic!("unexpected line fetch response: {other:?}"),
        }
    }

    /// Fill the invalid pages of the run fetched from `first`
    /// ([`SoftCache::fill_invalid`]) for a fault that began at `t0`.
    fn fill_run(&mut self, first: u64, frames: Vec<PageFrame>, kind: FetchKind, t0: SimTime) {
        let pages = frames.len() as u32;
        self.charge_cache_fill(frames.len() * self.cfg.page_size);
        self.cache.fill_invalid(first, frames);
        self.record_fetch(first, pages, kind, t0);
    }

    fn install_line(&mut self, line: u64, pages: Vec<PageFrame>) {
        self.make_room();
        self.charge_cache_fill(self.cfg.line_bytes());
        self.cache.install_line(line, pages);
    }

    /// Charge the modelled copy of `bytes` fetched bytes into the cache (the
    /// simulator itself moves a reference).
    fn charge_cache_fill(&mut self, bytes: usize) {
        self.chan.charge((bytes as u64 / 1024 * self.cfg.costs.cache_fill_per_kib_ns) as f64);
    }

    /// Evict until a new line fits, flushing dirty victims home. Each
    /// evicted line's diffs travel as one batch per destination server,
    /// numbered like a sync flush's: the next published interval names the
    /// pages and counts the batch, and nothing waits for it. This
    /// thread's own refetch of the line names nothing — it leaves after the
    /// batch, and the server keeps one sender's requests in order.
    fn make_room(&mut self) {
        while self.cache.is_full() {
            let (line, diffs) = self.cache.evict().expect("full cache has lines");
            // A run refetched for the line fills only a resident one.
            self.chan.poison_prefetch_line(line);
            self.chan.note(EventKind::Evict { line, dirty_pages: diffs.len() as u32 });
            let mut batches = BTreeMap::new();
            for (page, diff) in diffs {
                self.stage_diff(&mut batches, page, diff);
            }
            self.flush_batches(batches);
        }
    }

    fn maybe_prefetch(&mut self, line: u64) {
        let (first, pages) =
            (line * self.cache.line_pages() as u64, self.cache.line_pages() as u32);
        let absent = !self.cache.contains_line(line) && !self.chan.prefetch_pending_for(line);
        if absent && self.prefetch(line, first, pages) {
            self.chan.trace(|| EventKind::PrefetchIssue { page: first, pages });
        }
    }

    /// Stage one page diff into the per-server batch map, noting the flush
    /// and the pending notice, which batching leaves per page.
    fn stage_diff(
        &mut self,
        batches: &mut BTreeMap<u32, UpdateBatch>,
        page: u64,
        diff: samhita_regc::Diff,
    ) {
        self.chan.note(EventKind::DiffFlush { page, bytes: diff.payload_bytes() as u64 });
        self.pending_pages.insert(page);
        let home = self.home_map.home_of_page(PageId(page));
        batches.entry(home).or_default().push(UpdatePart::Diff { page, diff });
    }

    /// Ship the staged batches: one one-way update message per destination
    /// server, each numbered as a single unit (see
    /// [`Channel::send_update`]). Iteration over the `BTreeMap` keeps the
    /// send order deterministic.
    fn flush_batches(&mut self, batches: BTreeMap<u32, UpdateBatch>) {
        for (server, batch) in batches {
            self.chan.trace(|| EventKind::BatchFlush {
                server,
                parts: batch.len() as u32,
                bytes: batch.wire_bytes() as u64,
            });
            self.chan.send_update(server, batch);
        }
    }

    /// Flush all local modifications home. Returns the interval to publish:
    /// page-granularity write notices (receivers invalidate), fine-grain
    /// updates (receivers apply in place) and how many update batches this
    /// thread has sent to each home (receivers' requests to a home follow
    /// those batches) — the consistency half of every synchronization
    /// operation.
    ///
    /// Everything bound for the same memory server travels as one
    /// [`UpdateBatch`], one message, so the message count per sync operation
    /// is O(servers), not O(dirty pages). The synchronization that follows
    /// leaves as soon as the batches are sent: no reader can act on the
    /// notice before the home applies what the marks name.
    fn flush_all(&mut self) -> Interval {
        let flush_t0 = self.chan.now();
        let mut batches: BTreeMap<u32, UpdateBatch> = BTreeMap::new();
        // Ordinary-region pages: twin diffs (multiple-writer protocol).
        for page in self.cache.dirty_pages() {
            if let Some(diff) = self.cache.flush_page(page) {
                if !diff.is_empty() {
                    self.stage_diff(&mut batches, page, diff);
                }
            }
        }
        // Consistency-region stores: fine-grain object updates, shipped to
        // the home *and* carried in the published notice so other caches
        // can apply them without refetching.
        let parts = self.writeset.drain_per_page(self.cfg.page_size as u64);
        let mut updates = Vec::with_capacity(parts.len());
        for (page, offset, bytes) in parts {
            self.chan.note(EventKind::FineFlush { page, bytes: bytes.len() as u64 });
            let home = self.home_map.home_of_page(PageId(page));
            batches.entry(home).or_default().push(UpdatePart::Fine {
                page,
                offset,
                bytes: bytes.clone(),
            });
            updates.push(FineUpdate { page, offset, bytes });
        }
        self.flush_batches(batches);
        // The whole flush — twin diffing, staging, batched sends — is one
        // measured interval. Lock/barrier waits start only after this
        // returns, so the wait classes stay pairwise disjoint.
        self.chan.stats.flush_wait_ns += (self.chan.now() - flush_t0).as_ns();
        let pages: Vec<u64> = std::mem::take(&mut self.pending_pages).into_iter().collect();
        let mut interval = Interval { pages, updates, batches: Vec::new() };
        if !interval.is_empty() {
            interval.batches = self.chan.batches();
        }
        interval
    }

    /// Apply what the write notices this thread had not seen amount to — the
    /// acquire half of every synchronization operation (public so a harness
    /// can price it apart from the manager round trip that delivers it):
    /// invalidate the cached pages of each run, apply the carried
    /// fine-grain updates in place, and make every later request to a home
    /// follow the batches the set's marks name there.
    ///
    /// The set is already the merge of the unseen log suffix for this thread
    /// ([`IntervalLog::merged_since`](samhita_regc::IntervalLog::merged_since)):
    /// no page of its own alone, no update to a page it invalidates, one
    /// update per range. Applying it leaves the cache, `invalidations`, the
    /// hotspot map and the prefetch state exactly as applying that suffix
    /// notice by notice would; only the updates the merge dropped are no
    /// longer paid for.
    ///
    /// Prefetched data covering a noticed page is as stale as a cached copy:
    /// completed prefetches are dropped and in-flight ones poisoned so their
    /// responses are discarded on arrival (a demand miss will refetch).
    ///
    /// Costs one page-table probe per cache line a run crosses (two while a
    /// prefetch is out) and does the rest only for pages that are resident
    /// or prefetched: a barrier release names every page any other thread
    /// wrote, nearly all of which this one never touched.
    pub fn apply_notices(&mut self, notices: &NoticeSet) {
        // Applying notices sends nothing, so no prefetch can appear midway.
        let prefetching = !self.chan.prefetch_idle();
        let line_pages = self.cache.line_pages() as u64;
        for run in notices.runs.iter() {
            // A run is taken a cache line at a time: one probe settles all
            // its pages of a line this thread does not hold.
            let (mut page, end) = (run.first_page, run.pages().end);
            while page < end {
                let line = self.cache.line_of(page);
                let next_line = end.min((line + 1) * line_pages);
                let prefetched = prefetching && self.chan.prefetch_pending_for(line);
                if prefetched || self.cache.contains_line(line) {
                    for page in page..next_line {
                        self.invalidate(page, run.writer, &notices.marks, prefetched);
                    }
                }
                page = next_line;
            }
        }
        for u in &notices.updates {
            self.apply_update(u, prefetching);
        }
        self.chan.require(&notices.marks);
    }

    /// One page of one foreign notice, whose set carried `marks`: drop the
    /// cached copy, if any.
    fn invalidate(&mut self, page: u64, writer: u32, marks: &Marks, prefetching: bool) {
        if self.cache.invalidate_page(page) {
            let batch = marks.batch(self.home_map.home_of_page(PageId(page)), writer);
            self.chan.note(EventKind::Invalidate { page, writer, batch });
        }
        if prefetching {
            self.poison_prefetch(page);
        }
    }

    /// One carried update: patch the cached copy, if any.
    fn apply_update(&mut self, u: &FineUpdate, prefetching: bool) {
        if self.cache.apply_update(u.page, u.offset as usize, &u.bytes) {
            self.charge_mem_ops(u.bytes.len());
        }
        // Prefetched copies may predate the home's version of this update
        // (the fetch raced the flush): drop/poison them.
        if prefetching {
            self.poison_prefetch(u.page);
        }
    }

    /// Drop completed and poison in-flight prefetches covering `page`.
    fn poison_prefetch(&mut self, page: u64) {
        let line = self.cache.line_of(page);
        self.chan.poison_prefetch_line(line);
    }

    /// [`crate::proto::Channel::rpc_mgr`] plus a `MgrRpc` trace event
    /// covering the request→response stall. Used by the non-sync paths
    /// (allocation, creation, signals); lock/barrier paths have dedicated
    /// events.
    fn rpc_mgr_traced(&mut self, req: MgrRequest, class: MsgClass) -> MgrResponse {
        let op = req.label();
        let t0 = self.chan.now();
        let resp = self.chan.rpc_mgr(req, class);
        let wait_ns = (self.chan.now() - t0).as_ns();
        self.chan.note(EventKind::MgrRpc { op, wait_ns });
        resp
    }

    /// Final flush + departure. Returns the thread's statistics and its
    /// event buffer (if tracing).
    pub(crate) fn finish(mut self) -> (ThreadStats, Option<TraceBuf>) {
        // The measurement stops here: the final flush and departure RPC are
        // teardown, not application time (a wall-clock benchmark's timer
        // stops before join/teardown too).
        let end_clock = self.chan.now();
        let end_sync = self.sync_time;
        let end_waits = wait_sums(&mut self.chan.stats).map(|w| *w);
        let interval = self.flush_all();
        let resp = self.chan.rpc_mgr(MgrRequest::Exit { interval }, MsgClass::Control);
        assert!(matches!(resp, MgrResponse::Ok), "unexpected exit response: {resp:?}");
        let trace = self.chan.take_trace();
        let mut stats = *self.chan.stats;
        stats.total = end_clock.saturating_sub(self.epoch_clock);
        stats.sync = end_sync.saturating_sub(self.epoch_sync);
        stats.compute = stats.total.saturating_sub(stats.sync);
        stats.epoch_ns = self.epoch_clock.as_ns();
        stats.end_ns = end_clock.as_ns();
        for ((sum, end), epoch) in
            wait_sums(&mut stats).into_iter().zip(end_waits).zip(self.epoch_waits)
        {
            *sum = end - epoch;
        }
        (stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use samhita_regc::{IntervalLog, WriteNotice};

    use super::*;
    use crate::system::Samhita;

    impl ThreadCtx {
        /// The oracle [`apply_notices`](Self::apply_notices) is held to: the log
        /// suffix itself, notice by notice, as it was sent and applied before
        /// the manager merged it.
        fn apply_suffix(&mut self, suffix: &[WriteNotice]) {
            let (prefetching, me) = (!self.chan.prefetch_idle(), self.tid);
            for n in suffix.iter().filter(|n| n.writer != me) {
                for &page in &n.pages {
                    self.invalidate(page, n.writer, &Marks::default(), prefetching);
                }
                // A page named in the same notice's invalidation list is
                // already stale as a whole; skip its carried bytes.
                for u in n.updates.iter().filter(|u| n.pages.binary_search(&u.page).is_err()) {
                    self.apply_update(u, prefetching);
                }
            }
        }
    }

    /// What a thread is sent when one other thread flushed `pages` and
    /// carried `updates`.
    fn notice(pages: Vec<u64>, updates: Vec<FineUpdate>) -> NoticeSet {
        let mut log = IntervalLog::new();
        log.publish(u32::MAX, pages, updates);
        log.merged_since(0, 0)
    }

    /// A system plus the first line of a 32-line region nothing else uses.
    fn system(prefetch: bool) -> (Samhita, u64) {
        let cfg = SamhitaConfig { prefetch, ..SamhitaConfig::small_for_tests() };
        let line_bytes = cfg.line_bytes() as u64;
        let sys = Samhita::new(cfg);
        let base = sys.alloc_global(33 * line_bytes);
        (sys, base.div_ceil(line_bytes))
    }

    /// Overwrite `page` at its home behind this thread's cache, as another
    /// thread's flush would have by the time its notice arrives.
    fn write_home(ctx: &mut ThreadCtx, page: u64, fill: u8) {
        let home = ctx.home_map.home_of_page(PageId(page));
        let mut batch = UpdateBatch::new();
        batch.push(UpdatePart::Fine { page, offset: 0, bytes: vec![fill; ctx.cfg.page_size] });
        ctx.chan.send_update(home, batch);
    }

    #[test]
    fn a_notice_drops_a_ready_prefetch_and_poisons_one_in_flight() {
        let (sys, first_line) = system(true);
        sys.run(1, |ctx| {
            let line_pages = ctx.cache.line_pages() as u64;
            let ps = ctx.cfg.page_size as u64;
            let addr_of = |line: u64| line * line_pages * ps;

            // Ready: miss on L prefetches L+1; blocking on a far line's
            // fetch lets the prefetched copy arrive and be filed.
            let stale = first_line + 1;
            ctx.read_u64(addr_of(first_line));
            ctx.read_u64(addr_of(first_line + 4));
            assert!(ctx.chan.prefetch_ready_for(stale), "prefetch of L+1 should have landed");
            write_home(ctx, stale * line_pages, 0xAB);
            ctx.apply_notices(&notice(vec![stale * line_pages], vec![]));
            assert!(!ctx.chan.prefetch_pending_for(stale), "the completed copy is dropped");
            let misses = ctx.chan.stats.line_misses;
            assert_eq!(ctx.read_u64(addr_of(stale)), u64::from_le_bytes([0xAB; 8]));
            assert_eq!(ctx.chan.stats.line_misses, misses + 1, "the access demand-fetches");

            // In flight: the notice (here one that carries the bytes)
            // arrives before the prefetch response does.
            let racing = first_line + 17;
            ctx.read_u64(addr_of(racing - 1));
            assert!(ctx.chan.prefetch_pending_for(racing) && !ctx.chan.prefetch_ready_for(racing));
            let update = FineUpdate { page: racing * line_pages, offset: 0, bytes: vec![0xCD; 8] };
            ctx.apply_notices(&notice(vec![], vec![update]));
            assert!(!ctx.chan.prefetch_pending_for(racing), "the in-flight prefetch is disowned");
            write_home(ctx, racing * line_pages, 0xCD);
            let misses = ctx.chan.stats.line_misses;
            assert_eq!(ctx.read_u64(addr_of(racing)), u64::from_le_bytes([0xCD; 8]));
            assert_eq!(ctx.chan.stats.line_misses, misses + 1, "the access demand-fetches");
            assert!(!ctx.chan.prefetch_ready_for(racing), "the late response is discarded");

            assert_eq!((ctx.chan.stats.prefetch_hits, ctx.chan.stats.prefetch_late), (0, 0));
            assert_eq!(ctx.chan.stats.invalidations, 0, "neither line was in the cache");
        });
    }

    #[test]
    fn a_prefetch_delivered_before_the_miss_is_a_hit() {
        let (sys, first_line) = system(true);
        sys.run(1, |ctx| {
            let line_bytes = ctx.cfg.line_bytes() as u64;
            // The miss on L prefetches L + 1; computing long past its
            // response's delivery takes nothing in, so the prefetch is still
            // in flight as far as the channel knows when L + 1 is read.
            ctx.read_u64(first_line * line_bytes);
            ctx.compute(1_000_000);
            assert!(!ctx.chan.prefetch_ready_for(first_line + 1), "nothing was taken in");
            let waited = ctx.chan.stats.fetch_wait_ns;
            ctx.read_u64((first_line + 1) * line_bytes);
            assert_eq!(ctx.chan.stats.fetch_wait_ns, waited, "the miss did not wait");
            assert_eq!((ctx.chan.stats.prefetch_hits, ctx.chan.stats.prefetch_late), (1, 0));
        });
    }

    #[test]
    fn a_barrier_refetches_the_used_pages_it_invalidated_and_a_fault_takes_them() {
        let (sys, first_line) = system(true);
        let barrier = sys.create_barrier(1);
        sys.run(1, |ctx| {
            let line_pages = ctx.cache.line_pages() as u64;
            let ps = ctx.cfg.page_size as u64;
            let (used, unused) = (first_line * line_pages, first_line * line_pages + 1);
            ctx.read_u64(used * ps);
            // Another thread wrote both pages and flushed before the release.
            write_home(ctx, used, 0xAB);
            write_home(ctx, unused, 0xCD);
            ctx.apply_notices(&notice(vec![used, unused], vec![]));
            let refetches = ctx.chan.stats.page_refetches;
            ctx.barrier(barrier);
            assert_eq!(ctx.chan.stats.page_refetches, refetches + 1, "one run, counted at issue");
            assert!(ctx.chan.prefetch_pending_for(first_line));
            assert_eq!(ctx.chan.stats.hot.page(used).map(|c| c.refetches), Some(1));
            assert_eq!(ctx.chan.stats.hot.page(unused).map(|c| c.refetches), Some(0), "never used");
            // The fault takes the run; the page never used is fetched alone.
            assert_eq!(ctx.read_u64(used * ps), u64::from_le_bytes([0xAB; 8]));
            assert_eq!(ctx.chan.stats.page_refetches, refetches + 1);
            assert_eq!(ctx.chan.stats.prefetch_hits + ctx.chan.stats.prefetch_late, 1);
            assert_eq!(ctx.read_u64(unused * ps), u64::from_le_bytes([0xCD; 8]));
            assert_eq!(ctx.chan.stats.page_refetches, refetches + 2);
            // Nothing used is invalid at the next release: nothing refetched.
            ctx.barrier(barrier);
            assert_eq!(ctx.chan.stats.page_refetches, refetches + 2);
        });
    }

    #[test]
    fn notices_for_pages_not_held_cost_nothing() {
        let (sys, first_line) = system(false);
        sys.run(1, |ctx| {
            let line_pages = ctx.cache.line_pages() as u64;
            let held = first_line * line_pages;
            ctx.read_u64(held * ctx.cfg.page_size as u64);
            assert!(ctx.chan.prefetch_idle());

            // A 256-thread barrier release: 255 notices, each a few pages
            // and a carried update, none of them here.
            let elsewhere = held + 4 * line_pages;
            let mut log = IntervalLog::new();
            for w in 0..255u64 {
                let update = FineUpdate { page: elsewhere + w % 7, offset: 8, bytes: vec![1; 8] };
                log.publish(
                    1 + w as u32,
                    (elsewhere..elsewhere + 1 + w % 5).collect(),
                    vec![update],
                );
            }
            let notices = log.merged_since(0, 0);
            assert_eq!((notices.runs.len(), notices.updates.len()), (5, 2), "{notices:?}");
            let before = (ctx.now(), ctx.chan.stats.invalidations, ctx.chan.stats.hot.clone());
            ctx.apply_notices(&notices);
            assert_eq!(
                (ctx.now(), ctx.chan.stats.invalidations, ctx.chan.stats.hot.clone()),
                before
            );
            assert_eq!(ctx.cache.page_state(held), Some(PageState::Clean));

            // The same call does invalidate what is held.
            ctx.apply_notices(&notice(vec![held], vec![]));
            assert_eq!(ctx.chan.stats.invalidations, before.1 + 1);
            assert_eq!(ctx.cache.page_state(held), Some(PageState::Invalid));
        });
    }

    /// A log and, beside it, every notice published to it: the suffix the
    /// oracle applies is cut from the copy, not read back from the log.
    #[derive(Clone, Default)]
    struct Script {
        log: IntervalLog,
        notices: Vec<WriteNotice>,
    }

    impl Script {
        fn publish(&mut self, writer: u32, pages: Vec<u64>, updates: Vec<FineUpdate>) {
            let before = self.log.watermark();
            let seq = self.log.publish(writer, pages.clone(), updates.clone());
            if seq > before {
                let updates = updates.into_iter().map(Arc::new).collect();
                self.notices.push(WriteNotice {
                    seq,
                    writer,
                    seen_by: [None; 2],
                    pages,
                    updates,
                    batches: Vec::new(),
                });
            }
        }
    }

    /// How [`merge_matches_the_suffix`] applies what the log holds.
    #[derive(Clone, Copy)]
    enum Apply {
        /// `apply_notices` on the merged set: the protocol.
        Set,
        /// The unseen suffix notice by notice: the oracle.
        Suffix,
        /// Nothing; only charge for the set's updates that find their page.
        ChargeOnly,
    }

    /// Everything applying notices may touch.
    #[derive(Debug, PartialEq)]
    struct Observed {
        pages: Vec<(Option<PageState>, Option<Vec<u8>>)>,
        prefetches: Vec<(bool, bool)>,
        invalidations: u64,
        hot: samhita_trace::HotspotMap,
        charged_ns: u64,
    }

    const PAGES: u64 = 32;

    /// A reader (thread 0) holding, over pages `base..base + PAGES` (two
    /// to a line): lines 0, 4, 8 and 12 resident with page 8 already
    /// invalid, prefetches of lines 1, 5 and 9 landed and one of line 13 in
    /// flight, everything else absent — then `log`'s notices past
    /// `last_seen`, applied as `how` says.
    fn apply_to_a_warm_reader(script: &Script, last_seen: u64, how: Apply) -> Observed {
        let (sys, first_line) = system(true);
        let seen = Mutex::new(None);
        sys.run(1, |ctx| {
            let line_pages = ctx.cache.line_pages() as u64;
            let base = first_line * line_pages;
            let ps = ctx.cfg.page_size as u64;
            for line in [0, 4, 8, 12] {
                ctx.read_u64((base + line * line_pages) * ps);
            }
            ctx.apply_notices(&notice(vec![base + 8], vec![]));
            assert_eq!(ctx.cache.page_state(base + 8), Some(PageState::Invalid));
            let at = |line: u64| first_line + line;
            assert!([1, 5, 9].iter().all(|&l| ctx.chan.prefetch_ready_for(at(l))));
            assert!(ctx.chan.prefetch_pending_for(at(13)) && !ctx.chan.prefetch_ready_for(at(13)));

            // The log names pages 0..PAGES; they live at `base`.
            let place = |u: &FineUpdate| FineUpdate { page: base + u.page, ..u.clone() };
            let mut set = script.log.clone().merged_since(last_seen, ctx.tid);
            set.runs = set
                .runs
                .iter()
                .map(|r| samhita_regc::PageRun { first_page: base + r.first_page, ..*r })
                .collect::<Vec<_>>()
                .into();
            set.updates = set.updates.iter().map(|u| Arc::new(place(u))).collect();
            let suffix: Vec<_> = (script.notices.iter().filter(|n| n.seq > last_seen))
                .map(|n| WriteNotice {
                    pages: n.pages.iter().map(|p| base + p).collect(),
                    updates: n.updates.iter().map(|u| Arc::new(place(u))).collect(),
                    ..n.clone()
                })
                .collect();

            let (t0, invalidations0) = (ctx.now(), ctx.chan.stats.invalidations);
            match how {
                Apply::Set => ctx.apply_notices(&set),
                Apply::Suffix => ctx.apply_suffix(&suffix),
                Apply::ChargeOnly => {
                    for u in &set.updates {
                        if ctx.cache.page_state(u.page) == Some(PageState::Clean) {
                            ctx.charge_mem_ops(u.bytes.len());
                        }
                    }
                }
            }
            let page = |p: u64| {
                let at = ctx.cache.resolve(p);
                let clean = at.filter(|(_, state)| *state == PageState::Clean);
                (at.map(|(_, state)| state), clean.map(|(at, _)| ctx.cache.bytes(at).to_vec()))
            };
            let prefetch =
                |l| (ctx.chan.prefetch_pending_for(at(l)), ctx.chan.prefetch_ready_for(at(l)));
            *seen.lock().expect("one thread") = Some(Observed {
                pages: (base..base + PAGES).map(page).collect(),
                prefetches: (0..PAGES / line_pages).map(prefetch).collect(),
                invalidations: ctx.chan.stats.invalidations - invalidations0,
                hot: ctx.chan.stats.hot.clone(),
                charged_ns: (ctx.now() - t0).as_ns(),
            });
        });
        seen.into_inner().expect("one thread").expect("the body ran")
    }

    /// The set does to the reader what its suffix does — page states, page
    /// bytes, the invalidation count, the hotspot map, the prefetches — and
    /// is charged for exactly the updates it carries.
    fn merge_matches_the_suffix(script: &Script, last_seen: u64, what: &str) {
        let by_set = apply_to_a_warm_reader(script, last_seen, Apply::Set);
        let by_suffix = apply_to_a_warm_reader(script, last_seen, Apply::Suffix);
        let charge = apply_to_a_warm_reader(script, last_seen, Apply::ChargeOnly);
        assert_eq!(by_set.charged_ns, charge.charged_ns, "{what}: charged for something else");
        assert!(by_set.charged_ns <= by_suffix.charged_ns, "{what}: the merge cost time");
        assert_eq!(
            Observed { charged_ns: 0, ..by_set },
            Observed { charged_ns: 0, ..by_suffix },
            "{what}: the set and its suffix disagree"
        );
    }

    #[test]
    fn the_merged_set_leaves_the_reader_as_its_suffix_would() {
        let upd = |page, offset, fill: u8, len| FineUpdate { page, offset, bytes: vec![fill; len] };
        // Every corner by hand. Pages (see `apply_to_a_warm_reader`): 0, 1,
        // 9, 16, 17, 24, 25 clean; 8 invalid; 2, 3, 10, 11, 18, 19
        // prefetched; 26, 27 being prefetched; the rest absent.
        let mut log = Script::default();
        log.publish(1, vec![], vec![upd(0, 0, 1, 8), upd(16, 8, 1, 8)]); // page 0: updated…
        log.publish(0, vec![1, 17, 25], vec![upd(24, 0, 9, 8)]); // the reader's own
        log.publish(2, vec![0, 2, 26, 30], vec![upd(1, 0, 2, 8)]); // …invalidated…
        log.publish(1, vec![], vec![upd(0, 0, 3, 8), upd(16, 8, 3, 8)]); // …and updated again
        log.publish(3, vec![17], vec![upd(17, 0, 4, 8), upd(9, 4, 4, 8)]); // rides its own page
        log.publish(2, vec![], vec![upd(9, 0, 5, 8), upd(9, 4, 5, 4), upd(8, 0, 5, 8)]); // overlaps
        log.publish(1, vec![], vec![upd(24, 16, 6, 8), upd(18, 0, 6, 8), upd(27, 0, 6, 8)]);
        log.publish(0, vec![], vec![upd(24, 16, 7, 8)]); // w: X = 6, then reader: X = 7
        log.publish(3, vec![0, 1], vec![upd(25, 0, 8, 8)]);
        merge_matches_the_suffix(&log, 0, "by hand");
        merge_matches_the_suffix(&log, 3, "by hand, from the middle");

        // And at random: 4 writers (0 is the reader), a dozen notices of up
        // to 4 pages and 3 updates on three overlapping ranges.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = Script::default();
            for _ in 0..rng.gen_range(1..14) {
                let mut pages: Vec<u64> =
                    (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0..PAGES)).collect();
                pages.sort_unstable();
                pages.dedup();
                let updates = (0..rng.gen_range(0..4))
                    .map(|_| {
                        let (offset, len) = [(0, 8), (4, 8), (4, 4)][rng.gen_range(0..3usize)];
                        upd(rng.gen_range(0..PAGES), offset, rng.gen(), len)
                    })
                    .collect();
                log.publish(rng.gen_range(0..4), pages, updates);
            }
            let last_seen = rng.gen_range(0..=log.log.watermark() / 2);
            merge_matches_the_suffix(&log, last_seen, &format!("seed {seed}"));
        }
    }
}
