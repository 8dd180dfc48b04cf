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
//! stale cached pages.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use samhita_mem::{HomeMap, MemRequest, MemResponse, PageId};
use samhita_regc::{
    FineUpdate, PageState, RegionKind, RegionState, UpdateBatch, UpdatePart, WriteNotice, WriteSet,
};
use samhita_scl::{Endpoint, EndpointId, MsgClass, RetryPolicy, SimTime};
use samhita_trace::{EventKind, FetchKind, TraceBuf};

use crate::cache::SoftCache;
use crate::config::{ConsistencyVariant, SamhitaConfig};
use crate::freelist::FreeListAlloc;
use crate::layout::{AddressLayout, Region};
use crate::localsync::LocalSync;
use crate::msg::{MgrRequest, MgrResponse, Msg};
use crate::proto::Channel;
use crate::stats::ThreadStats;

/// Running totals of the five measured wait classes, in virtual ns. Kept
/// separately from [`ThreadStats`] so [`ThreadCtx::start_timing`] can
/// snapshot a baseline and the reported counters stay epoch-relative —
/// otherwise pre-warm-up waits would break the per-thread conservation
/// identity `compute + waits + idle == makespan`.
#[derive(Copy, Clone, Debug, Default)]
struct WaitAcc {
    fetch: u64,
    lock: u64,
    barrier: u64,
    mgr: u64,
    flush: u64,
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
    local_sync: Option<Arc<LocalSync>>,

    sync_time: SimTime,
    /// Timing epoch (see [`ThreadCtx::start_timing`]).
    epoch_clock: SimTime,
    epoch_sync: SimTime,
    /// Wait-class totals since thread start / since the epoch snapshot.
    waits: WaitAcc,
    epoch_waits: WaitAcc,

    cache: SoftCache,
    region: RegionState,
    writeset: WriteSet,
    /// Pages flushed (sync flushes and evictions) not yet published.
    pending_pages: BTreeSet<u64>,
    last_seen: u64,

    arena: FreeListAlloc,

    stats: ThreadStats,
}

impl ThreadCtx {
    /// Build and register a thread context. Called by the system; not part
    /// of the public API.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        tid: u32,
        nthreads: u32,
        cfg: Arc<SamhitaConfig>,
        ep: Endpoint<Msg>,
        mgr_ep: EndpointId,
        standby_ep: Option<EndpointId>,
        mem_eps: Vec<EndpointId>,
        local_sync: Option<Arc<LocalSync>>,
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
        let chan = Channel::new(
            tid,
            ep,
            mgr_ep,
            standby_ep,
            probe_ns,
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
            local_sync,
            sync_time: SimTime::ZERO,
            epoch_clock: SimTime::ZERO,
            epoch_sync: SimTime::ZERO,
            waits: WaitAcc::default(),
            epoch_waits: WaitAcc::default(),
            cache,
            region: RegionState::new(),
            writeset: WriteSet::new(),
            pending_pages: BTreeSet::new(),
            last_seen: 0,
            arena: FreeListAlloc::new(arena_lo, arena_hi),
            stats: ThreadStats { tid, ..ThreadStats::default() },
        };
        match ctx.chan.rpc_mgr(MgrRequest::Register { observer: false }, MsgClass::Control) {
            MgrResponse::Registered { watermark } => ctx.last_seen = watermark,
            MgrResponse::Err(e) => panic!("registration failed: {e}"),
            other => panic!("registration failed: {other:?}"),
        }
        // Registration is setup, not application time.
        ctx.chan.reset_clock();
        ctx
    }

    /// Attach the thread's event buffer. Called by the system after
    /// construction (registration is setup, not a traced protocol event), so
    /// every stamp in the buffer is on the post-reset application timeline.
    pub(crate) fn attach_trace(&mut self, buf: TraceBuf) {
        self.chan.attach_trace(buf);
    }

    /// Record one protocol event at the current virtual time, if tracing.
    /// Takes a closure so untraced runs never construct the event (see
    /// [`Channel::trace`]).
    #[inline]
    fn trace(&mut self, kind: impl FnOnce() -> EventKind) {
        self.chan.trace(kind);
    }

    /// Close a fetch stall that started at `t0`: feed the latency histogram
    /// (always on) and the event trace (when enabled).
    fn record_fetch(&mut self, page: u64, pages: u32, kind: FetchKind, t0: SimTime) {
        let wait_ns = (self.chan.now() - t0).as_ns();
        self.stats.fetch_latency.record(wait_ns);
        self.waits.fetch += wait_ns;
        self.trace(|| EventKind::Fetch { page, pages, kind, wait_ns });
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
        self.epoch_waits = self.waits;
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
            MgrResponse::Err(e) => panic!("allocation failed: {e}"),
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
                match self.rpc_mgr_traced(MgrRequest::Free { addr }, MsgClass::Control) {
                    MgrResponse::Ok => {}
                    MgrResponse::Err(e) => panic!("free failed: {e}"),
                    other => panic!("unexpected free response: {other:?}"),
                }
            }
            Region::Reserved => panic!("free of reserved address {addr:#x}"),
        }
    }

    // ------------------------------------------------------------------
    // Loads and stores
    // ------------------------------------------------------------------

    /// Read `out.len()` bytes from global address `addr`.
    pub fn read_bytes(&mut self, addr: u64, out: &mut [u8]) {
        let ps = self.cfg.page_size as u64;
        let mut cursor = 0usize;
        while cursor < out.len() {
            let at = addr + cursor as u64;
            let page = at / ps;
            let off = (at % ps) as usize;
            let take = ((ps as usize) - off).min(out.len() - cursor);
            self.ensure_resident(page);
            self.cache.read_page(page, off, &mut out[cursor..cursor + take]);
            cursor += take;
        }
        self.charge_mem_ops(out.len());
    }

    /// Write `data` to global address `addr`, applying the RegC protocol.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let ps = self.cfg.page_size as u64;
        let region = self.effective_region();
        let mut cursor = 0usize;
        while cursor < data.len() {
            let at = addr + cursor as u64;
            let page = at / ps;
            let off = (at % ps) as usize;
            let take = ((ps as usize) - off).min(data.len() - cursor);
            self.ensure_resident(page);
            let chunk = &data[cursor..cursor + take];
            let outcome = self.cache.write_page(page, off, chunk, region);
            if outcome.twin_created {
                self.stats.twins_created += 1;
                self.stats.hot.record_twin(page);
                self.trace(|| EventKind::TwinCreate { page });
            }
            if outcome.log_fine_grain {
                self.writeset.record(at, chunk);
            }
            cursor += take;
        }
        self.charge_mem_ops(data.len());
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

    /// Read `out.len()` consecutive `f64`s starting at `addr`.
    pub fn read_f64_slice(&mut self, addr: u64, out: &mut [f64]) {
        let mut bytes = vec![0u8; out.len() * 8];
        self.read_bytes(addr, &mut bytes);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
    }

    /// Write `src` as consecutive `f64`s starting at `addr`.
    pub fn write_f64_slice(&mut self, addr: u64, src: &[f64]) {
        let mut bytes = Vec::with_capacity(src.len() * 8);
        for v in src {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(addr, &bytes);
    }

    /// Read-modify-write `n` consecutive `f64`s starting at `addr`:
    /// `x[i] = f(i, x[i])`. One protocol application per touched page, two
    /// memory operations charged per element — the bulk path the kernels
    /// use for their inner loops.
    pub fn update_f64s(&mut self, addr: u64, n: usize, mut f: impl FnMut(usize, f64) -> f64) {
        let ps = self.cfg.page_size as u64;
        let region = self.effective_region();
        let mut idx = 0usize;
        let mut cursor = 0u64;
        let total = n as u64 * 8;
        let mut scratch = Vec::new();
        while cursor < total {
            let at = addr + cursor;
            let page = at / ps;
            let off = (at % ps) as usize;
            let take = (ps - at % ps).min(total - cursor) as usize;
            debug_assert_eq!(take % 8, 0, "f64 elements straddling pages need 8-aligned addr");
            self.ensure_resident(page);
            scratch.resize(take, 0);
            self.cache.read_page(page, off, &mut scratch);
            for chunk in scratch.chunks_exact_mut(8) {
                let v = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                let nv = f(idx, v);
                chunk.copy_from_slice(&nv.to_le_bytes());
                idx += 1;
            }
            let outcome = self.cache.write_page(page, off, &scratch, region);
            if outcome.twin_created {
                self.stats.twins_created += 1;
                self.stats.hot.record_twin(page);
                self.trace(|| EventKind::TwinCreate { page });
            }
            if outcome.log_fine_grain {
                self.writeset.record(at, &scratch);
            }
            cursor += take as u64;
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
        let t0 = self.chan.now();
        let (pages, updates) = self.flush_all();
        let req_at = self.chan.now();
        self.trace(|| EventKind::LockRequest { lock });
        let (notices, wm) = if let Some(ls) = self.local_sync.clone() {
            let (at, notices, wm) =
                ls.acquire(lock, self.tid, self.chan.now(), pages, updates, self.last_seen);
            self.chan.advance_to(at);
            (notices, wm)
        } else {
            match self.chan.rpc_mgr(
                MgrRequest::Acquire { lock, pages, updates, last_seen: self.last_seen },
                MsgClass::Sync,
            ) {
                MgrResponse::Granted { notices, watermark } => (notices, watermark),
                MgrResponse::Err(e) => panic!("lock acquire failed: {e}"),
                other => panic!("unexpected acquire response: {other:?}"),
            }
        };
        let wait_ns = (self.chan.now() - req_at).as_ns();
        self.stats.lock_wait.record(wait_ns);
        self.waits.lock += wait_ns;
        self.trace(|| EventKind::LockAcquire { lock, wait_ns });
        self.apply_notices(&notices);
        self.last_seen = wm;
        self.region.enter();
        self.stats.locks_acquired += 1;
        self.sync_time += self.chan.now() - t0;
    }

    /// Release a lock, flushing consistency-region updates at fine grain.
    pub fn unlock(&mut self, lock: u32) {
        let t0 = self.chan.now();
        self.region.exit();
        let (pages, updates) = self.flush_all();
        // Stamped after the flush and before the wire send: on a correct run
        // this always precedes the next holder's grant stamp, which is what
        // lets the trace checker treat [acquire, release] as the hold.
        self.trace(|| EventKind::LockRelease { lock });
        if let Some(ls) = self.local_sync.clone() {
            ls.release(lock, self.tid, self.chan.now(), pages, updates);
            self.chan.charge(self.cfg.costs.local_sync_ns as f64);
        } else {
            let req = MgrRequest::Release { lock, pages, updates, last_seen: self.last_seen };
            if self.chan.acked_releases() {
                // With a hot standby, a fire-and-forget release could vanish
                // with the crashed primary and leave the lock held until its
                // lease expires. Upgrade to a full RPC: the channel's
                // retry/failover machinery lands it at whichever manager is
                // alive, and the stall is attributed like any manager wait.
                match self.rpc_mgr_traced(req, MsgClass::Sync) {
                    MgrResponse::Ok => {}
                    MgrResponse::Err(e) => panic!("release failed: {e}"),
                    other => panic!("unexpected release response: {other:?}"),
                }
            } else {
                // Fire-and-forget: the manager orders the release before any
                // subsequent grant; the releaser only pays the send cost (plus
                // backoff for any retransmission after a send-time drop).
                self.chan.send_mgr_oneway(req, MsgClass::Sync);
            }
        }
        self.sync_time += self.chan.now() - t0;
    }

    /// Wait at a barrier.
    pub fn barrier(&mut self, barrier: u32) {
        let t0 = self.chan.now();
        let (pages, updates) = self.flush_all();
        let arrive_at = self.chan.now();
        self.trace(|| EventKind::BarrierArrive { barrier });
        let (notices, wm) = if let Some(ls) = self.local_sync.clone() {
            let (at, notices, wm) =
                ls.barrier_wait(barrier, self.tid, self.chan.now(), pages, updates, self.last_seen);
            self.chan.advance_to(at);
            (notices, wm)
        } else {
            match self.chan.rpc_mgr(
                MgrRequest::BarrierWait { barrier, pages, updates, last_seen: self.last_seen },
                MsgClass::Sync,
            ) {
                MgrResponse::BarrierReleased { notices, watermark } => (notices, watermark),
                MgrResponse::Err(e) => panic!("barrier wait failed: {e}"),
                other => panic!("unexpected barrier response: {other:?}"),
            }
        };
        let wait_ns = (self.chan.now() - arrive_at).as_ns();
        self.stats.barrier_wait.record(wait_ns);
        self.waits.barrier += wait_ns;
        self.trace(|| EventKind::BarrierRelease { barrier, wait_ns });
        self.apply_notices(&notices);
        self.last_seen = wm;
        self.stats.barriers += 1;
        self.sync_time += self.chan.now() - t0;
    }

    /// Atomically release `lock` and wait on condition variable `cond`;
    /// re-acquires the lock before returning. Must be called while holding
    /// `lock` (as with Pthreads, that is a caller obligation).
    pub fn cond_wait(&mut self, cond: u32, lock: u32) {
        let t0 = self.chan.now();
        let (pages, updates) = self.flush_all();
        // On the trace, a cond wait is a lock release (the atomic handoff to
        // the manager) followed by a re-acquire at wake-up.
        self.trace(|| EventKind::LockRelease { lock });
        let req_at = self.chan.now();
        match self.chan.rpc_mgr(
            MgrRequest::CondWait { cond, lock, pages, updates, last_seen: self.last_seen },
            MsgClass::Sync,
        ) {
            MgrResponse::Granted { notices, watermark } => {
                let wait_ns = (self.chan.now() - req_at).as_ns();
                // The conservation audit's consistency fix: a condition wait
                // is a lock wait on the trace and must be one in the report
                // too — it previously skipped the histogram and would have
                // been double-counted as compute by any remainder-based
                // breakdown.
                self.stats.lock_wait.record(wait_ns);
                self.waits.lock += wait_ns;
                self.trace(|| EventKind::LockAcquire { lock, wait_ns });
                self.apply_notices(&notices);
                self.last_seen = watermark;
            }
            MgrResponse::Err(e) => panic!("cond wait failed: {e}"),
            other => panic!("unexpected cond-wait response: {other:?}"),
        }
        self.sync_time += self.chan.now() - t0;
    }

    /// Wake one waiter of `cond`.
    pub fn cond_signal(&mut self, cond: u32) {
        let t0 = self.chan.now();
        match self.rpc_mgr_traced(MgrRequest::CondSignal { cond }, MsgClass::Sync) {
            MgrResponse::Ok => {}
            MgrResponse::Err(e) => panic!("cond signal failed: {e}"),
            other => panic!("unexpected signal response: {other:?}"),
        }
        self.sync_time += self.chan.now() - t0;
    }

    /// Wake all waiters of `cond`.
    pub fn cond_broadcast(&mut self, cond: u32) {
        let t0 = self.chan.now();
        match self.rpc_mgr_traced(MgrRequest::CondBroadcast { cond }, MsgClass::Sync) {
            MgrResponse::Ok => {}
            MgrResponse::Err(e) => panic!("cond broadcast failed: {e}"),
            other => panic!("unexpected broadcast response: {other:?}"),
        }
        self.sync_time += self.chan.now() - t0;
    }

    /// Create a lock from a running thread (locks are more typically created
    /// by the host before `run`).
    pub fn create_lock(&mut self) -> u32 {
        match self.rpc_mgr_traced(MgrRequest::CreateLock, MsgClass::Control) {
            MgrResponse::SyncId(id) => id,
            MgrResponse::Err(e) => panic!("create-lock failed: {e}"),
            other => panic!("unexpected create-lock response: {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Internals: residency, flushing
    // ------------------------------------------------------------------

    /// Make `page` resident and valid, faulting (and prefetching) as needed.
    fn ensure_resident(&mut self, page: u64) {
        let line = self.cache.line_of(page);
        let line_pages = self.cache.line_pages() as u32;
        if self.cache.contains_line(line) {
            if self.cache.page_state(page) == Some(PageState::Invalid) {
                let t0 = self.chan.now();
                // Revalidation after invalidation notices: false-sharing
                // refetch traffic. When several pages of the line were
                // invalidated, one line fetch amortizes the round-trip.
                let fetched_pages = if self.cache.invalid_pages_in_line(line) > 1 {
                    let first = PageId(line * self.cache.line_pages() as u64);
                    let server = self.home_map.home_of_line(line);
                    let (resp, _) = self.chan.rpc_mem(
                        server,
                        MemRequest::FetchLine { first, pages: self.cache.line_pages() as u32 },
                        MsgClass::Data,
                    );
                    match resp {
                        MemResponse::Line { data, versions, .. } => {
                            self.chan.charge(
                                (data.len() as u64 / 1024 * self.cfg.costs.cache_fill_per_kib_ns)
                                    as f64,
                            );
                            self.cache.refresh_line(line, &data, &versions);
                        }
                        other => panic!("unexpected line fetch response: {other:?}"),
                    }
                    line_pages
                } else {
                    let server = self.home_map.home_of_page(PageId(page));
                    let (resp, _) = self.chan.rpc_mem(
                        server,
                        MemRequest::FetchPage { page: PageId(page) },
                        MsgClass::Data,
                    );
                    match resp {
                        MemResponse::Page { data, version, .. } => {
                            self.cache.install_page(page, &data, version);
                            self.chan.charge(
                                (data.len() as u64 / 1024 * self.cfg.costs.cache_fill_per_kib_ns)
                                    as f64,
                            );
                        }
                        other => panic!("unexpected page fetch response: {other:?}"),
                    }
                    1
                };
                self.stats.page_refetches += 1;
                self.stats.hot.record_refetch(page);
                self.record_fetch(page, fetched_pages, FetchKind::Refetch, t0);
            }
            self.cache.touch_line(line);
            return;
        }

        let first_page = line * self.cache.line_pages() as u64;
        let t0 = self.chan.now();
        if let Some((deliver, data, versions)) = self.chan.take_ready_prefetch(line) {
            // A completed prefetch: free unless we outran it.
            self.chan.advance_to(deliver);
            self.stats.prefetch_hits += 1;
            self.install_line(line, data, versions);
            self.record_fetch(first_page, line_pages, FetchKind::PrefetchHit, t0);
        } else if let Some(token) = self.chan.take_inflight_prefetch(line) {
            // Prefetch still in flight: wait for it.
            match self.chan.await_prefetch(token) {
                Some((data, versions)) => {
                    self.stats.prefetch_late += 1;
                    self.install_line(line, data, versions);
                    self.record_fetch(first_page, line_pages, FetchKind::PrefetchLate, t0);
                }
                None => {
                    // The prefetch response was lost on the wire (the wait
                    // for the lost copy was the timeout): demand-fetch.
                    self.stats.line_misses += 1;
                    self.stats.hot.record_miss(first_page, line_pages as u64);
                    self.demand_fetch_line(line);
                    self.record_fetch(first_page, line_pages, FetchKind::Demand, t0);
                }
            }
        } else {
            // Demand miss.
            self.stats.line_misses += 1;
            self.stats.hot.record_miss(first_page, line_pages as u64);
            self.demand_fetch_line(line);
            self.record_fetch(first_page, line_pages, FetchKind::Demand, t0);
        }
        self.cache.touch_line(line);

        // Anticipatory paging: ask for the adjacent line asynchronously.
        if self.cfg.prefetch {
            self.maybe_prefetch(line + 1);
        }
    }

    /// Fetch a whole line synchronously from its (effective) home.
    fn demand_fetch_line(&mut self, line: u64) {
        let first = PageId(line * self.cache.line_pages() as u64);
        let server = self.home_map.home_of_line(line);
        let (resp, _) = self.chan.rpc_mem(
            server,
            MemRequest::FetchLine { first, pages: self.cache.line_pages() as u32 },
            MsgClass::Data,
        );
        match resp {
            MemResponse::Line { data, versions, .. } => self.install_line(line, data, versions),
            other => panic!("unexpected line fetch response: {other:?}"),
        }
    }

    fn install_line(&mut self, line: u64, data: Vec<u8>, versions: Vec<u64>) {
        self.make_room();
        self.chan.charge((data.len() as u64 / 1024 * self.cfg.costs.cache_fill_per_kib_ns) as f64);
        self.cache.install_line(line, data, versions);
    }

    /// Evict until a new line fits, flushing dirty victims home. Each
    /// evicted line's diffs travel as one batch per destination server
    /// (acks awaited at the next flush fence).
    fn make_room(&mut self) {
        while self.cache.is_full() {
            let (line, victim) = self.cache.pop_victim().expect("full cache has lines");
            self.stats.evictions += 1;
            let diffs = self.cache.diffs_of_evicted(victim);
            self.trace(|| EventKind::Evict { line, dirty_pages: diffs.len() as u32 });
            let mut batches = BTreeMap::new();
            for (page, diff) in diffs {
                self.stage_diff(&mut batches, page, diff);
            }
            self.flush_batches(batches);
        }
    }

    fn maybe_prefetch(&mut self, line: u64) {
        if self.cache.contains_line(line) || self.chan.prefetch_pending_for(line) {
            return;
        }
        let first = PageId(line * self.cache.line_pages() as u64);
        let pages = self.cache.line_pages() as u32;
        let home = self.home_map.home_of_line(line);
        let req = MemRequest::FetchLine { first, pages };
        if self.chan.try_prefetch(home, line, req) {
            self.trace(|| EventKind::PrefetchIssue { page: first.0, pages });
        }
    }

    /// Stage one page diff into the per-server batch map, recording the
    /// per-page accounting (stats, hotspots, trace, pending notice) that is
    /// unchanged by batching.
    fn stage_diff(
        &mut self,
        batches: &mut BTreeMap<u32, UpdateBatch>,
        page: u64,
        diff: samhita_regc::Diff,
    ) {
        let bytes = diff.payload_bytes() as u64;
        self.stats.diff_bytes_flushed += bytes;
        self.stats.hot.record_diff(page, bytes);
        self.trace(|| EventKind::DiffFlush { page, bytes });
        self.pending_pages.insert(page);
        let home = self.home_map.home_of_page(PageId(page));
        batches.entry(home).or_default().push(UpdatePart::Diff { page, diff });
    }

    /// Ship the staged batches: one update message per destination server,
    /// each acknowledged as a single unit (acks awaited at the next flush
    /// fence). Iteration over the `BTreeMap` keeps the send order
    /// deterministic.
    fn flush_batches(&mut self, batches: BTreeMap<u32, UpdateBatch>) {
        for (server, batch) in batches {
            self.trace(|| EventKind::BatchFlush {
                server,
                parts: batch.len() as u32,
                bytes: batch.wire_bytes() as u64,
            });
            self.chan.send_update(server, MsgClass::Update, MemRequest::UpdateBatch { batch });
        }
    }

    /// Flush all local modifications home. Returns the interval to publish:
    /// page-granularity write notices (receivers invalidate) and fine-grain
    /// updates (receivers apply in place) — the consistency half of every
    /// synchronization operation.
    ///
    /// Everything bound for the same memory server travels as one
    /// [`UpdateBatch`] with one ack, so the message count per sync operation
    /// is O(servers), not O(dirty pages).
    fn flush_all(&mut self) -> (Vec<u64>, Vec<FineUpdate>) {
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
            self.stats.fine_bytes_flushed += bytes.len() as u64;
            self.stats.hot.record_fine(page, bytes.len() as u64);
            self.trace(|| EventKind::FineFlush { page, bytes: bytes.len() as u64 });
            let home = self.home_map.home_of_page(PageId(page));
            batches.entry(home).or_default().push(UpdatePart::Fine {
                page,
                offset,
                bytes: bytes.clone(),
            });
            updates.push(FineUpdate { page, offset, bytes });
        }
        self.flush_batches(batches);
        // Fence: all updates must be applied at their homes before the sync
        // operation publishes them.
        self.chan.drain_acks();
        // The whole flush — twin diffing, staging, batched sends, the ack
        // fence — is one measured interval. Lock/barrier waits start only
        // after this returns, so the wait classes stay pairwise disjoint.
        self.waits.flush += (self.chan.now() - flush_t0).as_ns();
        let pages: Vec<u64> = std::mem::take(&mut self.pending_pages).into_iter().collect();
        (pages, updates)
    }

    /// Invalidate cached pages named by other threads' write notices.
    ///
    /// Prefetched data covering a noticed page is as stale as a cached copy:
    /// completed prefetches are dropped and in-flight ones poisoned so their
    /// responses are discarded on arrival (a demand miss will refetch).
    fn apply_notices(&mut self, notices: &[Arc<WriteNotice>]) {
        for n in notices {
            if n.writer == self.tid {
                continue;
            }
            for &page in &n.pages {
                if self.cache.invalidate_page(page) {
                    self.stats.invalidations += 1;
                    self.stats.hot.record_invalidate(page);
                    self.trace(|| EventKind::Invalidate { page, writer: n.writer });
                }
                self.poison_prefetch(page);
            }
            for u in &n.updates {
                // A page named in the same notice's invalidation list is
                // already stale as a whole; skip its carried bytes.
                if n.pages.contains(&u.page) {
                    continue;
                }
                if self.cache.apply_update(u.page, u.offset as usize, &u.bytes) {
                    self.charge_mem_ops(u.bytes.len());
                }
                // Prefetched copies may predate the home's version of this
                // update (the fetch raced the flush): drop/poison them.
                self.poison_prefetch(u.page);
            }
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
        self.waits.mgr += wait_ns;
        self.trace(|| EventKind::MgrRpc { op, wait_ns });
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
        let end_waits = self.waits;
        let (pages, updates) = self.flush_all();
        // Settle in-flight prefetch traffic: receiving each response proves
        // its server already processed the request, so by the time all
        // threads have joined, every server-side request this run issued is
        // accounted for — the run-level busy-time counters read after join
        // would otherwise race straggler prefetches. Stats were snapshotted
        // above; draining is teardown and cannot affect the report.
        self.chan.settle_prefetches();
        if let Some(ls) = self.local_sync.clone() {
            ls.publish_final(self.tid, pages, updates);
            let req = MgrRequest::Exit { pages: Vec::new(), updates: Vec::new() };
            match self.chan.rpc_mgr(req, MsgClass::Control) {
                MgrResponse::Ok => {}
                MgrResponse::Err(e) => panic!("exit failed: {e}"),
                other => panic!("unexpected exit response: {other:?}"),
            }
        } else {
            match self.chan.rpc_mgr(MgrRequest::Exit { pages, updates }, MsgClass::Control) {
                MgrResponse::Ok => {}
                MgrResponse::Err(e) => panic!("exit failed: {e}"),
                other => panic!("unexpected exit response: {other:?}"),
            }
        }
        let mut stats = self.stats;
        stats.retries = self.chan.retries();
        stats.failovers = self.chan.failovers();
        stats.mgr_failovers = self.chan.mgr_failovers();
        stats.total = end_clock.saturating_sub(self.epoch_clock);
        stats.sync = end_sync.saturating_sub(self.epoch_sync);
        stats.compute = stats.total.saturating_sub(stats.sync);
        stats.epoch_ns = self.epoch_clock.as_ns();
        stats.end_ns = end_clock.as_ns();
        stats.fetch_wait_ns = end_waits.fetch - self.epoch_waits.fetch;
        stats.lock_wait_ns = end_waits.lock - self.epoch_waits.lock;
        stats.barrier_wait_ns = end_waits.barrier - self.epoch_waits.barrier;
        stats.mgr_wait_ns = end_waits.mgr - self.epoch_waits.mgr;
        stats.flush_wait_ns = end_waits.flush - self.epoch_waits.flush;
        (stats, self.chan.take_trace())
    }
}
