//! The "pthreads" baseline backend.
//!
//! Simulated threads over plain shared memory, standing in for the paper's
//! Pthreads runs on a cache-coherent node. Two fidelity decisions:
//!
//! * **Compute costs are identical to Samhita's** (same `flop_ns`,
//!   `mem_op_ns`): on a hardware-coherent node a cached load costs the same
//!   whether the program was written for Pthreads or Samhita, and this is
//!   what makes the paper's "normalized compute time" (Samhita ÷ 1-thread
//!   Pthreads) meaningful.
//! * **Synchronization costs are hardware-scale constants** (a hundred ns
//!   mutex handoff, a few hundred ns barrier) with the same virtual-clock
//!   combining the DSM uses — a lock grant never precedes the previous
//!   release, a barrier releases at the maximum arrival clock.
//!
//! Shared arrays are `AtomicU64`-backed bit-cast doubles, so the baseline is
//! data-race-free Rust even when kernels write disjoint elements without
//! locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use samhita_core::{RunReport, ThreadStats};
use samhita_sched::{Scheduler, TaskRef};
use samhita_scl::{FabricStats, SimTime};
use samhita_trace::LatencyHistogram;

use crate::{ArrF64, KernelCtx, KernelRt, SyncId};

/// Cost constants for the native baseline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NativeCosts {
    /// Per-flop cost; keep equal to [`samhita_core::CostParams::flop_ns`].
    pub flop_ns: f64,
    /// Per-8-byte-access cost; keep equal to
    /// [`samhita_core::CostParams::mem_op_ns`].
    pub mem_op_ns: f64,
    /// Pthread mutex handoff cost.
    pub mutex_ns: u64,
    /// Pthread barrier cost (futex wake fan-out).
    pub barrier_ns: u64,
}

impl Default for NativeCosts {
    fn default() -> Self {
        let c = samhita_core::CostParams::default();
        NativeCosts { flop_ns: c.flop_ns, mem_op_ns: c.mem_op_ns, mutex_ns: 120, barrier_ns: 400 }
    }
}

impl NativeCosts {
    /// Costs matching a specific Samhita configuration's compute constants.
    pub fn matching(c: &samhita_core::CostParams) -> Self {
        NativeCosts { flop_ns: c.flop_ns, mem_op_ns: c.mem_op_ns, ..NativeCosts::default() }
    }
}

#[derive(Default)]
struct NativeLock {
    held: bool,
    free_at: SimTime,
    /// Scheduler tasks blocked on this lock. The releaser wakes all of
    /// them at `free_at`; the scheduler's seeded virtual-time tie-break then
    /// decides the (reproducible) grant order.
    waiters: Vec<TaskRef>,
}

#[derive(Default)]
struct NativeBarrier {
    parties: u32,
    arrived: u32,
    epoch: u64,
    max_clock: SimTime,
    release_at: SimTime,
    /// Scheduler tasks blocked on this episode; the last arrival wakes all
    /// of them at the release time.
    waiters: Vec<TaskRef>,
}

/// Pthread mutexes and barriers in virtual time: the clock combining of the
/// module doc and nothing else — no write notices, no interval log.
#[derive(Default)]
struct NativeSync {
    locks: Vec<NativeLock>,
    barriers: Vec<NativeBarrier>,
}

/// The scheduler task of the calling code: the only way to wait here.
fn current_task() -> TaskRef {
    Scheduler::current().expect("a native thread can only block inside a scheduler task")
}

/// The native backend.
pub struct NativeRt {
    costs: NativeCosts,
    sched_seed: u64,
    arrays: RwLock<Vec<Arc<Vec<AtomicU64>>>>,
    sync: Mutex<NativeSync>,
}

impl Default for NativeRt {
    fn default() -> Self {
        NativeRt::new(NativeCosts::default())
    }
}

impl NativeRt {
    /// A backend with the given cost constants and scheduler seed 0.
    pub fn new(costs: NativeCosts) -> Self {
        NativeRt::with_runtime(costs, 0)
    }

    /// A backend with an explicit scheduler tie-break seed. Like the DSM,
    /// it runs under the deterministic virtual-time scheduler.
    pub fn with_runtime(costs: NativeCosts, sched_seed: u64) -> Self {
        NativeRt {
            costs,
            sched_seed,
            arrays: RwLock::new(Vec::new()),
            sync: Mutex::new(NativeSync::default()),
        }
    }

    fn register(&self, n: usize) -> ArrF64 {
        let mut arrays = self.arrays.write();
        arrays.push(Arc::new((0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect()));
        (arrays.len() - 1) as ArrF64
    }

    fn array(&self, a: ArrF64) -> Arc<Vec<AtomicU64>> {
        Arc::clone(&self.arrays.read()[a as usize])
    }

    /// Acquire `lock` at virtual time `now`, parking the calling task until
    /// it is free. Returns the virtual grant time.
    fn acquire(&self, lock: SyncId, now: SimTime) -> SimTime {
        let mut g = self.sync.lock();
        // The releaser wakes every waiter at its free_at, and the seeded
        // virtual-time tie-break decides who re-acquires first. Losers (and
        // barging fresh arrivals that run earlier in virtual time) simply
        // re-register and park again.
        while g.locks[lock as usize].held {
            let task = current_task();
            g.locks[lock as usize].waiters.push(task.clone());
            drop(g);
            task.park();
            g = self.sync.lock();
        }
        let l = &mut g.locks[lock as usize];
        l.held = true;
        now.max(l.free_at) + SimTime::from_ns(self.costs.mutex_ns)
    }

    /// Release `lock` at virtual time `now`.
    fn release(&self, lock: SyncId, now: SimTime) {
        let mut g = self.sync.lock();
        let l = &mut g.locks[lock as usize];
        assert!(l.held, "release of an unheld lock");
        l.held = false;
        let free_at = now + SimTime::from_ns(self.costs.mutex_ns);
        l.free_at = free_at;
        let waiters = std::mem::take(&mut l.waiters);
        drop(g);
        for w in waiters {
            w.wake_at(free_at.as_ns());
        }
    }

    /// Enter `barrier` at virtual time `now`, parking the calling task until
    /// all parties arrive. Returns the virtual release time.
    fn arrive(&self, barrier: SyncId, now: SimTime) -> SimTime {
        let idx = barrier as usize;
        let mut g = self.sync.lock();
        let b = &mut g.barriers[idx];
        let my_epoch = b.epoch;
        b.max_clock = b.max_clock.max(now);
        b.arrived += 1;
        if b.arrived == b.parties {
            // Last arrival: release everyone and continue without yielding
            // (its own return time is the release time anyway).
            let release_at = b.max_clock + SimTime::from_ns(self.costs.barrier_ns);
            b.release_at = release_at;
            b.epoch += 1;
            b.arrived = 0;
            b.max_clock = SimTime::ZERO;
            let released = std::mem::take(&mut b.waiters);
            drop(g);
            for w in released {
                w.wake_at(release_at.as_ns());
            }
            return release_at;
        }
        // Wait for the epoch to advance; the re-check absorbs spurious
        // wake-ups.
        let task = current_task();
        while g.barriers[idx].epoch == my_epoch {
            g.barriers[idx].waiters.push(task.clone());
            drop(g);
            task.park();
            g = self.sync.lock();
        }
        g.barriers[idx].release_at
    }
}

impl KernelRt for NativeRt {
    fn name(&self) -> &'static str {
        "pthreads"
    }

    fn alloc_f64_global(&self, n: usize) -> ArrF64 {
        self.register(n)
    }

    fn init_f64(&self, a: ArrF64, values: &[f64]) {
        let arr = self.array(a);
        for (slot, &v) in arr.iter().zip(values) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    fn fetch_f64(&self, a: ArrF64, n: usize) -> Vec<f64> {
        let arr = self.array(a);
        arr.iter().take(n).map(|s| f64::from_bits(s.load(Ordering::Relaxed))).collect()
    }

    fn mutex(&self) -> SyncId {
        let mut g = self.sync.lock();
        g.locks.push(NativeLock::default());
        (g.locks.len() - 1) as SyncId
    }

    fn barrier(&self, parties: u32) -> SyncId {
        assert!(parties >= 1, "barrier over zero parties");
        let mut g = self.sync.lock();
        g.barriers.push(NativeBarrier { parties, ..NativeBarrier::default() });
        (g.barriers.len() - 1) as SyncId
    }

    fn run(&self, nthreads: u32, body: &(dyn Fn(&mut dyn KernelCtx) + Sync)) -> RunReport {
        assert!(nthreads >= 1);
        // A fresh per-run scheduler. Every body is a coroutine task on this
        // thread, registered in tid order; the lock and barrier
        // blocking points find their task through `Scheduler::current()`.
        let sched = Scheduler::new(self.sched_seed);
        let host = sched.register_running();
        let stats = host.run_coroutines((0..nthreads).map(|tid| {
            let run = move || {
                let mut ctx = NativeCtx {
                    rt: self,
                    tid,
                    nthreads,
                    clock: SimTime::ZERO,
                    frac_ns: 0.0,
                    sync: SimTime::ZERO,
                    epoch_clock: SimTime::ZERO,
                    epoch_sync: SimTime::ZERO,
                    lock_wait: LatencyHistogram::new(),
                    barrier_wait: LatencyHistogram::new(),
                };
                body(&mut ctx);
                let total = ctx.clock.saturating_sub(ctx.epoch_clock);
                let sync = ctx.sync.saturating_sub(ctx.epoch_sync);
                ThreadStats {
                    tid,
                    total,
                    sync,
                    compute: total.saturating_sub(sync),
                    lock_wait: ctx.lock_wait,
                    barrier_wait: ctx.barrier_wait,
                    epoch_ns: ctx.epoch_clock.as_ns(),
                    end_ns: ctx.clock.as_ns(),
                    ..ThreadStats::default()
                }
            };
            (sched.register_ready(0), run)
        }));
        RunReport::new(stats, FabricStats::default())
    }
}

struct NativeCtx<'rt> {
    rt: &'rt NativeRt,
    tid: u32,
    nthreads: u32,
    clock: SimTime,
    frac_ns: f64,
    sync: SimTime,
    epoch_clock: SimTime,
    epoch_sync: SimTime,
    lock_wait: LatencyHistogram,
    barrier_wait: LatencyHistogram,
}

impl NativeCtx<'_> {
    fn charge(&mut self, ns: f64) {
        self.frac_ns += ns;
        if self.frac_ns >= 1.0 {
            let whole = self.frac_ns.floor();
            self.clock += SimTime::from_ns(whole as u64);
            self.frac_ns -= whole;
        }
    }

    fn charge_mem_ops(&mut self, ops: usize) {
        self.charge(ops as f64 * self.rt.costs.mem_op_ns);
    }
}

impl KernelCtx for NativeCtx<'_> {
    fn tid(&self) -> u32 {
        self.tid
    }

    fn nthreads(&self) -> u32 {
        self.nthreads
    }

    fn alloc_local_f64(&mut self, n: usize) -> ArrF64 {
        // Plain memory: "local" vs "global" only matters for layout under
        // the DSM; here both are ordinary allocations.
        self.rt.register(n)
    }

    fn read(&mut self, a: ArrF64, i: usize) -> f64 {
        self.charge_mem_ops(1);
        f64::from_bits(self.rt.array(a)[i].load(Ordering::Relaxed))
    }

    fn write(&mut self, a: ArrF64, i: usize, v: f64) {
        self.charge_mem_ops(1);
        self.rt.array(a)[i].store(v.to_bits(), Ordering::Relaxed);
    }

    fn read_block(&mut self, a: ArrF64, start: usize, out: &mut [f64]) {
        self.charge_mem_ops(out.len());
        let arr = self.rt.array(a);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = f64::from_bits(arr[start + k].load(Ordering::Relaxed));
        }
    }

    fn write_block(&mut self, a: ArrF64, start: usize, src: &[f64]) {
        self.charge_mem_ops(src.len());
        let arr = self.rt.array(a);
        for (k, &v) in src.iter().enumerate() {
            arr[start + k].store(v.to_bits(), Ordering::Relaxed);
        }
    }

    fn update_block(
        &mut self,
        a: ArrF64,
        start: usize,
        n: usize,
        f: &mut dyn FnMut(usize, f64) -> f64,
    ) {
        self.charge_mem_ops(2 * n);
        let arr = self.rt.array(a);
        for k in 0..n {
            let v = f64::from_bits(arr[start + k].load(Ordering::Relaxed));
            arr[start + k].store(f(k, v).to_bits(), Ordering::Relaxed);
        }
    }

    fn compute(&mut self, flops: u64) {
        self.charge(flops as f64 * self.rt.costs.flop_ns);
    }

    fn start_timing(&mut self) {
        self.epoch_clock = self.clock;
        self.epoch_sync = self.sync;
    }

    fn lock(&mut self, m: SyncId) {
        let t0 = self.clock;
        let at = self.rt.acquire(m, self.clock);
        self.clock = self.clock.max(at);
        self.lock_wait.record((self.clock - t0).as_ns());
        self.sync += self.clock - t0;
    }

    fn unlock(&mut self, m: SyncId) {
        let t0 = self.clock;
        self.rt.release(m, self.clock);
        self.charge(self.rt.costs.mutex_ns as f64);
        self.sync += self.clock - t0;
    }

    fn barrier_wait(&mut self, b: SyncId) {
        let t0 = self.clock;
        let at = self.rt.arrive(b, self.clock);
        self.clock = self.clock.max(at);
        self.barrier_wait.record((self.clock - t0).as_ns());
        self.sync += self.clock - t0;
    }

    fn now_ns(&self) -> u64 {
        self.clock.as_ns()
    }

    fn sync_ns(&self) -> u64 {
        self.sync.as_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_is_deterministic_and_flat() {
        let rt = NativeRt::default();
        let b = rt.barrier(4);
        let report = rt.run(4, &|ctx| {
            ctx.compute(1_000_000);
            ctx.barrier_wait(b);
        });
        let compute: Vec<u64> = report.threads.iter().map(|t| t.compute.as_ns()).collect();
        // flop_ns = 0.35 -> exactly 350_000 ns each.
        assert!(compute.iter().all(|&c| c == 350_000), "{compute:?}");
        // Barrier time is small and bounded.
        assert!(report.threads.iter().all(|t| t.sync.as_ns() < 10_000));
    }

    #[test]
    fn mutex_serializes_critical_sections_in_virtual_time() {
        let rt = NativeRt::default();
        let m = rt.mutex();
        let total = rt.alloc_f64_global(1);
        let report = rt.run(8, &|ctx| {
            ctx.lock(m);
            let v = ctx.read(total, 0);
            ctx.write(total, 0, v + 1.0);
            ctx.unlock(m);
        });
        assert_eq!(rt.fetch_f64(total, 1)[0], 8.0);
        // Virtual serialization: someone's grant waited behind 7 releases.
        let max_total = report.makespan.as_ns();
        assert!(max_total >= 7 * rt.costs.mutex_ns, "makespan {max_total}");
    }

    #[test]
    fn a_lock_held_across_a_barrier_parks_and_wakes_its_waiters() {
        // Thread 0 takes the lock before the barrier and gives it up after:
        // everyone else finds it held, parks, and is woken by that release.
        let rt = NativeRt::default();
        let (m, b) = (rt.mutex(), rt.barrier(4));
        let count = rt.alloc_f64_global(1);
        let report = rt.run(4, &|ctx| {
            if ctx.tid() == 0 {
                ctx.lock(m);
            }
            ctx.barrier_wait(b);
            if ctx.tid() != 0 {
                ctx.lock(m);
            }
            let v = ctx.read(count, 0);
            ctx.write(count, 0, v + 1.0);
            ctx.unlock(m);
        });
        assert_eq!(rt.fetch_f64(count, 1)[0], 4.0);
        // Grants chain behind one another's releases in virtual time.
        let mut ends: Vec<u64> = report.threads.iter().map(|t| t.end_ns).collect();
        ends.sort_unstable();
        assert!(ends.windows(2).all(|w| w[1] >= w[0] + rt.costs.mutex_ns), "{ends:?}");
    }

    #[test]
    #[should_panic(expected = "unheld lock")]
    fn release_unheld_panics() {
        let rt = NativeRt::default();
        let m = rt.mutex();
        rt.run(1, &|ctx| ctx.unlock(m));
    }

    #[test]
    fn blocks_and_elementwise_agree() {
        let rt = NativeRt::default();
        let a = rt.alloc_f64_global(16);
        rt.run(1, &|ctx| {
            ctx.update_block(a, 0, 16, &mut |i, _| i as f64);
            let mut buf = vec![0.0; 16];
            ctx.read_block(a, 0, &mut buf);
            for (i, v) in buf.iter().enumerate() {
                assert_eq!(*v, i as f64);
                assert_eq!(ctx.read(a, i), i as f64);
            }
            ctx.write_block(a, 0, &[9.0; 16]);
            assert_eq!(ctx.read(a, 15), 9.0);
        });
    }

    #[test]
    fn init_and_fetch_roundtrip() {
        let rt = NativeRt::default();
        let a = rt.alloc_f64_global(4);
        rt.init_f64(a, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rt.fetch_f64(a, 4), vec![1.0, 2.0, 3.0, 4.0]);
    }
}
