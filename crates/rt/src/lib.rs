#![warn(missing_docs)]

//! # Kernel runtime façade
//!
//! The paper's benchmarks "share the same code base, with memory allocation,
//! synchronization and thread creation expressed as macros" processed by m4,
//! so each kernel compiles against either Pthreads or Samhita. This crate is
//! the Rust equivalent: kernels are written once against the [`KernelRt`] /
//! [`KernelCtx`] traits and run on either backend:
//!
//! * [`NativeRt`] — the "pthreads" baseline: simulated threads over plain shared
//!   memory (atomics, so the baseline is data-race-free Rust), with the
//!   *same* per-operation compute cost model as Samhita and hardware-scale
//!   synchronization costs. Normalizing Samhita's compute time by this
//!   baseline reproduces the paper's Figures 3–5 axes.
//! * [`SamhitaRt`] — the DSM under study, adapting
//!   [`samhita_core::ThreadCtx`].
//!
//! Handles are plain integers ([`ArrF64`], [`SyncId`]) so kernels stay
//! object-safe: the backends are used as `&dyn KernelRt`.

pub mod native;
pub mod samhita;

pub use native::NativeRt;
pub use samhita::SamhitaRt;

pub use samhita_core::{RunReport, ThreadStats};

/// Handle to a shared array of `f64` (backend-interpreted).
pub type ArrF64 = u64;

/// Handle to a mutex or barrier.
pub type SyncId = u32;

/// Host-side services: allocation, initialization, synchronization-object
/// creation, and running a parallel region.
pub trait KernelRt: Sync {
    /// Backend name for reports ("pthreads" / "samhita").
    fn name(&self) -> &'static str;

    /// One shared (global) allocation of `n` doubles, zero-initialized —
    /// the paper's *global allocation* path.
    fn alloc_f64_global(&self, n: usize) -> ArrF64;

    /// Initialize an array from the host, outside timed runs.
    fn init_f64(&self, a: ArrF64, values: &[f64]);

    /// Read an array back from the host, outside timed runs.
    fn fetch_f64(&self, a: ArrF64, n: usize) -> Vec<f64>;

    /// Create a mutual-exclusion variable.
    fn mutex(&self) -> SyncId;

    /// Create a barrier over `parties` threads.
    fn barrier(&self, parties: u32) -> SyncId;

    /// Run `body` on `nthreads` compute threads and collect statistics.
    fn run(&self, nthreads: u32, body: &(dyn Fn(&mut dyn KernelCtx) + Sync)) -> RunReport;
}

/// Per-thread services inside a parallel region.
pub trait KernelCtx {
    /// This thread's id (0-based).
    fn tid(&self) -> u32;

    /// Number of threads in the region.
    fn nthreads(&self) -> u32;

    /// Thread-local allocation of `n` doubles — the paper's *local
    /// allocation* path (Samhita: the per-thread arena; native: ordinary
    /// memory).
    fn alloc_local_f64(&mut self, n: usize) -> ArrF64;

    /// Load element `i`.
    fn read(&mut self, a: ArrF64, i: usize) -> f64;

    /// Store element `i`.
    fn write(&mut self, a: ArrF64, i: usize, v: f64);

    /// Bulk load `out.len()` elements starting at `start`.
    fn read_block(&mut self, a: ArrF64, start: usize, out: &mut [f64]);

    /// Bulk store `src` starting at `start`.
    fn write_block(&mut self, a: ArrF64, start: usize, src: &[f64]);

    /// Read-modify-write `n` elements starting at `start`, a run at a time:
    /// `f(i0, xs)` updates in place the elements at `start + i0 ..`, every
    /// index once and in ascending order, at most
    /// [`UPDATE_RUN`](samhita_core::UPDATE_RUN) at a time. The kernels'
    /// inner loops run here, one call per run instead of per element.
    fn update_runs(
        &mut self,
        a: ArrF64,
        start: usize,
        n: usize,
        f: &mut dyn FnMut(usize, &mut [f64]),
    );

    /// Read-modify-write `n` elements starting at `start`:
    /// `x[i] = f(i, x[i])` with `i` relative to `start`, an element at a
    /// time over [`KernelCtx::update_runs`].
    fn update_block(
        &mut self,
        a: ArrF64,
        start: usize,
        n: usize,
        f: &mut dyn FnMut(usize, f64) -> f64,
    ) {
        self.update_runs(a, start, n, &mut |i0, xs| {
            for (k, x) in xs.iter_mut().enumerate() {
                *x = f(i0 + k, *x);
            }
        });
    }

    /// Charge `flops` floating-point operations of pure compute.
    fn compute(&mut self, flops: u64);

    /// Restart the measurement epoch: reported statistics cover only work
    /// after the last call. Kernels call this after initialization, where a
    /// wall-clock benchmark would start its timer.
    fn start_timing(&mut self);

    /// Acquire a mutex (entering a consistency region under Samhita).
    fn lock(&mut self, m: SyncId);

    /// Release a mutex.
    fn unlock(&mut self, m: SyncId);

    /// Wait at a barrier.
    fn barrier_wait(&mut self, b: SyncId);

    /// The thread's virtual clock, ns.
    fn now_ns(&self) -> u64;

    /// Virtual time spent in synchronization so far, ns.
    fn sync_ns(&self) -> u64;
}

#[cfg(test)]
mod facade_tests {
    use super::*;
    use samhita_core::SamhitaConfig;

    /// The same tiny program must produce identical results on both
    /// backends — the façade's entire reason to exist.
    fn sum_program(rt: &dyn KernelRt, threads: u32) -> f64 {
        let n = 64usize;
        let arr = rt.alloc_f64_global(n * threads as usize);
        let total = rt.alloc_f64_global(1);
        let m = rt.mutex();
        let b = rt.barrier(threads);
        rt.run(threads, &|ctx| {
            let base = ctx.tid() as usize * n;
            ctx.update_block(arr, base, n, &mut |i, _| (base + i) as f64);
            ctx.compute(n as u64);
            ctx.barrier_wait(b);
            let mut local = 0.0;
            let mut buf = vec![0.0; n];
            ctx.read_block(arr, base, &mut buf);
            for v in buf {
                local += v;
            }
            ctx.lock(m);
            let t = ctx.read(total, 0);
            ctx.write(total, 0, t + local);
            ctx.unlock(m);
            ctx.barrier_wait(b);
        });
        rt.fetch_f64(total, 1)[0]
    }

    #[test]
    fn backends_agree_on_results() {
        let native = NativeRt::default();
        let samhita = SamhitaRt::new(SamhitaConfig::small_for_tests());
        for threads in [1u32, 2, 4] {
            let total = (0..(64 * threads as usize)).map(|i| i as f64).sum::<f64>();
            assert_eq!(sum_program(&native, threads), total, "native, {threads} threads");
            assert_eq!(sum_program(&samhita, threads), total, "samhita, {threads} threads");
        }
    }

    #[test]
    fn backends_report_names() {
        assert_eq!(NativeRt::default().name(), "pthreads");
        assert_eq!(SamhitaRt::new(SamhitaConfig::small_for_tests()).name(), "samhita");
    }
}
