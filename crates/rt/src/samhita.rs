//! The Samhita backend: adapts [`samhita_core::ThreadCtx`] to the façade.
//!
//! Array handles are global byte addresses; element `i` of handle `a` lives
//! at `a + 8 i`. "Local" allocations route through the thread's arena
//! allocator (the paper's strategy 1); "global" allocations are made by the
//! host through the manager.

use samhita_core::{RunReport, Samhita, SamhitaConfig, ThreadCtx};

use crate::{ArrF64, KernelCtx, KernelRt, SyncId};

/// The DSM backend.
pub struct SamhitaRt {
    sys: Samhita,
}

impl SamhitaRt {
    /// Bring up a Samhita system for this backend.
    pub fn new(cfg: SamhitaConfig) -> Self {
        SamhitaRt { sys: Samhita::new(cfg) }
    }

    /// Access the underlying system (stats, direct memory inspection).
    pub fn system(&self) -> &Samhita {
        &self.sys
    }

    /// Drain the event trace (see [`Samhita::take_trace`]); `None` unless
    /// the configuration enabled tracing.
    pub fn take_trace(&self) -> Option<samhita_trace::RunTrace> {
        self.sys.take_trace()
    }

    /// Tear down, returning each memory server's lifetime service
    /// accounting (see [`Samhita::shutdown`]).
    pub fn shutdown(self) -> Vec<samhita_scl::ResourceStats> {
        self.sys.shutdown()
    }
}

impl KernelRt for SamhitaRt {
    fn name(&self) -> &'static str {
        "samhita"
    }

    fn alloc_f64_global(&self, n: usize) -> ArrF64 {
        self.sys.alloc_global(n as u64 * 8)
    }

    fn init_f64(&self, a: ArrF64, values: &[f64]) {
        self.sys.write_f64s(a, values);
    }

    fn fetch_f64(&self, a: ArrF64, n: usize) -> Vec<f64> {
        self.sys.read_f64s(a, n)
    }

    fn mutex(&self) -> SyncId {
        self.sys.create_mutex()
    }

    fn barrier(&self, parties: u32) -> SyncId {
        self.sys.create_barrier(parties)
    }

    fn run(&self, nthreads: u32, body: &(dyn Fn(&mut dyn KernelCtx) + Sync)) -> RunReport {
        self.sys.run(nthreads, |ctx| {
            let mut kctx = SamCtx { inner: ctx };
            body(&mut kctx);
        })
    }
}

struct SamCtx<'a> {
    inner: &'a mut ThreadCtx,
}

impl KernelCtx for SamCtx<'_> {
    fn tid(&self) -> u32 {
        self.inner.tid()
    }

    fn nthreads(&self) -> u32 {
        self.inner.nthreads()
    }

    fn alloc_local_f64(&mut self, n: usize) -> ArrF64 {
        self.inner.alloc(n as u64 * 8, 8)
    }

    fn read(&mut self, a: ArrF64, i: usize) -> f64 {
        self.inner.read_f64(a + i as u64 * 8)
    }

    fn write(&mut self, a: ArrF64, i: usize, v: f64) {
        self.inner.write_f64(a + i as u64 * 8, v);
    }

    fn read_block(&mut self, a: ArrF64, start: usize, out: &mut [f64]) {
        self.inner.read_f64_slice(a + start as u64 * 8, out);
    }

    fn write_block(&mut self, a: ArrF64, start: usize, src: &[f64]) {
        self.inner.write_f64_slice(a + start as u64 * 8, src);
    }

    fn update_runs(
        &mut self,
        a: ArrF64,
        start: usize,
        n: usize,
        f: &mut dyn FnMut(usize, &mut [f64]),
    ) {
        self.inner.update_f64s(a + start as u64 * 8, n, f);
    }

    fn compute(&mut self, flops: u64) {
        self.inner.compute(flops);
    }

    fn start_timing(&mut self) {
        self.inner.start_timing();
    }

    fn lock(&mut self, m: SyncId) {
        self.inner.lock(m);
    }

    fn unlock(&mut self, m: SyncId) {
        self.inner.unlock(m);
    }

    fn barrier_wait(&mut self, b: SyncId) {
        self.inner.barrier(b);
    }

    fn now_ns(&self) -> u64 {
        self.inner.now().as_ns()
    }

    fn sync_ns(&self) -> u64 {
        self.inner.sync_time().as_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> SamhitaRt {
        SamhitaRt::new(SamhitaConfig::small_for_tests())
    }

    #[test]
    fn local_allocations_use_the_arena() {
        let rt = rt();
        let layout = *rt.system().layout();
        rt.run(2, &|ctx| {
            let a = ctx.alloc_local_f64(128);
            let region = layout.region_of(a);
            assert_eq!(region, samhita_core::Region::Arena(ctx.tid()));
            ctx.write(a, 0, 1.5);
            assert_eq!(ctx.read(a, 0), 1.5);
        });
    }

    #[test]
    fn global_allocation_visible_across_threads_after_barrier() {
        let rt = rt();
        let a = rt.alloc_f64_global(64);
        let b = rt.barrier(2);
        rt.run(2, &|ctx| {
            let tid = ctx.tid() as usize;
            ctx.write(a, tid, (tid + 1) as f64);
            ctx.barrier_wait(b);
            let other = 1 - tid;
            assert_eq!(ctx.read(a, other), (other + 1) as f64);
        });
    }

    #[test]
    fn host_init_is_visible_inside_runs() {
        let rt = rt();
        let a = rt.alloc_f64_global(8);
        rt.init_f64(a, &[7.0; 8]);
        rt.run(1, &|ctx| {
            let mut buf = vec![0.0; 8];
            ctx.read_block(a, 0, &mut buf);
            assert_eq!(buf, vec![7.0; 8]);
        });
        assert_eq!(rt.fetch_f64(a, 8), vec![7.0; 8]);
    }

    #[test]
    fn shutdown_reports_server_activity() {
        let rt = rt();
        let a = rt.alloc_f64_global(8);
        let report = rt.run(1, &|ctx| {
            ctx.write(a, 0, 1.0);
        });
        assert!(report.mgr_requests > 0);
        assert!(rt.shutdown()[0].requests > 0);
    }
}
