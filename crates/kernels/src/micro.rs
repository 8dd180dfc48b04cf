//! The Figure 2 micro-benchmark.
//!
//! ```text
//! for (i = 0; i < N; ++i) {
//!   sum = 0;
//!   for (j = 0; j < M; ++j)
//!     for (k = 0; k < S; ++k) {
//!       rsum = 0;
//!       for (l = 0; l < B; ++l) {
//!         *am(k,l) = r * (*am(k,l));
//!         rsum += *am(k,l);
//!       }
//!       sum += M_PI * rsum;
//!     }
//!   LOCK(lock);  gsum += sum;  UNLOCK(lock);
//!   BARRIER_WAIT(barrier);
//! }
//! ```
//!
//! Each thread owns `S` rows of `B` doubles; `M` controls the amount of
//! computation per synchronization, and the allocation mode controls the
//! false-sharing exposure:
//!
//! * [`AllocMode::Local`] — each thread allocates its own rows (Samhita: the
//!   per-thread arena ⇒ no false sharing by construction);
//! * [`AllocMode::Global`] — one large shared allocation, threads take
//!   contiguous blocks (false sharing only at block boundaries);
//! * [`AllocMode::GlobalStrided`] — the same allocation with row `k` of
//!   thread `t` at row index `k·P + t` (round-robin rows ⇒ maximal false
//!   sharing).

use samhita_rt::{ArrF64, KernelRt, RunReport};

/// Allocation / work-distribution variants (paper §III).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AllocMode {
    /// Each thread allocates its own rows (per-thread arena under the DSM).
    Local,
    /// One shared allocation; threads take contiguous blocks.
    Global,
    /// One shared allocation; rows round-robin across threads.
    GlobalStrided,
}

impl AllocMode {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            AllocMode::Local => "local",
            AllocMode::Global => "global",
            AllocMode::GlobalStrided => "global strided",
        }
    }
}

/// Micro-benchmark parameters. Paper values: `n_outer = 10`, `b_cols = 260`,
/// `m_inner ∈ {1, 10, 100}`, `s_rows ∈ {1, 2, 4, 8}` (the OCR of the paper
/// drops trailing digits — "B = 26" — and 260 doubles per row reproduces the
/// block-boundary false sharing Figure 4 depends on; see DESIGN.md §4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MicroParams {
    /// N: outer repetitions.
    pub n_outer: usize,
    /// M: inner compute repetitions per outer iteration.
    pub m_inner: usize,
    /// S: rows of doubles per thread (the "ordinary region size").
    pub s_rows: usize,
    /// B: row length in doubles.
    pub b_cols: usize,
    /// Allocation / access-pattern variant.
    pub mode: AllocMode,
    /// Compute threads.
    pub threads: u32,
}

impl MicroParams {
    /// The paper's fixed constants with the given sweep variables.
    pub fn paper(m_inner: usize, s_rows: usize, mode: AllocMode, threads: u32) -> Self {
        MicroParams { n_outer: 10, m_inner, s_rows, b_cols: 260, mode, threads }
    }
}

/// Outcome of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Per-thread timing and protocol statistics.
    pub report: RunReport,
    /// Final value of the mutex-protected global sum (for verification).
    pub gsum: f64,
}

/// The per-element decay factor (`r` in Figure 2); slightly below one so
/// values stay finite for any `M`.
pub const R: f64 = 0.999_999;

/// The analytically expected `gsum` for a run (every element starts at 1.0,
/// so the sum telescopes over the global update count).
pub fn expected_gsum(p: &MicroParams) -> f64 {
    let mut gsum = 0.0;
    let mut value = 1.0; // every element of every row holds the same value
    for _i in 0..p.n_outer {
        let mut sum = 0.0;
        for _j in 0..p.m_inner {
            value *= R;
            // S rows of B elements, each now worth `value`.
            sum += std::f64::consts::PI * (p.s_rows as f64) * (p.b_cols as f64 * value);
        }
        gsum += sum * p.threads as f64;
    }
    gsum
}

/// Run the micro-benchmark on a backend.
pub fn run_micro(rt: &dyn KernelRt, p: &MicroParams) -> MicroResult {
    assert!(p.threads >= 1 && p.s_rows >= 1 && p.b_cols >= 1);
    let per_thread = p.s_rows * p.b_cols;
    let nthreads = p.threads as usize;

    let global_arr: Option<ArrF64> = match p.mode {
        AllocMode::Local => None,
        AllocMode::Global | AllocMode::GlobalStrided => {
            Some(rt.alloc_f64_global(per_thread * nthreads))
        }
    };
    let gsum = rt.alloc_f64_global(1);
    let lock = rt.mutex();
    let barrier = rt.barrier(p.threads);
    let params = *p;

    let report = rt.run(p.threads, &move |ctx| {
        let p = &params;
        let tid = ctx.tid() as usize;
        let nthreads = ctx.nthreads() as usize;
        let arr = match p.mode {
            AllocMode::Local => ctx.alloc_local_f64(per_thread),
            _ => global_arr.expect("global allocation exists"),
        };
        // Element index of row k for this thread.
        let row_start = |k: usize| -> usize {
            match p.mode {
                AllocMode::Local => k * p.b_cols,
                AllocMode::Global => (tid * p.s_rows + k) * p.b_cols,
                AllocMode::GlobalStrided => (k * nthreads + tid) * p.b_cols,
            }
        };

        // Initialize this thread's rows to 1.0 (warm-up; the barrier flushes
        // the writes home before the measured pattern starts repeating).
        let ones = vec![1.0f64; p.b_cols];
        for k in 0..p.s_rows {
            ctx.write_block(arr, row_start(k), &ones);
        }
        // Touch the global sum so its page is warm before timing starts.
        let _ = ctx.read(gsum, 0);
        ctx.barrier_wait(barrier);
        // Initialization done: the measured region starts here, as the
        // paper's timers would.
        ctx.start_timing();

        for _i in 0..p.n_outer {
            let mut sum = 0.0;
            for _j in 0..p.m_inner {
                for k in 0..p.s_rows {
                    let mut rsum = 0.0;
                    ctx.update_runs(arr, row_start(k), p.b_cols, &mut |_, xs| {
                        for x in xs {
                            let nx = R * *x;
                            rsum += nx;
                            *x = nx;
                        }
                    });
                    // One multiply + one add per element (Figure 2's "two
                    // floating point operations per data element").
                    ctx.compute(2 * p.b_cols as u64);
                    sum += std::f64::consts::PI * rsum;
                    ctx.compute(2);
                }
            }
            ctx.lock(lock);
            let g = ctx.read(gsum, 0);
            ctx.write(gsum, 0, g + sum);
            ctx.unlock(lock);
            ctx.barrier_wait(barrier);
        }
    });

    MicroResult { report, gsum: rt.fetch_f64(gsum, 1)[0] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_core::SamhitaConfig;
    use samhita_rt::{NativeRt, SamhitaRt};

    // 16 doubles = 128 bytes = half a test page, so adjacent rows share
    // pages and the strided variant actually false-shares.
    fn tiny(mode: AllocMode, threads: u32) -> MicroParams {
        MicroParams { n_outer: 3, m_inner: 2, s_rows: 2, b_cols: 16, mode, threads }
    }

    fn assert_close(a: f64, b: f64) {
        let rel = (a - b).abs() / b.abs().max(1e-300);
        assert!(rel < 1e-9, "{a} vs {b} (rel {rel:.3e})");
    }

    #[test]
    fn native_matches_analytic_gsum_all_modes() {
        let rt = NativeRt::default();
        for mode in [AllocMode::Local, AllocMode::Global, AllocMode::GlobalStrided] {
            let p = tiny(mode, 4);
            let r = run_micro(&rt, &p);
            assert_close(r.gsum, expected_gsum(&p));
        }
    }

    #[test]
    fn samhita_matches_analytic_gsum_all_modes() {
        for mode in [AllocMode::Local, AllocMode::Global, AllocMode::GlobalStrided] {
            let rt = SamhitaRt::new(SamhitaConfig::small_for_tests());
            let p = tiny(mode, 4);
            let r = run_micro(&rt, &p);
            assert_close(r.gsum, expected_gsum(&p));
        }
    }

    #[test]
    fn single_thread_backends_agree_exactly() {
        let p = tiny(AllocMode::Local, 1);
        let native = run_micro(&NativeRt::default(), &p);
        let samhita = run_micro(&SamhitaRt::new(SamhitaConfig::small_for_tests()), &p);
        assert_eq!(native.gsum, samhita.gsum, "P=1 is fully deterministic");
    }

    /// `assert_close` holds the sum to 1e-9 relative, so a kernel loop
    /// that added in another order would pass it: the bits are pinned. The
    /// 100-double rows cross test pages and are longer than a run of
    /// `samhita_core::UPDATE_RUN`, where a regrouped sum would show.
    #[test]
    fn the_gsum_is_pinned_across_commits() {
        for (threads, b_cols, bits) in [
            (1, 16, 0x4082_d978_2c59_d004u64),
            (4, 16, 0x40a2_d978_2c59_d004),
            (1, 100, 0x40ad_73cb_c54c_5507),
            (4, 100, 0x40cd_73cb_c54c_5506),
        ] {
            for mode in [AllocMode::Local, AllocMode::Global, AllocMode::GlobalStrided] {
                let p = MicroParams { b_cols, ..tiny(mode, threads) };
                let native = run_micro(&NativeRt::default(), &p).gsum;
                let samhita = run_micro(&SamhitaRt::new(SamhitaConfig::small_for_tests()), &p).gsum;
                let at = format!("{mode:?}, P = {threads}, B = {b_cols}");
                assert_eq!(native.to_bits(), bits, "native, {at}");
                assert_eq!(samhita.to_bits(), bits, "samhita, {at}");
            }
        }
    }

    #[test]
    fn strided_mode_suffers_more_false_sharing_than_local() {
        // The paper's central claim in miniature: with tiny pages, strided
        // global access causes invalidation refetches; local allocation
        // causes none after warm-up.
        let cfg = SamhitaConfig::small_for_tests();
        let local = run_micro(&SamhitaRt::new(cfg.clone()), &tiny(AllocMode::Local, 4));
        let strided = run_micro(&SamhitaRt::new(cfg), &tiny(AllocMode::GlobalStrided, 4));
        let refetch_local = local.report.total_of(|t| t.page_refetches);
        let refetch_strided = strided.report.total_of(|t| t.page_refetches);
        assert!(
            refetch_strided > refetch_local,
            "strided {refetch_strided} vs local {refetch_local}"
        );
    }

    #[test]
    fn paper_params_constructor() {
        let p = MicroParams::paper(10, 2, AllocMode::Global, 16);
        assert_eq!(p.n_outer, 10);
        assert_eq!(p.b_cols, 260);
        assert_eq!(p.m_inner, 10);
        assert_eq!(AllocMode::GlobalStrided.label(), "global strided");
    }

    #[test]
    fn expected_gsum_scales_linearly_in_threads_and_rows() {
        let p1 = tiny(AllocMode::Local, 1);
        let p4 = tiny(AllocMode::Local, 4);
        assert_close(expected_gsum(&p4), 4.0 * expected_gsum(&p1));
        let mut p2 = p1;
        p2.s_rows *= 2;
        assert_close(expected_gsum(&p2), 2.0 * expected_gsum(&p1));
    }
}
