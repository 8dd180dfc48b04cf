//! Jacobi iteration for the discrete Laplacian (Figure 12).
//!
//! Solves `-Δu = f` with `f ≡ 1` and zero boundary on an `(n+2)²` grid by
//! Jacobi sweeps:
//!
//! ```text
//! u'[i][j] = (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1] + h²f) / 4
//! ```
//!
//! The access pattern is the paper's "nearest neighbor communication
//! pattern": each thread owns a block of rows, reads one halo row from each
//! neighbour, and per outer iteration performs one mutex-protected
//! global-residual update plus three barrier synchronizations (matching the
//! paper's description exactly).
//!
//! Source and destination grids swap roles each iteration (pointer swap, no
//! copy), so under the DSM the whole destination block is freshly written —
//! diffed and flushed at the next synchronization — while the halo rows are
//! refetched after invalidation: Jacobi is the write-heavy end of the
//! paper's workload spectrum.

use samhita_rt::{KernelRt, RunReport};

/// Jacobi parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct JacobiParams {
    /// Interior grid dimension (the grid is `(n+2)²` with boundary).
    pub n: usize,
    /// Outer (sweep) iterations.
    pub iters: usize,
    /// Compute threads.
    pub threads: u32,
}

/// Outcome of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiResult {
    /// Per-thread timing and protocol statistics.
    pub report: RunReport,
    /// Σ|u' - u| of the final sweep (decreases monotonically for this
    /// problem).
    pub final_diff: f64,
    /// The final grid (fetched from the backend; row-major `(n+2)²`).
    pub grid: Vec<f64>,
}

/// Row range `[lo, hi)` of interior rows owned by `tid` (1-based rows).
fn block(n: usize, threads: usize, tid: usize) -> (usize, usize) {
    let per = n / threads;
    let extra = n % threads;
    let lo = 1 + tid * per + tid.min(extra);
    let hi = lo + per + usize::from(tid < extra);
    (lo, hi)
}

/// Run Jacobi on a backend.
pub fn run_jacobi(rt: &dyn KernelRt, p: &JacobiParams) -> JacobiResult {
    assert!(p.n >= 1 && p.iters >= 1 && p.threads >= 1);
    assert!((p.threads as usize) <= p.n, "more threads than interior rows");
    let width = p.n + 2;
    let cells = width * width;
    let u = rt.alloc_f64_global(cells);
    let unew = rt.alloc_f64_global(cells);
    let gdiff = rt.alloc_f64_global(1);
    let lock = rt.mutex();
    let barrier = rt.barrier(p.threads);
    let params = *p;

    let report = rt.run(p.threads, &move |ctx| {
        let p = &params;
        let width = p.n + 2;
        let h2f = {
            let h = 1.0 / (p.n + 1) as f64;
            h * h * 1.0 // f ≡ 1
        };
        let (lo, hi) = block(p.n, ctx.nthreads() as usize, ctx.tid() as usize);
        let mut grids = [u, unew];

        // Rolling row buffers: rows i-1, i, i+1 of the source grid.
        let mut above = vec![0.0f64; width];
        let mut here = vec![0.0f64; width];
        let mut below = vec![0.0f64; width];
        let mut out = vec![0.0f64; width];

        for _it in 0..p.iters {
            let (src, dst) = (grids[0], grids[1]);
            let mut local_diff = 0.0f64;

            ctx.read_block(src, (lo - 1) * width, &mut above);
            ctx.read_block(src, lo * width, &mut here);
            for i in lo..hi {
                ctx.read_block(src, (i + 1) * width, &mut below);
                out[0] = 0.0;
                out[width - 1] = 0.0;
                for j in 1..=p.n {
                    let v = 0.25 * (above[j] + below[j] + here[j - 1] + here[j + 1] + h2f);
                    local_diff += (v - here[j]).abs();
                    out[j] = v;
                }
                // Calibrated to the OmpSCR kernel's cost per point (~30
                // cycles at 2.8 GHz: 2D index arithmetic, 4 adds, relaxation
                // multiply, |diff| accumulation in unoptimized C).
                ctx.compute(25 * p.n as u64);
                ctx.write_block(dst, i * width, &out);
                std::mem::swap(&mut above, &mut here);
                std::mem::swap(&mut here, &mut below);
            }
            // Re-prime for the next iteration (`here`/`above` now hold
            // stale rows; they are re-read at the top of the loop).
            ctx.barrier_wait(barrier); // (1) all updates written

            ctx.lock(lock);
            let g = ctx.read(gdiff, 0);
            ctx.write(gdiff, 0, g + local_diff);
            ctx.unlock(lock);
            ctx.barrier_wait(barrier); // (2) global residual complete

            if ctx.tid() == 0 {
                // Thread 0 resets the accumulator for the next sweep; the
                // final sweep's value is left in place for the host.
                if _it + 1 < p.iters {
                    ctx.lock(lock);
                    ctx.write(gdiff, 0, 0.0);
                    ctx.unlock(lock);
                }
            }
            ctx.barrier_wait(barrier); // (3) reset visible everywhere
            grids.swap(0, 1);
        }
    });

    let final_grid = if p.iters % 2 == 1 { unew } else { u };
    JacobiResult {
        final_diff: rt.fetch_f64(gdiff, 1)[0],
        grid: rt.fetch_f64(final_grid, cells),
        report,
    }
}

/// Serial reference implementation in plain memory (bitwise-identical
/// arithmetic to the kernel; used for verification).
pub fn serial_reference(n: usize, iters: usize) -> Vec<f64> {
    let width = n + 2;
    let h = 1.0 / (n + 1) as f64;
    let h2f = h * h;
    let mut src = vec![0.0f64; width * width];
    let mut dst = vec![0.0f64; width * width];
    for _ in 0..iters {
        for i in 1..=n {
            for j in 1..=n {
                dst[i * width + j] = 0.25
                    * (src[(i - 1) * width + j]
                        + src[(i + 1) * width + j]
                        + src[i * width + j - 1]
                        + src[i * width + j + 1]
                        + h2f);
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_core::SamhitaConfig;
    use samhita_rt::{NativeRt, SamhitaRt};

    #[test]
    fn block_partition_covers_all_rows() {
        for n in [7usize, 16, 33] {
            for threads in [1usize, 2, 3, 5] {
                let mut covered = vec![false; n + 2];
                for t in 0..threads {
                    let (lo, hi) = block(n, threads, t);
                    for (r, slot) in covered.iter_mut().enumerate().take(hi).skip(lo) {
                        assert!(!*slot, "row {r} assigned twice");
                        *slot = true;
                    }
                }
                assert!(covered[1..=n].iter().all(|&c| c), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn native_matches_serial_reference_bitwise() {
        let p = JacobiParams { n: 14, iters: 5, threads: 4 };
        let r = run_jacobi(&NativeRt::default(), &p);
        let reference = serial_reference(p.n, p.iters);
        assert_eq!(r.grid, reference);
        assert!(r.final_diff > 0.0);
    }

    #[test]
    fn samhita_matches_serial_reference_bitwise() {
        let p = JacobiParams { n: 14, iters: 4, threads: 3 };
        let rt = SamhitaRt::new(SamhitaConfig::small_for_tests());
        let r = run_jacobi(&rt, &p);
        assert_eq!(r.grid, serial_reference(p.n, p.iters));
    }

    #[test]
    fn residual_decreases_with_iterations() {
        let rt = NativeRt::default();
        let d3 = run_jacobi(&rt, &JacobiParams { n: 12, iters: 3, threads: 2 }).final_diff;
        let d30 = run_jacobi(&rt, &JacobiParams { n: 12, iters: 30, threads: 2 }).final_diff;
        assert!(d30 < d3, "Jacobi must converge: {d30} !< {d3}");
    }

    #[test]
    fn thread_count_does_not_change_the_answer() {
        let rt = NativeRt::default();
        let r1 = run_jacobi(&rt, &JacobiParams { n: 10, iters: 6, threads: 1 });
        let r4 = run_jacobi(&rt, &JacobiParams { n: 10, iters: 6, threads: 4 });
        assert_eq!(r1.grid, r4.grid);
    }
}
