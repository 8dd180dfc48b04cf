//! Molecular dynamics: velocity-Verlet n-body (Figure 13).
//!
//! "A simple n-body simulation using the velocity Verlet time integration
//! method … the computation per particle is O(n)": every particle interacts
//! with every other through a softened inverse-square potential. Both
//! implementations accumulate the kinetic and potential energies into
//! mutex-protected globals and synchronize with three barriers per step,
//! as the paper describes.
//!
//! Compute per step is `Θ(n²/P)` per thread while communication is `Θ(n)`
//! (each thread reads all positions, writes its own block), so the kernel is
//! compute-dominated — the paper's example of an application that "can
//! easily mask the synchronization overhead of Samhita".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samhita_rt::{KernelRt, RunReport};

/// MD parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MdParams {
    /// Particle count.
    pub n: usize,
    /// Velocity-Verlet steps.
    pub steps: usize,
    /// Time step.
    pub dt: f64,
    /// Compute threads.
    pub threads: u32,
    /// RNG seed for the initial condition.
    pub seed: u64,
}

impl MdParams {
    /// A paper-scale configuration.
    pub fn paper(n: usize, threads: u32) -> Self {
        MdParams { n, steps: 10, dt: 1e-3, threads, seed: 42 }
    }
}

/// Softening length (keeps close encounters finite).
const EPS2: f64 = 1e-4;

/// Outcome of an MD run.
#[derive(Clone, Debug)]
pub struct MdResult {
    /// Per-thread timing and protocol statistics.
    pub report: RunReport,
    /// Kinetic energy after the final step.
    pub kinetic: f64,
    /// Potential energy after the final step.
    pub potential: f64,
    /// Final positions (`3n`, xyz interleaved).
    pub positions: Vec<f64>,
}

/// Deterministic initial condition: positions in the unit cube, small
/// random velocities.
pub fn initial_state(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pos: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let vel: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(-0.05..0.05)).collect();
    (pos, vel)
}

/// Particle range `[lo, hi)` owned by `tid`.
fn block(n: usize, threads: usize, tid: usize) -> (usize, usize) {
    let per = n / threads;
    let extra = n % threads;
    let lo = tid * per + tid.min(extra);
    (lo, lo + per + usize::from(tid < extra))
}

/// Accelerations and potential-energy contribution for particles `[lo, hi)`
/// given all positions. The potential is halved per pair at the end by the
/// caller summing over all blocks (each ordered pair counted once here).
fn forces(pos: &[f64], lo: usize, hi: usize, acc: &mut [f64]) -> f64 {
    let n = pos.len() / 3;
    let mut pe = 0.0;
    for i in lo..hi {
        let (xi, yi, zi) = (pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]);
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        for j in 0..n {
            if j == i {
                continue;
            }
            let dx = pos[3 * j] - xi;
            let dy = pos[3 * j + 1] - yi;
            let dz = pos[3 * j + 2] - zi;
            let r2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r / r2;
            ax += dx * inv_r3;
            ay += dy * inv_r3;
            az += dz * inv_r3;
            pe -= 0.5 * inv_r; // half: every unordered pair visited twice
        }
        acc[3 * (i - lo)] = ax;
        acc[3 * (i - lo) + 1] = ay;
        acc[3 * (i - lo) + 2] = az;
    }
    pe
}

/// Run the MD kernel on a backend.
pub fn run_md(rt: &dyn KernelRt, p: &MdParams) -> MdResult {
    assert!(p.n >= 2 && p.steps >= 1 && p.threads >= 1);
    assert!((p.threads as usize) <= p.n, "more threads than particles");
    let (pos0, vel0) = initial_state(p.n, p.seed);

    let pos = rt.alloc_f64_global(3 * p.n);
    let vel = rt.alloc_f64_global(3 * p.n);
    let acc = rt.alloc_f64_global(3 * p.n);
    let energies = rt.alloc_f64_global(2); // [kinetic, potential]
    rt.init_f64(pos, &pos0);
    rt.init_f64(vel, &vel0);
    let lock = rt.mutex();
    let barrier = rt.barrier(p.threads);
    let params = *p;

    let report = rt.run(p.threads, &move |ctx| {
        let p = &params;
        let (lo, hi) = block(p.n, ctx.nthreads() as usize, ctx.tid() as usize);
        let mine = hi - lo;
        let mut all_pos = vec![0.0f64; 3 * p.n];
        let mut my_vel = vec![0.0f64; 3 * mine];
        let mut my_acc = vec![0.0f64; 3 * mine];
        let mut my_pos = vec![0.0f64; 3 * mine];

        // Initial accelerations (step 0 force evaluation).
        ctx.read_block(pos, 0, &mut all_pos);
        let _ = forces(&all_pos, lo, hi, &mut my_acc);
        ctx.compute(22 * (p.n as u64) * (mine as u64));
        ctx.write_block(acc, 3 * lo, &my_acc);
        ctx.barrier_wait(barrier);

        for step in 0..p.steps {
            // (a) Half kick + drift on own block.
            ctx.read_block(vel, 3 * lo, &mut my_vel);
            ctx.read_block(acc, 3 * lo, &mut my_acc);
            ctx.read_block(pos, 3 * lo, &mut my_pos);
            for k in 0..3 * mine {
                my_vel[k] += 0.5 * p.dt * my_acc[k];
                my_pos[k] += p.dt * my_vel[k];
            }
            ctx.compute(4 * 3 * mine as u64);
            ctx.write_block(pos, 3 * lo, &my_pos);
            ctx.write_block(vel, 3 * lo, &my_vel);
            ctx.barrier_wait(barrier); // (1) all positions advanced

            // (b) New forces from the updated global positions.
            ctx.read_block(pos, 0, &mut all_pos);
            let pe = forces(&all_pos, lo, hi, &mut my_acc);
            ctx.compute(22 * (p.n as u64) * (mine as u64));
            ctx.write_block(acc, 3 * lo, &my_acc);
            ctx.barrier_wait(barrier); // (2) all forces computed

            // (c) Second half kick + energy accumulation.
            let mut ke = 0.0;
            for k in 0..3 * mine {
                my_vel[k] += 0.5 * p.dt * my_acc[k];
                ke += 0.5 * my_vel[k] * my_vel[k];
            }
            ctx.compute(5 * 3 * mine as u64);
            ctx.write_block(vel, 3 * lo, &my_vel);

            ctx.lock(lock);
            let k0 = ctx.read(energies, 0);
            let p0 = ctx.read(energies, 1);
            let last = step + 1 == p.steps;
            // Keep only the final step's energies (reset-and-accumulate).
            ctx.write(energies, 0, if last { k0 + ke } else { 0.0 });
            ctx.write(energies, 1, if last { p0 + pe } else { 0.0 });
            ctx.unlock(lock);
            ctx.barrier_wait(barrier); // (3) energies published
        }
    });

    let e = rt.fetch_f64(energies, 2);
    MdResult { report, kinetic: e[0], potential: e[1], positions: rt.fetch_f64(pos, 3 * p.n) }
}

/// Serial reference (plain memory, bitwise-identical arithmetic per
/// particle) for verification.
pub fn serial_reference(p: &MdParams) -> Vec<f64> {
    let (mut pos, mut vel) = initial_state(p.n, p.seed);
    let mut acc = vec![0.0f64; 3 * p.n];
    forces(&pos, 0, p.n, &mut acc);
    for _ in 0..p.steps {
        for k in 0..3 * p.n {
            vel[k] += 0.5 * p.dt * acc[k];
            pos[k] += p.dt * vel[k];
        }
        forces(&pos, 0, p.n, &mut acc);
        for k in 0..3 * p.n {
            vel[k] += 0.5 * p.dt * acc[k];
        }
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_core::SamhitaConfig;
    use samhita_rt::{NativeRt, SamhitaRt};

    fn tiny(threads: u32) -> MdParams {
        MdParams { n: 24, steps: 3, dt: 1e-3, threads, seed: 7 }
    }

    #[test]
    fn particle_partition_covers_everything() {
        for n in [10usize, 24, 31] {
            for threads in [1usize, 2, 3, 7] {
                let mut covered = 0;
                let mut last_hi = 0;
                for t in 0..threads {
                    let (lo, hi) = block(n, threads, t);
                    assert_eq!(lo, last_hi, "blocks must be contiguous");
                    covered += hi - lo;
                    last_hi = hi;
                }
                assert_eq!(covered, n);
                assert_eq!(last_hi, n);
            }
        }
    }

    #[test]
    fn native_matches_serial_reference_bitwise() {
        let p = tiny(4);
        let r = run_md(&NativeRt::default(), &p);
        assert_eq!(r.positions, serial_reference(&p));
    }

    #[test]
    fn samhita_matches_serial_reference_bitwise() {
        let p = tiny(3);
        let rt = SamhitaRt::new(SamhitaConfig::small_for_tests());
        let r = run_md(&rt, &p);
        assert_eq!(r.positions, serial_reference(&p));
    }

    #[test]
    fn energies_are_finite_and_sensible() {
        let r = run_md(&NativeRt::default(), &tiny(2));
        assert!(r.kinetic.is_finite() && r.kinetic > 0.0);
        assert!(r.potential.is_finite() && r.potential < 0.0, "attractive potential");
    }

    #[test]
    fn thread_count_does_not_change_the_trajectory() {
        let p1 = tiny(1);
        let p4 = tiny(4);
        let r1 = run_md(&NativeRt::default(), &p1);
        let r4 = run_md(&NativeRt::default(), &p4);
        assert_eq!(r1.positions, r4.positions);
    }

    #[test]
    fn initial_state_is_deterministic_per_seed() {
        let (a, _) = initial_state(16, 9);
        let (b, _) = initial_state(16, 9);
        let (c, _) = initial_state(16, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
