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

/// Particles one pass over the positions evaluates together. Measured once
/// on `md_p8` (x86-64, SSE2: packed `sqrtpd` / `divpd`), where 2 and 8 were
/// no faster; not tuned per machine.
const LANES: usize = 4;

/// Accelerations and potential-energy contribution for particles `[lo, hi)`
/// given all positions. The potential is halved per pair at the end by the
/// caller summing over all blocks (each ordered pair counted once here).
///
/// One pass over `pos` serves a group of [`LANES`] particles (the `hi − lo`
/// tail one at a time, through the same code), so the compiler can pack the
/// lanes' square roots and divisions. Every bit is what a loop over one
/// particle at a time that skips the self pair computes:
/// - each lane has its own `ax / ay / az` and sums over `j` in order;
/// - the self pair has `dx = dy = dz = +0.0`, so it adds `+0.0` to a kick,
///   and a sum that starts at `+0.0` is never `−0.0`, so adding it changes
///   nothing;
/// - only the potential masks the self pair (a distinct particle at the
///   same place is not masked). It is one sum per particle, added in
///   particle order.
fn forces(pos: &[f64], lo: usize, hi: usize, acc: &mut [f64]) -> f64 {
    let (mut i, mut pe) = (lo, 0.0);
    let mut groups = acc[..3 * (hi - lo)].chunks_exact_mut(3 * LANES);
    for out in &mut groups {
        group::<LANES>(pos, i, out, &mut pe);
        i += LANES;
    }
    for out in groups.into_remainder().chunks_exact_mut(3) {
        group::<1>(pos, i, out, &mut pe);
        i += 1;
    }
    pe
}

/// Forces on particles `i0 .. i0 + L` into `out` (`3L` values), their
/// potentials added to `pe` in particle order.
fn group<const L: usize>(pos: &[f64], i0: usize, out: &mut [f64], pe: &mut f64) {
    let p = |k: usize| std::array::from_fn::<f64, L, _>(|l| pos[3 * (i0 + l) + k]);
    let (xi, yi, zi) = (p(0), p(1), p(2));
    let (mut ax, mut ay, mut az, mut pot) = ([0.0; L], [0.0; L], [0.0; L], [0.0; L]);
    for (j, pj) in pos.chunks_exact(3).enumerate() {
        for l in 0..L {
            let dx = pj[0] - xi[l];
            let dy = pj[1] - yi[l];
            let dz = pj[2] - zi[l];
            let r2 = dx * dx + dy * dy + dz * dz + EPS2;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r / r2;
            ax[l] += dx * inv_r3;
            ay[l] += dy * inv_r3;
            az[l] += dz * inv_r3;
            // Half: every unordered pair is visited twice.
            pot[l] -= if j == i0 + l { 0.0 } else { 0.5 * inv_r };
        }
    }
    for l in 0..L {
        out[3 * l..3 * l + 3].copy_from_slice(&[ax[l], ay[l], az[l]]);
        *pe += pot[l];
    }
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
    use crate::fnv1a_words;
    use proptest::prelude::*;
    use samhita_core::SamhitaConfig;
    use samhita_rt::{NativeRt, SamhitaRt};

    fn tiny(threads: u32) -> MdParams {
        MdParams { n: 24, steps: 3, dt: 1e-3, threads, seed: 7 }
    }

    /// The force loop one particle at a time, skipping the self pair: the
    /// oracle `forces` must match bit for bit. Its potential is one sum per
    /// particle, added in particle order.
    fn forces_one_at_a_time(pos: &[f64], lo: usize, hi: usize, acc: &mut [f64]) -> f64 {
        let n = pos.len() / 3;
        let mut pe = 0.0;
        for i in lo..hi {
            let (xi, yi, zi) = (pos[3 * i], pos[3 * i + 1], pos[3 * i + 2]);
            let (mut ax, mut ay, mut az, mut pe_i) = (0.0, 0.0, 0.0, 0.0);
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
                pe_i -= 0.5 * inv_r;
            }
            acc[3 * (i - lo)] = ax;
            acc[3 * (i - lo) + 1] = ay;
            acc[3 * (i - lo) + 2] = az;
            pe += pe_i;
        }
        pe
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `forces` against the oracle over every block `[lo, hi)` of `pos`.
    fn assert_matches_oracle(pos: &[f64]) {
        let n = pos.len() / 3;
        for lo in 0..=n {
            for hi in lo..=n {
                let mut acc = vec![f64::NAN; 3 * (hi - lo)];
                let mut want = vec![f64::NAN; 3 * (hi - lo)];
                let pe = forces(pos, lo, hi, &mut acc);
                let pe_want = forces_one_at_a_time(pos, lo, hi, &mut want);
                assert_eq!(bits(&acc), bits(&want), "acc, n {n}, [{lo}, {hi})");
                assert_eq!(
                    pe.to_bits(),
                    pe_want.to_bits(),
                    "pe {pe} vs {pe_want}, n {n}, [{lo}, {hi})"
                );
            }
        }
    }

    /// One particle: on a three-point grid per axis (so distinct particles
    /// coincide, at `r2 == EPS2`) or anywhere in the unit cube.
    fn particle() -> impl Strategy<Value = [f64; 3]> {
        (0u8..2, 0u8..3, 0u8..3, 0u8..3, any::<u64>()).prop_map(|(kind, a, b, c, r)| {
            if kind == 0 {
                [a, b, c].map(|k| f64::from(k) / 2.0)
            } else {
                [0, 21, 42].map(|s| ((r >> s) & 0x1f_ffff) as f64 / f64::from(1u32 << 21))
            }
        })
    }

    proptest! {
        /// Every block of 2 to 47 particles, so every tail length, with
        /// coinciding particles in most cases.
        #[test]
        fn forces_match_the_one_particle_oracle(
            n in 2usize..48,
            particles in proptest::collection::vec(particle(), 47),
        ) {
            let pos: Vec<f64> = particles[..n].iter().flatten().copied().collect();
            assert_matches_oracle(&pos);
        }
    }

    #[test]
    fn forces_match_the_oracle_when_every_particle_coincides() {
        for n in [2usize, 3, 4, 5, 8, 9, 13] {
            assert_matches_oracle(&vec![0.0; 3 * n]);
        }
    }

    /// The trajectory of `PINNED`, recorded before the force loop evaluated
    /// particles in groups: every backend must still produce these bits.
    const PINNED: MdParams = MdParams { n: 96, steps: 3, dt: 1e-3, threads: 1, seed: 42 };
    const PINNED_POSITIONS: u64 = 0x85d7_1ae6_5525_0c67;
    /// `MdResult::kinetic` of `PINNED` on one native thread, exact, and its
    /// potential, which may move in its last bits with the summation order.
    const PINNED_KINETIC: u64 = 0x4042_1a84_1653_a76c;
    const PINNED_POTENTIAL: f64 = -8.800400903095986e3;

    #[test]
    fn the_trajectory_is_pinned_across_commits() {
        assert_eq!(fnv1a_words(&serial_reference(&PINNED)), PINNED_POSITIONS);
        let one = run_md(&NativeRt::default(), &PINNED);
        assert_eq!(fnv1a_words(&one.positions), PINNED_POSITIONS);
        assert_eq!(one.kinetic.to_bits(), PINNED_KINETIC);
        assert!(
            (one.potential - PINNED_POTENTIAL).abs() <= 1e-12 * PINNED_POTENTIAL.abs(),
            "potential {:e} vs {PINNED_POTENTIAL:e}",
            one.potential
        );
        let four = MdParams { threads: 4, ..PINNED };
        let native = run_md(&NativeRt::default(), &four);
        assert_eq!(fnv1a_words(&native.positions), PINNED_POSITIONS);
        let samhita = run_md(&SamhitaRt::new(SamhitaConfig::default()), &four);
        assert_eq!(fnv1a_words(&samhita.positions), PINNED_POSITIONS);
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
