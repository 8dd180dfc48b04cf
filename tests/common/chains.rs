//! Lock-chain programs: the generator beside `common::generate` for the
//! protocol's lock paths.
//!
//! A program is `rounds` barrier-delimited rounds; in each, every thread
//! runs a few critical sections over one to three locks. A section takes
//! one lock, or two in ascending order (the nested acquisition), and does
//! read-modify-write additions on counters that lock owns plus a `max`
//! into the lock's shared cell — fine-grain stores in a consistency
//! region. Between sections a thread stores to its own slot, sometimes
//! outside any lock (an ordinary store) and sometimes inside one (a
//! fine-grain store), and every cell lives in one small block: ordinary
//! and consistency-region stores land on the same page.
//!
//! Every store is order-independent at the barrier — additions of small
//! integers, a `max`, a thread's own last value — so the final memory is
//! one bit pattern whichever order the lock chains ran in, and after each
//! barrier every thread reads the whole block back into a running sum that
//! must agree too. [`run_chain`] runs a program on any `KernelRt`, so the
//! DSM can be held to plain shared memory (`NativeRt`), bit for bit.
//!
//! [`ChainProgram::spread`] moves the cells apart: a cache line each, and a
//! successor no longer holds the counters its predecessor bumped. It fetches
//! them from their home, so a home that has not applied the predecessor's
//! update yet changes the final memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samhita_repro::rt::{KernelCtx, KernelRt};

/// Counters each lock owns.
pub const COUNTERS_PER_LOCK: usize = 4;
/// Most locks a program uses.
pub const MAX_LOCKS: usize = 3;
/// Most threads a program uses.
pub const MAX_THREADS: usize = 8;

const MAX_CELLS: usize = MAX_LOCKS * COUNTERS_PER_LOCK;
const OWN: usize = MAX_CELLS + MAX_LOCKS;
/// `f64`s in the shared block: counters, one `max` cell per lock, one own
/// slot per thread.
pub const BLOCK: usize = OWN + MAX_THREADS;

/// One critical section.
#[derive(Clone, Debug)]
pub struct Section {
    /// The locks taken, ascending; two is a nested acquisition.
    pub locks: Vec<usize>,
    /// `(counter, delta)` additions, each on a counter of a held lock.
    pub adds: Vec<(usize, u64)>,
    /// The value `max`ed into the innermost lock's shared cell.
    pub max: u64,
    /// A store to the thread's own slot, made inside the section.
    pub own_inside: Option<u64>,
}

/// What one thread does between two barriers.
#[derive(Clone, Debug)]
pub struct Turn {
    /// A store to the thread's own slot outside any lock, before the rest.
    pub own_outside: Option<u64>,
    /// The critical sections, in order.
    pub sections: Vec<Section>,
}

/// A generated lock-chain program.
#[derive(Clone, Debug)]
pub struct ChainProgram {
    /// Threads that run it.
    pub threads: u32,
    /// Locks it uses.
    pub locks: usize,
    /// `f64`s from one cell of the block to the next.
    pub stride: usize,
    /// `rounds[r][t]`: thread `t`'s turn in round `r`.
    pub rounds: Vec<Vec<Turn>>,
}

impl ChainProgram {
    /// The same program with its cells `stride` `f64`s apart.
    pub fn spread(self, stride: usize) -> ChainProgram {
        ChainProgram { stride, ..self }
    }
}

/// Generate a program: `threads` threads, one to three locks, `rounds`
/// rounds of one to three sections each.
pub fn generate_chain(seed: u64, threads: u32, rounds: usize) -> ChainProgram {
    assert!((1..=MAX_THREADS as u32).contains(&threads));
    let mut rng = StdRng::seed_from_u64(seed);
    let locks = rng.gen_range(1..=MAX_LOCKS);
    let section = |rng: &mut StdRng| {
        let first = rng.gen_range(0..locks);
        let nested = first + 1 < locks && rng.gen_bool(0.3);
        let locks: Vec<usize> =
            if nested { vec![first, rng.gen_range(first + 1..locks)] } else { vec![first] };
        let adds = (0..rng.gen_range(1..=3))
            .map(|_| {
                let lock = locks[rng.gen_range(0..locks.len())];
                (
                    lock * COUNTERS_PER_LOCK + rng.gen_range(0..COUNTERS_PER_LOCK),
                    rng.gen_range(1..100),
                )
            })
            .collect();
        let own_inside = rng.gen_bool(0.3).then(|| rng.gen_range(1..1_000_000));
        Section { locks, adds, max: rng.gen_range(0..1_000), own_inside }
    };
    let rounds = (0..rounds)
        .map(|_| {
            (0..threads)
                .map(|_| Turn {
                    own_outside: rng.gen_bool(0.5).then(|| rng.gen_range(1..1_000_000)),
                    sections: (0..rng.gen_range(1..=3)).map(|_| section(&mut rng)).collect(),
                })
                .collect()
        })
        .collect();
    ChainProgram { threads, locks, stride: 1, rounds }
}

/// Run `program` on `rt`: the final block, then each thread's sum of every
/// block it read back after a barrier.
pub fn run_chain(rt: &dyn KernelRt, program: &ChainProgram) -> Vec<f64> {
    let threads = program.threads as usize;
    let stride = program.stride;
    let block = rt.alloc_f64_global(BLOCK * stride);
    // A page of its own per thread's running sum.
    let sums = rt.alloc_f64_global(threads * 64);
    let locks: Vec<_> = (0..program.locks).map(|_| rt.mutex()).collect();
    let barrier = rt.barrier(program.threads);
    rt.run(program.threads, &|ctx: &mut dyn KernelCtx| {
        let t = ctx.tid() as usize;
        let mut sum = 0.0;
        for round in &program.rounds {
            let turn = &round[t];
            if let Some(v) = turn.own_outside {
                ctx.write(block, (OWN + t) * stride, v as f64);
            }
            for s in &turn.sections {
                for &l in &s.locks {
                    ctx.lock(locks[l]);
                }
                for &(counter, delta) in &s.adds {
                    let v = ctx.read(block, counter * stride);
                    ctx.write(block, counter * stride, v + delta as f64);
                }
                let cell = (MAX_CELLS + s.locks[s.locks.len() - 1]) * stride;
                let v = ctx.read(block, cell);
                ctx.write(block, cell, v.max(s.max as f64));
                if let Some(v) = s.own_inside {
                    ctx.write(block, (OWN + t) * stride, v as f64);
                }
                for &l in s.locks.iter().rev() {
                    ctx.unlock(locks[l]);
                }
            }
            ctx.barrier_wait(barrier);
            sum += (0..BLOCK).map(|i| ctx.read(block, i * stride)).sum::<f64>();
            ctx.barrier_wait(barrier);
        }
        ctx.write(sums, t * 64, sum);
    });
    let mut out: Vec<f64> =
        rt.fetch_f64(block, BLOCK * stride).into_iter().step_by(stride).collect();
    out.extend(rt.fetch_f64(sums, threads * 64).iter().step_by(64));
    out
}
