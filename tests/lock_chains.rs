//! The lock-chain oracle: generated lock-structured programs on the DSM
//! against plain shared memory, under schedules the fabric reorders.
//!
//! Each program of `common/chains.rs` runs on `NativeRt` and on Samhita at
//! `sched_seed` 0..8, each seed with a delay-only fault plan of its own —
//! 30 % of messages take a 3 µs spike, which reorders releases against the
//! grants they enable, and update batches against the fetches that must
//! see them, without losing anything. The final block and every thread's
//! read-back sums must be bit-identical to the native run, and the trace
//! invariant checker must accept every run. A condition-variable
//! producer/consumer, which `NativeRt` cannot run, is held to its closed
//! form under the same schedules.
//!
//! Some programs are built so that a stale home copy changes the final
//! memory: cells spread over more cache lines than a thread holds, so a
//! successor fetches the counters its predecessor bumped; and whole-page
//! consistency, where every store in a critical section is an ordinary one
//! that the successor is sent as a page notice and refetches — in a cache so
//! small that the holder evicts its dirty lines before it releases. Each
//! runs with prefetching on and off.

#[path = "common/chains.rs"]
mod chains;

use chains::{generate_chain, run_chain, ChainProgram};
use samhita_repro::core::{ConsistencyVariant, FaultConfig, Samhita, SamhitaConfig};
use samhita_repro::rt::{NativeRt, SamhitaRt};

/// The explored schedules: seed `s` ties broken by `s`, delays seeded by `s`.
fn schedules(base: &SamhitaConfig) -> impl Iterator<Item = SamhitaConfig> + '_ {
    (0..8u64).map(move |s| SamhitaConfig {
        sched_seed: s,
        faults: FaultConfig::lossy(s, 0.0, 0.0, 0.3, 3_000),
        tracing: true,
        ..base.clone()
    })
}

/// One program on every explored schedule of `base`, each against native.
fn chains_match_native(base: &SamhitaConfig, what: &str, program: &ChainProgram) {
    let want = run_chain(&NativeRt::default(), program);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for cfg in schedules(base) {
        let at = format!("{what} (P={}) at sched_seed {}", program.threads, cfg.sched_seed);
        let native = NativeRt::with_seed(cfg.sched_seed);
        assert_eq!(bits(&run_chain(&native, program)), bits(&want), "{at}: native moved");
        let rt = SamhitaRt::new(cfg);
        assert_eq!(bits(&run_chain(&rt, program)), bits(&want), "{at}: DSM vs native");
        let trace = rt.take_trace().expect("tracing was enabled");
        trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
    }
}

/// Generated program `seed` on `threads` threads, six rounds.
fn chain(seed: u64, threads: u32) -> ChainProgram {
    generate_chain(seed, threads, 6)
}

#[test]
fn lock_chains_match_native_on_the_paper_cluster() {
    for (seed, threads) in [(1u64, 4u32), (2, 6), (3, 3), (4, 8)] {
        let program = chain(seed, threads);
        chains_match_native(&SamhitaConfig::default(), &format!("program {seed}"), &program);
    }
}

#[test]
fn lock_chains_match_native_on_small_pages() {
    for (seed, threads) in [(5u64, 4u32), (6, 5), (7, 2)] {
        let program = chain(seed, threads);
        chains_match_native(
            &SamhitaConfig::small_for_tests(),
            &format!("program {seed}"),
            &program,
        );
    }
}

/// Every cell a cache line from the next, in an eight-line cache: the
/// counters a holder bumps are gone from its successor's cache by the
/// successor's turn, so it fetches them from the home — which must have
/// applied the holder's update by then. (Eight lines still hold every line
/// one critical section touches: a fine-grain store leaves its page clean,
/// and evicting it before the release would lose the bytes a re-read in the
/// same section needs.)
#[test]
fn lock_chains_over_more_lines_than_a_cache_holds_match_native() {
    for prefetch in [true, false] {
        let base =
            SamhitaConfig { cache_capacity_lines: 8, prefetch, ..SamhitaConfig::small_for_tests() };
        for (seed, threads) in [(8u64, 4u32), (9, 6), (10, 8)] {
            let program = chain(seed, threads).spread(base.line_bytes() / 8);
            let what = format!("spread program {seed}, prefetch {prefetch}");
            chains_match_native(&base, &what, &program);
        }
    }
}

/// Whole-page consistency: a critical section's stores are ordinary ones,
/// flushed as page diffs, so the successor is sent page notices and
/// refetches what the holder wrote. In a four-line cache that evicts dirty
/// lines first, the holder's diffs often leave with an eviction before its
/// release does.
#[test]
fn whole_page_lock_chains_refetch_what_the_holder_flushed() {
    for prefetch in [true, false] {
        let base = SamhitaConfig {
            consistency: ConsistencyVariant::WholePage,
            cache_capacity_lines: 4,
            prefetch,
            ..SamhitaConfig::small_for_tests()
        };
        for (seed, threads, stride) in
            [(11u64, 4u32, 1), (12, 6, 1), (13, 5, base.line_bytes() / 8)]
        {
            let program = chain(seed, threads).spread(stride);
            let what = format!("whole-page program {seed} (stride {stride}), prefetch {prefetch}");
            chains_match_native(&base, &what, &program);
        }
    }
}

/// One producer fills a one-slot mailbox `ITEMS` times; the other threads
/// take from it. Two condition variables, waits in `while` loops: every
/// item is taken exactly once, and the consumers' totals add up.
#[test]
fn condvar_producer_consumer_delivers_every_item_once() {
    const ITEMS: u64 = 24;
    const THREADS: u32 = 4;
    for cfg in schedules(&SamhitaConfig::default()) {
        let at = format!("sched_seed {}", cfg.sched_seed);
        let sys = Samhita::new(cfg);
        // [full flag, item, produced count] then one total per consumer.
        let cells = sys.alloc_global(8 * (3 + u64::from(THREADS)));
        let lock = sys.create_mutex();
        let (not_full, not_empty) = (sys.create_cond(), sys.create_cond());
        let (full, item, taken) = (cells, cells + 8, cells + 16);
        sys.run(THREADS, |ctx| {
            let t = u64::from(ctx.tid());
            if t == 0 {
                for i in 1..=ITEMS {
                    ctx.lock(lock);
                    while ctx.read_u64(full) == 1 {
                        ctx.cond_wait(not_full, lock);
                    }
                    ctx.write_u64(item, i * 10);
                    ctx.write_u64(full, 1);
                    ctx.cond_signal(not_empty);
                    ctx.unlock(lock);
                }
                return;
            }
            let mut total = 0;
            loop {
                ctx.lock(lock);
                while ctx.read_u64(full) == 0 && ctx.read_u64(taken) < ITEMS {
                    ctx.cond_wait(not_empty, lock);
                }
                if ctx.read_u64(full) == 0 {
                    // Everything was taken: wake the other consumers too.
                    ctx.cond_broadcast(not_empty);
                    ctx.unlock(lock);
                    break;
                }
                total += ctx.read_u64(item);
                ctx.write_u64(full, 0);
                let n = ctx.read_u64(taken) + 1;
                ctx.write_u64(taken, n);
                ctx.cond_signal(not_full);
                if n == ITEMS {
                    ctx.cond_broadcast(not_empty);
                }
                ctx.unlock(lock);
            }
            ctx.write_u64(cells + 8 * (2 + t), total);
        });
        let mut bytes = vec![0u8; 8 * (3 + THREADS as usize)];
        sys.read_global(cells, &mut bytes);
        let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        assert_eq!((word(0), word(2)), (0, ITEMS), "{at}: the mailbox ended full or short");
        let totals: u64 = (3..3 + THREADS as usize).map(word).sum();
        assert_eq!(totals, 10 * ITEMS * (ITEMS + 1) / 2, "{at}: an item was lost or doubled");
        let trace = sys.take_trace().expect("tracing was enabled");
        trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
    }
}

/// Every holder bumps one counter under the lock, a fine-grain store, and
/// after the closing barrier every thread reads the counter without the
/// lock and stores what it read in a slot of its own. A reader's cached
/// copy is what the barrier's notices left it, so a stale update applied
/// there — one the thread was handed with the lock and then sent again,
/// older than what it applied since — reaches final memory.
#[test]
fn a_counter_read_after_the_chain_is_the_chains_last_value() {
    const ROUNDS: u64 = 6;
    for threads in [5u32, 12] {
        for cfg in schedules(&SamhitaConfig::default()) {
            let at = format!("P={threads} at sched_seed {}", cfg.sched_seed);
            let sys = Samhita::new(cfg);
            // The counter, then one slot per thread.
            let cells = sys.alloc_global(8 * (1 + u64::from(threads)));
            let (lock, done) = (sys.create_mutex(), sys.create_barrier(threads));
            sys.run(threads, |ctx| {
                for _ in 0..ROUNDS {
                    ctx.lock(lock);
                    let n = ctx.read_u64(cells);
                    ctx.write_u64(cells, n + 1);
                    ctx.unlock(lock);
                }
                ctx.barrier(done);
                let seen = ctx.read_u64(cells);
                ctx.write_u64(cells + 8 * (1 + u64::from(ctx.tid())), seen);
            });
            let mut bytes = vec![0u8; 8 * (1 + threads as usize)];
            sys.read_global(cells, &mut bytes);
            let words: Vec<u64> = bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("a word")))
                .collect();
            let total = ROUNDS * u64::from(threads);
            assert_eq!(
                words,
                vec![total; 1 + threads as usize],
                "{at}: counter, then what each read"
            );
            let trace = sys.take_trace().expect("tracing was enabled");
            trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
        }
    }
}
