//! Cross-crate integration tests of the RegC consistency protocol on the
//! full system: multiple writers, lock-carried fine-grain updates,
//! invalidation-driven refetch, eviction under pressure — observed end to
//! end through real compute threads, the manager, and the memory servers.

use samhita_repro::core::{
    ConsistencyVariant, EvictionPolicy, RunReport, Samhita, SamhitaConfig, TopologyKind,
};
use samhita_repro::rt::{KernelCtx, KernelRt, NativeRt, SamhitaRt};
use samhita_repro::trace::{EventKind, RunTrace};

#[path = "common/fold.rs"]
mod fold;

fn small() -> SamhitaConfig {
    SamhitaConfig::small_for_tests()
}

/// How many `op` requests the manager served, by its `MgrServe` events.
fn served(trace: &RunTrace, op: &str) -> u64 {
    (trace.tracks.iter().flat_map(|(_, events)| events))
        .filter(|e| matches!(e.kind, EventKind::MgrServe { op: o, .. } if o == op))
        .count() as u64
}

#[test]
fn multiple_writers_of_one_page_merge_at_the_home() {
    // Four threads write disjoint quarters of ONE page concurrently in an
    // ordinary region; after the barrier everyone sees all four quarters —
    // the multiple-writer protocol end to end.
    let sys = Samhita::new(small());
    let page_bytes = sys.config().page_size as u64;
    let addr = sys.alloc_global(page_bytes);
    let barrier = sys.create_barrier(4);
    sys.run(4, |ctx| {
        let quarter = page_bytes / 4;
        let mine = addr + ctx.tid() as u64 * quarter;
        let fill = vec![ctx.tid() as u8 + 1; quarter as usize];
        ctx.write_bytes(mine, &fill);
        ctx.barrier(barrier);
        for t in 0..4u64 {
            let mut buf = vec![0u8; quarter as usize];
            ctx.read_bytes(addr + t * quarter, &mut buf);
            assert!(
                buf.iter().all(|&b| b == t as u8 + 1),
                "thread {} sees partial quarter {t}",
                ctx.tid()
            );
        }
    });
}

#[test]
fn lock_protected_counter_is_exact_under_heavy_contention() {
    let sys = Samhita::new(small());
    let counter = sys.alloc_global(8);
    let lock = sys.create_mutex();
    const THREADS: u32 = 8;
    const ITERS: u64 = 50;
    sys.run(THREADS, |ctx| {
        for _ in 0..ITERS {
            ctx.lock(lock);
            let v = ctx.read_u64(counter);
            ctx.write_u64(counter, v + 1);
            ctx.unlock(lock);
        }
    });
    let mut buf = [0u8; 8];
    sys.read_global(counter, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), THREADS as u64 * ITERS);
}

#[test]
fn fine_grain_updates_travel_with_the_lock_without_refetch() {
    // A ping-pong over one lock-protected word: with update-carrying
    // notices, the receiving cache applies the bytes in place instead of
    // invalidating and refetching the page.
    let sys = Samhita::new(small());
    let word = sys.alloc_global(8);
    let lock = sys.create_mutex();
    let barrier = sys.create_barrier(2);
    let report = sys.run(2, |ctx| {
        // Warm both caches so steady state is measured.
        let _ = ctx.read_u64(word);
        ctx.barrier(barrier);
        for round in 0..20u64 {
            ctx.lock(lock);
            let v = ctx.read_u64(word);
            ctx.write_u64(word, v + 1);
            ctx.unlock(lock);
            ctx.barrier(barrier);
            assert_eq!(ctx.read_u64(word), (round + 1) * 2, "tid {}", ctx.tid());
        }
    });
    // The word's page is only ever written in consistency regions: no page
    // refetch should have happened after warm-up.
    assert_eq!(
        report.total_of(|t| t.page_refetches),
        0,
        "fine-grain updates must be applied in place"
    );
    let mut buf = [0u8; 8];
    sys.read_global(word, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 40);
}

#[test]
fn ordinary_writes_invalidate_and_refetch() {
    // The counterpart: the same ping-pong with the shared word written in
    // an ORDINARY region (outside any lock), alternating by barrier parity.
    // Page-granularity notices force invalidation + refetch on the reader.
    let sys = Samhita::new(small());
    let word = sys.alloc_global(8);
    let barrier = sys.create_barrier(2);
    let report = sys.run(2, |ctx| {
        let _ = ctx.read_u64(word);
        ctx.barrier(barrier);
        for round in 0..10u64 {
            if round % 2 == ctx.tid() as u64 % 2 {
                ctx.write_u64(word, round + 1);
            }
            ctx.barrier(barrier);
            assert_eq!(ctx.read_u64(word), round + 1);
            ctx.barrier(barrier);
        }
    });
    assert!(
        report.total_of(|t| t.page_refetches) > 0,
        "ordinary-region sharing must show up as refetch traffic"
    );
    assert!(report.total_of(|t| t.invalidations) > 0);
}

#[test]
fn mixed_region_writes_do_not_double_propagate_end_to_end() {
    // Thread 0 writes word A ordinarily and word B under the lock, on the
    // SAME page; thread 1 then updates B under the lock. Thread 0's later
    // barrier flush (the ordinary diff) must not resurrect its old B.
    let sys = Samhita::new(small());
    let page = sys.alloc_global(sys.config().page_size as u64);
    let a = page;
    let b = page + 64;
    let lock = sys.create_mutex();
    let barrier = sys.create_barrier(2);
    sys.run(2, |ctx| {
        if ctx.tid() == 0 {
            ctx.write_u64(a, 11); // ordinary: twin created
            ctx.lock(lock);
            ctx.write_u64(b, 1); // fine-grain, written through the twin
            ctx.unlock(lock);
        }
        ctx.barrier(barrier); // t0's diff (A only) + fine update (B=1) land
        if ctx.tid() == 1 {
            ctx.lock(lock);
            assert_eq!(ctx.read_u64(b), 1);
            ctx.write_u64(b, 2);
            ctx.unlock(lock);
        }
        ctx.barrier(barrier);
        assert_eq!(ctx.read_u64(a), 11);
        assert_eq!(ctx.read_u64(b), 2, "old B must not be resurrected by the diff");
    });
}

#[test]
fn eviction_pressure_preserves_correctness() {
    // A cache of 4 lines (8 tiny pages) forced to stream through 64 pages
    // of writes: every line is evicted many times; the data must still be
    // exact at the home afterwards.
    let cfg = SamhitaConfig { cache_capacity_lines: 4, ..small() };
    let page = cfg.page_size as u64;
    let sys = Samhita::new(cfg);
    let span = 64 * page;
    let addr = sys.alloc_global(span);
    let report = sys.run(1, |ctx| {
        for p in 0..64u64 {
            ctx.write_u64(addr + p * page, p + 1000);
        }
    });
    assert!(report.threads[0].evictions > 0, "the workload must thrash the cache");
    for p in 0..64u64 {
        let mut buf = [0u8; 8];
        sys.read_global(addr + p * page, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), p + 1000, "page {p} lost its eviction flush");
    }
}

#[test]
fn whole_page_ablation_variant_is_still_correct() {
    let cfg = SamhitaConfig { consistency: ConsistencyVariant::WholePage, ..small() };
    let sys = Samhita::new(cfg);
    let counter = sys.alloc_global(8);
    let lock = sys.create_mutex();
    sys.run(4, |ctx| {
        for _ in 0..25 {
            ctx.lock(lock);
            let v = ctx.read_u64(counter);
            ctx.write_u64(counter, v + 1);
            ctx.unlock(lock);
        }
    });
    let mut buf = [0u8; 8];
    sys.read_global(counter, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 100);
}

#[test]
fn manager_bypass_variant_is_still_correct() {
    let cfg = SamhitaConfig {
        topology: TopologyKind::SingleNode,
        manager_bypass: true,
        tracing: true,
        ..small()
    };
    let sys = Samhita::new(cfg);
    let counter = sys.alloc_global(8);
    let data = sys.alloc_global(4096);
    let lock = sys.create_mutex();
    let barrier = sys.create_barrier(4);
    sys.run(4, |ctx| {
        // Ordinary writes to disjoint ranges + lock-protected counter.
        let mine = data + ctx.tid() as u64 * 1024;
        for i in 0..128u64 {
            ctx.write_u64(mine + i * 8, i);
        }
        ctx.lock(lock);
        let v = ctx.read_u64(counter);
        ctx.write_u64(counter, v + 1);
        ctx.unlock(lock);
        ctx.barrier(barrier);
        assert_eq!(ctx.read_u64(counter), 4);
        // Everyone sees everyone's ordinary writes too.
        for t in 0..4u64 {
            assert_eq!(ctx.read_u64(data + t * 1024 + 8 * 100), 100);
        }
    });
    // The bypass makes the one arbiter cheaper to reach; it does not go
    // round it.
    let trace = sys.take_trace().expect("tracing enabled");
    let (acquires, barrier_waits) = (served(&trace, "acquire"), served(&trace, "barrier-wait"));
    assert!(
        acquires > 0 && barrier_waits > 0,
        "{acquires} acquires, {barrier_waits} barrier waits"
    );
}

#[test]
fn lru_eviction_policy_is_correct_too() {
    let cfg = SamhitaConfig { cache_capacity_lines: 4, eviction: EvictionPolicy::Lru, ..small() };
    let page = cfg.page_size as u64;
    let sys = Samhita::new(cfg);
    let addr = sys.alloc_global(32 * page);
    sys.run(2, |ctx| {
        let base = addr + ctx.tid() as u64 * 16 * page;
        for p in 0..16u64 {
            ctx.write_u64(base + p * page, p);
        }
        for p in 0..16u64 {
            assert_eq!(ctx.read_u64(base + p * page), p);
        }
    });
}

#[test]
fn condvar_handoff_with_waiting_consumer() {
    // Consumer reaches the wait first (physical sleep on the producer), the
    // producer's signal re-grants the lock, and the consistency machinery
    // delivers the produced value — with the manager a fabric crossing away
    // and under the §V bypass alike (the lock and the condition variable
    // must live in one place), whichever thread the tie-break runs first.
    let bypass = SamhitaConfig { manager_bypass: true, ..small() };
    for cfg in [small(), bypass] {
        for sched_seed in 0..8 {
            let sys = Samhita::new(SamhitaConfig { sched_seed, tracing: true, ..cfg.clone() });
            let stats = condvar_handoff(&sys);
            assert_eq!(stats.threads.len(), 2);
            let trace = sys.take_trace().expect("tracing enabled");
            assert!(served(&trace, "cond-wait") >= 1, "the consumer must actually have waited");
        }
    }
}

/// A consumer waits on a condition variable for a value a producer, later
/// in virtual time, stores and signals under the lock.
fn condvar_handoff(sys: &Samhita) -> RunReport {
    let flag = sys.alloc_global(8);
    let value = sys.alloc_global(8);
    let lock = sys.create_mutex();
    let cond = sys.create_cond();
    sys.run(2, |ctx| {
        if ctx.tid() == 0 {
            // Consumer.
            ctx.lock(lock);
            while ctx.read_u64(flag) == 0 {
                ctx.cond_wait(cond, lock);
            }
            assert_eq!(ctx.read_u64(value), 99);
            ctx.unlock(lock);
        } else {
            // Producer, delayed so the consumer actually waits: the compute
            // charge pushes its lock acquisition later in *virtual* time,
            // which is what the scheduler orders by.
            ctx.compute(100_000);
            ctx.lock(lock);
            ctx.write_u64(value, 99);
            ctx.write_u64(flag, 1);
            ctx.cond_signal(cond);
            ctx.unlock(lock);
        }
    })
}

/// A condition wait's re-acquire is a lock acquisition like any other: a
/// `LockAcquire` event, a lock wait and a count in `locks_acquired` — and the
/// program's tracks fold into exactly its threads' statistics.
#[test]
fn a_condition_wait_reacquire_counts_as_a_lock_acquisition() {
    for sched_seed in 0..4 {
        let sys = Samhita::new(SamhitaConfig { tracing: true, sched_seed, ..small() });
        let report = condvar_handoff(&sys);
        let trace = sys.take_trace().expect("tracing enabled");
        let acquires = (trace.tracks.iter().flat_map(|(_, events)| events))
            .filter(|e| matches!(e.kind, EventKind::LockAcquire { .. }))
            .count() as u64;
        let what = format!("sched_seed {sched_seed}");
        assert_eq!(report.total_of(|t| t.locks_acquired), acquires, "{what}");
        assert_eq!(report.lock_wait().count(), acquires, "{what}");
        assert_eq!(acquires, 2 + served(&trace, "cond-wait"), "{what}: two locks, the re-acquires");
        fold::assert_tracks_fold_into(&report, &trace, &what);
    }
}

// ---------------------------------------------------------------------
// The corners of the notice merge (one run-encoded set per grant instead
// of the log suffix), end to end: each program runs on plain shared memory
// (`NativeRt`) and on the DSM in three configurations, and must leave the
// same doubles behind — the shared page and, per thread, a running sum of
// everything it read back after each barrier.
// ---------------------------------------------------------------------

const THREADS: usize = 4;
const ROUNDS: usize = 6;
/// One test page of doubles (256 bytes): every store below lands on it.
const PAGE_F64S: usize = 32;

/// Run `stores(ctx, thread, round, page, lock)` for `ROUNDS` rounds on
/// `THREADS` threads of every backend, a barrier after each round's stores
/// and another after everyone has read the whole page back. Returns the
/// page as native memory leaves it, then each thread's sum of all it read,
/// after checking that every DSM configuration leaves exactly the same.
fn same_on_every_backend(
    what: &str,
    stores: impl Fn(&mut dyn KernelCtx, usize, usize, u64, u32) + Sync,
) -> Vec<f64> {
    let program = |rt: &dyn KernelRt| {
        let page = rt.alloc_f64_global(PAGE_F64S);
        // Thread `t` keeps its sum on a page of its own.
        let sums = rt.alloc_f64_global(THREADS * PAGE_F64S);
        let (lock, barrier) = (rt.mutex(), rt.barrier(THREADS as u32));
        rt.run(THREADS as u32, &|ctx| {
            let t = ctx.tid() as usize;
            let mut sum = 0.0;
            for round in 0..ROUNDS {
                stores(ctx, t, round, page, lock);
                ctx.barrier_wait(barrier);
                let mut all = [0.0; PAGE_F64S];
                ctx.read_block(page, 0, &mut all);
                sum += all.iter().sum::<f64>();
                ctx.barrier_wait(barrier);
            }
            ctx.write(sums, t * PAGE_F64S, sum);
        });
        let mut out = rt.fetch_f64(page, PAGE_F64S);
        out.extend(rt.fetch_f64(sums, THREADS * PAGE_F64S).iter().step_by(PAGE_F64S));
        out
    };
    let want = program(&NativeRt::default());
    let bypass = SamhitaConfig { manager_bypass: true, ..small() };
    let no_prefetch = SamhitaConfig { prefetch: false, cache_capacity_lines: 4, ..small() };
    for (name, cfg) in [("manager", small()), ("bypass", bypass), ("no prefetch", no_prefetch)] {
        assert_eq!(program(&SamhitaRt::new(cfg)), want, "{what}: DSM ({name}) vs native");
    }
    want
}

#[test]
fn a_lock_protected_chain_over_a_false_shared_page_matches_native() {
    // Element 0 is a counter every thread bumps under the lock; element
    // 1 + t is thread t's own, stored outside it. One page: each grant's
    // unseen notices invalidate it on one writer's account and carry the
    // counter in earlier and later ones.
    let result = same_on_every_backend("false-shared chain", |ctx, t, round, page, lock| {
        ctx.write(page, 1 + t, (round * 10 + t) as f64);
        ctx.lock(lock);
        let counter = ctx.read(page, 0);
        ctx.write(page, 0, counter + (t + 1) as f64);
        ctx.unlock(lock);
    });
    let bumps: usize = (1..=THREADS).sum();
    assert_eq!(result[0], (ROUNDS * bumps) as f64, "the counter lost an update");
}

#[test]
fn mixed_region_stores_to_one_page_match_native() {
    // Per round each thread stores to its own slot outside the lock and,
    // inside it, to its own protected slot and to one all threads share —
    // all on one page, so the same flush names the page and carries
    // updates to it, and other threads' identical-range updates pile up.
    let result = same_on_every_backend("mixed regions", |ctx, t, round, page, lock| {
        if (round + t).is_multiple_of(2) {
            ctx.write(page, 8 + t, (100 * round + t) as f64); // ordinary
        }
        ctx.lock(lock);
        ctx.write(page, 16 + t, (round * round + t) as f64); // protected, own
        let shared = ctx.read(page, 0);
        ctx.write(page, 0, shared.max((round * 4 + t) as f64)); // protected, shared
        ctx.unlock(lock);
    });
    assert_eq!(result[0], ((ROUNDS - 1) * 4 + THREADS - 1) as f64);
}

#[test]
fn two_writers_of_one_page_across_a_barrier_match_native() {
    // Threads 0 and 1 rewrite disjoint halves of one page every round;
    // everyone reads the whole page after the barrier. Each writer must be
    // told about the page on the other's account, and nobody on its own.
    let half = PAGE_F64S / 2;
    let result = same_on_every_backend("two writers", |ctx, t, round, page, _| {
        if t < 2 {
            let mine: Vec<f64> = (0..half).map(|i| (round * 1000 + t * 100 + i) as f64).collect();
            ctx.write_block(page, t * half, &mine);
        }
    });
    assert_eq!(result[half], ((ROUNDS - 1) * 1000 + 100) as f64, "thread 1's half");
    assert_eq!(result[PAGE_F64S], result[PAGE_F64S + 3], "every thread read the same pages");
}

// ---------------------------------------------------------------------
// A line whose pages the reader has not all used. Its invalidated pages
// are revalidated by what the reader touches; a page it has never touched
// stays invalid until it is, and must then be fetched fresh.
// ---------------------------------------------------------------------

/// Four-page lines. Of each line the reader uses page `A` and page `D`
/// from the start, dirties page `C` between them right before it faults on
/// `A`, and first touches page `B` only after the others wrote it again.
const ROLE_A: u64 = 0;
const ROLE_C: u64 = 1;
const ROLE_D: u64 = 2;
const ROLE_B: u64 = 3;
const PARTIAL_LINE_PAGES: u64 = 4;
const PARTIAL_WRITERS: u64 = 3;
const PARTIAL_ROUNDS: u64 = 3;
const LINES_PER_ROUND: u64 = 2;

/// The word `writer` (0 = the reader) leaves at its own offset of `page`
/// of line `line` in `phase` of `round`.
fn partial_word(round: u64, phase: u64, writer: u64, line: u64, page: u64) -> u64 {
    ((round * 3 + phase) << 32) | (writer << 24) | (line << 8) | (page + 1)
}

/// The reader is thread 0, the writers 1..=3, each line's words at
/// `8 · writer` of each page. Per round, on lines of its own:
///
/// 1. the reader reads `A` and `D` (installing the line);
/// 2. the writers store to `A`, `D` and `B`, and a barrier invalidates all
///    three in the reader's cache;
/// 3. the reader stores to `C`, then reads `A` and `D`: a refetch that may
///    leave `B` invalid, and must keep the dirty `C`. With `filler` lines,
///    it then reads as many lines of its own, evicting;
/// 4. the writers store to `D` again, and after a barrier that invalidates
///    `D` but not `B` the reader reads `B` for the first time since it was
///    installed, and then `D`;
/// 5. the writers store to `B` again, and after a barrier the reader reads
///    the latest `B`.
fn run_partial_refetch(cfg: SamhitaConfig, filler: u64) {
    let at = format!(
        "cache {} lines, filler {filler}, sched_seed {}",
        cfg.cache_capacity_lines, cfg.sched_seed
    );
    let sys = Samhita::new(cfg);
    let page = sys.config().page_size as u64;
    let line_bytes = sys.config().line_bytes() as u64;
    assert_eq!(line_bytes, PARTIAL_LINE_PAGES * page);
    let lines = PARTIAL_ROUNDS * LINES_PER_ROUND;
    let raw = sys.alloc_global((lines + filler + 1) * line_bytes);
    let base = raw.next_multiple_of(line_bytes);
    let fill = base + lines * line_bytes;
    let word = |line: u64, page_in_line: u64, writer: u64| {
        base + line * line_bytes + page_in_line * page + 8 * writer
    };
    let barrier = sys.create_barrier(1 + PARTIAL_WRITERS as u32);
    let report = sys.run(1 + PARTIAL_WRITERS as u32, |ctx| {
        let me = u64::from(ctx.tid());
        for round in 0..PARTIAL_ROUNDS {
            let mine = round * LINES_PER_ROUND..(round + 1) * LINES_PER_ROUND;
            if me == 0 {
                for line in mine.clone() {
                    ctx.read_u64(word(line, ROLE_A, 1));
                    ctx.read_u64(word(line, ROLE_D, 1));
                }
            }
            ctx.barrier(barrier);
            if me > 0 {
                for line in mine.clone() {
                    for role in [ROLE_A, ROLE_D, ROLE_B] {
                        ctx.write_u64(word(line, role, me), partial_word(round, 0, me, line, role));
                    }
                }
            }
            ctx.barrier(barrier);
            if me == 0 {
                for line in mine.clone() {
                    ctx.write_u64(word(line, ROLE_C, 0), partial_word(round, 0, 0, line, ROLE_C));
                    for w in 1..=PARTIAL_WRITERS {
                        for role in [ROLE_A, ROLE_D] {
                            let want = partial_word(round, 0, w, line, role);
                            let got = ctx.read_u64(word(line, role, w));
                            assert_eq!(got, want, "{at}: line {line} page {role} writer {w}");
                        }
                    }
                }
                for l in 0..filler {
                    ctx.read_u64(fill + l * line_bytes);
                }
            }
            // Phase 1 rewrites `D`, phase 2 `B`; after each the reader
            // reads `B` (last written in phase `b_phase`), then `D`.
            for (phase, role, b_phase) in [(1, ROLE_D, 0), (2, ROLE_B, 2)] {
                ctx.barrier(barrier);
                if me > 0 {
                    for line in mine.clone() {
                        ctx.write_u64(
                            word(line, role, me),
                            partial_word(round, phase, me, line, role),
                        );
                    }
                }
                ctx.barrier(barrier);
                if me == 0 {
                    for line in mine.clone() {
                        for w in 1..=PARTIAL_WRITERS {
                            for (role, phase) in [(ROLE_B, b_phase), (ROLE_D, 1)] {
                                let want = partial_word(round, phase, w, line, role);
                                let got = ctx.read_u64(word(line, role, w));
                                assert_eq!(got, want, "{at}: line {line} page {role} writer {w}");
                            }
                        }
                    }
                }
            }
        }
    });
    assert!(report.threads[0].page_refetches >= lines, "{at}: the reader must refetch");
    for line in 0..lines {
        let round = line / LINES_PER_ROUND;
        let check = |role: u64, writer: u64, phase: u64| {
            let mut buf = [0u8; 8];
            sys.read_global(word(line, role, writer), &mut buf);
            let want = partial_word(round, phase, writer, line, role);
            assert_eq!(u64::from_le_bytes(buf), want, "{at}: home of line {line} page {role}");
        };
        check(ROLE_C, 0, 0);
        for w in 1..=PARTIAL_WRITERS {
            check(ROLE_A, w, 0);
            check(ROLE_D, w, 1);
            check(ROLE_B, w, 2);
        }
    }
    let trace = sys.take_trace().expect("tracing was enabled");
    trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
}

/// `base` at `sched_seed` 0..8, each seed with a delay-only fault plan of
/// its own: 30 % of messages take a 3 µs spike.
fn delay_plans(base: SamhitaConfig) -> impl Iterator<Item = SamhitaConfig> {
    (0..8u64).map(move |s| SamhitaConfig {
        sched_seed: s,
        faults: samhita_repro::core::FaultConfig::lossy(s, 0.0, 0.0, 0.3, 3_000),
        tracing: true,
        ..base.clone()
    })
}

#[test]
fn a_page_first_read_after_a_partial_refetch_is_the_latest() {
    let base = SamhitaConfig { line_pages: PARTIAL_LINE_PAGES as u32, ..small() };
    for cfg in delay_plans(base) {
        run_partial_refetch(cfg, 0);
    }
}

#[test]
fn a_partial_refetch_in_a_cache_that_evicts_keeps_every_write() {
    for (capacity, filler) in [(2, 1), (3, 2), (4, 3)] {
        let base = SamhitaConfig {
            line_pages: PARTIAL_LINE_PAGES as u32,
            cache_capacity_lines: capacity,
            ..small()
        };
        for cfg in delay_plans(base) {
            run_partial_refetch(cfg, filler);
        }
    }
}

/// A thread can write, flush and arrive at a barrier before another has
/// even registered (registration is setup: a thread's clock starts after
/// it). The late registrant is never sent that notice, so its first fetch
/// of the line — which may reach the home before the delayed flush does —
/// must follow the batches the run published before it registered, or it
/// reads the page stale after the barrier.
#[test]
fn a_thread_that_registers_late_reads_what_was_flushed_before() {
    const T: u64 = 4;
    let base = SamhitaConfig { line_pages: T as u32, ..small() };
    for cfg in delay_plans(base) {
        let seed = cfg.sched_seed;
        let sys = Samhita::new(cfg);
        let ps = sys.config().page_size as u64;
        let line_bytes = sys.config().line_bytes() as u64;
        let line = sys.alloc_global(2 * line_bytes).next_multiple_of(line_bytes);
        let barrier = sys.create_barrier(T as u32);
        sys.run(T as u32, |ctx| {
            let me = u64::from(ctx.tid());
            ctx.write_u64(line + me * ps, me + 1);
            ctx.barrier(barrier);
            for t in 0..T {
                let got = ctx.read_u64(line + t * ps);
                assert_eq!(got, t + 1, "sched_seed {seed}: thread {me} reads page {t}");
            }
        });
    }
}

// ---------------------------------------------------------------------
// Pages refetched before they are read. Under RegC a page invalidated at a
// release is owed to its reader only at the next read, so fetching it
// earlier is allowed — as long as what arrives is at least as recent as
// what the reader holds by the time it reads: newer than the writes the
// release named, older than none of the reader's own stores, and dropped
// if another notice or an eviction overtakes it.
// ---------------------------------------------------------------------

/// Four-page lines. Of each line the reader uses pages `A`, `N` and `B`;
/// only the writers store to `A` and `B`, only the reader to `N`, which
/// lies between them.
const EAGER_A: u64 = 0;
const EAGER_N: u64 = 1;
const EAGER_B: u64 = 2;
const EAGER_LINE_PAGES: u64 = 4;
const EAGER_WRITERS: u64 = 3;
const EAGER_ROUNDS: u64 = 3;
/// Lines per round: the first is read after one release, the second only
/// after a second release has invalidated its pages again.
const EAGER_LINES_PER_ROUND: u64 = 2;

/// The word `writer` (0 = the reader) leaves at its own offset of `page`
/// of line `line` in `phase` of `round`.
fn eager_word(round: u64, phase: u64, writer: u64, line: u64, page: u64) -> u64 {
    ((round * 2 + phase + 1) << 32) | (writer << 24) | (line << 8) | (page + 1)
}

/// The reader is thread 0, the writers 1..=3, each line's words at
/// `8 · writer` of each page. Per round, on two lines of its own:
///
/// 1. the reader reads `A`, `N` and `B` of both lines, installing them;
/// 2. the writers store to `A` and `B` of both, and a barrier invalidates
///    them in the reader's cache;
/// 3. the reader stores to `N` of both — a clean page between two it has
///    used that are now invalid — and flushes it at a lock. With `filler`
///    lines it then reads as many lines of its own, evicting. It reads the
///    first line back: the writers' `A` and `B`, its own `N`;
/// 4. the writers store to `A` and `B` of the second line again, and after
///    a barrier that invalidates them once more the reader reads the
///    second line: the writers' latest, and its own `N`.
fn run_eager_refetch(cfg: SamhitaConfig, filler: u64) {
    let at = format!(
        "cache {} lines, filler {filler}, sched_seed {}",
        cfg.cache_capacity_lines, cfg.sched_seed
    );
    let sys = Samhita::new(cfg);
    let page = sys.config().page_size as u64;
    let line_bytes = sys.config().line_bytes() as u64;
    assert_eq!(line_bytes, EAGER_LINE_PAGES * page);
    let lines = EAGER_ROUNDS * EAGER_LINES_PER_ROUND;
    let raw = sys.alloc_global((lines + filler + 1) * line_bytes);
    let base = raw.next_multiple_of(line_bytes);
    let fill = base + lines * line_bytes;
    let word = |line: u64, page_in_line: u64, writer: u64| {
        base + line * line_bytes + page_in_line * page + 8 * writer
    };
    let barrier = sys.create_barrier(1 + EAGER_WRITERS as u32);
    let lock = sys.create_mutex();
    sys.run(1 + EAGER_WRITERS as u32, |ctx| {
        let me = u64::from(ctx.tid());
        // The reader's check of `line`: the writers' words of `phase`, its
        // own `N` of this round.
        let check = |ctx: &mut samhita_repro::core::ThreadCtx, round, phase, line| {
            for w in 1..=EAGER_WRITERS {
                for role in [EAGER_A, EAGER_B] {
                    let want = eager_word(round, phase, w, line, role);
                    let got = ctx.read_u64(word(line, role, w));
                    assert_eq!(got, want, "{at}: line {line} page {role} writer {w}");
                }
            }
            let got = ctx.read_u64(word(line, EAGER_N, 0));
            assert_eq!(got, eager_word(round, 0, 0, line, EAGER_N), "{at}: line {line} page N");
        };
        for round in 0..EAGER_ROUNDS {
            let first = round * EAGER_LINES_PER_ROUND;
            let mine = first..first + EAGER_LINES_PER_ROUND;
            if me == 0 {
                for line in mine.clone() {
                    for role in [EAGER_A, EAGER_N, EAGER_B] {
                        ctx.read_u64(word(line, role, 1));
                    }
                }
            }
            ctx.barrier(barrier);
            if me > 0 {
                for line in mine.clone() {
                    for role in [EAGER_A, EAGER_B] {
                        ctx.write_u64(word(line, role, me), eager_word(round, 0, me, line, role));
                    }
                }
            }
            ctx.barrier(barrier);
            if me == 0 {
                for line in mine.clone() {
                    ctx.write_u64(word(line, EAGER_N, 0), eager_word(round, 0, 0, line, EAGER_N));
                }
                ctx.lock(lock);
                ctx.unlock(lock);
                for l in 0..filler {
                    ctx.read_u64(fill + l * line_bytes);
                }
                check(ctx, round, 0, first);
            } else {
                for role in [EAGER_A, EAGER_B] {
                    let line = first + 1;
                    ctx.write_u64(word(line, role, me), eager_word(round, 1, me, line, role));
                }
            }
            ctx.barrier(barrier);
            if me == 0 {
                check(ctx, round, 1, first + 1);
            }
        }
    });
    for line in 0..lines {
        let (round, phase) = (line / EAGER_LINES_PER_ROUND, line % EAGER_LINES_PER_ROUND);
        let home = |role: u64, writer: u64, phase: u64| {
            let mut buf = [0u8; 8];
            sys.read_global(word(line, role, writer), &mut buf);
            let want = eager_word(round, phase, writer, line, role);
            assert_eq!(u64::from_le_bytes(buf), want, "{at}: home of line {line} page {role}");
        };
        home(EAGER_N, 0, 0);
        for w in 1..=EAGER_WRITERS {
            home(EAGER_A, w, phase);
            home(EAGER_B, w, phase);
        }
    }
    let trace = sys.take_trace().expect("tracing was enabled");
    trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
}

#[test]
fn a_page_refetched_before_it_is_read_is_the_latest() {
    let base = SamhitaConfig { line_pages: EAGER_LINE_PAGES as u32, prefetch: true, ..small() };
    for cfg in delay_plans(base) {
        run_eager_refetch(cfg, 0);
    }
}

#[test]
fn a_page_refetched_before_it_is_read_in_a_cache_that_evicts_keeps_every_write() {
    for (capacity, filler) in [(2, 2), (3, 3), (4, 4)] {
        let base = SamhitaConfig {
            line_pages: EAGER_LINE_PAGES as u32,
            cache_capacity_lines: capacity,
            prefetch: true,
            ..small()
        };
        for cfg in delay_plans(base) {
            run_eager_refetch(cfg, filler);
        }
    }
}

// ---------------------------------------------------------------------
// Stores that overwrite a whole page. Under RegC an ordinary-region store
// is owed its page only at the next synchronization, so a page a thread
// overwrites whole needs none of the home's bytes — but every other page
// of its line, every earlier writer of the page and every prefetch of the
// line still does.
// ---------------------------------------------------------------------

const WHOLE_THREADS: u64 = 4;
const WHOLE_ROUNDS: u64 = 3;
const WHOLE_LINE_PAGES: u64 = 4;
/// Lines per round: one per program below, and the line a prefetch of
/// the fourth comes from.
const WHOLE_LINES_PER_ROUND: u64 = 5;

/// The word a program's `step` leaves at `word` of `page` of `line` in
/// `round`: never zero, unless `holes` asks for a zero at every even word
/// (a store that must still clear what an earlier writer left there).
fn whole_word(round: u64, step: u64, line: u64, page: u64, word: u64, holes: bool) -> u64 {
    if holes && word.is_multiple_of(2) {
        return 0;
    }
    (round << 48) | (step << 40) | (line << 24) | (page << 16) | (word + 1)
}

/// Four threads, four-page lines, per round on lines of its own:
///
/// 1. *A line others wrote.* Threads 1–3 overwrite pages 1–3 of line `A`
///    whole; after a barrier thread 0 overwrites page 0 (its first touch
///    of the line) with holes in it, then reads page 1; thread 2
///    overwrites page 3 with holes; threads 1 and 3 store a few words into
///    pages 2 and 1. After a barrier everyone reads the line.
/// 2. *A page a notice invalidated, beside dirty pages.* Thread 0 reads
///    line `B`; threads 1 and 2 overwrite pages 0 and 2. After a barrier
///    that invalidates both in thread 0's cache, thread 0 stores words into
///    pages 1 and 3, then overwrites page 0 with holes, while thread 3 —
///    which never held the line — doubles every element of page 2 in place.
///    After a barrier everyone reads the line.
/// 3. *A page whose line is being prefetched.* Thread 0 misses on line
///    `C − 1`, which prefetches `C`, overwrites page 0 of `C` while that
///    prefetch is out, reads its `filler` lines and reads the page back.
/// 4. *A whole page stored under a lock.* Every thread in turn takes the
///    lock, reads a counter and overwrites page `Q` with a pattern of the
///    count; after a barrier everyone reads `Q`.
///
/// With `filler` lines every thread reads as many lines of its own after
/// each check, evicting.
fn run_whole_page(cfg: SamhitaConfig, filler: u64) {
    let at = format!(
        "cache {} lines, filler {filler}, sched_seed {}, {:?}",
        cfg.cache_capacity_lines, cfg.sched_seed, cfg.consistency
    );
    let sys = Samhita::new(cfg);
    let ps = sys.config().page_size as u64;
    let words = ps / 8;
    let line_bytes = sys.config().line_bytes() as u64;
    assert_eq!(line_bytes, WHOLE_LINE_PAGES * ps);
    let lines = WHOLE_ROUNDS * WHOLE_LINES_PER_ROUND + 2 + WHOLE_THREADS * filler;
    let raw = sys.alloc_global((lines + 1) * line_bytes);
    let base = raw.next_multiple_of(line_bytes);
    let page_at = |line: u64, page: u64| base + line * line_bytes + page * ps;
    let (q_line, counter_line) = (WHOLE_ROUNDS * WHOLE_LINES_PER_ROUND, lines - 1);
    let counter_line = counter_line.min(q_line + 1);
    let fill_line = |t: u64, l: u64| q_line + 2 + t * filler + l;
    let barrier = sys.create_barrier(WHOLE_THREADS as u32);
    let lock = sys.create_mutex();

    // The bytes of a page of words.
    let page_bytes = |word: &dyn Fn(u64) -> u64| -> Vec<u8> {
        (0..words).flat_map(|w| word(w).to_le_bytes()).collect()
    };
    // The words `step` leaves on `page` of `line`, and the few words a
    // partial store leaves there: words 0..3, so a reader keeps off them.
    let whole = |round, step, line, page, holes| {
        page_bytes(&|w| whole_word(round, step, line, page, w, holes))
    };
    let partial = |round, step, line, page| -> Vec<u8> {
        (0..3).flat_map(|w| whole_word(round, step, line, page, w, false).to_le_bytes()).collect()
    };
    // Page 2 of line `B`: doubles, doubled in place by thread 3.
    let doubles =
        |round: u64| -> Vec<f64> { (0..words).map(|w| (round * 100 + w) as f64 + 0.5).collect() };
    // What every line holds after each program, page by page.
    let want_a = |round: u64, line: u64| -> [Vec<u8>; 4] {
        let with = |mut page: Vec<u8>, over: Vec<u8>| {
            page[..over.len()].copy_from_slice(&over);
            page
        };
        [
            whole(round, 1, line, 0, true),
            with(whole(round, 0, line, 1, false), partial(round, 1, line, 1)),
            with(whole(round, 0, line, 2, false), partial(round, 1, line, 2)),
            whole(round, 1, line, 3, true),
        ]
    };
    let want_b = |round: u64, line: u64| -> [Vec<u8>; 4] {
        let mut sparse = vec![0u8; ps as usize];
        let doubled: Vec<u8> =
            doubles(round).iter().flat_map(|v| (2.0 * v + 1.0).to_le_bytes()).collect();
        let mut one = sparse.clone();
        one[..24].copy_from_slice(&partial(round, 1, line, 1));
        sparse[..24].copy_from_slice(&partial(round, 1, line, 3));
        [whole(round, 1, line, 0, true), one, doubled, sparse]
    };
    let want_q = |count: u64| whole(count, 4, q_line, 0, count % 2 == 1);

    sys.run(WHOLE_THREADS as u32, |ctx| {
        let me = u64::from(ctx.tid());
        let read_page = |ctx: &mut samhita_repro::core::ThreadCtx, line, page| {
            let mut buf = vec![0u8; ps as usize];
            ctx.read_bytes(page_at(line, page), &mut buf);
            buf
        };
        let fill = |ctx: &mut samhita_repro::core::ThreadCtx| {
            for l in 0..filler {
                ctx.read_u64(page_at(fill_line(me, l), 0));
            }
        };
        for round in 0..WHOLE_ROUNDS {
            let line = |k: u64| round * WHOLE_LINES_PER_ROUND + k;
            let (a, b, c) = (line(0), line(1), line(3));

            // 1. A line others wrote.
            if me > 0 {
                ctx.write_bytes(page_at(a, me), &whole(round, 0, a, me, false));
            }
            ctx.barrier(barrier);
            match me {
                0 => {
                    ctx.write_bytes(page_at(a, 0), &whole(round, 1, a, 0, true));
                    let mut tail = vec![0u8; (ps - 64) as usize];
                    ctx.read_bytes(page_at(a, 1) + 64, &mut tail);
                    assert_eq!(tail, whole(round, 0, a, 1, false)[64..], "{at}: page 1 of A");
                }
                1 => ctx.write_bytes(page_at(a, 2), &partial(round, 1, a, 2)),
                2 => ctx.write_bytes(page_at(a, 3), &whole(round, 1, a, 3, true)),
                _ => ctx.write_bytes(page_at(a, 1), &partial(round, 1, a, 1)),
            }
            ctx.barrier(barrier);
            for (page, want) in want_a(round, a).iter().enumerate() {
                let got = read_page(ctx, a, page as u64);
                assert_eq!(&got, want, "{at}: thread {me} round {round} page {page} of A");
            }
            fill(ctx);

            // 2. A page a notice invalidated, beside dirty pages.
            match me {
                0 => (0..4).for_each(|page| drop(read_page(ctx, b, page))),
                1 => ctx.write_bytes(page_at(b, 0), &whole(round, 0, b, 0, false)),
                2 => ctx.write_f64_slice(page_at(b, 2), &doubles(round)),
                _ => {}
            }
            ctx.barrier(barrier);
            match me {
                0 => {
                    ctx.write_bytes(page_at(b, 1), &partial(round, 1, b, 1));
                    ctx.write_bytes(page_at(b, 3), &partial(round, 1, b, 3));
                    let values: Vec<f64> = whole(round, 1, b, 0, true)
                        .chunks_exact(8)
                        .map(|w| f64::from_le_bytes(w.try_into().expect("a word")))
                        .collect();
                    ctx.write_f64_slice(page_at(b, 0), &values);
                }
                3 => ctx.update_f64s(page_at(b, 2), words as usize, |_, x| 2.0 * x + 1.0),
                _ => {}
            }
            ctx.barrier(barrier);
            for (page, want) in want_b(round, b).iter().enumerate() {
                let got = read_page(ctx, b, page as u64);
                assert_eq!(&got, want, "{at}: thread {me} round {round} page {page} of B");
            }
            fill(ctx);

            // 3. A page whose line is being prefetched.
            if me == 0 {
                ctx.read_u64(page_at(c - 1, 0));
                ctx.write_bytes(page_at(c, 0), &whole(round, 3, c, 0, false));
                fill(ctx);
                let got = read_page(ctx, c, 0);
                assert_eq!(got, whole(round, 3, c, 0, false), "{at}: round {round} page 0 of C");
            }

            // 4. A whole page stored under a lock.
            ctx.lock(lock);
            let count = ctx.read_u64(page_at(counter_line, 0));
            ctx.write_bytes(page_at(q_line, 0), &want_q(count));
            ctx.write_u64(page_at(counter_line, 0), count + 1);
            ctx.unlock(lock);
            ctx.barrier(barrier);
            let got = read_page(ctx, q_line, 0);
            let last = (round + 1) * WHOLE_THREADS - 1;
            assert_eq!(got, want_q(last), "{at}: thread {me} round {round} page Q");
            ctx.barrier(barrier);
        }
    });
    let home = |line: u64, page: u64| {
        let mut buf = vec![0u8; ps as usize];
        sys.read_global(page_at(line, page), &mut buf);
        buf
    };
    for round in 0..WHOLE_ROUNDS {
        let line = |k: u64| round * WHOLE_LINES_PER_ROUND + k;
        for (page, want) in want_a(round, line(0)).iter().enumerate() {
            assert_eq!(&home(line(0), page as u64), want, "{at}: home of A, round {round}");
        }
        for (page, want) in want_b(round, line(1)).iter().enumerate() {
            assert_eq!(&home(line(1), page as u64), want, "{at}: home of B, round {round}");
        }
        let c = whole(round, 3, line(3), 0, false);
        assert_eq!(home(line(3), 0), c, "{at}: home of C, round {round}");
    }
    assert_eq!(home(q_line, 0), want_q(WHOLE_ROUNDS * WHOLE_THREADS - 1), "{at}: home of Q");
    let trace = sys.take_trace().expect("tracing was enabled");
    trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
}

#[test]
fn whole_page_overwrites_keep_every_other_write() {
    let base = SamhitaConfig { line_pages: WHOLE_LINE_PAGES as u32, ..small() };
    for cfg in delay_plans(base) {
        run_whole_page(cfg, 0);
    }
}

#[test]
fn whole_page_overwrites_in_a_cache_that_evicts_keep_every_other_write() {
    for (capacity, filler) in [(2, 1), (3, 2), (4, 3)] {
        let base = SamhitaConfig {
            line_pages: WHOLE_LINE_PAGES as u32,
            cache_capacity_lines: capacity,
            ..small()
        };
        for cfg in delay_plans(base) {
            run_whole_page(cfg, filler);
        }
    }
}

#[test]
fn whole_page_overwrites_under_the_whole_page_variant_keep_every_other_write() {
    // Every store is an ordinary-region store, so the one under the lock
    // overwrites a page other holders left invalid.
    let base = SamhitaConfig {
        line_pages: WHOLE_LINE_PAGES as u32,
        cache_capacity_lines: 3,
        consistency: ConsistencyVariant::WholePage,
        ..small()
    };
    for cfg in delay_plans(base) {
        run_whole_page(cfg, 2);
    }
}

/// Jacobi with one row to a page: at the quick scale's 1 KiB page, an
/// interior of 126 columns makes a 128-double row. Every destination row
/// is a pure store over a whole page, and a four-line cache (16 rows)
/// evicts each before the sweep that writes it again.
#[test]
fn jacobi_whose_rows_are_pages_fetches_and_twins_no_destination_page() {
    use samhita_repro::kernels::{run_jacobi, serial_reference_jacobi, JacobiParams};
    use samhita_repro::trace::{EventKind, TrackId};
    use std::collections::BTreeSet;

    let p = JacobiParams { n: 126, iters: 4, threads: 4 };
    let cfg = SamhitaConfig {
        page_size: 1024,
        cache_capacity_lines: 4,
        tracing: true,
        ..SamhitaConfig::default()
    };
    assert_eq!((p.n + 2) * 8, cfg.page_size, "a row is a page");
    let rt = SamhitaRt::new(cfg);
    let r = run_jacobi(&rt, &p);
    assert_eq!(r.grid, serial_reference_jacobi(p.n, p.iters));
    assert!(r.report.total_of(|t| t.evictions) > 0, "the cache must evict");
    assert_eq!(r.report.total_of(|t| t.twins_created), 0, "a destination page was twinned");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("RegC invariants hold");
    // Per thread and sweep — the stretch before each sweep's first barrier
    // — the pages it fetched and the pages it flushed: its destination
    // rows, each whole.
    for (track, events) in &trace.tracks {
        let TrackId::Thread(tid) = track else { continue };
        let mut arrivals = 0;
        let (mut fetched, mut flushed) = (BTreeSet::new(), BTreeSet::new());
        for e in events {
            match e.kind {
                EventKind::BarrierArrive { .. } => {
                    if arrivals % 3 == 0 {
                        let sweep = arrivals / 3;
                        assert!(!flushed.is_empty(), "thread {tid} sweep {sweep} wrote nothing");
                        let both: Vec<_> = fetched.intersection(&flushed).collect();
                        assert!(both.is_empty(), "thread {tid} sweep {sweep} fetched {both:?}");
                    }
                    arrivals += 1;
                    fetched.clear();
                    flushed.clear();
                }
                EventKind::Fetch { page, pages, .. } => {
                    fetched.extend(page..page + u64::from(pages));
                }
                EventKind::DiffFlush { page, bytes } => {
                    assert_eq!(bytes, 1024, "thread {tid} flushed page {page} in part");
                    flushed.insert(page);
                }
                _ => {}
            }
        }
        assert_eq!(arrivals, 3 * p.iters, "thread {tid}");
    }
}
