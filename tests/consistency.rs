//! Cross-crate integration tests of the RegC consistency protocol on the
//! full system: multiple writers, lock-carried fine-grain updates,
//! invalidation-driven refetch, eviction under pressure — observed end to
//! end through real compute threads, the manager, and the memory servers.

use samhita_repro::core::{
    ConsistencyVariant, EvictionPolicy, Samhita, SamhitaConfig, TopologyKind,
};

fn small() -> SamhitaConfig {
    SamhitaConfig::small_for_tests()
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
    let cfg = SamhitaConfig { topology: TopologyKind::SingleNode, manager_bypass: true, ..small() };
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
    // delivers the produced value.
    let sys = Samhita::new(small());
    let flag = sys.alloc_global(8);
    let value = sys.alloc_global(8);
    let lock = sys.create_mutex();
    let cond = sys.create_cond();
    let stats = sys.run(2, |ctx| {
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
    });
    assert_eq!(stats.threads.len(), 2);
    let system_stats = sys.shutdown();
    assert!(system_stats.manager.cond_waits >= 1, "the consumer must actually have waited");
}
