//! End-to-end tests of the three-strategy allocator: placement per size
//! class, free/reuse, arena isolation, overflow behaviour.

use samhita_repro::core::{Region, Samhita, SamhitaConfig};

fn system() -> Samhita {
    Samhita::new(SamhitaConfig::small_for_tests())
}

#[test]
fn size_classes_route_to_the_right_regions() {
    let sys = system();
    let cfg = sys.config().clone();
    let layout = *sys.layout();
    sys.run(1, |ctx| {
        // Strategy 1: small -> this thread's arena.
        let small = ctx.alloc(cfg.small_threshold, 8);
        assert_eq!(layout.region_of(small), Region::Arena(0));
        // Strategy 2: medium -> manager's shared zone.
        let medium = ctx.alloc(cfg.small_threshold + 1, 8);
        assert_eq!(layout.region_of(medium), Region::Shared);
        // Strategy 3: large -> striped region, line-aligned.
        let large = ctx.alloc(cfg.large_threshold, 8);
        assert_eq!(layout.region_of(large), Region::Striped);
        assert_eq!(large % layout.line_bytes, 0);
        ctx.free(small);
        ctx.free(medium);
        ctx.free(large);
    });
}

#[test]
fn arenas_isolate_threads_from_false_sharing_by_construction() {
    let sys = system();
    let layout = *sys.layout();
    let page = sys.config().page_size as u64;
    let barrier = sys.create_barrier(4);
    let probe = sys.alloc_global(4 * 8);
    sys.run(4, |ctx| {
        let a = ctx.alloc(256, 8);
        // Publish each thread's first page number through shared memory.
        assert_eq!(layout.region_of(a), Region::Arena(ctx.tid()));
        ctx.write_u64(probe + ctx.tid() as u64 * 8, a / page);
        ctx.barrier(barrier);
        // No two arenas may share a page (or a line).
        let mine = ctx.read_u64(probe + ctx.tid() as u64 * 8);
        for t in 0..4 {
            if t != ctx.tid() as u64 {
                let theirs = ctx.read_u64(probe + t * 8);
                assert_ne!(mine, theirs, "arena pages collide");
            }
        }
    });
}

#[test]
fn freed_memory_is_reused() {
    let sys = system();
    sys.run(1, |ctx| {
        // Arena reuse.
        let a = ctx.alloc(512, 8);
        ctx.free(a);
        let b = ctx.alloc(512, 8);
        assert_eq!(a, b, "first-fit must reuse the freed arena block");
        // Shared-zone reuse through the manager.
        let big = sys_shared_size();
        let c = ctx.alloc(big, 8);
        ctx.free(c);
        let d = ctx.alloc(big, 8);
        assert_eq!(c, d, "manager must reuse the freed shared block");
        ctx.free(b);
        ctx.free(d);
    });
}

fn sys_shared_size() -> u64 {
    SamhitaConfig::small_for_tests().small_threshold + 4096
}

#[test]
fn any_thread_may_free_manager_allocations() {
    let sys = system();
    let barrier = sys.create_barrier(2);
    let mailbox = sys.alloc_global(8);
    sys.run(2, |ctx| {
        if ctx.tid() == 0 {
            let addr = ctx.alloc(sys_shared_size(), 8);
            ctx.write_u64(mailbox, addr);
        }
        ctx.barrier(barrier);
        if ctx.tid() == 1 {
            let addr = ctx.read_u64(mailbox);
            ctx.free(addr); // cross-thread free of a shared-zone block
        }
    });
}

#[test]
#[should_panic(expected = "arena allocation")]
fn freeing_another_threads_arena_block_panics() {
    let sys = system();
    let barrier = sys.create_barrier(2);
    let mailbox = sys.alloc_global(8);
    sys.run(2, |ctx| {
        if ctx.tid() == 0 {
            let addr = ctx.alloc(64, 8);
            ctx.write_u64(mailbox, addr);
        }
        ctx.barrier(barrier);
        if ctx.tid() == 1 {
            let addr = ctx.read_u64(mailbox);
            ctx.free(addr); // not ours: must panic
        }
    });
}

#[test]
fn arena_overflow_spills_to_the_shared_zone() {
    let sys = system();
    let cfg = sys.config().clone();
    let layout = *sys.layout();
    sys.run(1, |ctx| {
        // Exhaust the (1 MiB test) arena with small allocations, then keep
        // allocating: the allocator must fall back to the manager rather
        // than fail.
        let chunk = cfg.small_threshold;
        let mut spilled = false;
        for _ in 0..(cfg.arena_bytes_per_thread / chunk + 4) {
            let a = ctx.alloc(chunk, 8);
            if layout.region_of(a) == Region::Shared {
                spilled = true;
                break;
            }
        }
        assert!(spilled, "arena exhaustion must overflow to the shared zone");
    });
}

#[test]
fn allocations_are_usable_across_their_whole_extent() {
    let sys = system();
    sys.run(1, |ctx| {
        let large = sys.config().large_threshold;
        let a = ctx.alloc(large, 8);
        // Touch first/last words of a striped allocation (different homes
        // when striping across servers).
        ctx.write_u64(a, 1);
        ctx.write_u64(a + large - 8, 2);
        assert_eq!(ctx.read_u64(a), 1);
        assert_eq!(ctx.read_u64(a + large - 8), 2);
        ctx.free(a);
    });
}

#[test]
fn striped_allocations_spread_across_servers() {
    let cfg = SamhitaConfig {
        mem_servers: 2,
        topology: samhita_repro::core::TopologyKind::Cluster { nodes: 8 },
        ..SamhitaConfig::small_for_tests()
    };
    let line = cfg.line_bytes() as u64;
    let sys = Samhita::new(cfg);
    let a = sys.alloc_global(sys.config().large_threshold);
    // Write one word into each of the first 8 lines, then check both
    // servers did work.
    sys.run(1, move |ctx| {
        for l in 0..8u64 {
            ctx.write_u64(a + l * line, l);
        }
    });
    let stats = sys.shutdown();
    assert_eq!(stats.len(), 2);
    for (i, s) in stats.iter().enumerate() {
        assert!(s.requests > 0, "server {i} saw no traffic: striping is broken");
    }
}
