//! Direct coverage of the `ThreadCtx` programming interface: typed and
//! byte-level accessors, page/line-spanning operations, region nesting,
//! timing accounting — the API surface a downstream application would
//! program against.

use samhita_repro::core::{Samhita, SamhitaConfig, ThreadCtx};

fn system() -> Samhita {
    Samhita::new(SamhitaConfig::small_for_tests()) // 256-byte pages, 2-page lines
}

#[test]
fn fresh_global_memory_reads_as_zero() {
    let sys = system();
    let addr = sys.alloc_global(4096);
    sys.run(1, |ctx| {
        assert_eq!(ctx.read_u64(addr), 0);
        assert_eq!(ctx.read_f64(addr + 1000), 0.0);
        let mut buf = vec![0xFFu8; 100];
        ctx.read_bytes(addr + 200, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "first touch must be zero-filled");
    });
}

#[test]
fn byte_writes_spanning_pages_and_lines() {
    let sys = system();
    let page = sys.config().page_size as u64;
    let line = sys.config().line_bytes() as u64;
    let addr = sys.alloc_global(8 * line);
    sys.run(1, move |ctx| {
        // A write crossing a page boundary within a line.
        let pattern: Vec<u8> = (0..100u8).collect();
        ctx.write_bytes(addr + page - 50, &pattern);
        let mut back = vec![0u8; 100];
        ctx.read_bytes(addr + page - 50, &mut back);
        assert_eq!(back, pattern);
        // A write crossing a line boundary.
        ctx.write_bytes(addr + line - 7, &pattern);
        let mut back = vec![0u8; 100];
        ctx.read_bytes(addr + line - 7, &mut back);
        assert_eq!(back, pattern);
        // A write spanning several whole lines.
        let big: Vec<u8> = (0..3 * line).map(|i| (i % 251) as u8).collect();
        ctx.write_bytes(addr + 3, &big);
        let mut back = vec![0u8; big.len()];
        ctx.read_bytes(addr + 3, &mut back);
        assert_eq!(back, big);
    });
}

#[test]
fn f64_slice_roundtrip_and_update() {
    let sys = system();
    let addr = sys.alloc_global(512 * 8);
    sys.run(1, move |ctx| {
        let values: Vec<f64> = (0..512).map(|i| (i as f64).sqrt()).collect();
        ctx.write_f64_slice(addr, &values);
        let mut back = vec![0.0; 512];
        ctx.read_f64_slice(addr, &mut back);
        assert_eq!(back, values);
        // In-place bulk update across many pages.
        ctx.update_f64s(addr, 512, |i0, xs| {
            for (k, x) in xs.iter_mut().enumerate() {
                *x += (i0 + k) as f64;
            }
        });
        for (i, want) in values.iter().enumerate() {
            assert_eq!(ctx.read_f64(addr + i as u64 * 8), want + i as f64);
        }
    });
}

/// The bytes of `n0` known doubles after one thread's `body` ran over them
/// on a fresh system, with the run's virtual report (its `Debug` form leaves
/// out the host clock). With `locked`, the body runs inside a critical
/// section, so its stores are logged at fine grain and flushed at unlock.
fn after_updating(
    cfg: &SamhitaConfig,
    n0: usize,
    locked: bool,
    body: impl Fn(&mut ThreadCtx, u64) + Send + Sync,
) -> (Vec<u8>, String) {
    let sys = Samhita::new(cfg.clone());
    let addr = sys.alloc_global(n0 as u64 * 8);
    let values: Vec<f64> = (0..n0).map(|i| 1.0 + i as f64 / 7.0).collect();
    sys.write_f64s(addr, &values);
    let lock = sys.create_mutex();
    let report = sys.run(1, |ctx| {
        if locked {
            ctx.lock(lock);
        }
        body(ctx, addr);
        if locked {
            ctx.unlock(lock);
        }
    });
    let mut bytes = vec![0u8; n0 * 8];
    sys.read_global(addr, &mut bytes);
    (bytes, format!("{report:?}"))
}

/// `update_f64s` over runs that start at, inside and at the end of a page,
/// span one to three pages, and fill no, one, several or part of a
/// 64-double run. Its bytes must be those of a load and a store per
/// element, and `f` must see each index once, in order. Its virtual
/// reports must be those of the one-double-at-a-time loop it replaced
/// (which charges its memory operations once, after the last page, so no
/// per-element program reproduces them): their FNV-1a over every case is
/// pinned.
#[test]
fn a_run_update_matches_the_per_element_reference() {
    let g = |i: usize, x: f64| x * 0.75 + i as f64;
    let mut reports = 0xcbf2_9ce4_8422_2325u64;
    for page_size in [256, 4096] {
        let cfg = SamhitaConfig { page_size, ..SamhitaConfig::small_for_tests() };
        let words = page_size / 8;
        for start in [0, words / 2 + 3, words - 1] {
            for n in [0, 1, 63, 64, 65, 513] {
                for locked in [false, true] {
                    let at = format!("page {page_size} B, start {start}, n {n}, locked {locked}");
                    let n0 = start + n + words;
                    let seen = std::sync::Mutex::new(Vec::new());
                    let run = after_updating(&cfg, n0, locked, |ctx, addr| {
                        ctx.update_f64s(addr + start as u64 * 8, n, |i0, xs| {
                            seen.lock().unwrap().extend(i0..i0 + xs.len());
                            for (k, x) in xs.iter_mut().enumerate() {
                                *x = g(i0 + k, *x);
                            }
                        });
                    });
                    let reference = after_updating(&cfg, n0, locked, |ctx, addr| {
                        for i in 0..n {
                            let a = addr + (start + i) as u64 * 8;
                            let x = ctx.read_f64(a);
                            ctx.write_f64(a, g(i, x));
                        }
                    });
                    assert_eq!(run.0, reference.0, "{at}: memory");
                    let seen = seen.into_inner().unwrap();
                    assert_eq!(
                        seen,
                        (0..n).collect::<Vec<_>>(),
                        "{at}: indices, once each, in order"
                    );
                    for b in run.1.bytes() {
                        reports = (reports ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
    }
    assert_eq!(reports, 0xe839_d35d_a443_26fd, "the virtual reports moved");
}

#[test]
fn nested_locks_keep_fine_grain_tracking() {
    let sys = system();
    let a = sys.alloc_global(8);
    let b = sys.alloc_global(8);
    let outer = sys.create_mutex();
    let inner = sys.create_mutex();
    sys.run(2, move |ctx| {
        for _ in 0..10 {
            ctx.lock(outer);
            let va = ctx.read_u64(a);
            ctx.lock(inner);
            let vb = ctx.read_u64(b);
            ctx.write_u64(b, vb + 1);
            ctx.unlock(inner);
            ctx.write_u64(a, va + 1);
            ctx.unlock(outer);
        }
    });
    let mut buf = [0u8; 8];
    sys.read_global(a, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 20);
    sys.read_global(b, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 20);
}

#[test]
fn clock_and_sync_time_accounting_is_monotone_and_split() {
    let sys = system();
    let barrier = sys.create_barrier(2);
    let lock = sys.create_mutex();
    sys.run(2, move |ctx| {
        let t0 = ctx.now();
        ctx.compute(100_000);
        let t1 = ctx.now();
        assert!(t1 > t0, "compute must advance the clock");
        assert_eq!(ctx.sync_time().as_ns(), 0, "no sync yet");
        ctx.lock(lock);
        ctx.unlock(lock);
        ctx.barrier(barrier);
        let sync = ctx.sync_time();
        assert!(sync.as_ns() > 0, "sync ops must charge the sync bucket");
        assert!(ctx.now() >= t1 + sync, "clock includes both buckets");
    });
}

#[test]
fn start_timing_excludes_earlier_work_from_the_report() {
    let sys = system();
    let report_with_warmup = {
        let sys = system();
        sys.run(1, |ctx| {
            ctx.compute(1_000_000);
            ctx.compute(1_000);
        })
    };
    let report_marked = sys.run(1, |ctx| {
        ctx.compute(1_000_000);
        ctx.start_timing();
        ctx.compute(1_000);
    });
    assert!(report_marked.makespan.as_ns() < 1_000 * 2);
    assert!(report_with_warmup.makespan.as_ns() > 300_000);
}

#[test]
fn stats_counters_reflect_protocol_activity() {
    let sys = system();
    let line = sys.config().line_bytes() as u64;
    let addr = sys.alloc_global(4 * line);
    let barrier = sys.create_barrier(2);
    let report = sys.run(2, move |ctx| {
        // Both threads write the same page region (false sharing on word
        // granularity is avoided by disjoint offsets).
        ctx.write_u64(addr + ctx.tid() as u64 * 8, 1);
        ctx.barrier(barrier);
        let _ = ctx.read_u64(addr + (1 - ctx.tid()) as u64 * 8);
        ctx.barrier(barrier);
    });
    assert!(report.total_of(|t| t.line_misses) >= 2, "each thread cold-faults the line");
    assert!(report.total_of(|t| t.twins_created) >= 2, "ordinary writes twin their pages");
    assert!(report.total_of(|t| t.diff_bytes_flushed) >= 16, "both words travel home");
    assert!(report.total_of(|t| t.invalidations) >= 2, "shared page invalidated on both sides");
    assert!(report.total_of(|t| t.barriers) == 4);
    assert!(report.fabric.total_msgs() > 0);
}

#[test]
fn unaligned_mixed_size_accesses() {
    let sys = system();
    let addr = sys.alloc_global(1024);
    sys.run(1, move |ctx| {
        ctx.write_bytes(addr + 3, &[0xAB]);
        ctx.write_bytes(addr + 4, &[0xCD, 0xEF]);
        let mut b = [0u8; 3];
        ctx.read_bytes(addr + 3, &mut b);
        assert_eq!(b, [0xAB, 0xCD, 0xEF]);
        // u64 spanning those bytes (little endian).
        let v = ctx.read_u64(addr);
        assert_eq!(v.to_le_bytes()[3], 0xAB);
        assert_eq!(v.to_le_bytes()[4], 0xCD);
    });
}

#[test]
fn empty_and_single_element_bulk_ops() {
    let sys = system();
    let addr = sys.alloc_global(64);
    sys.run(1, move |ctx| {
        ctx.write_f64_slice(addr, &[]);
        let mut empty: [f64; 0] = [];
        ctx.read_f64_slice(addr, &mut empty);
        ctx.update_f64s(addr, 0, |_, _| panic!("no element to update"));
        ctx.write_f64_slice(addr, &[42.0]);
        let mut one = [0.0];
        ctx.read_f64_slice(addr, &mut one);
        assert_eq!(one, [42.0]);
    });
}

#[test]
fn create_lock_from_a_running_thread() {
    let sys = system();
    let mailbox = sys.alloc_global(8);
    let barrier = sys.create_barrier(2);
    let counter = sys.alloc_global(8);
    sys.run(2, move |ctx| {
        if ctx.tid() == 0 {
            let lock = ctx.create_lock();
            ctx.write_u64(mailbox, lock as u64 + 1);
        }
        ctx.barrier(barrier);
        let lock = (ctx.read_u64(mailbox) - 1) as u32;
        for _ in 0..5 {
            ctx.lock(lock);
            let v = ctx.read_u64(counter);
            ctx.write_u64(counter, v + 1);
            ctx.unlock(lock);
        }
    });
    let mut buf = [0u8; 8];
    sys.read_global(counter, &mut buf);
    assert_eq!(u64::from_le_bytes(buf), 10);
}
