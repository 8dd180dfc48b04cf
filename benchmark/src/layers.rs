//! Group B: each layer driven alone through its public calls, timed with
//! `Instant` over a fixed iteration count sized to roughly 0.1–0.3 s on the
//! box this was written on. These are the same calls
//! `crates/bench/benches/hotpaths.rs` makes; what is added is the paper-scale
//! task counts, the cache hit/miss paths, and one number per metric name.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use samhita_bench::thread_windows;
use samhita_core::SamhitaConfig;
use samhita_kernels::{run_jacobi, JacobiParams};
use samhita_mem::{MemRequest, MemoryServer, PageId, ServiceModel};
use samhita_regc::{Diff, UpdateBatch, UpdatePart};
use samhita_rt::{KernelRt, NativeRt, SamhitaRt};
use samhita_sched::Scheduler;
use samhita_scl::{Fabric, MsgClass, NodeId, SimTime, Topology};
use samhita_trace::{critical_path, EventKind, Tracer, TrackId};

const PAGE: usize = 4096;

/// Host nanoseconds per iteration of `f`.
fn ns_per(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Every group-B metric, by name.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    sched(&mut out);
    scl(&mut out);
    regc(&mut out);
    mem(&mut out);
    core_hits(&mut out);
    core_misses(&mut out);
    trace(&mut out);
    prof(&mut out);
    let start = Instant::now();
    let p = JacobiParams { n: 1022, iters: 20, threads: 8 };
    black_box(run_jacobi(&NativeRt::default(), &p).final_diff);
    out.push(("rt.native_jacobi_s", start.elapsed().as_secs_f64()));
    out
}

fn sched(out: &mut Vec<(&'static str, f64)>) {
    // Two tasks pass the baton back and forth: every `park` is one pick,
    // one futex wake and one OS context switch — the in-system step cost.
    const ROUND_TRIPS: u64 = 40_000;
    let s = Scheduler::new(7);
    let a = s.register_running();
    let b = s.register_parked();
    let elapsed = std::thread::scope(|scope| {
        let (a2, b2) = (a.clone(), b.clone());
        scope.spawn(move || {
            b2.start();
            for i in 0..ROUND_TRIPS {
                a2.wake_at(i);
                if i + 1 < ROUND_TRIPS {
                    b2.park();
                }
            }
            b2.exit();
        });
        let start = Instant::now();
        for i in 0..ROUND_TRIPS {
            b.wake_at(i);
            a.park();
        }
        start.elapsed()
    });
    out.push(("sched.handoff_ns", elapsed.as_nanos() as f64 / (2 * ROUND_TRIPS) as f64));

    // The pick decision alone: the only Ready task yields and re-grants
    // itself after scanning a table of parked tasks.
    for (name, tasks) in [("sched.pick_ns_64", 64), ("sched.pick_ns_256", 256)] {
        let s = Scheduler::new(7);
        let me = s.register_running();
        let _parked: Vec<_> = (1..tasks).map(|_| s.register_parked()).collect();
        out.push((
            name,
            ns_per(400_000, |i| {
                black_box(me.yield_until(i + 1));
            }),
        ));
    }
}

fn scl(out: &mut Vec<(&'static str, f64)>) {
    // Four senders into one endpoint bound to a scheduler task, so `recv`
    // takes the deterministic path: stage into the per-sender-monotone
    // heap, yield to the head's effective time, pop.
    let fabric = Fabric::<u64>::new(Topology::cluster(2, samhita_scl::profiles::ib_qdr()));
    let dst = fabric.add_endpoint(NodeId(1));
    let srcs: Vec<_> = (0..4).map(|_| fabric.add_endpoint(NodeId(0))).collect();
    let sched = Scheduler::new(7);
    dst.bind_task(&sched.register_running());
    const BURST: u64 = 64;
    let per_burst = ns_per(4_000, |round| {
        for i in 0..BURST {
            let at = SimTime::from_ns((round * BURST + i) * 10);
            srcs[(i % 4) as usize].send(dst.id(), at, 64, MsgClass::Data, i).expect("send");
        }
        for _ in 0..BURST {
            black_box(dst.recv().expect("recv").msg);
        }
    });
    out.push(("scl.send_recv_ns", per_burst / BURST as f64));
}

fn regc(out: &mut Vec<(&'static str, f64)>) {
    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for i in (0..PAGE).step_by(512) {
        sparse[i] = 0xFF;
    }
    // Every word changed: what a jacobi sweep leaves behind.
    let dense = vec![0x5Au8; PAGE];
    for (name, page) in [("regc.diff_sparse_ns_page", &sparse), ("regc.diff_dense_ns_page", &dense)]
    {
        out.push((name, ns_per(200_000, |_| drop(black_box(Diff::compute(&twin, page))))));
    }
}

fn mem(out: &mut Vec<(&'static str, f64)>) {
    const PAGES: u64 = 8;
    let mut server = MemoryServer::new(PAGE, ServiceModel::default());
    for page in 0..PAGES {
        let bytes = vec![0u8; PAGE];
        server.handle(MemRequest::WritePage { page: PageId(page), bytes }, SimTime::ZERO);
    }
    let twin = vec![0u8; PAGE];
    let mut dirty = twin.clone();
    for i in (0..PAGE).step_by(256) {
        dirty[i] = 0x7F;
    }
    let diff = Diff::compute(&twin, &dirty);
    let batches: Vec<UpdateBatch> = (0..20_000)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            for page in 0..PAGES {
                batch.push(UpdatePart::Diff { page, diff: diff.clone() });
                batch.push(UpdatePart::Fine { page, offset: 64, bytes: vec![3u8; 32] });
            }
            batch
        })
        .collect();
    let parts = batches.len() as f64 * 2.0 * PAGES as f64;
    let start = Instant::now();
    for (i, batch) in batches.into_iter().enumerate() {
        black_box(server.handle(MemRequest::UpdateBatch { batch }, SimTime::from_ns(i as u64)));
    }
    out.push(("mem.apply_ns_part", start.elapsed().as_nanos() as f64 / parts));

    let per_line = ns_per(200_000, |i| {
        let first = PageId((i % 2) * 4);
        drop(black_box(server.handle(MemRequest::FetchLine { first, pages: 4 }, SimTime::ZERO)));
    });
    out.push(("mem.fetch_ns_line", per_line));
}

/// The software cache's hit paths and the uncontended sync round trips,
/// from inside a one-thread run on the paper's configuration.
fn core_hits(out: &mut Vec<(&'static str, f64)>) {
    const ELEMS: usize = 64 * 1024; // 512 KiB: 32 resident lines
    const PASSES: usize = 40;
    const SYNC_OPS: u64 = 20_000;
    let rt = SamhitaRt::new(SamhitaConfig::default());
    let arr = rt.alloc_f64_global(ELEMS);
    let lock = rt.mutex();
    let barrier = rt.barrier(1);
    let results: [AtomicU64; 4] = Default::default();
    rt.run(1, &|ctx| {
        let mut sum = 0.0;
        for i in 0..ELEMS {
            sum += ctx.read(arr, i); // make every line resident
        }
        let start = Instant::now();
        for _ in 0..PASSES {
            for i in 0..ELEMS {
                sum += ctx.read(arr, i);
            }
        }
        results[0].store(start.elapsed().as_nanos() as u64, Relaxed);
        let start = Instant::now();
        for _ in 0..PASSES {
            for row in 0..ELEMS / 1024 {
                ctx.update_block(arr, row * 1024, 1024, &mut |_, x| x + 1.0);
            }
        }
        results[1].store(start.elapsed().as_nanos() as u64, Relaxed);
        black_box(sum);
        let start = Instant::now();
        for _ in 0..SYNC_OPS {
            ctx.lock(lock);
            ctx.unlock(lock);
        }
        results[2].store(start.elapsed().as_nanos() as u64, Relaxed);
        let start = Instant::now();
        for _ in 0..SYNC_OPS {
            ctx.barrier_wait(barrier);
        }
        results[3].store(start.elapsed().as_nanos() as u64, Relaxed);
    });
    let ns = |i: usize| results[i].load(Relaxed) as f64;
    let accesses = (PASSES * ELEMS) as f64;
    out.push(("core.hit_scalar_ns", ns(0) / accesses));
    out.push(("core.hit_block_ns_elem", ns(1) / accesses));
    out.push(("core.lock_rtt_ns", ns(2) / SYNC_OPS as f64));
    out.push(("core.barrier_rtt_ns", ns(3) / SYNC_OPS as f64));
}

/// One element per line through a two-line cache with prefetch off: every
/// access is a demand miss, an eviction and a `FetchLine` round trip.
fn core_misses(out: &mut Vec<(&'static str, f64)>) {
    const LINES: usize = 1024;
    const PASSES: usize = 8;
    let cfg = SamhitaConfig { cache_capacity_lines: 2, prefetch: false, ..Default::default() };
    let per_line = cfg.line_bytes() / 8;
    let rt = SamhitaRt::new(cfg);
    let arr = rt.alloc_f64_global(LINES * per_line);
    let elapsed = AtomicU64::new(0);
    let report = rt.run(1, &|ctx| {
        let start = Instant::now();
        let mut sum = 0.0;
        for _ in 0..PASSES {
            for line in 0..LINES {
                sum += ctx.read(arr, line * per_line);
            }
        }
        black_box(sum);
        elapsed.store(start.elapsed().as_nanos() as u64, Relaxed);
    });
    let misses = report.total_of(|t| t.line_misses);
    assert_eq!(misses, (LINES * PASSES) as u64, "the stream must miss on every line");
    out.push(("core.miss_ns_line", elapsed.load(Relaxed) as f64 / misses as f64));
}

fn trace(out: &mut Vec<(&'static str, f64)>) {
    let tracer = Tracer::new(1 << 14);
    let mut buf = tracer.buf(TrackId::Thread(0));
    let push = ns_per(4_000_000, |i| {
        buf.push(SimTime::from_ns(i), EventKind::DiffFlush { page: i % 64, bytes: 128 })
    });
    black_box(buf.len());
    out.push(("trace.push_ns", push));

    // A real trace, small enough to rebuild its derivations many times.
    let cfg = SamhitaConfig { tracing: true, ..SamhitaConfig::default() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_jacobi(&rt, &JacobiParams { n: 254, iters: 8, threads: 16 }).report;
    let trace = rt.take_trace().expect("tracing is on");
    let (windows, costs) = (thread_windows(&report), cfg.service_costs());
    let events = trace.len() as f64;
    const REBUILDS: u64 = 8;
    let critpath = ns_per(REBUILDS, |_| drop(black_box(critical_path(&trace, &windows, &costs))));
    out.push(("trace.critpath_ns_event", critpath / events));
    let check = ns_per(REBUILDS, |_| drop(black_box(trace.check_invariants())));
    out.push(("trace.check_ns_event", check / events));
    let export = ns_per(REBUILDS, |_| drop(black_box(trace.to_chrome_json())));
    out.push(("trace.export_ns_event", export / events));
}

fn prof(out: &mut Vec<(&'static str, f64)>) {
    let guard = |_| drop(black_box(samhita_prof::enter(samhita_prof::Phase::RegcDiff)));
    samhita_prof::enable(true);
    out.push(("prof.guard_on_ns", ns_per(4_000_000, guard)));
    samhita_prof::enable(false);
    out.push(("prof.guard_off_ns", ns_per(100_000_000, guard)));
}
