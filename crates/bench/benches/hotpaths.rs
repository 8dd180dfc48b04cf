//! Criterion benches for the simulator's own hot paths — the code the
//! host-side profiler (`samhita-prof`) attributes wall time to: regc
//! diffing, the software cache's hit path and per-sync-op bookkeeping,
//! the by-reference fetch path (a server's line fetch, the first store to a
//! fetched page, revalidating an invalidated one), write-notice
//! application, `UpdateBatch` apply at a memory server, one
//! deterministic scheduler step, the det-endpoint staged receive (heap
//! pop), trace-event emission, critical-path extraction (causal index
//! build + walk), and the text exports and checksum of that same trace.
//! An end-to-end jacobi pair (tracing on vs off) sits at the bottom so the
//! tracing-disabled fast path shows up as a whole-run ns-per-event number,
//! not just a micro-benchmark delta.

use std::cell::RefCell;
use std::sync::Mutex;

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion, Throughput};

use samhita_bench::thread_windows;
use samhita_core::cache::SoftCache;
use samhita_core::{EvictionPolicy, Samhita, SamhitaConfig, ThreadCtx};
use samhita_kernels::{run_jacobi, JacobiParams};
use samhita_mem::{MemRequest, MemoryServer, PageId, PageStore, ServiceModel};
use samhita_regc::{Diff, FineUpdate, IntervalLog, RegionKind, UpdateBatch, UpdatePart};
use samhita_rt::SamhitaRt;
use samhita_sched::Scheduler;
use samhita_scl::SimTime;
use samhita_trace::{critical_path, EventKind, TraceBuf, Tracer, TrackId};

const PAGE: usize = 4096;

/// Word-granularity twin diffing — the regc hot loop on every flush.
fn bench_diff_compute(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/diff");
    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for i in (0..PAGE).step_by(512) {
        sparse[i] = 0xFF;
    }
    // Every word changed: what a jacobi sweep leaves behind.
    let dense = vec![0x5Au8; PAGE];
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("compute_sparse_4k", |b| {
        b.iter(|| std::hint::black_box(Diff::compute(&twin, &sparse)))
    });
    g.bench_function("compute_dense_4k", |b| {
        b.iter(|| std::hint::black_box(Diff::compute(&twin, &dense)))
    });
    g.finish();
}

/// Time `routine` from inside a one-thread run on the paper's
/// configuration, after `warm` has set the thread's cache up.
fn bench_in_run<O>(
    b: &mut Bencher,
    sys: &Samhita,
    warm: impl Fn(&mut ThreadCtx) + Sync,
    routine: impl Fn(&mut ThreadCtx, u64) -> O + Sync,
) {
    let b = Mutex::new(b);
    sys.run(1, |ctx| {
        warm(ctx);
        let mut i = 0u64;
        b.lock().expect("one thread").iter(|| {
            i += 1;
            routine(ctx, i)
        });
    });
}

/// What the client side pays per access and per synchronization operation
/// when there is nothing to ship: the cache hit path, the dirty-page query
/// every flush starts with, and a barrier release's worth of write notices
/// about pages this thread does not hold.
fn bench_client_paths(c: &mut Criterion) {
    const LINES: u64 = 64;
    let cfg = SamhitaConfig::default();
    let (line_pages, line_bytes) = (cfg.line_pages as usize, cfg.line_bytes() as u64);

    // A home whose pages have been written, so each has a frame of its own.
    let mut home = PageStore::new(PAGE);
    for page in 0..LINES * line_pages as u64 {
        home.write_page(PageId(page), &[1u8; PAGE]);
    }
    let fetch = |line: u64| home.read_line(PageId(line * line_pages as u64), line_pages);
    let holding_line_0 = || {
        let mut cache = SoftCache::new(PAGE, line_pages, 2, EvictionPolicy::DirtyFirst);
        cache.install_line(0, fetch(0));
        cache
    };

    let mut g = c.benchmark_group("hotpaths/cache");
    g.bench_function("sync_flush_nothing_dirty_64_lines", |b| {
        let mut cache = SoftCache::new(PAGE, line_pages, 128, EvictionPolicy::DirtyFirst);
        for line in 0..LINES {
            cache.install_line(line, fetch(line));
        }
        b.iter(|| std::hint::black_box(cache.dirty_pages()))
    });
    // The one page copy left on the fetch path: the fetched frame stays
    // behind as the twin and the store lands on a copy of it. Untimed,
    // between stores: flush, invalidate and refetch the page, so every
    // store is the first to a frame the home still holds.
    g.bench_function("first_store_after_fetch", |b| {
        let cache = RefCell::new(holding_line_0());
        let (at, _) = cache.borrow().resolve(1).expect("line 0 is resident");
        b.iter_batched(
            || {
                let mut cache = cache.borrow_mut();
                cache.flush_page(1);
                cache.invalidate_page(1);
                cache.install_page(1, home.read(PageId(1)));
            },
            |()| cache.borrow_mut().write(at, 64, 8, RegionKind::Ordinary, |dst| dst.fill(7)),
            BatchSize::SmallInput,
        )
    });
    // An invalidation notice and the refetch it causes, without the wire:
    // drop the frame, take a reference to the home's current one.
    g.bench_function("refetch_invalidated_page", |b| {
        let mut cache = holding_line_0();
        b.iter(|| {
            cache.invalidate_page(1);
            cache.install_page(1, home.read(PageId(1)));
        })
    });
    let sys = Samhita::new(cfg);
    let base = sys.alloc_global(LINES * line_bytes);
    let touch_all = |ctx: &mut ThreadCtx| {
        for line in 0..LINES {
            ctx.read_f64(base + line * line_bytes);
        }
    };
    g.bench_function("hit_scalar_read", |b| {
        // A different resident line on every read.
        bench_in_run(b, &sys, touch_all, |ctx, i| ctx.read_f64(base + i % LINES * line_bytes));
    });
    g.finish();

    let mut g = c.benchmark_group("hotpaths/notices");
    g.bench_function("apply_255_nonresident", |b| {
        let elsewhere = (base + LINES * line_bytes) / PAGE as u64 + 1024;
        // What thread 0 is sent after 255 other threads each flushed 16
        // pages and one update: 255 runs (4 080 pages), 255 updates.
        let mut log = IntervalLog::new();
        for w in 0..255u64 {
            let pages = (0..16).map(|p| elsewhere + w * 16 + p).collect();
            let update = FineUpdate { page: elsewhere - 1 - w, offset: 0, bytes: vec![1; 8] };
            log.publish(w as u32 + 1, pages, vec![update]);
        }
        let notices = log.merged_since(0, 0);
        bench_in_run(b, &sys, touch_all, |ctx, _| ctx.apply_notices(&notices));
    });
    g.finish();
}

/// A memory server answering a cache-line fetch: four frame references and
/// their versions, no page bytes moved.
fn bench_line_fetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/mem");
    let mut server = MemoryServer::new(PAGE, ServiceModel::default());
    for page in 0..8u64 {
        let bytes = vec![page as u8; PAGE];
        server.handle(MemRequest::WritePage { page: PageId(page), bytes }, SimTime::ZERO);
    }
    g.bench_function("fetch_line_4_pages", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let first = PageId(i % 2 * 4);
            std::hint::black_box(
                server.handle(MemRequest::FetchLine { first, pages: 4 }, SimTime::ZERO),
            )
        })
    });
    g.finish();
}

/// Applying one flush's `UpdateBatch` at a memory server.
fn bench_batch_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/batch_apply");
    let twin = vec![0u8; PAGE];
    let mut dirty = twin.clone();
    for i in (0..PAGE).step_by(256) {
        dirty[i] = 0x7F;
    }
    let diff = Diff::compute(&twin, &dirty);
    let make_batch = || {
        let mut batch = UpdateBatch::new();
        for page in 0..8u64 {
            batch.push(UpdatePart::Diff { page, diff: diff.clone() });
            batch.push(UpdatePart::Fine { page, offset: 64, bytes: vec![3u8; 32] });
        }
        batch
    };
    g.bench_function("apply_16_parts", |b| {
        b.iter_batched(
            || {
                let mut server = MemoryServer::new(PAGE, ServiceModel::default());
                for page in 0..8u64 {
                    server.handle(
                        MemRequest::WritePage { page: PageId(page), bytes: vec![0u8; PAGE] },
                        SimTime::ZERO,
                    );
                }
                (server, make_batch())
            },
            |(mut server, batch)| {
                std::hint::black_box(
                    server.handle(MemRequest::UpdateBatch { batch }, SimTime::from_ns(100)),
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// One deterministic scheduler step: a Running task yields to a future
/// instant and — being the only Ready task — re-grants itself. The pick
/// scan is the cost under measurement; the parked variant scans a realistic
/// task table.
fn bench_sched_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/sched");
    g.bench_function("step_self_regrant_1_task", |b| {
        let sched = Scheduler::new(7);
        let task = sched.register_running();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            std::hint::black_box(task.yield_until(t))
        });
    });
    g.bench_function("step_self_regrant_64_tasks", |b| {
        let sched = Scheduler::new(7);
        let task = sched.register_running();
        let _parked: Vec<_> = (0..63).map(|_| sched.register_parked()).collect();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            std::hint::black_box(task.yield_until(t))
        });
    });
    g.finish();
}

/// Endpoint send + receive: file 64 envelopes from four senders into the
/// per-sender-monotone heap, then pop them in effective-time order.
fn bench_det_recv(c: &mut Criterion) {
    use samhita_scl::{Fabric, MsgClass, NodeId, Topology};
    let mut g = c.benchmark_group("hotpaths/det_recv");
    let topo = Topology::cluster(2, samhita_scl::profiles::ib_qdr());
    let fabric = Fabric::<u64>::new(topo);
    let dst = fabric.add_endpoint(NodeId(1));
    let srcs: Vec<_> = (0..4).map(|_| fabric.add_endpoint(NodeId(0))).collect();
    g.bench_function("stage_and_pop_64", |b| {
        b.iter(|| {
            for i in 0..64u64 {
                let src = &srcs[(i % 4) as usize];
                src.send(dst.id(), SimTime::from_ns(i * 10), 64, MsgClass::Data, i).expect("send");
            }
            let mut sum = 0u64;
            for _ in 0..64 {
                sum += dst.recv().expect("recv").msg;
            }
            std::hint::black_box(sum)
        })
    });
    g.finish();
}

/// Trace-event emission into the bounded per-track ring.
fn bench_trace_emit(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/trace");
    g.bench_function("emit_ring_push", |b| {
        let tracer = Tracer::new(1 << 14);
        let mut buf: TraceBuf = tracer.buf(TrackId::Thread(0));
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            buf.push(SimTime::from_ns(at), EventKind::DiffFlush { page: at % 64, bytes: 128 });
            std::hint::black_box(buf.len())
        });
    });
    // The payload a `BatchFlush` event carries: `wire_bytes` walks every
    // part (and every diff's runs). Before the lazy `trace(|| ...)` path
    // this was computed per flush per server even with tracing off; now an
    // untraced run skips it entirely, so this number *is* the per-flush
    // saving.
    let twin = vec![0u8; PAGE];
    let mut dirty = twin.clone();
    for i in (0..PAGE).step_by(256) {
        dirty[i] = 0x7F;
    }
    let diff = Diff::compute(&twin, &dirty);
    let mut batch = UpdateBatch::new();
    for page in 0..8u64 {
        batch.push(UpdatePart::Diff { page, diff: diff.clone() });
        batch.push(UpdatePart::Fine { page, offset: 64, bytes: vec![3u8; 32] });
    }
    g.bench_function("construct_batch_flush_event", |b| {
        b.iter(|| {
            std::hint::black_box(EventKind::BatchFlush {
                server: 0,
                parts: batch.len() as u32,
                bytes: batch.wire_bytes() as u64,
            })
        })
    });
    g.finish();
}

/// What a finished trace costs to read: critical-path extraction (index
/// build + walk), and every text form of the same trace — the plain and
/// causal Chrome exports, the JSONL, and the checksum that hashes the JSONL
/// without holding it.
fn bench_trace_readers(c: &mut Criterion) {
    let cfg = SamhitaConfig { tracing: true, max_threads: 8, ..SamhitaConfig::small_for_tests() };
    let rt = SamhitaRt::new(cfg.clone());
    let p = JacobiParams { n: 16, iters: 2, threads: 8 };
    let report = run_jacobi(&rt, &p).report;
    let trace = rt.take_trace().expect("tracing was enabled");
    let windows = thread_windows(&report);
    let costs = cfg.service_costs();
    eprintln!("hotpaths/critpath, hotpaths/trace/*_jacobi_8t: {} trace events", trace.len());

    let mut g = c.benchmark_group("hotpaths/critpath");
    g.sample_size(10);
    g.bench_function("jacobi_8t", |b| {
        b.iter(|| std::hint::black_box(critical_path(&trace, &windows, &costs)))
    });
    g.finish();

    let mut g = c.benchmark_group("hotpaths/trace");
    g.sample_size(10);
    g.bench_function("export_chrome_jacobi_8t", |b| {
        b.iter(|| std::hint::black_box(trace.to_chrome_json()))
    });
    g.bench_function("export_causal_jacobi_8t", |b| {
        b.iter(|| std::hint::black_box(trace.to_chrome_json_with(&windows, &costs)))
    });
    g.bench_function("export_jsonl_jacobi_8t", |b| {
        b.iter(|| std::hint::black_box(trace.to_jsonl()))
    });
    g.bench_function("checksum_jacobi_8t", |b| b.iter(|| std::hint::black_box(trace.checksum())));
    g.finish();
}

/// Whole-run cost with tracing off vs on. The off variant is the common
/// production configuration and the target of the lazy trace-construction
/// fast path; the delta between the two is what tracing actually costs.
fn bench_end_to_end_tracing(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/jacobi_8t");
    g.sample_size(10);
    let p = JacobiParams { n: 16, iters: 2, threads: 8 };
    let base = SamhitaConfig { max_threads: 8, ..SamhitaConfig::small_for_tests() };
    // One extra run to report the constant event count: divide the ns/iter
    // below by this for ns-per-simulated-event.
    let rt = SamhitaRt::new(SamhitaConfig { tracing: false, ..base.clone() });
    let events = run_jacobi(&rt, &p).report.fabric.total_msgs();
    eprintln!("hotpaths/jacobi_8t: {events} simulated events per iteration");
    g.bench_function("tracing_off", |b| {
        let cfg = SamhitaConfig { tracing: false, ..base.clone() };
        b.iter(|| {
            let rt = SamhitaRt::new(cfg.clone());
            std::hint::black_box(run_jacobi(&rt, &p).report.makespan)
        })
    });
    g.bench_function("tracing_on", |b| {
        let cfg = SamhitaConfig { tracing: true, ..base.clone() };
        b.iter(|| {
            let rt = SamhitaRt::new(cfg.clone());
            std::hint::black_box(run_jacobi(&rt, &p).report.makespan)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_diff_compute,
    bench_client_paths,
    bench_line_fetch,
    bench_batch_apply,
    bench_sched_step,
    bench_det_recv,
    bench_trace_emit,
    bench_trace_readers,
    bench_end_to_end_tracing
);
criterion_main!(benches);
