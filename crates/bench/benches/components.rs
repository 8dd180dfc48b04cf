//! Criterion benches for the substrate hot paths: the diff engine, the
//! fine-grain write set, the software cache, the free-list allocator, the
//! fabric send path, and a small end-to-end micro-benchmark run on each
//! backend.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use samhita_core::cache::SoftCache;
use samhita_core::freelist::FreeListAlloc;
use samhita_core::manager::ManagerEngine;
use samhita_core::msg::MgrRequest;
use samhita_core::{EvictionPolicy, SamhitaConfig};
use samhita_kernels::{run_micro, AllocMode, MicroParams};
use samhita_mem::{PageId, PageStore};
use samhita_regc::{Diff, Interval, RegionKind, WriteSet};
use samhita_rt::{NativeRt, SamhitaRt};
use samhita_scl::EndpointId;
use samhita_scl::{Fabric, MsgClass, NodeId, SimTime, Topology};

const PAGE: usize = 4096;

fn bench_diff(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff");
    let twin = vec![0u8; PAGE];

    // Sparse change: one word per 512 bytes.
    let mut sparse = twin.clone();
    for i in (0..PAGE).step_by(512) {
        sparse[i] = 0xFF;
    }
    // Dense change: every word.
    let dense = vec![0xABu8; PAGE];

    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("compute_sparse", |b| {
        b.iter(|| std::hint::black_box(Diff::compute(&twin, &sparse)))
    });
    g.bench_function("compute_dense", |b| {
        b.iter(|| std::hint::black_box(Diff::compute(&twin, &dense)))
    });
    let d = Diff::compute(&twin, &sparse);
    g.bench_function("apply_sparse", |b| {
        b.iter_batched(
            || twin.clone(),
            |mut page| {
                d.apply(&mut page);
                page
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_writeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("writeset");
    g.bench_function("record_coalescing_1k", |b| {
        b.iter(|| {
            let mut ws = WriteSet::new();
            for i in 0..1024u64 {
                ws.record(i * 8, &[1u8; 8]);
            }
            std::hint::black_box(ws.range_count())
        })
    });
    g.bench_function("record_random_256", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let addrs: Vec<u64> = (0..256).map(|_| rng.gen_range(0..16_384)).collect();
        b.iter(|| {
            let mut ws = WriteSet::new();
            for &a in &addrs {
                ws.record(a, &[1u8; 8]);
            }
            std::hint::black_box(ws.payload_bytes())
        })
    });
    g.bench_function("drain_per_page", |b| {
        b.iter_batched(
            || {
                let mut ws = WriteSet::new();
                for i in 0..512u64 {
                    ws.record(i * 24, &[1u8; 16]);
                }
                ws
            },
            |mut ws| std::hint::black_box(ws.drain_per_page(4096)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    // Lines arrive the way a fetch delivers them: references to home frames.
    let home = PageStore::new(PAGE);

    g.bench_function("install_and_evict", |b| {
        b.iter_batched(
            || SoftCache::new(PAGE, 4, 16, EvictionPolicy::DirtyFirst),
            |mut cache| {
                for line in 0..32u64 {
                    while cache.is_full() {
                        std::hint::black_box(cache.evict().expect("lines present"));
                    }
                    cache.install_line(line, home.read_line(PageId(line * 4), 4));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("write_flush_cycle", |b| {
        b.iter_batched(
            || {
                let mut cache = SoftCache::new(PAGE, 4, 16, EvictionPolicy::DirtyFirst);
                cache.install_line(0, home.read_line(PageId(0), 4));
                cache
            },
            |mut cache| {
                let (at, _) = cache.resolve(1).expect("line 0 is resident");
                for off in (0..PAGE).step_by(64) {
                    cache.write(at, off, 8, RegionKind::Ordinary, |dst| dst.fill(7));
                }
                std::hint::black_box(cache.flush_page(1))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_freelist(c: &mut Criterion) {
    c.bench_function("freelist/alloc_free_churn", |b| {
        b.iter_batched(
            || FreeListAlloc::new(0, 1 << 24),
            |mut a| {
                let mut held = Vec::new();
                for i in 0..256u64 {
                    if let Some(p) = a.alloc(64 + (i % 7) * 128, 8) {
                        held.push(p);
                    }
                    if i % 3 == 0 {
                        if let Some(p) = held.pop() {
                            a.free(p);
                        }
                    }
                }
                std::hint::black_box(a.live_bytes())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    let topo = Topology::cluster(2, samhita_scl::profiles::ib_qdr());
    let fabric = Fabric::<u64>::new(topo);
    let a = fabric.add_endpoint(NodeId(0));
    let b_ep = fabric.add_endpoint(NodeId(1));
    g.bench_function("send_recv_4k", |bench| {
        bench.iter(|| {
            a.send(b_ep.id(), SimTime::ZERO, 4096, MsgClass::Data, 1).expect("send");
            std::hint::black_box(b_ep.recv().expect("recv"))
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_micro");
    g.sample_size(10);
    let p = MicroParams {
        n_outer: 2,
        m_inner: 2,
        s_rows: 2,
        b_cols: 64,
        mode: AllocMode::Global,
        threads: 4,
    };
    g.bench_function("native_4t", |b| {
        b.iter(|| {
            let rt = NativeRt::default();
            std::hint::black_box(run_micro(&rt, &p).gsum)
        })
    });
    g.bench_function("samhita_4t", |b| {
        b.iter(|| {
            let rt = SamhitaRt::new(SamhitaConfig::small_for_tests());
            std::hint::black_box(run_micro(&rt, &p).gsum)
        })
    });
    g.finish();
}

fn bench_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("manager");
    g.bench_function("lock_handoff_cycle", |b| {
        b.iter_batched(
            || {
                let mut e = ManagerEngine::new(&SamhitaConfig::small_for_tests());
                for tid in 0..2u32 {
                    e.handle(
                        EndpointId(tid),
                        tid,
                        1,
                        MgrRequest::Register { observer: false },
                        SimTime::ZERO,
                    );
                }
                e.handle(EndpointId(0), 0, 2, MgrRequest::CreateLock, SimTime::ZERO);
                e
            },
            |mut e| {
                let mut now = SimTime::ZERO;
                for i in 0..64u64 {
                    now += SimTime::from_ns(100);
                    e.handle(
                        EndpointId(0),
                        0,
                        10 + i,
                        MgrRequest::Acquire {
                            lock: 0,
                            interval: Interval { pages: vec![i], ..Interval::default() },
                            last_seen: i,
                        },
                        now,
                    );
                    e.handle(
                        EndpointId(0),
                        0,
                        10 + i,
                        MgrRequest::Release {
                            lock: 0,
                            interval: Interval::default(),
                            handed: None,
                        },
                        now,
                    );
                }
                std::hint::black_box(e.stats().acquires)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_diff,
    bench_writeset,
    bench_cache,
    bench_freelist,
    bench_fabric,
    bench_manager,
    bench_end_to_end
);
criterion_main!(benches);
