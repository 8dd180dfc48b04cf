//! Chaos suite: the DSM protocol under a deterministic hostile fabric.
//!
//! Every plan seeds drops, duplicates, and latency spikes (some add a timed
//! link partition or a mid-run memory-server crash), runs the Figure 2
//! micro-benchmark and the Jacobi kernel, and demands results **bit
//! identical** to a fault-free run of the same configuration: recovery is
//! only correct if applications cannot tell it happened. The suite also
//! pins the negative: an inactive fault schedule leaves virtual clocks
//! exactly reproducible, and a traced faulty run still satisfies every
//! RegC protocol invariant.

#[path = "common/timeline.rs"]
mod timeline;

use samhita_repro::core::{FaultConfig, PartitionSpec, Samhita, SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{
    run_jacobi, run_micro, serial_reference_jacobi, AllocMode, JacobiParams, MicroParams,
};
use samhita_repro::rt::SamhitaRt;

/// Two write-through-replicated memory servers on the paper's six-node
/// cluster: node 0 manager, nodes 1–2 memory servers, compute on nodes 3–5.
/// Every chaos plan runs under this geometry (crash plans need the replica).
fn replicated_cluster() -> SamhitaConfig {
    SamhitaConfig {
        mem_servers: 2,
        replica_offset: 1,
        topology: TopologyKind::Cluster { nodes: 6 },
        ..SamhitaConfig::default()
    }
}

/// The seeded fault plans. Drop rates reach 10%; the partition window
/// (200 µs) stays under the total backoff budget (~1.6 ms over 8
/// attempts), so a retrying RPC always survives to the heal; the crash
/// plans kill one of the two servers early enough to land mid-run.
fn plans() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("drop-light", FaultConfig::lossy(0xA1, 0.01, 0.0, 0.0, 0)),
        ("drop-heavy", FaultConfig::lossy(0xA2, 0.10, 0.0, 0.0, 0)),
        ("duplicates", FaultConfig::lossy(0xA3, 0.0, 0.08, 0.0, 0)),
        ("delays", FaultConfig::lossy(0xA4, 0.0, 0.0, 0.10, 5_000)),
        ("mixed", FaultConfig::lossy(0xA5, 0.05, 0.02, 0.05, 3_000)),
        ("drop-dup", FaultConfig::lossy(0xA6, 0.08, 0.04, 0.0, 0)),
        (
            // Sever compute node 3 from memory-server node 1 for 200 µs.
            "partition",
            FaultConfig {
                partitions: vec![PartitionSpec { a: 3, b: 1, from_ns: 20_000, until_ns: 220_000 }],
                ..FaultConfig::lossy(0xA7, 0.02, 0.0, 0.0, 0)
            },
        ),
        (
            "crash-primary",
            FaultConfig {
                crash: Some((0, 50_000)),
                ..FaultConfig::lossy(0xA8, 0.02, 0.01, 0.02, 2_000)
            },
        ),
        (
            "crash-other",
            FaultConfig { crash: Some((1, 80_000)), ..FaultConfig::lossy(0xA9, 0.05, 0.0, 0.0, 0) },
        ),
    ]
}

fn micro_params() -> MicroParams {
    MicroParams {
        n_outer: 4,
        m_inner: 2,
        s_rows: 2,
        b_cols: 32,
        mode: AllocMode::Global,
        threads: 3,
    }
}

const JACOBI: JacobiParams = JacobiParams { n: 12, iters: 4, threads: 3 };

#[test]
fn chaos_plans_cover_every_fault_class() {
    let plans = plans();
    assert!(plans.len() >= 8, "the suite promises at least eight seeded plans");
    assert!(plans.iter().any(|(_, f)| f.drop_p >= 0.10), "drop rates must reach 10%");
    assert!(plans.iter().any(|(_, f)| !f.partitions.is_empty()));
    assert!(plans.iter().any(|(_, f)| f.crash.is_some()));
    for (name, f) in &plans {
        assert!(f.is_active(), "plan {name} injects nothing");
        let cfg = SamhitaConfig { faults: f.clone(), ..replicated_cluster() };
        cfg.validate().unwrap_or_else(|e| panic!("plan {name} invalid: {e}"));
    }
}

#[test]
fn micro_gsum_is_bit_identical_under_every_plan() {
    // Every round adds the same addend per thread, so the lock-ordered sum
    // is order-independent and the comparison can be exact.
    let baseline = run_micro(&SamhitaRt::new(replicated_cluster()), &micro_params()).gsum;
    for (name, faults) in plans() {
        let cfg = SamhitaConfig { faults, ..replicated_cluster() };
        let rt = SamhitaRt::new(cfg);
        let r = run_micro(&rt, &micro_params());
        assert_eq!(
            r.gsum.to_bits(),
            baseline.to_bits(),
            "plan {name}: gsum {} != fault-free {}",
            r.gsum,
            baseline
        );
    }
}

/// The same problem on one node under the §V bypass, where the manager is
/// the same engine at a lower service time: its requests inherit
/// `core::proto`'s retry and replay protection. The lossy plans only — the
/// partition and crash plans need the cluster geometry.
#[test]
fn micro_gsum_under_bypass_is_bit_identical_under_the_lossy_plans() {
    let bypass = |faults| SamhitaConfig {
        topology: TopologyKind::SingleNode,
        manager_bypass: true,
        tracing: true,
        faults,
        ..SamhitaConfig::default()
    };
    let baseline = run_micro(&SamhitaRt::new(bypass(FaultConfig::default())), &micro_params()).gsum;
    for (name, faults) in plans().into_iter().filter(|(n, _)| ["mixed", "drop-dup"].contains(n)) {
        let rt = SamhitaRt::new(bypass(faults));
        let r = run_micro(&rt, &micro_params());
        assert_eq!(r.gsum.to_bits(), baseline.to_bits(), "plan {name}: gsum {}", r.gsum);
        let trace = rt.take_trace().expect("tracing was enabled");
        trace.check_invariants().unwrap_or_else(|v| panic!("plan {name}: {v:?}"));
        // Asserts Σ Retry events == Σ retries on the way.
        let [_, retries, ..] = timeline::timeline(&r.report, &trace);
        assert!(retries > 0, "plan {name} must have cost the bypass a retransmission");
    }
}

#[test]
fn jacobi_grid_is_bit_identical_under_every_plan() {
    let baseline = run_jacobi(&SamhitaRt::new(replicated_cluster()), &JACOBI).grid;
    assert_eq!(baseline, serial_reference_jacobi(JACOBI.n, JACOBI.iters));
    for (name, faults) in plans() {
        let cfg = SamhitaConfig { faults, ..replicated_cluster() };
        let rt = SamhitaRt::new(cfg);
        let r = run_jacobi(&rt, &JACOBI);
        assert_eq!(r.grid, baseline, "plan {name} perturbed the Jacobi grid");
    }
}

/// Each thread's last writes come after its last synchronization, so only
/// the flush at its exit carries them home; the host reads them back once
/// the run is over. Every thread writes one word of a page all of them
/// share (the home merges the diffs) and one of a page of its own, before
/// and after a barrier, at P = 1, 8 and 64, on one server per home and on
/// write-through replicas, fault-free and under a lossy and a crash plan.
#[test]
fn exit_flushes_reach_the_home_under_faults() {
    let faulted = plans().into_iter().filter(|(n, _)| ["drop-light", "crash-primary"].contains(n));
    let plans: Vec<_> =
        [("fault-free", FaultConfig::default())].into_iter().chain(faulted).collect();
    let last = |t: u64| 0x5EED_0000 + t;
    for threads in [1u32, 8, 64] {
        for replica_offset in [0, 1] {
            for (name, faults) in &plans {
                // A crashed server's data lives on in its replica only.
                if faults.crash.is_some() && replica_offset == 0 {
                    continue;
                }
                let what = format!("{name}, replica_offset {replica_offset}, P={threads}");
                let faults = faults.clone();
                let cfg = SamhitaConfig { faults, replica_offset, ..replicated_cluster() };
                let ps = cfg.page_size as u64;
                let sys = Samhita::new(cfg);
                let shared = sys.alloc_global(u64::from(threads) * 8);
                let own = sys.alloc_global(u64::from(threads) * ps);
                let barrier = sys.create_barrier(threads);
                sys.run(threads, |ctx| {
                    let t = u64::from(ctx.tid());
                    ctx.write_u64(shared + 8 * t, 1);
                    ctx.write_u64(own + ps * t, 1);
                    ctx.barrier(barrier);
                    ctx.write_u64(shared + 8 * t, last(t));
                    ctx.write_u64(own + ps * t, last(t));
                });
                let read = |addr: u64| {
                    let mut word = [0; 8];
                    sys.read_global(addr, &mut word);
                    u64::from_le_bytes(word)
                };
                for t in 0..u64::from(threads) {
                    assert_eq!(read(shared + 8 * t), last(t), "{what}: thread {t}'s shared word");
                    assert_eq!(read(own + ps * t), last(t), "{what}: thread {t}'s own page");
                }
            }
        }
    }
}

#[test]
fn faults_are_injected_and_recovered_from() {
    // The lossy plans must actually exercise the machinery: faults injected
    // on the fabric, retries observed by threads; and a crash plan must
    // drive at least one failover to the replica.
    let run = |faults: FaultConfig| {
        let cfg = SamhitaConfig { faults, ..replicated_cluster() };
        run_jacobi(&SamhitaRt::new(cfg), &JACOBI).report
    };
    let lossy = run(plans()[1].1.clone()); // drop-heavy
    assert!(lossy.fabric.total_drops() > 0, "10% drop plan injected nothing");
    assert!(lossy.total_of(|t| t.retries) > 0, "drops must force retries");

    // Jacobi's arrays home on server 1, so crashing it severs the threads'
    // primary data path and every thread must re-home to the replica.
    // (Crashing server 0 — the other plan — instead exercises abandoning
    // write-through to a dead replica, which is deliberately not a failover.)
    let crashed = run(plans()[8].1.clone()); // crash-other: server 1
    assert!(
        crashed.total_of(|t| t.failovers) > 0,
        "a mid-run server crash must drive failovers to the replica"
    );
}

#[test]
fn traced_faulty_run_passes_the_invariant_checker() {
    let (_, faults) = plans().remove(4); // mixed: drops + dups + delays
    let cfg = SamhitaConfig { tracing: true, faults, ..replicated_cluster() };
    let rt = SamhitaRt::new(cfg);
    run_jacobi(&rt, &JACOBI);
    let trace = rt.take_trace().expect("tracing was enabled");
    let summary = trace
        .check_invariants()
        .expect("RegC invariants must hold on the recovered protocol timeline");
    assert!(summary.diff_bytes > 0, "the run must have flushed (and conserved) diffs");
}

/// Batched-path plans. Sync-time flushes travel as one `UpdateBatch` per
/// destination memory server, so these seeds stress exactly that message
/// class: losing a whole batch, replaying one, delaying one past the
/// retransmission window, and crashing a server while batches are bound
/// for it. The dedup cache must treat a batch as one idempotent unit — a
/// replayed batch is absorbed without re-applying *any* of its parts.
fn batch_plans() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("batch-drop", FaultConfig::lossy(0xB1, 0.15, 0.0, 0.0, 0)),
        ("batch-dup", FaultConfig::lossy(0xB2, 0.0, 0.20, 0.0, 0)),
        ("batch-delay", FaultConfig::lossy(0xB3, 0.0, 0.0, 0.25, 8_000)),
        (
            // Crash memory server 1 (Jacobi's home) mid-run, with losses on
            // top, so in-flight batches die with it and must re-home.
            "batch-crash",
            FaultConfig {
                crash: Some((1, 60_000)),
                ..FaultConfig::lossy(0xB4, 0.12, 0.10, 0.0, 0)
            },
        ),
    ]
}

#[test]
fn batched_flushes_survive_batch_level_faults() {
    let micro_base = run_micro(&SamhitaRt::new(replicated_cluster()), &micro_params()).gsum;
    let jacobi_base = run_jacobi(&SamhitaRt::new(replicated_cluster()), &JACOBI).grid;
    for (name, faults) in batch_plans() {
        let cfg = SamhitaConfig { faults, ..replicated_cluster() };
        let m = run_micro(&SamhitaRt::new(cfg.clone()), &micro_params());
        assert_eq!(
            m.gsum.to_bits(),
            micro_base.to_bits(),
            "plan {name}: micro gsum diverged under batch-level faults"
        );
        let j = run_jacobi(&SamhitaRt::new(cfg), &JACOBI);
        assert_eq!(j.grid, jacobi_base, "plan {name} perturbed the Jacobi grid");
        assert!(j.report.fabric.total_faults() > 0, "plan {name} injected nothing");
    }
}

#[test]
fn duplicated_batches_are_one_idempotent_unit() {
    // A 20% duplicate rate replays whole batches. The server must absorb a
    // replay without re-applying any part — and the trace checker verifies
    // exactly that: a double-applied batch would double its server-side
    // ApplyDiff/ApplyFine bytes and break diff-byte conservation.
    let (_, faults) = batch_plans().remove(1);
    let cfg = SamhitaConfig { tracing: true, faults, ..replicated_cluster() };
    let rt = SamhitaRt::new(cfg);
    let r = run_jacobi(&rt, &JACOBI);
    assert!(r.report.fabric.total_dups() > 0, "the duplicate plan injected nothing");
    let trace = rt.take_trace().expect("tracing was enabled");
    let summary = trace.check_invariants().expect("a replayed batch must not re-apply its parts");
    assert!(summary.diff_bytes > 0, "the run must have flushed (and conserved) diffs");
}

#[test]
fn server_crash_mid_batch_fails_over_and_keeps_invariants() {
    let (_, faults) = batch_plans().remove(3);
    let cfg = SamhitaConfig { tracing: true, faults, ..replicated_cluster() };
    let rt = SamhitaRt::new(cfg);
    let r = run_jacobi(&rt, &JACOBI);
    assert!(
        r.report.total_of(|t| t.failovers) > 0,
        "crashing server 1 must re-home its batches to the replica"
    );
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("batched failover must preserve every RegC invariant");
}

/// Seeded fault plans for the deterministic-scheduler scale suite
/// (P ∈ {8, 64}): a heavy drop plan, a mid-run crash of memory server 1
/// (Jacobi's home, so the crash forces failovers at every thread count),
/// and a mixed drop+dup plan.
fn scale_plans() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("scale-drop", FaultConfig::lossy(0xC1, 0.08, 0.0, 0.0, 0)),
        (
            "scale-crash",
            FaultConfig { crash: Some((1, 70_000)), ..FaultConfig::lossy(0xC2, 0.03, 0.0, 0.0, 0) },
        ),
        ("scale-drop-dup", FaultConfig::lossy(0xC3, 0.05, 0.03, 0.0, 0)),
    ]
}

/// Jacobi sized so every thread owns at least one interior row: the P=8
/// shape is the suite's historical one; P=64 widens the grid and shortens
/// the sweep to keep runtime bounded.
fn scale_jacobi(threads: u32) -> JacobiParams {
    if threads <= 16 {
        JacobiParams { n: 16, iters: 4, threads }
    } else {
        JacobiParams { n: 64, iters: 2, threads }
    }
}

#[test]
fn scaled_faulty_runs_match_fault_free_results_and_reproduce_bit_identically() {
    // P=8 and P=64 compute threads under the deterministic scheduler: every
    // seeded fault plan must (a) leave the computed grid bit-identical to
    // the fault-free run — applications cannot tell recovery happened — and
    // (b) itself be bit-reproducible: two runs of the same plan produce
    // byte-identical reports, virtual timing and fabric counters included.
    for threads in [8u32, 64] {
        let p = scale_jacobi(threads);
        let baseline = run_jacobi(&SamhitaRt::new(replicated_cluster()), &p);
        assert_eq!(baseline.grid, serial_reference_jacobi(p.n, p.iters));
        for (name, faults) in scale_plans() {
            let cfg = SamhitaConfig { faults, ..replicated_cluster() };
            let a = run_jacobi(&SamhitaRt::new(cfg.clone()), &p);
            assert_eq!(a.grid, baseline.grid, "plan {name} perturbed the grid at P={threads}");
            assert!(a.report.fabric.total_faults() > 0, "plan {name} injected nothing");
            let b = run_jacobi(&SamhitaRt::new(cfg), &p);
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", b.report),
                "plan {name}: a seeded faulty P={threads} run must reproduce bit-identically"
            );
        }
    }
}

#[test]
fn scaled_faulty_runs_pass_the_invariant_checker() {
    for threads in [8u32, 64] {
        let p = scale_jacobi(threads);
        for (name, faults) in scale_plans() {
            let cfg = SamhitaConfig { tracing: true, faults, ..replicated_cluster() };
            let rt = SamhitaRt::new(cfg);
            let r = run_jacobi(&rt, &p);
            if name == "scale-crash" {
                assert!(
                    r.report.total_of(|t| t.failovers) > 0,
                    "crashing server 1 mid-run must drive failovers at P={threads}"
                );
            }
            let trace = rt.take_trace().expect("tracing was enabled");
            let summary = trace.check_invariants().unwrap_or_else(|e| {
                panic!("plan {name} broke a RegC invariant at P={threads}: {e:?}")
            });
            assert!(summary.diff_bytes > 0, "plan {name}: the run must have flushed diffs");
        }
    }
}

#[test]
fn inactive_fault_schedule_stays_bit_deterministic() {
    // FaultConfig::default() must leave the virtual-time simulation exactly
    // as it was before fault injection existed: clocks reproducible bit for
    // bit across runs (P=1: no scheduling freedom at all).
    let run = || {
        let p = MicroParams { threads: 1, ..micro_params() };
        let r = run_micro(&SamhitaRt::new(SamhitaConfig::default()), &p);
        assert_eq!(r.report.fabric.total_faults(), 0);
        assert_eq!(r.report.total_of(|t| t.retries), 0);
        (r.gsum.to_bits(), r.report.makespan, r.report.threads[0].sync)
    };
    assert_eq!(run(), run(), "inactive faults must not perturb virtual time");
}

/// The chaos half of the faulted-timeline pin (`tests/common/timeline.rs`;
/// `tests/recovery.rs` holds the manager-crash half): every plan of
/// [`plans`], [`batch_plans`] and [`scale_plans`] on jacobi P=3, jacobi P=8
/// and the micro-benchmark, recorded at the parent of PR 23 and re-recorded
/// when lock grants began to travel from holder to holder, when
/// synchronization stopped waiting for its flush to be acked, when a lock
/// waiter's predecessor began to be hinted as it queues, when waiters
/// began to be advanced one fold earlier with batons relaying what the
/// advance lacks, when a refetch began to move the pages a thread used
/// instead of its line, with notice runs charged as varints, when updates
/// became one-way, so that no lost ack resends an applied batch, and when a
/// thread that registers after others published began to follow their
/// update batches (a fault that delays a registration makes it late: twelve
/// rows, two of them by 4 ns), and when runs began to start once every
/// service settled and threads to refetch at a barrier release the pages
/// they used (every row), and when a never-written page began to be served
/// as its version and a held request at its batch's completion (every
/// row's checksum: a serve event now says what it read and how long its
/// request waited) — each moves the clock, the messages and so the
/// faults a plan rolls for them — never the memory, which every row
/// checks, the fail-overs or a recovered grid.
const PINNED: &[timeline::Row] = &[
    ("drop-light/jacobi-p3", [139761, 1, 0, 0, 2, 253, 0x0aefad1dacd852fd]),
    ("drop-light/jacobi-p8", [354877, 7, 0, 0, 10, 699, 0xa5c01fe977c55e88]),
    ("drop-light/micro-p3", [101857, 0, 0, 0, 1, 194, 0x9d94be1b937c0dd7]),
    ("drop-heavy/jacobi-p3", [1535080, 27, 0, 0, 28, 279, 0x2d26b2a5e467b25c]),
    ("drop-heavy/jacobi-p8", [1831284, 66, 0, 0, 75, 777, 0xe313edfb179babd5]),
    ("drop-heavy/micro-p3", [625895, 17, 0, 0, 19, 211, 0xcafeddb50b103a38]),
    ("duplicates/jacobi-p3", [136551, 0, 0, 0, 21, 254, 0x8d2d6ed4c09b10f4]),
    ("duplicates/jacobi-p8", [230924, 0, 0, 0, 60, 702, 0x46dd4de304523ec9]),
    ("duplicates/micro-p3", [100341, 0, 0, 0, 14, 194, 0x59c2a4fb0554b93b]),
    ("delays/jacobi-p3", [190891, 0, 0, 0, 23, 251, 0x990bfb59e544bf57]),
    ("delays/jacobi-p8", [294496, 0, 0, 0, 67, 687, 0xef504e1abac3e37c]),
    ("delays/micro-p3", [131833, 0, 0, 0, 19, 190, 0x74988ba5be76b346]),
    ("mixed/jacobi-p3", [391966, 12, 0, 0, 38, 270, 0x8e6dc340ed1f87d2]),
    ("mixed/jacobi-p8", [739146, 25, 0, 0, 100, 729, 0x110e12a2d993ab85]),
    ("mixed/micro-p3", [216327, 7, 0, 0, 30, 207, 0x9d08f16891a6f839]),
    ("drop-dup/jacobi-p3", [623911, 21, 0, 0, 35, 287, 0x7447ed01061491c7]),
    ("drop-dup/jacobi-p8", [1731686, 58, 0, 0, 106, 782, 0x2a205ebf91e2a72d]),
    ("drop-dup/micro-p3", [247558, 14, 0, 0, 27, 216, 0x6c30ae989eaad724]),
    ("partition/jacobi-p3", [499327, 5, 0, 0, 6, 257, 0x637a1b866d366c59]),
    ("partition/jacobi-p8", [674404, 11, 0, 0, 13, 703, 0xbf074ed617fae364]),
    ("partition/micro-p3", [445326, 4, 0, 0, 4, 194, 0x6a256db6fa7f486c]),
    ("crash-primary/jacobi-p3", [6645300, 26, 0, 0, 36, 264, 0x9637d7045229c34e]),
    ("crash-primary/jacobi-p8", [17602360, 67, 0, 0, 93, 709, 0x27939a6acf4e0d31]),
    ("crash-primary/micro-p3", [6564914, 25, 0, 0, 35, 206, 0xfe7b7cad062c00e4]),
    ("crash-other/jacobi-p3", [4683784, 26, 3, 0, 30, 258, 0x1824bd77173aa439]),
    ("crash-other/jacobi-p8", [9253747, 82, 8, 0, 92, 724, 0x8452a5ff36a0266a]),
    ("crash-other/micro-p3", [4593105, 27, 3, 0, 31, 201, 0x6bbe969b2a3a315c]),
    ("batch-drop/jacobi-p3", [815953, 28, 0, 0, 32, 288, 0x6d2427105e70963e]),
    ("batch-drop/jacobi-p8", [2762137, 93, 0, 0, 115, 817, 0x3bb914d572363aa6]),
    ("batch-drop/micro-p3", [602027, 23, 0, 0, 26, 221, 0x5a8f2e06b9b3f975]),
    ("batch-dup/jacobi-p3", [136551, 0, 0, 0, 61, 262, 0x9e8f2005e50a860c]),
    ("batch-dup/jacobi-p8", [230924, 0, 0, 0, 167, 710, 0x895ba478705f0b64]),
    ("batch-dup/micro-p3", [100341, 0, 0, 0, 41, 199, 0x72b659dad32afaa6]),
    ("batch-delay/jacobi-p3", [332594, 0, 0, 0, 62, 251, 0x077a72a31945659d]),
    ("batch-delay/jacobi-p8", [510359, 0, 0, 0, 181, 687, 0x27b037909cabfc61]),
    ("batch-delay/micro-p3", [238776, 0, 0, 0, 45, 192, 0xc2a7c2890a87e359]),
    ("batch-crash/jacobi-p3", [7312605, 45, 3, 0, 84, 292, 0x2c883c2c8d9083b6]),
    ("batch-crash/jacobi-p8", [16970807, 129, 8, 0, 242, 803, 0x2f44a493eaffef98]),
    ("batch-crash/micro-p3", [2731780, 39, 3, 0, 72, 223, 0x874e5e706d733367]),
    ("scale-drop/jacobi-p3", [419098, 12, 0, 0, 15, 273, 0x60af15401710b1e6]),
    ("scale-drop/jacobi-p8", [1163174, 41, 0, 0, 46, 744, 0x6ca166c28294d107]),
    ("scale-drop/micro-p3", [331036, 9, 0, 0, 12, 210, 0x4a27a978c73ef6c6]),
    ("scale-crash/jacobi-p3", [6759389, 28, 3, 0, 32, 258, 0x7c10db909ac106dd]),
    ("scale-crash/jacobi-p8", [17703399, 75, 8, 0, 88, 721, 0x8853c36128924385]),
    ("scale-crash/micro-p3", [6527517, 26, 3, 0, 31, 199, 0xdaf4f8477f128e95]),
    ("scale-drop-dup/jacobi-p3", [378287, 8, 0, 0, 14, 262, 0x86f314e905118ac0]),
    ("scale-drop-dup/jacobi-p8", [693009, 26, 0, 0, 52, 724, 0x9cb54f6b43f38d65]),
    ("scale-drop-dup/micro-p3", [324499, 8, 0, 0, 12, 203, 0xbd76d96d233a9537]),
];

#[test]
fn faulted_timelines_are_pinned_across_commits() {
    let mut fresh = Vec::new();
    let gsum = run_micro(&SamhitaRt::new(replicated_cluster()), &micro_params()).gsum;
    for (plan, faults) in plans().into_iter().chain(batch_plans()).chain(scale_plans()) {
        for problem in ["jacobi-p3", "jacobi-p8", "micro-p3"] {
            let cfg =
                SamhitaConfig { tracing: true, faults: faults.clone(), ..replicated_cluster() };
            let rt = SamhitaRt::new(cfg);
            // Every row's memory is the fault-free run's, bit for bit.
            let jacobi = |p: &JacobiParams| {
                let r = run_jacobi(&rt, p);
                assert_eq!(r.grid, serial_reference_jacobi(p.n, p.iters), "{plan}/{problem}");
                r.report
            };
            let report = match problem {
                "jacobi-p3" => jacobi(&JACOBI),
                "jacobi-p8" => jacobi(&scale_jacobi(8)),
                _ => {
                    let r = run_micro(&rt, &micro_params());
                    assert_eq!(r.gsum.to_bits(), gsum.to_bits(), "{plan}/{problem}");
                    r.report
                }
            };
            let trace = rt.take_trace().expect("tracing was enabled");
            fresh.push((format!("{plan}/{problem}"), timeline::timeline(&report, &trace)));
        }
    }
    timeline::assert_pinned(PINNED, &fresh);
}

/// The jacobi of `tests/consistency.rs` whose rows are 1 KiB pages, in a
/// four-line cache: every destination row is claimed, not fetched, and
/// ships whole — the one faulted run in which stores claim pages.
const WHOLE_PAGE_JACOBI: JacobiParams = JacobiParams { n: 126, iters: 4, threads: 4 };

/// Batch-level losses and a primary crash over claimed pages, on write-
/// through replicas (`replica_offset` 1), pinned like [`PINNED`];
/// re-recorded with it when a never-written page began to be served as its
/// version, which moved the crash's fail-overs from one thread to three.
const WHOLE_PAGE_PINNED: &[timeline::Row] = &[
    ("crash-primary/jacobi-pages-p4", [2860170, 41, 3, 0, 83, 922, 0xe4026f3a1f85fed1]),
    ("batch-drop/jacobi-pages-p4", [3730346, 142, 0, 0, 182, 1319, 0x0b4475a47c288486]),
];

#[test]
fn faulted_timelines_over_claimed_pages_are_pinned() {
    let mut fresh = Vec::new();
    let p = WHOLE_PAGE_JACOBI;
    let plans = plans().into_iter().chain(batch_plans());
    for (plan, faults) in plans.filter(|(n, _)| ["batch-drop", "crash-primary"].contains(n)) {
        let cfg = SamhitaConfig {
            page_size: 1024,
            cache_capacity_lines: 4,
            tracing: true,
            faults,
            ..replicated_cluster()
        };
        assert_eq!(cfg.replica_offset, 1);
        let rt = SamhitaRt::new(cfg);
        let r = run_jacobi(&rt, &p);
        assert_eq!(r.grid, serial_reference_jacobi(p.n, p.iters), "{plan}");
        assert_eq!(r.report.total_of(|t| t.twins_created), 0, "{plan}: a row was not claimed");
        let trace = rt.take_trace().expect("tracing was enabled");
        trace.check_invariants().unwrap_or_else(|v| panic!("{plan}: {v:?}"));
        fresh.push((format!("{plan}/jacobi-pages-p4"), timeline::timeline(&r.report, &trace)));
    }
    timeline::assert_pinned(WHOLE_PAGE_PINNED, &fresh);
}
