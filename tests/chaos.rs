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

use samhita_repro::core::{FaultConfig, PartitionSpec, SamhitaConfig, TopologyKind};
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
/// replayed batch re-acks without re-applying *any* of its parts.
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
    // A 20% duplicate rate replays whole batches. The server must re-ack a
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
/// advance lacks, and when a refetch began to move the pages a thread used
/// instead of its line, with notice runs charged as varints (each moves the
/// clock, the messages and so the faults a plan rolls for them — never the
/// memory, which every row checks, the fail-overs or a recovered grid).
const PINNED: &[timeline::Row] = &[
    ("drop-light/jacobi-p3", [162697, 4, 0, 0, 4, 297, 0x63680867b84ac380]),
    ("drop-light/jacobi-p8", [392174, 9, 0, 0, 12, 746, 0x2d1c0292d9365f74]),
    ("drop-light/micro-p3", [100341, 3, 0, 0, 3, 248, 0x71f4f7e1a1b63ed7]),
    ("drop-heavy/jacobi-p3", [2365338, 38, 0, 0, 39, 342, 0x2320631cdbe425d2]),
    ("drop-heavy/jacobi-p8", [2004792, 82, 0, 0, 85, 853, 0x651e540d61847364]),
    ("drop-heavy/micro-p3", [1036665, 32, 0, 0, 33, 291, 0x5831194f68a650ef]),
    ("duplicates/jacobi-p3", [159487, 0, 0, 0, 22, 295, 0x7873dcc4d05aabbb]),
    ("duplicates/jacobi-p8", [257262, 0, 0, 0, 67, 757, 0x15391c4eef6677b8]),
    ("duplicates/micro-p3", [100341, 0, 0, 0, 17, 248, 0x7193a95ca8999be2]),
    ("delays/jacobi-p3", [204261, 0, 0, 0, 26, 289, 0xf3ff3e5d33aa1af3]),
    ("delays/jacobi-p8", [324676, 0, 0, 0, 72, 733, 0x29eb48d26ed7597b]),
    ("delays/micro-p3", [136635, 0, 0, 0, 23, 244, 0xe8037e09a7726ff1]),
    ("mixed/jacobi-p3", [457718, 17, 0, 0, 45, 322, 0xbff004ad8cb63378]),
    ("mixed/jacobi-p8", [795104, 29, 0, 0, 104, 786, 0x84a239a346b3a040]),
    ("mixed/micro-p3", [256720, 13, 0, 0, 37, 263, 0xb1b2b65c519ca228]),
    ("drop-dup/jacobi-p3", [756032, 27, 0, 0, 41, 330, 0xc37cfbd3c6f3b945]),
    ("drop-dup/jacobi-p8", [1394297, 58, 0, 0, 101, 832, 0xf472fc636f037fde]),
    ("drop-dup/micro-p3", [308999, 21, 0, 0, 35, 281, 0x50a792221cc6acea]),
    ("partition/jacobi-p3", [503890, 7, 0, 0, 7, 297, 0xfce4e1bebedbada6]),
    ("partition/jacobi-p8", [718073, 24, 0, 0, 29, 765, 0xaa1c8e401cdbe4ea]),
    ("partition/micro-p3", [448059, 11, 0, 0, 11, 252, 0xd184a04cd28a4b8a]),
    ("crash-primary/jacobi-p3", [2355796, 25, 0, 0, 37, 280, 0x6c62b2cfedf7b769]),
    ("crash-primary/jacobi-p8", [17607822, 67, 0, 0, 92, 697, 0xc7be35a5ce6e125d]),
    ("crash-primary/micro-p3", [2271980, 25, 0, 0, 35, 235, 0xcc56cd1ae73d792c]),
    ("crash-other/jacobi-p3", [4660556, 31, 3, 0, 34, 284, 0xce729a2f26d6d862]),
    ("crash-other/jacobi-p8", [9190445, 82, 8, 0, 90, 721, 0x355032a0d3cff4bd]),
    ("crash-other/micro-p3", [4548006, 30, 3, 0, 33, 235, 0x53f99a8cd7d22a05]),
    ("batch-drop/jacobi-p3", [1088646, 44, 0, 0, 44, 355, 0x9c7709eac8808759]),
    ("batch-drop/jacobi-p8", [2985957, 127, 0, 0, 134, 924, 0x5794a330f0d1f010]),
    ("batch-drop/micro-p3", [1049082, 38, 0, 0, 39, 297, 0x7c6f56fda9f1b67b]),
    ("batch-dup/jacobi-p3", [159487, 0, 0, 0, 76, 313, 0xbd936f1edab24786]),
    ("batch-dup/jacobi-p8", [257262, 0, 0, 0, 190, 792, 0x4cac117774d3c972]),
    ("batch-dup/micro-p3", [100341, 0, 0, 0, 58, 263, 0x1ea916b15f972ab5]),
    ("batch-delay/jacobi-p3", [367760, 0, 0, 0, 71, 289, 0xc2cd02bbc5ef195d]),
    ("batch-delay/jacobi-p8", [512304, 0, 0, 0, 198, 733, 0x74a630efc0efcafe]),
    ("batch-delay/micro-p3", [208892, 0, 0, 0, 57, 240, 0x2370825c170f13f1]),
    ("batch-crash/jacobi-p3", [7477727, 53, 3, 0, 93, 323, 0xc3fe491b9c5bd187]),
    ("batch-crash/jacobi-p8", [12713444, 143, 8, 0, 245, 825, 0x0a90d0670ccdcfd9]),
    ("batch-crash/micro-p3", [2809180, 48, 3, 0, 81, 260, 0xe4a5383c07d3cb70]),
    ("scale-drop/jacobi-p3", [398720, 15, 0, 0, 16, 314, 0xd495bbe07021dae8]),
    ("scale-drop/jacobi-p8", [1412033, 52, 0, 0, 54, 810, 0xdb9fbb30828c5339]),
    ("scale-drop/micro-p3", [350369, 12, 0, 0, 13, 258, 0x17b4182b2a5e0be2]),
    ("scale-crash/jacobi-p3", [6885059, 30, 3, 0, 33, 274, 0x64dce732a2be1d77]),
    ("scale-crash/jacobi-p8", [17659088, 75, 8, 0, 84, 707, 0xc6e9b173032965a9]),
    ("scale-crash/micro-p3", [4506895, 28, 3, 0, 31, 230, 0xc90ee2b2cb0bf720]),
    ("scale-drop-dup/jacobi-p3", [392215, 13, 0, 0, 19, 310, 0x05a2f3b790b7737d]),
    ("scale-drop-dup/jacobi-p8", [768957, 33, 0, 0, 56, 788, 0xf296f701bf7d23ac]),
    ("scale-drop-dup/micro-p3", [273921, 12, 0, 0, 16, 258, 0x61fd9da02ba350c4]),
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
