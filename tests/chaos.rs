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
/// when lock grants began to travel from holder to holder (which moves the
/// clock, the messages and so the faults a plan rolls for them — never the
/// memory, the fail-overs or a recovered grid).
const PINNED: &[timeline::Row] = &[
    ("drop-light/jacobi-p3", [230458, 4, 0, 0, 4, 297, 0x1b4189fa3810a1cc]),
    ("drop-light/jacobi-p8", [623883, 10, 0, 0, 12, 750, 0xcdb9858498896cc2]),
    ("drop-light/micro-p3", [149441, 3, 0, 0, 3, 252, 0xf9347db414750b43]),
    ("drop-heavy/jacobi-p3", [2345740, 37, 0, 0, 38, 343, 0xb7d1c82fda4fd1a0]),
    ("drop-heavy/jacobi-p8", [2324311, 82, 0, 0, 85, 853, 0xc0671577417341ad]),
    ("drop-heavy/micro-p3", [713291, 32, 0, 0, 33, 292, 0x77e5c431ed682433]),
    ("duplicates/jacobi-p3", [219332, 0, 0, 0, 22, 295, 0xf0fcb97b7c127c93]),
    ("duplicates/jacobi-p8", [429333, 0, 0, 0, 68, 755, 0xfef449f41937a5d1]),
    ("duplicates/micro-p3", [141991, 0, 0, 0, 18, 253, 0xaebc2761af1e545f]),
    ("delays/jacobi-p3", [296915, 0, 0, 0, 26, 289, 0xe99c9f8d46659f44]),
    ("delays/jacobi-p8", [517728, 0, 0, 0, 71, 733, 0x8c5ad9ad463ca544]),
    ("delays/micro-p3", [189027, 0, 0, 0, 23, 248, 0x2169cd0b10aef8cc]),
    ("mixed/jacobi-p3", [534490, 17, 0, 0, 45, 322, 0x98a5c4ffb08b7e5f]),
    ("mixed/jacobi-p8", [1007383, 30, 0, 0, 107, 791, 0x47b0f9e10a142536]),
    ("mixed/micro-p3", [324700, 13, 0, 0, 37, 267, 0xd76b23d76045fdef]),
    ("drop-dup/jacobi-p3", [733717, 27, 0, 0, 41, 334, 0x2bb8cafc1073a963]),
    ("drop-dup/jacobi-p8", [1344656, 58, 0, 0, 101, 834, 0x323943e55a95a113]),
    ("drop-dup/micro-p3", [444477, 21, 0, 0, 35, 282, 0xf7e70f8516fe87f1]),
    ("partition/jacobi-p3", [560702, 7, 0, 0, 7, 297, 0x7ac7fd403ec23612]),
    ("partition/jacobi-p8", [906659, 23, 0, 0, 29, 763, 0x6a53de43777fc656]),
    ("partition/micro-p3", [482866, 12, 0, 0, 12, 256, 0xe358042ce6992ab6]),
    ("crash-primary/jacobi-p3", [6641992, 25, 0, 0, 37, 277, 0x3e83467daf4a64b1]),
    ("crash-primary/jacobi-p8", [17748413, 67, 0, 0, 92, 698, 0x8ad047269b429323]),
    ("crash-primary/micro-p3", [4466100, 25, 0, 0, 36, 238, 0xed2424aa09d79d7b]),
    ("crash-other/jacobi-p3", [4721093, 31, 3, 0, 34, 284, 0x1a4f83cd1abbed64]),
    ("crash-other/jacobi-p8", [15778779, 80, 8, 0, 89, 717, 0xb02b0b7c25544530]),
    ("crash-other/micro-p3", [4635899, 30, 3, 0, 33, 243, 0x02d3ebcd1b7c6649]),
    ("batch-drop/jacobi-p3", [1126643, 44, 0, 0, 45, 359, 0x6287fecc54190ceb]),
    ("batch-drop/jacobi-p8", [4276307, 127, 0, 0, 135, 924, 0xe38b88ad5dcf59a9]),
    ("batch-drop/micro-p3", [830874, 42, 0, 0, 42, 311, 0xe62428e37ce925dd]),
    ("batch-dup/jacobi-p3", [219332, 0, 0, 0, 76, 313, 0xa8b4c78cbc539e57]),
    ("batch-dup/jacobi-p8", [429333, 0, 0, 0, 188, 789, 0x33483a456014a0ef]),
    ("batch-dup/micro-p3", [141991, 0, 0, 0, 64, 265, 0xc434952d18ca6003]),
    ("batch-delay/jacobi-p3", [513459, 0, 0, 0, 71, 289, 0x08372e15e0c1a187]),
    ("batch-delay/jacobi-p8", [914929, 0, 0, 0, 198, 733, 0x58988eae94f50eeb]),
    ("batch-delay/micro-p3", [382679, 0, 0, 0, 60, 246, 0x57e1b362d93e017c]),
    ("batch-crash/jacobi-p3", [7909058, 53, 3, 0, 93, 324, 0x0c0a6ddff699f4bc]),
    ("batch-crash/jacobi-p8", [13359206, 146, 8, 0, 243, 829, 0xa99e361fe7bc64b2]),
    ("batch-crash/micro-p3", [2853235, 47, 3, 0, 81, 261, 0xb26901c6492b873f]),
    ("scale-drop/jacobi-p3", [455901, 15, 0, 0, 16, 314, 0x76c3519f34efe472]),
    ("scale-drop/jacobi-p8", [1513924, 51, 0, 0, 53, 810, 0x7a6cb27ef1e88a1a]),
    ("scale-drop/micro-p3", [370872, 12, 0, 0, 13, 260, 0x49a98260696b9652]),
    ("scale-crash/jacobi-p3", [6896781, 30, 3, 0, 33, 275, 0xc96f678fbf438444]),
    ("scale-crash/jacobi-p8", [17850934, 76, 8, 0, 84, 710, 0xb33de428b8508187]),
    ("scale-crash/micro-p3", [2499716, 28, 3, 0, 31, 229, 0xd7aeab28ba6723dd]),
    ("scale-drop-dup/jacobi-p3", [449450, 13, 0, 0, 19, 310, 0xc004bde411cd020a]),
    ("scale-drop-dup/jacobi-p8", [883330, 30, 0, 0, 56, 787, 0x089a5aa38391c97f]),
    ("scale-drop-dup/micro-p3", [308600, 12, 0, 0, 16, 262, 0x5326462bb7b637f2]),
];

#[test]
fn faulted_timelines_are_pinned_across_commits() {
    let mut fresh = Vec::new();
    for (plan, faults) in plans().into_iter().chain(batch_plans()).chain(scale_plans()) {
        for problem in ["jacobi-p3", "jacobi-p8", "micro-p3"] {
            let cfg =
                SamhitaConfig { tracing: true, faults: faults.clone(), ..replicated_cluster() };
            let rt = SamhitaRt::new(cfg);
            let report = match problem {
                "jacobi-p3" => run_jacobi(&rt, &JACOBI).report,
                "jacobi-p8" => run_jacobi(&rt, &scale_jacobi(8)).report,
                _ => run_micro(&rt, &micro_params()).report,
            };
            let trace = rt.take_trace().expect("tracing was enabled");
            fresh.push((format!("{plan}/{problem}"), timeline::timeline(&report, &trace)));
        }
    }
    timeline::assert_pinned(PINNED, &fresh);
}
