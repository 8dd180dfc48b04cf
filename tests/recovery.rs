//! Manager crash recovery: the replicated manager state machine under fire.
//!
//! Every mutation the primary manager applies is a typed log record shipped
//! (write-ahead, same virtual instant as the response) to a hot standby on
//! another node. These tests crash the primary mid-run and demand that the
//! clients' retry/failover path re-homes to the standby, that the standby's
//! replayed state answers every in-flight and future request, and that the
//! application cannot tell: final shared-memory contents bit-identical to a
//! fault-free run, every RegC invariant intact, and the whole recovered
//! execution itself bit-reproducible under the deterministic scheduler.

mod common;
#[path = "common/timeline.rs"]
mod timeline;

use common::{generate, interpret, run_on_dsm};
use samhita_repro::core::{FaultConfig, Samhita, SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{
    run_jacobi, run_md, run_micro, serial_reference_jacobi, AllocMode, JacobiParams, MdParams,
    MicroParams,
};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::scl::MsgClass;
use samhita_repro::trace::{EventKind, TrackId};

/// The paper's six-node cluster with a hot-standby manager configured:
/// node 0 manager, nodes 1–2 memory servers, compute on 3–5, standby on
/// the last compute node (5) so a manager-node crash cannot take it too.
fn standby_cluster() -> SamhitaConfig {
    SamhitaConfig {
        manager_standby: true,
        mem_servers: 2,
        replica_offset: 1,
        topology: TopologyKind::Cluster { nodes: 6 },
        ..SamhitaConfig::default()
    }
}

/// The standby cluster with the primary manager crashing at `at_ns`
/// (virtual). From that instant every envelope into or out of the primary
/// is dropped; only the host's reliable control plane still reaches it.
fn mgr_crash(at_ns: u64) -> SamhitaConfig {
    SamhitaConfig {
        faults: FaultConfig { mgr_crash: Some(at_ns), ..FaultConfig::default() },
        ..standby_cluster()
    }
}

const JACOBI_P8: JacobiParams = JacobiParams { n: 16, iters: 4, threads: 8 };
const JACOBI_P64: JacobiParams = JacobiParams { n: 64, iters: 2, threads: 64 };

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

#[test]
fn jacobi_p8_survives_a_manager_crash_bit_identically() {
    let baseline = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P8);
    assert_eq!(baseline.grid, serial_reference_jacobi(JACOBI_P8.n, JACOBI_P8.iters));
    let r = run_jacobi(&SamhitaRt::new(mgr_crash(60_000)), &JACOBI_P8);
    assert_eq!(r.grid, baseline.grid, "manager crash perturbed the Jacobi grid at P=8");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    assert!(r.report.takeover_ns > 0, "the standby must have taken over");
    assert!(r.report.standby_serves > 0, "the standby must have served requests");
    assert!(r.report.log_records_shipped > 0, "the primary must have shipped its log");
}

#[test]
fn jacobi_p64_survives_a_manager_crash_bit_identically() {
    let baseline = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P64);
    assert_eq!(baseline.grid, serial_reference_jacobi(JACOBI_P64.n, JACOBI_P64.iters));
    let r = run_jacobi(&SamhitaRt::new(mgr_crash(60_000)), &JACOBI_P64);
    assert_eq!(r.grid, baseline.grid, "manager crash perturbed the Jacobi grid at P=64");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    assert!(r.report.standby_serves > 0, "the standby must have served requests");
}

#[test]
fn micro_gsum_survives_a_manager_crash_bit_identically() {
    let baseline = run_micro(&SamhitaRt::new(standby_cluster()), &micro_params());
    let r = run_micro(&SamhitaRt::new(mgr_crash(20_000)), &micro_params());
    assert_eq!(
        r.gsum.to_bits(),
        baseline.gsum.to_bits(),
        "manager crash perturbed the micro-benchmark sum: {} != {}",
        r.gsum,
        baseline.gsum
    );
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
}

#[test]
fn md_positions_survive_a_manager_crash_bit_identically() {
    let p = MdParams { n: 24, steps: 4, dt: 1e-3, threads: 8, seed: 42 };
    let baseline = run_md(&SamhitaRt::new(standby_cluster()), &p);
    let r = run_md(&SamhitaRt::new(mgr_crash(60_000)), &p);
    assert_eq!(
        r.positions, baseline.positions,
        "manager crash perturbed the MD trajectory (positions must be bit-identical)"
    );
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
}

#[test]
fn random_program_survives_a_manager_crash_at_p8_and_p64() {
    for (threads, crash_ns) in [(8u32, 50_000u64), (64, 50_000)] {
        let phases = generate(97, threads, 4);
        let (want_slots, want_accs) = interpret(&phases, threads);
        let sys = Samhita::new(mgr_crash(crash_ns));
        let (slots, accs, report) = run_on_dsm(&sys, &phases, threads);
        assert_eq!(slots, want_slots, "P={threads}: slots diverged after manager failover");
        assert_eq!(accs, want_accs, "P={threads}: accumulators diverged after manager failover");
        assert!(
            report.mgr_failovers() > 0,
            "P={threads}: the crash must drive threads to the standby"
        );
    }
}

#[test]
fn recovered_run_is_bit_reproducible_and_passes_the_invariant_checker() {
    let observe = || {
        let cfg = SamhitaConfig { tracing: true, ..mgr_crash(60_000) };
        let rt = SamhitaRt::new(cfg);
        let r = run_jacobi(&rt, &JACOBI_P8);
        let trace = rt.take_trace().expect("tracing was enabled");
        (format!("{:?}", r.report), trace)
    };
    let (report_a, trace_a) = observe();
    let (report_b, trace_b) = observe();
    assert_eq!(report_a, report_b, "a recovered run must reproduce bit-identically");
    assert_eq!(trace_a.checksum(), trace_b.checksum(), "trace checksums must match across runs");

    // The recovered protocol timeline still satisfies every RegC invariant
    // (lock intervals now span primary-served acquires and standby-served
    // releases; diff-byte conservation spans the failover).
    let summary = trace_a.check_invariants().expect("recovered timeline must satisfy RegC");
    assert!(summary.diff_bytes > 0, "the run must have flushed (and conserved) diffs");

    // The failover is visible in the trace: threads record the re-home,
    // and the standby's track carries real serves after the takeover.
    let failovers = (0..JACOBI_P8.threads)
        .filter_map(|t| trace_a.track(TrackId::Thread(t)))
        .flatten()
        .filter(|e| matches!(e.kind, EventKind::MgrFailover { .. }))
        .count();
    assert!(failovers > 0, "no thread traced a MgrFailover event");
    let standby = trace_a.track(TrackId::MgrStandby).unwrap_or(&[]);
    assert!(
        standby.iter().any(|e| matches!(e.kind, EventKind::MgrServe { .. })),
        "the standby track must carry post-takeover serves"
    );
}

#[test]
fn fault_free_standby_ships_the_log_but_never_takes_over() {
    // With a standby configured but no crash, the log is shipped and the
    // standby stays a silent replica: no takeover, no serves, no reclaims —
    // and the application result is still exactly the serial reference.
    let r = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P8);
    assert_eq!(r.grid, serial_reference_jacobi(JACOBI_P8.n, JACOBI_P8.iters));
    assert!(r.report.log_records_shipped > 0, "the primary must ship its log");
    assert_eq!(r.report.mgr_failovers(), 0, "no thread may fail over without a crash");
    assert_eq!(r.report.takeover_ns, 0, "the standby must not take over without a crash");
    assert_eq!(r.report.standby_serves, 0, "the standby must not serve without a crash");
    assert_eq!(r.report.lease_reclaims, 0, "no lease may expire in a fault-free run");
}

#[test]
fn fault_free_probe_resends_are_absorbed_not_reapplied() {
    // A standby configuration arms the clients' grant-liveness probe even
    // in a fault-free run: any request whose grant is deferred past the
    // lease period re-sends its token. The live primary must absorb those
    // duplicates through replay protection — a re-applied probe would queue
    // the acquire twice and count the barrier arrival twice (releasing the
    // barrier before the peer arrives), silently corrupting synchronization.
    let cfg = SamhitaConfig {
        tracing: true,
        mgr_lease_ns: 20_000, // 20 µs leases: blocked waiters probe many times
        ..standby_cluster()
    };
    let sys = Samhita::new(cfg);
    let slot = sys.alloc_global(24);
    let lock = sys.create_mutex();
    let barrier = sys.create_barrier(2);
    let report = sys.run(2, move |ctx| {
        if ctx.tid() == 0 {
            // Hold the lock across ~100 µs of compute — several lease
            // periods — so thread 1's queued acquire probes repeatedly.
            ctx.lock(lock);
            ctx.write_u64(slot, 7);
            ctx.compute(300_000);
            ctx.unlock(lock);
            // Arrive at the barrier equally late: thread 1 waits (and
            // probes) there; a double-counted arrival would release it
            // before this thread ever arrives.
            ctx.compute(300_000);
            ctx.barrier(barrier);
        } else {
            // Let thread 0 take the lock first; the remaining ~80 µs of its
            // hold still spans several lease periods of blocked probing.
            ctx.compute(50_000);
            ctx.lock(lock);
            let v = ctx.read_u64(slot);
            ctx.write_u64(slot + 8, v + 1);
            ctx.unlock(lock);
            ctx.barrier(barrier);
            ctx.write_u64(slot + 16, 9);
        }
    });
    // The lock handed off exactly once, the barrier released exactly once,
    // and RegC propagated the holder's write to the queued waiter.
    let mut bytes = [0u8; 24];
    sys.read_global(slot, &mut bytes);
    assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 7);
    assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 8);
    assert_eq!(u64::from_le_bytes(bytes[16..].try_into().unwrap()), 9);
    // Absorbing probes is the primary's job; the standby stays silent.
    assert_eq!(report.mgr_failovers(), 0, "no thread may fail over without a crash");
    assert_eq!(report.takeover_ns, 0, "the standby must not take over without a crash");
    assert_eq!(report.standby_serves, 0, "the standby must not serve without a crash");
    assert_eq!(report.lease_reclaims, 0, "a live primary's leases must not be reclaimed");
    // A probe is a retransmission of the same token: counted and traced.
    let retries = report.total_of(|t| t.retries);
    assert!(retries > 0, "thread 1's blocked acquire and barrier wait must have probed");
    let trace = sys.take_trace().expect("tracing was enabled");
    assert_eq!(timeline::retry_events(&trace), retries, "every probe is counted and traced");
}

#[test]
fn expired_lease_is_reclaimed_and_the_stale_release_absorbed() {
    // Thread 0 takes a lock and disappears into a long compute phase — far
    // longer than the lease — while the primary crashes. Thread 1 keeps the
    // manager busy, fails over, and activates the standby, whose lease sweep
    // must reclaim thread 0's expired lock *in virtual time* (no wall-clock
    // timer anywhere). Thread 0's eventual release arrives stale and must be
    // absorbed (acknowledged, not applied). Nobody else touches thread 0's
    // data, so the final memory is still exact.
    let cfg = SamhitaConfig {
        tracing: true,
        mgr_lease_ns: 20_000, // 20 µs leases: expired long before the release
        faults: FaultConfig { mgr_crash: Some(30_000), ..FaultConfig::default() },
        ..standby_cluster()
    };
    let sys = Samhita::new(cfg);
    let slot = sys.alloc_global(16);
    let lock_a = sys.create_mutex();
    let lock_b = sys.create_mutex();
    let report = sys.run(2, move |ctx| {
        if ctx.tid() == 0 {
            ctx.lock(lock_a);
            ctx.write_u64(slot, 41);
            // ~14 ms of virtual compute: the lease (20 µs) expires, the
            // primary crashes, and the standby takes over meanwhile.
            ctx.compute(40_000_000);
            ctx.write_u64(slot + 8, 42);
            ctx.unlock(lock_a); // stale: the standby reclaimed this lease
        } else {
            // Keep manager traffic flowing so the crash is detected and the
            // standby activated well before thread 0 resurfaces.
            for _ in 0..40 {
                ctx.lock(lock_b);
                ctx.unlock(lock_b);
            }
        }
    });
    assert!(report.mgr_failovers() > 0, "the crash must drive thread 1 to the standby");
    assert_eq!(report.lease_reclaims, 1, "exactly one lease (thread 0's) must be reclaimed");
    assert_eq!(report.stale_releases, 1, "thread 0's late release must be absorbed as stale");

    let mut bytes = [0u8; 16];
    sys.read_global(slot, &mut bytes);
    assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 41);
    assert_eq!(u64::from_le_bytes(bytes[8..].try_into().unwrap()), 42);

    let trace = sys.take_trace().expect("tracing was enabled");
    let standby = trace.track(TrackId::MgrStandby).unwrap_or(&[]);
    assert!(
        standby.iter().any(|e| matches!(e.kind, EventKind::LeaseReclaim { .. })),
        "the standby track must record the lease reclaim"
    );
    // The invariant checker knows a reclaim deposes the holder: the deposed
    // interval is truncated at the reclaim stamp instead of flagging the
    // stale release as a protocol violation.
    trace.check_invariants().expect("a reclaimed lease must keep the timeline consistent");
}

/// In the fault-free standby run of [`JACOBI_P8`], thread 5 hands lock 0
/// to its successor (thread 1) with a baton sent at this instant, and its
/// release to the manager one send cost (60 ns) later; nothing else
/// reaches the manager until that release does.
const BATON_NS: u64 = 44_749;
/// A crash between the two.
const HANDOFF_CRASH_NS: u64 = BATON_NS + 32;

/// The manager dies between a holder's baton and its hand-off release: the
/// successor holds a lock the primary never heard of, the release is lost
/// with the primary, and the standby learns of the hand-off from the
/// holder's retransmission of it — its first serve after the takeover.
#[test]
fn a_hand_off_the_primary_never_heard_of_reaches_the_standby() {
    let baseline = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P8);
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(HANDOFF_CRASH_NS) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline.grid, "the hand-off across the crash perturbed the grid");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("the handed-over hold must keep the timeline consistent");
    // The baton goes through; the release, a send cost later, dies.
    let fabric = trace.track(TrackId::Fabric).unwrap_or(&[]);
    let at = |ns: u64| fabric.iter().filter(move |e| e.at.as_ns() == ns).map(|e| &e.kind);
    let sync =
        |kind: &EventKind| matches!(kind, EventKind::FabricSend { class: MsgClass::Sync, .. });
    let crash = |kind: &EventKind| matches!(kind, EventKind::FaultInjected { kind: "crash", .. });
    assert!(at(BATON_NS).any(sync) && !at(BATON_NS).any(crash), "the baton left");
    assert!(at(BATON_NS + 60).any(sync) && at(BATON_NS + 60).any(crash), "the release died");
    let primary = trace.track(TrackId::Manager).unwrap_or(&[]);
    let after = |e: &&samhita_repro::trace::TraceEvent| e.at.as_ns() >= HANDOFF_CRASH_NS;
    assert!(!primary.iter().any(|e| after(&e) && matches!(e.kind, EventKind::MgrServe { .. })));
    let standby = trace.track(TrackId::MgrStandby).unwrap_or(&[]);
    let first = standby.iter().find_map(|e| match e.kind {
        EventKind::MgrServe { op, tid } => Some((op, tid)),
        _ => None,
    });
    assert_eq!(first, Some(("handoff", 5)), "the standby's first serve is thread 5's hand-off");
}

/// In the fault-free standby run of [`JACOBI_P8`], the manager serves
/// thread 2's acquire of lock 0 at this instant, behind the holder (thread
/// 5), its head (thread 1) and thread 6: it hints thread 6, which holds
/// nothing yet, that thread 2 comes next.
const HINT_NS: u64 = 34_598;
/// A crash just after: the hint and the log record reach their targets,
/// nothing the manager sends later does.
const HINT_CRASH_NS: u64 = HINT_NS + 1;

/// The manager dies right after hinting a waiting head. Thread 6 holds the
/// dead primary's hint about thread 2 through its own wait, then hands the
/// lock over with it — and the standby, which folded the record of that
/// hint, takes the hand-off it learns of from thread 6's retransmission.
#[test]
fn a_hint_sent_to_a_waiter_outlives_the_primary() {
    let baseline = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P8);
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(HINT_CRASH_NS) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline.grid, "the hint across the crash perturbed the grid");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("the hinted hand-off must keep the timeline consistent");
    let served = |track| {
        let events = trace.track(track).unwrap_or(&[]).iter();
        events.filter_map(|e| match e.kind {
            EventKind::MgrServe { op, tid } => Some((e.at.as_ns(), op, tid)),
            _ => None,
        })
    };
    assert!(served(TrackId::Manager).any(|s| s == (HINT_NS, "acquire", 2)));
    // Thread 6 was still waiting for the lock when it was hinted.
    let waits =
        trace.track(TrackId::Thread(6)).unwrap_or(&[]).iter().filter_map(|e| match e.kind {
            EventKind::LockAcquire { lock: 0, wait_ns } => {
                Some((e.at.as_ns() - wait_ns, e.at.as_ns()))
            }
            _ => None,
        });
    assert!(
        waits.clone().any(|(from, to)| from < HINT_NS && HINT_NS < to),
        "{:?}",
        waits.collect::<Vec<_>>()
    );
    assert!(served(TrackId::MgrStandby).any(|(_, op, tid)| (op, tid) == ("handoff", 6)));
}

/// In the fault-free standby run of [`JACOBI_P8`], thread 1, granted by
/// thread 5's baton in the burst after a barrier, hands lock 0 to thread 6
/// with a baton sent at this instant that relays thread 5's interval —
/// thread 6 queued behind thread 1 while thread 1 still waited.
const RELAY_NS: u64 = 119_841;
/// The primary folds thread 1's hand-off at this instant, and names thread
/// 6's successor a seer of thread 1's interval.
const RELAY_FOLD_NS: u64 = 121_960;
/// A crash just before the fold: the release reached the primary, but the
/// fold's log record and everything it sends die with it.
const RELAY_CRASH_NS: u64 = RELAY_FOLD_NS - 1;

/// The manager dies between a relaying baton and its fold. Thread 6 holds
/// the lock with thread 5's interval relayed to it, which the standby's
/// log names it a seer of; the standby folds thread 1's hand-off from its
/// retransmission, and every later grant is the one the primary would
/// have made.
#[test]
fn a_relaying_baton_outlives_a_primary_that_never_folded_it() {
    let baseline = run_jacobi(&SamhitaRt::new(standby_cluster()), &JACOBI_P8);
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(RELAY_CRASH_NS) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline.grid, "the relay across the crash perturbed the grid");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("the relayed hold must keep the timeline consistent");
    let fabric = trace.track(TrackId::Fabric).unwrap_or(&[]);
    let baton = fabric.iter().any(|e| {
        e.at.as_ns() == RELAY_NS
            && matches!(e.kind, EventKind::FabricSend { class: MsgClass::Sync, .. })
    });
    assert!(baton, "the relaying baton left");
    let standby = trace.track(TrackId::MgrStandby).unwrap_or(&[]);
    let folds = standby.iter().filter(|e| e.at.as_ns() > RELAY_CRASH_NS);
    assert!(
        folds.clone().any(|e| matches!(e.kind, EventKind::MgrServe { op: "handoff", tid: 1 })),
        "the standby folds thread 1's hand-off"
    );
}

/// The manager-crash half of the faulted-timeline pin
/// (`tests/common/timeline.rs`; `tests/chaos.rs` holds the fault-plan half):
/// the fault-free standby run (probes armed, nothing lost), six crash
/// instants from before the first grant to the last sweep at P=8 and P=64,
/// three seeds of a lossy fabric with the manager crashing under a standby
/// — the last also losing memory server 1 — the crash between a baton
/// and its hand-off release, the crash just after a hint to a waiting
/// head (its row added when such hints began), and the crash between a
/// relaying baton and its fold (added when batons began to relay).
/// Recorded at the parent of PR 23; re-recorded when lock grants began to
/// travel from holder to holder, when synchronization stopped waiting for
/// its flush to be acked, when a lock waiter's predecessor began to be
/// hinted as it queues, when batons began to relay, when a refetch began
/// to move the pages a thread used instead of its line (the three crash
/// instants above re-targeted to the same events), when updates became
/// one-way (the fault-free rows keep their makespans; the acks leave the
/// message counts), and when a thread that registers after others
/// published began to follow their update batches (two P = 64 rows: the
/// registration reply carries the marks, the first request to a home its
/// stamp), and when runs began to start once every service settled and
/// threads to refetch at a barrier release the pages they used (every row;
/// the hint and relay instants re-targeted to the same events, the
/// hand-off crash to the baton one link earlier in the same chain, the
/// last of thread 1's own with nothing else bound for the manager across
/// its window). Every row's grid is the serial reference's.
const PINNED: &[timeline::Row] = &[
    ("standby/jacobi-p8", [272772, 0, 0, 0, 0, 1089, 0x91f72edcdd403c29]),
    ("standby/jacobi-p64", [1157928, 0, 0, 0, 0, 4943, 0xced3d9bcb588a0e7]),
    ("mgr-crash@5000/jacobi-p8", [2357043, 0, 0, 8, 72, 803, 0x074ac82a9ae782fb]),
    ("mgr-crash@5000/jacobi-p64", [2939942, 0, 0, 64, 576, 4031, 0x7d31dacaa4e58d93]),
    ("mgr-crash@20000/jacobi-p8", [12417728, 64, 0, 8, 66, 821, 0x7ef919d6d40e9d0e]),
    ("mgr-crash@20000/jacobi-p64", [3158168, 350, 0, 64, 533, 4043, 0xb7c3de1aa057b27f]),
    ("mgr-crash@60000/jacobi-p8", [12403580, 61, 0, 8, 65, 857, 0xc22dc4bab40b619c]),
    ("mgr-crash@60000/jacobi-p64", [4764187, 448, 0, 64, 513, 4043, 0x57c5c778c349bf64]),
    ("mgr-crash@120000/jacobi-p8", [12409966, 59, 0, 8, 68, 934, 0xc0cb8243014e104a]),
    ("mgr-crash@120000/jacobi-p64", [13074635, 469, 0, 64, 514, 4104, 0xe0203d6d8915fa1a]),
    ("mgr-crash@250000/jacobi-p8", [12396538, 58, 0, 8, 74, 1087, 0x7eff44cc1b78dcc3]),
    ("mgr-crash@250000/jacobi-p64", [5319524, 448, 0, 64, 512, 4161, 0xf18398acbb6abbda]),
    ("mgr-crash@400000/jacobi-p8", [272772, 0, 0, 0, 0, 1089, 0x91f72edcdd403c29]),
    ("mgr-crash@400000/jacobi-p64", [12991181, 500, 0, 64, 513, 4424, 0x1cce7e6934882669]),
    ("lossy-0xD1+mgr-crash/jacobi-p8", [12964511, 88, 0, 8, 123, 861, 0x3746f0ee65804ad5]),
    ("lossy-0xD2+mgr-crash/jacobi-p8", [4998447, 76, 0, 8, 118, 838, 0x55c68cad2412ea4e]),
    (
        "lossy-0xD3+mgr-crash+server-crash/jacobi-p8",
        [19993690, 135, 8, 8, 191, 847, 0xf13bab678565db91],
    ),
    ("mgr-crash@44781/jacobi-p8", [8820624, 56, 0, 8, 65, 841, 0xf61f296280b2b0dc]),
    ("mgr-crash@34599/jacobi-p8", [12384919, 62, 0, 8, 75, 837, 0xd94dea455c75ea71]),
    ("mgr-crash@121959/jacobi-p8", [6676360, 56, 0, 8, 69, 934, 0xf9feaca8c917eaa2]),
];

#[test]
fn recovered_timelines_are_pinned_across_commits() {
    let lossy_crash = |seed: u64, crash: Option<(u32, u64)>| SamhitaConfig {
        faults: FaultConfig {
            crash,
            mgr_crash: Some(60_000),
            ..FaultConfig::lossy(seed, 0.03, 0.01, 0.03, 3_000)
        },
        ..standby_cluster()
    };
    let mut runs = vec![("standby".to_string(), standby_cluster())];
    runs.extend(
        [5_000u64, 20_000, 60_000, 120_000, 250_000, 400_000]
            .map(|at| (format!("mgr-crash@{at}"), mgr_crash(at))),
    );
    let mut fresh = Vec::new();
    let mut row = |name: String, cfg: SamhitaConfig, problem: &JacobiParams| {
        let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..cfg });
        let r = run_jacobi(&rt, problem);
        let reference = serial_reference_jacobi(problem.n, problem.iters);
        assert_eq!(r.grid, reference, "{name}: the grid is the fault-free one, bit for bit");
        let trace = rt.take_trace().expect("tracing was enabled");
        fresh.push((name, timeline::timeline(&r.report, &trace)));
    };
    for (name, cfg) in runs {
        row(format!("{name}/jacobi-p8"), cfg.clone(), &JACOBI_P8);
        row(format!("{name}/jacobi-p64"), cfg, &JACOBI_P64);
    }
    row("lossy-0xD1+mgr-crash/jacobi-p8".into(), lossy_crash(0xD1, None), &JACOBI_P8);
    row("lossy-0xD2+mgr-crash/jacobi-p8".into(), lossy_crash(0xD2, None), &JACOBI_P8);
    row(
        "lossy-0xD3+mgr-crash+server-crash/jacobi-p8".into(),
        lossy_crash(0xD3, Some((1, 70_000))),
        &JACOBI_P8,
    );
    let mid_handoff = format!("mgr-crash@{HANDOFF_CRASH_NS}/jacobi-p8");
    row(mid_handoff, mgr_crash(HANDOFF_CRASH_NS), &JACOBI_P8);
    row(format!("mgr-crash@{HINT_CRASH_NS}/jacobi-p8"), mgr_crash(HINT_CRASH_NS), &JACOBI_P8);
    row(format!("mgr-crash@{RELAY_CRASH_NS}/jacobi-p8"), mgr_crash(RELAY_CRASH_NS), &JACOBI_P8);
    timeline::assert_pinned(PINNED, &fresh);
}
