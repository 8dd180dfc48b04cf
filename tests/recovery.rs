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
use samhita_repro::trace::{EventKind, RunTrace, TrackId};

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

/// The fault-free standby run of [`JACOBI_P8`], traced: its grid, and the
/// trace the crash instants below are read from, each by the event it
/// names — so a change that moves virtual time moves the instant with its
/// event instead of leaving it pointing at something else.
fn reference_run() -> (Vec<f64>, RunTrace) {
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..standby_cluster() });
    let r = run_jacobi(&rt, &JACOBI_P8);
    (r.grid, rt.take_trace().expect("tracing was enabled"))
}

/// Thread `tid`'s `k`-th release of lock 0 (from 0): a hand-off's baton
/// leaves at that instant, its release to the manager one send cost later.
fn release_ns(trace: &RunTrace, tid: u32, k: usize) -> u64 {
    let events = trace.track(TrackId::Thread(tid)).unwrap_or(&[]).iter();
    let mut releases = events.filter(|e| matches!(e.kind, EventKind::LockRelease { lock: 0 }));
    releases.nth(k).unwrap_or_else(|| panic!("thread {tid} has no release {k}")).at.as_ns()
}

/// The primary's first serve of thread `tid`'s `op` at or after `from`.
fn serve_ns(trace: &RunTrace, op: &str, tid: u32, from: u64) -> u64 {
    let events = trace.track(TrackId::Manager).unwrap_or(&[]).iter();
    let mut serves = events.filter(|e| {
        e.at.as_ns() >= from
            && matches!(e.kind, EventKind::MgrServe { op: o, tid: t } if (o, t) == (op, tid))
    });
    serves.next().unwrap_or_else(|| panic!("no {op} serve of thread {tid} from {from}")).at.as_ns()
}

/// In the fault-free standby run, thread 5 hands lock 0 to its successor
/// (thread 1) with a baton sent at its first release, and its release to
/// the manager one send cost (60 ns) later; nothing else reaches the
/// manager until that release does.
fn baton_ns(trace: &RunTrace) -> u64 {
    release_ns(trace, 5, 0)
}

/// A crash between the two.
fn handoff_crash_ns(trace: &RunTrace) -> u64 {
    baton_ns(trace) + 32
}

/// The manager dies between a holder's baton and its hand-off release: the
/// successor holds a lock the primary never heard of, the release is lost
/// with the primary, and the standby learns of the hand-off from the
/// holder's retransmission of it — its first serve after the takeover.
#[test]
fn a_hand_off_the_primary_never_heard_of_reaches_the_standby() {
    let (baseline, reference) = reference_run();
    let (baton, crash_at) = (baton_ns(&reference), handoff_crash_ns(&reference));
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(crash_at) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline, "the hand-off across the crash perturbed the grid");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("the handed-over hold must keep the timeline consistent");
    // The baton goes through; the release, a send cost later, dies.
    let fabric = trace.track(TrackId::Fabric).unwrap_or(&[]);
    let at = |ns: u64| fabric.iter().filter(move |e| e.at.as_ns() == ns).map(|e| &e.kind);
    let sync =
        |kind: &EventKind| matches!(kind, EventKind::FabricSend { class: MsgClass::Sync, .. });
    let crash = |kind: &EventKind| matches!(kind, EventKind::FaultInjected { kind: "crash", .. });
    assert!(at(baton).any(sync) && !at(baton).any(crash), "the baton left");
    assert!(at(baton + 60).any(sync) && at(baton + 60).any(crash), "the release died");
    let primary = trace.track(TrackId::Manager).unwrap_or(&[]);
    let after = |e: &&samhita_repro::trace::TraceEvent| e.at.as_ns() >= crash_at;
    assert!(!primary.iter().any(|e| after(&e) && matches!(e.kind, EventKind::MgrServe { .. })));
    let standby = trace.track(TrackId::MgrStandby).unwrap_or(&[]);
    let first = standby.iter().find_map(|e| match e.kind {
        EventKind::MgrServe { op, tid } => Some((op, tid)),
        _ => None,
    });
    assert_eq!(first, Some(("handoff", 5)), "the standby's first serve is thread 5's hand-off");
}

/// In the fault-free standby run, the manager serves thread 2's first
/// acquire of lock 0 behind the holder (thread 5), its head (thread 1) and
/// thread 6: it hints thread 6, which holds nothing yet, that thread 2
/// comes next.
fn hint_ns(trace: &RunTrace) -> u64 {
    serve_ns(trace, "acquire", 2, 0)
}

/// A crash just after: the hint and the log record reach their targets,
/// nothing the manager sends later does.
fn hint_crash_ns(trace: &RunTrace) -> u64 {
    hint_ns(trace) + 1
}

/// The manager dies right after hinting a waiting head. Thread 6 holds the
/// dead primary's hint about thread 2 through its own wait, then hands the
/// lock over with it — and the standby, which folded the record of that
/// hint, takes the hand-off it learns of from thread 6's retransmission.
#[test]
fn a_hint_sent_to_a_waiter_outlives_the_primary() {
    let (baseline, reference) = reference_run();
    let hint = hint_ns(&reference);
    let rt =
        SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(hint_crash_ns(&reference)) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline, "the hint across the crash perturbed the grid");
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
    assert!(served(TrackId::Manager).any(|s| s == (hint, "acquire", 2)));
    // Thread 6 was still waiting for the lock when it was hinted.
    let waits =
        trace.track(TrackId::Thread(6)).unwrap_or(&[]).iter().filter_map(|e| match e.kind {
            EventKind::LockAcquire { lock: 0, wait_ns } => {
                Some((e.at.as_ns() - wait_ns, e.at.as_ns()))
            }
            _ => None,
        });
    assert!(
        waits.clone().any(|(from, to)| from < hint && hint < to),
        "{:?}",
        waits.collect::<Vec<_>>()
    );
    assert!(served(TrackId::MgrStandby).any(|(_, op, tid)| (op, tid) == ("handoff", 6)));
}

/// In the fault-free standby run, thread 1, granted by thread 5's baton in
/// the burst after a barrier, hands lock 0 to thread 6 with a baton sent at
/// its second release that relays thread 5's interval — thread 6 queued
/// behind thread 1 while thread 1 still waited.
fn relay_ns(trace: &RunTrace) -> u64 {
    release_ns(trace, 1, 1)
}

/// The primary folds that hand-off of thread 1's at this instant, and
/// names thread 6's successor a seer of thread 1's interval.
fn relay_fold_ns(trace: &RunTrace) -> u64 {
    serve_ns(trace, "handoff", 1, relay_ns(trace))
}

/// A crash just before the fold: the release reached the primary, but the
/// fold's log record and everything it sends die with it.
fn relay_crash_ns(trace: &RunTrace) -> u64 {
    relay_fold_ns(trace) - 1
}

/// The manager dies between a relaying baton and its fold. Thread 6 holds
/// the lock with thread 5's interval relayed to it, which the standby's
/// log names it a seer of; the standby folds thread 1's hand-off from its
/// retransmission, and every later grant is the one the primary would
/// have made.
#[test]
fn a_relaying_baton_outlives_a_primary_that_never_folded_it() {
    let (baseline, reference) = reference_run();
    let (relay, crash_at) = (relay_ns(&reference), relay_crash_ns(&reference));
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..mgr_crash(crash_at) });
    let r = run_jacobi(&rt, &JACOBI_P8);
    assert_eq!(r.grid, baseline, "the relay across the crash perturbed the grid");
    assert!(r.report.mgr_failovers() > 0, "the crash must drive threads to the standby");
    let trace = rt.take_trace().expect("tracing was enabled");
    trace.check_invariants().expect("the relayed hold must keep the timeline consistent");
    let fabric = trace.track(TrackId::Fabric).unwrap_or(&[]);
    let baton = fabric.iter().any(|e| {
        e.at.as_ns() == relay
            && matches!(e.kind, EventKind::FabricSend { class: MsgClass::Sync, .. })
    });
    assert!(baton, "the relaying baton left");
    let standby = trace.track(TrackId::MgrStandby).unwrap_or(&[]);
    let folds = standby.iter().filter(|e| e.at.as_ns() > crash_at);
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
/// its window), and when a never-written page began to be served as its
/// version and a held request at its batch's completion (every row's
/// checksum, and the makespan of all but `mgr-crash@5000/jacobi-p8`). The
/// last three rows' instants are read from the fault-free run's trace by
/// the event each names (`baton+32`: thread 5's first
/// baton, `hint+1`: thread 2's first acquire served, `fold-1`: the fold of
/// thread 1's second hand-off), so they follow their events when virtual
/// time moves. Every row's grid is the serial reference's.
const PINNED: &[timeline::Row] = &[
    ("standby/jacobi-p8", [255876, 0, 0, 0, 0, 1089, 0x5eefd087c10c8021]),
    ("standby/jacobi-p64", [868301, 0, 0, 0, 0, 4943, 0xfef12b1aa25bd7c0]),
    ("mgr-crash@5000/jacobi-p8", [2357043, 0, 0, 8, 72, 803, 0x3bfa3134c312f18c]),
    ("mgr-crash@5000/jacobi-p64", [2779254, 0, 0, 64, 576, 4031, 0x80a931ba7e79d7f8]),
    ("mgr-crash@20000/jacobi-p8", [6673455, 56, 0, 8, 66, 837, 0xf22a1748924f7394]),
    ("mgr-crash@20000/jacobi-p64", [12832347, 384, 0, 64, 541, 4087, 0x8dcdbf9881dc8cab]),
    ("mgr-crash@60000/jacobi-p8", [12386020, 64, 0, 8, 65, 874, 0x05512104d63b0ddc]),
    ("mgr-crash@60000/jacobi-p64", [12864691, 489, 0, 64, 514, 4147, 0x78ce077b536dc830]),
    ("mgr-crash@120000/jacobi-p8", [12399590, 64, 0, 8, 72, 970, 0xe5956b9a5b83a9f3]),
    ("mgr-crash@120000/jacobi-p64", [5034637, 448, 0, 64, 512, 4161, 0x31a5334f27a49cf7]),
    ("mgr-crash@250000/jacobi-p8", [2358642, 56, 0, 8, 65, 1132, 0x760cd86e35844f44]),
    ("mgr-crash@250000/jacobi-p64", [12765634, 500, 0, 64, 513, 4424, 0x6b70080a6f741f05]),
    ("mgr-crash@400000/jacobi-p8", [255876, 0, 0, 0, 0, 1089, 0x5eefd087c10c8021]),
    ("mgr-crash@400000/jacobi-p64", [12687964, 497, 0, 64, 512, 4487, 0xb07b7a286c1b541c]),
    ("lossy-0xD1+mgr-crash/jacobi-p8", [5127011, 81, 0, 8, 120, 844, 0x2c618c1577de7e2e]),
    ("lossy-0xD2+mgr-crash/jacobi-p8", [4995599, 76, 0, 8, 118, 838, 0x30bcbde4082c7f87]),
    (
        "lossy-0xD3+mgr-crash+server-crash/jacobi-p8",
        [20033677, 133, 8, 8, 190, 846, 0xbadb30225503172d],
    ),
    ("mgr-crash@baton+32/jacobi-p8", [8803728, 56, 0, 8, 65, 841, 0x589f643fc9bdd263]),
    ("mgr-crash@hint+1/jacobi-p8", [12368023, 62, 0, 8, 75, 837, 0xca554e67ea357eb9]),
    ("mgr-crash@fold-1/jacobi-p8", [6659464, 56, 0, 8, 69, 934, 0x9b008d985e74b71d]),
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
    let (_, reference) = reference_run();
    row("mgr-crash@baton+32/jacobi-p8".into(), mgr_crash(handoff_crash_ns(&reference)), &JACOBI_P8);
    row("mgr-crash@hint+1/jacobi-p8".into(), mgr_crash(hint_crash_ns(&reference)), &JACOBI_P8);
    row("mgr-crash@fold-1/jacobi-p8".into(), mgr_crash(relay_crash_ns(&reference)), &JACOBI_P8);
    timeline::assert_pinned(PINNED, &fresh);
}
