//! End-to-end checks of the causal observability layer: the virtual-time
//! critical path must tile the makespan *exactly* on every kernel at every
//! thread count and stay the same path segment for segment, the causal
//! Chrome export must be the walk's own picture (windows tiled, arrows
//! leaving the blocker the walk would jump to), per-thread time
//! conservation must hold on arbitrary generated programs, and the whole
//! layer must be post-hoc — extracting it leaves the trace checksum and
//! every virtual-time quantity bit-identical.

mod common;

use std::collections::HashMap;

use samhita_bench::{thread_windows, BenchReport};
use samhita_repro::core::{RunReport, Samhita, SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{
    run_jacobi, run_md, run_micro, AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::scl::{MsgClass, ServiceModel, SimTime};
use samhita_repro::trace::{
    critical_path, validate_json, Detail, EventKind, FetchKind, JsonValue, PathClass, RunTrace,
    ServiceCosts, ThreadWindow, TraceEvent, TrackId,
};

fn traced(sched_seed: u64) -> SamhitaConfig {
    SamhitaConfig { tracing: true, sched_seed, ..SamhitaConfig::default() }
}

/// Run one kernel at CI scale with tracing on and hand back both views.
fn run_kernel(kernel: &str, threads: u32, sched_seed: u64) -> (RunReport, RunTrace) {
    run_kernel_on(&traced(sched_seed), kernel, threads)
}

fn run_kernel_on(cfg: &SamhitaConfig, kernel: &str, threads: u32) -> (RunReport, RunTrace) {
    let rt = SamhitaRt::new(cfg.clone());
    let report = match kernel {
        "micro" => run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, threads)).report,
        "md" => run_md(&rt, &MdParams { n: 256, steps: 2, ..MdParams::paper(256, threads) }).report,
        "jacobi" => run_jacobi(&rt, &JacobiParams { n: 126, iters: 4, threads }).report,
        other => panic!("unknown kernel {other}"),
    };
    let trace = rt.take_trace().expect("tracing enabled");
    (report, trace)
}

/// The headline acceptance check: the critical path's class totals sum
/// to the run makespan exactly — integer nanoseconds, no residue — on all
/// three kernels at P ∈ {1, 8, 64}, and on the micro-benchmark under the
/// §V single-node bypass, whose manager serves in `local_sync_ns`.
#[test]
fn critical_path_length_equals_makespan_on_all_kernels() {
    let bypass =
        SamhitaConfig { topology: TopologyKind::SingleNode, manager_bypass: true, ..traced(0) };
    let cluster = ["micro", "jacobi", "md"]
        .into_iter()
        .flat_map(|kernel| [1u32, 8, 64].map(|p| (kernel, p, traced(0))));
    let single_node = [1u32, 8].map(|p| ("micro", p, bypass.clone()));
    for (kernel, p, cfg) in cluster.chain(single_node) {
        let at = format!("{kernel} P={p} bypass={}", cfg.manager_bypass);
        let costs = cfg.service_costs();
        let (report, trace) = run_kernel_on(&cfg, kernel, p);
        let cp = critical_path(&trace, &thread_windows(&report), &costs);
        assert_eq!(cp.total_ns(), cp.makespan_ns, "{at}: class totals must tile the makespan");
        assert_eq!(
            cp.makespan_ns,
            report.makespan.as_ns(),
            "{at}: the path anchors at the run's own makespan"
        );
        assert!(!cp.segments.is_empty(), "{at}: a run has a non-empty path");
        // Segments are contiguous in virtual time walking backwards.
        for s in &cp.segments {
            assert!(s.start_ns < s.end_ns, "{at}: empty segment on the path");
        }
        if cfg.manager_bypass {
            trace.check_invariants().unwrap_or_else(|v| panic!("{at}: {v:?}"));
            let (_, again) = run_kernel_on(&cfg, kernel, p);
            assert_eq!(again.checksum(), trace.checksum(), "{at}: two runs, two traces");
            // Its lock stalls ride manager serves like any other run's: the
            // walk carves service and queueing out of them.
            if p > 1 {
                let carved =
                    [PathClass::MgrService, PathClass::QueueWait].map(|c| cp.class_total(c));
                assert!(carved.iter().all(|&ns| ns > 0), "{at}: {carved:?}");
            }
        }
    }
}

/// A barrier-wait segment on the path lies between its episode's last
/// arrival and the stalled thread's release, on every kernel at P ∈ {8, 64}.
/// A thread's k-th arrival at a barrier is episode k. The bound fails when
/// the walk takes a next-episode arrival, stamped in the nanosecond of the
/// release, for the blocker and books the stalled thread's whole wait.
#[test]
fn barrier_waits_on_the_path_end_no_earlier_than_their_episodes_last_arrival() {
    let costs = SamhitaConfig::default().service_costs();
    for kernel in ["micro", "jacobi", "md"] {
        for p in [8u32, 64] {
            let (report, trace) = run_kernel(kernel, p, 0);
            // (barrier, tid) → that thread's arrivals, and its releases.
            let mut arrivals: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
            let mut releases: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
            for (track, events) in &trace.tracks {
                let TrackId::Thread(tid) = *track else { continue };
                for e in events {
                    match e.kind {
                        EventKind::BarrierArrive { barrier } => {
                            arrivals.entry((barrier, tid)).or_default().push(e.at.as_ns())
                        }
                        EventKind::BarrierRelease { barrier, .. } => {
                            releases.entry((barrier, tid)).or_default().push(e.at.as_ns())
                        }
                        _ => {}
                    }
                }
            }
            let mut last: HashMap<(u32, usize), u64> = HashMap::new();
            for (&(barrier, _), own) in &arrivals {
                for (episode, &at) in own.iter().enumerate() {
                    let slot = last.entry((barrier, episode)).or_default();
                    *slot = (*slot).max(at);
                }
            }
            let cp = critical_path(&trace, &thread_windows(&report), &costs);
            let waits = cp.segments.iter().filter(|s| s.class == PathClass::BarrierWait);
            for seg in waits {
                let Detail::Barrier(barrier) = seg.detail else { panic!("{seg:?}") };
                let own = &releases[&(barrier, seg.tid)];
                let episode = own.partition_point(|&r| r < seg.end_ns);
                let from = last[&(barrier, episode)];
                assert!(
                    from <= seg.start_ns && seg.end_ns <= own[episode],
                    "{kernel} P={p}: tid {} waits {}..{} at barrier {barrier}, episode \
                     {episode} last arrived at {from}",
                    seg.tid,
                    seg.start_ns,
                    seg.end_ns
                );
            }
        }
    }
}

/// A lock chain's grants come from the releasing holder, not the manager:
/// on the micro-benchmark at P ∈ {8, 256} the path still tiles the makespan
/// exactly, and most contended grants travel thread to thread — `sync`
/// sends between two compute threads' endpoints (created last, one per
/// thread), against acquires whose stall another thread's release of the
/// lock ended. The floors are the measured shares, rounded down: 50 of 70 at
/// P = 8, 2 459 of 2 538 at P = 256, since the manager hints a waiter's
/// predecessor as the waiter queues. While it hinted only a holder it knew
/// held the lock, a holder often released before the hint reached it and
/// released through the manager instead: 45 of 70 and 1 258 of 2 543. What
/// is left are holders the hint still reached after they released: their
/// successor queued less than a manager round trip before that. Since
/// waiters are advanced one fold earlier and batons relay, 55 of 70 and
/// 2 472 of 2 538 (a holder granted by baton waits a moment for a hint
/// that may be in flight); the floors stay.
#[test]
fn lock_chains_hand_the_lock_over_thread_to_thread() {
    for (p, floor) in [(8u32, 71), (256, 96)] {
        let cfg = SamhitaConfig { max_threads: p.max(64), ..traced(0) };
        let (report, trace) = run_kernel_on(&cfg, "micro", p);
        let cp = critical_path(&trace, &thread_windows(&report), &cfg.service_costs());
        assert_eq!(cp.total_ns(), cp.makespan_ns, "P={p}: class totals must tile the makespan");
        let sends =
            trace.track(TrackId::Fabric).unwrap_or(&[]).iter().filter_map(|e| match e.kind {
                EventKind::FabricSend { src, dst, class: MsgClass::Sync, .. } => Some((src, dst)),
                _ => None,
            });
        let sends: Vec<(u64, u64)> = sends.collect();
        let last = sends.iter().map(|&(src, dst)| src.max(dst)).max().expect("sync traffic");
        let thread = |ep: u64| ep + u64::from(p) > last;
        let batons = sends.iter().filter(|&&(src, dst)| thread(src) && thread(dst)).count();
        // Releases per lock, and the acquires another thread's release ended.
        let mut releases: HashMap<u32, Vec<(u64, u32)>> = HashMap::new();
        for (track, events) in &trace.tracks {
            let TrackId::Thread(tid) = *track else { continue };
            for e in events {
                if let EventKind::LockRelease { lock } = e.kind {
                    releases.entry(lock).or_default().push((e.at.as_ns(), tid));
                }
            }
        }
        let contended = trace
            .tracks
            .iter()
            .filter_map(|(track, events)| match *track {
                TrackId::Thread(tid) => Some((tid, events)),
                _ => None,
            })
            .flat_map(|(tid, events)| events.iter().map(move |e| (tid, e)))
            .filter(|(tid, e)| match e.kind {
                EventKind::LockAcquire { lock, wait_ns } => {
                    let (end, start) = (e.at.as_ns(), e.at.as_ns() - wait_ns);
                    releases[&lock].iter().any(|&(r, by)| by != *tid && start < r && r < end)
                }
                _ => false,
            })
            .count();
        assert!(contended > 0, "P={p}: the chain must contend");
        assert!(
            batons * 100 >= contended * floor,
            "P={p}: {batons} of {contended} contended grants came by baton"
        );
    }
}

/// The baselines hold the path's class totals and segment count; this holds
/// the path itself — every segment's thread, class, bounds and detail
/// string — as an FNV-1a hash of the full report. The constants were first
/// computed at `5565ecd`, before the index became the export's source too,
/// and re-recorded three times since: when grants began to carry the merged
/// notice set, the first change in a long while to move virtual time, when
/// lock holders began to hand the lock to their successors directly, and
/// when synchronization stopped waiting for its flush to be acked. Jacobi's
/// moved alone when a barrier stall's blocker became the last arrival of
/// its own episode, all three when lock-wait segments began to name their
/// link (`lock N baton` / `lock N fallback`), micro's and jacobi's when
/// a lock waiter's predecessor began to be hinted as it queues, and all
/// three when a refetch began to move the pages a thread used instead of
/// its line.
/// A baton link costs one hop: on `critpath --kernel micro --threads 256`'s
/// run, at least 80 % of the path's baton links end no later than the
/// baton's own transfer time (the fabric's latency, overhead and
/// serialization of its bytes) plus 100 ns after the release. While a
/// waiter was advanced only once its predecessor held the lock at the
/// manager, a link cost the later of the baton and the advance: 199 of
/// the path's 1 010 baton links (19.7 %) cost one hop.
#[test]
fn baton_links_on_the_micro_path_cost_one_hop() {
    let p = 256u32;
    let (costs, report, trace) = samhita_bench::harness::traced_point("micro", p);
    let cp = critical_path(&trace, &thread_windows(&report), &costs);
    // Batons are the sync sends between two compute threads' endpoints
    // (created last, one per thread), by receiving thread.
    let sends: Vec<(u64, u64, u64, u64)> = trace
        .track(TrackId::Fabric)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FabricSend { src, dst, class: MsgClass::Sync, bytes } => {
                Some((e.at.as_ns(), src, dst, bytes))
            }
            _ => None,
        })
        .collect();
    let last = sends.iter().map(|&(_, src, dst, _)| src.max(dst)).max().expect("sync traffic");
    let first_thread = last + 1 - u64::from(p);
    let mut batons: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for &(at, src, dst, bytes) in &sends {
        if src >= first_thread && dst >= first_thread {
            batons.entry(dst - first_thread).or_default().push((at, bytes));
        }
    }
    let link = SamhitaConfig::default().fabric.link();
    let links: Vec<bool> = cp
        .segments
        .iter()
        .filter(|s| matches!(s.detail, Detail::LockBaton(_)))
        .map(|s| {
            let to = &batons[&u64::from(s.tid)];
            let &(_, bytes) = to.iter().rev().find(|&&(at, _)| at <= s.end_ns).expect("a baton");
            s.len_ns() <= link.transfer_ns(bytes as usize).as_ns() + 100
        })
        .collect();
    let one_hop = links.iter().filter(|&&one| one).count();
    assert!(links.len() > 900, "P={p}: {} baton links on the path", links.len());
    assert!(
        one_hop * 100 >= links.len() * 80,
        "P={p}: {one_hop} of {} baton links cost one hop",
        links.len()
    );
}

#[test]
fn critical_path_is_the_same_path_segment_for_segment() {
    let costs = SamhitaConfig::default().service_costs();
    for (kernel, p, want) in [
        ("micro", 4u32, 0x0edd_c7fa_3477_7118u64),
        ("jacobi", 8, 0xd9bd_862d_25d2_1f24),
        ("md", 8, 0xecd6_784f_8f1a_f6ac),
    ] {
        let (report, trace) = run_kernel(kernel, p, 0);
        let json = critical_path(&trace, &thread_windows(&report), &costs).to_json(usize::MAX);
        let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(fnv, want, "{kernel} P={p}: the full path moved (got {fnv:#018x})");
    }
}

/// Property test on generated programs: for every thread, compute + the
/// five wait classes + scheduler idle equals the makespan — the
/// conservation identity behind the `run_summary` breakdown line.
#[test]
fn per_thread_time_conservation_on_random_programs() {
    for seed in 0..8u64 {
        let threads = 2 + (seed % 4) as u32 * 2; // 2, 4, 6, 8
        let phases = common::generate(seed, threads, 3);
        let sys = Samhita::new(SamhitaConfig::small_for_tests());
        let (slots, accs, report) = common::run_on_dsm(&sys, &phases, threads);
        let (want_slots, want_accs) = common::interpret(&phases, threads);
        assert_eq!(slots, want_slots, "seed {seed}: wrong memory");
        assert_eq!(accs, want_accs, "seed {seed}: wrong accumulators");

        let makespan = report.makespan.as_ns();
        for t in &report.threads {
            let b = t.breakdown(report.makespan);
            assert_eq!(
                b.sum_ns(),
                makespan,
                "seed {seed} tid {}: compute {} + waits {} + idle {} != makespan {makespan}",
                t.tid,
                b.compute_ns,
                b.wait_ns(),
                b.idle_ns
            );
            assert_eq!(b.total_ns + b.idle_ns, makespan, "seed {seed} tid {}", t.tid);
        }
        // The aggregate breakdown inherits the identity, P-fold.
        let agg = report.wait_breakdown();
        assert_eq!(agg.sum_ns(), makespan * threads as u64, "seed {seed}: aggregate");
    }
}

/// The critical-path report is a pure function of the (deterministic) run:
/// byte-identical across repeated runs, at every `sched_seed`. Different
/// seeds explore different *legal* interleavings of virtual-time ties —
/// they may move the makespan, but each seed's report is exactly
/// reproducible and tiles its own makespan exactly.
#[test]
fn critical_path_report_is_byte_identical_across_runs_at_every_seed() {
    let costs = SamhitaConfig::default().service_costs();
    let render = |sched_seed: u64| {
        let (report, trace) = run_kernel("jacobi", 8, sched_seed);
        let cp = critical_path(&trace, &thread_windows(&report), &costs);
        assert_eq!(cp.total_ns(), cp.makespan_ns, "seed {sched_seed}: exact tiling");
        let json = cp.to_json(10);
        validate_json(&json).expect("critpath JSON must validate");
        json
    };
    for seed in [0u64, 1, 7, 42] {
        assert_eq!(render(seed), render(seed), "sched_seed {seed}: report must be reproducible");
    }
}

/// The whole layer is observational: extracting the critical path and
/// exporting flow events are read-only (the trace
/// checksum is untouched), and the bench report's virtual-time fields are
/// bit-identical whether or not the trace-derived sections are computed.
#[test]
fn observability_layer_is_post_hoc_and_checksum_stable() {
    let cfg = traced(0);
    let costs = cfg.service_costs();
    let (report, trace) = run_kernel("micro", 4, 0);
    let before = trace.checksum();
    let windows = thread_windows(&report);

    let cp = critical_path(&trace, &windows, &costs);
    let chrome = trace.to_chrome_json_with(&windows, &costs);
    validate_json(&chrome).expect("causal Chrome export must be valid JSON");
    assert!(chrome.contains("\"ph\":\"s\""), "flow-start events present");
    assert!(chrome.contains("\"ph\":\"f\""), "flow-finish events present");
    assert!(cp.makespan_ns > 0);
    assert_eq!(trace.checksum(), before, "extraction must be read-only");

    let with = BenchReport::from_run("micro", "t", &cfg, 4, &report, Some(&trace));
    let without = BenchReport::from_run("micro", "t", &cfg, 4, &report, None);
    for section in [
        "makespan_ns",
        "sync_fraction",
        "mgr_utilization",
        "server_utilization",
        "breakdown",
        "queue",
    ] {
        assert!(with.get(section).is_some(), "{section} present");
        assert_eq!(with.get(section), without.get(section), "{section} must not depend on a trace");
    }
    assert!(with.num("critical_path.makespan_ns").is_some(), "trace given: critical path present");
    assert_eq!(
        without.get("critical_path"),
        Some(&JsonValue::Null),
        "no trace: section absent, fields unchanged"
    );
}

type Slice = (String, u64, u64, u64);
type Flow = (String, (u64, u64), (u64, u64));

/// The causal Chrome export, read back: `(name, tid, start_ns, end_ns)` of
/// every `"X"` slice and `(name, (src tid, ns), (dst tid, ns))` of every
/// flow pair. Checks on the way what must hold for every causal export:
/// valid JSON, byte-identical across two calls, the plain form untouched,
/// every thread window tiled exactly, no flow running backwards.
fn causal(
    trace: &RunTrace,
    windows: &[ThreadWindow],
    costs: &ServiceCosts,
) -> (Vec<Slice>, Vec<Flow>) {
    let plain = trace.to_chrome_json();
    let out = trace.to_chrome_json_with(windows, costs);
    validate_json(&out).expect("causal Chrome export must be valid JSON");
    assert_eq!(out, trace.to_chrome_json_with(windows, costs), "the export is deterministic");
    assert_eq!(plain, trace.to_chrome_json(), "the plain form is untouched by the causal one");

    let doc = JsonValue::parse(&out).unwrap();
    let ns = |rec: &JsonValue, key: &str| {
        (rec.at(key).unwrap().as_f64().unwrap() * 1000.0).round() as u64
    };
    let (mut slices, mut starts, mut flows) = (Vec::new(), HashMap::new(), Vec::new());
    for rec in doc.at("traceEvents").unwrap().as_array().unwrap() {
        let name = rec.at("name").unwrap().as_str().unwrap().to_string();
        let tid = rec.at("tid").unwrap().as_u64().unwrap();
        match rec.at("ph").unwrap().as_str().unwrap() {
            "X" => slices.push((name, tid, ns(rec, "ts"), ns(rec, "ts") + ns(rec, "dur"))),
            "s" => {
                let id = rec.at("id").unwrap().as_u64().unwrap();
                assert!(starts.insert(id, (name, (tid, ns(rec, "ts")))).is_none(), "id reused");
            }
            "f" => {
                let id = rec.at("id").unwrap().as_u64().unwrap();
                let (start_name, src) = starts.remove(&id).expect("a flow end has a start");
                assert_eq!(start_name, name, "flow {id}: its two ends agree on the name");
                flows.push((name, src, (tid, ns(rec, "ts"))));
            }
            _ => {}
        }
    }
    assert!(starts.is_empty(), "every flow start has an end");
    for w in windows {
        let drawn: u64 = slices
            .iter()
            .filter(|(_, tid, ..)| *tid == u64::from(w.tid))
            .map(|(_, _, start, end)| end - start)
            .sum();
        assert_eq!(drawn, w.end_ns - w.epoch_ns, "tid {}: window not tiled exactly", w.tid);
    }
    for (name, src, dst) in &flows {
        assert!(src.1 <= dst.1, "{name} flow runs backwards: {src:?} -> {dst:?}");
    }
    (slices, flows)
}

/// `causal` over a hand-built trace; `windows[tid]` is `(epoch_ns, end_ns)`.
fn causal_of(
    tracks: Vec<(TrackId, Vec<TraceEvent>)>,
    windows: &[(u64, u64)],
) -> (Vec<Slice>, Vec<Flow>) {
    let costs =
        ServiceCosts { mgr_service_ns: 300, service: ServiceModel::default(), page_size: 1024 };
    let windows: Vec<ThreadWindow> = (0u32..)
        .zip(windows)
        .map(|(tid, &(epoch_ns, end_ns))| ThreadWindow { tid, epoch_ns, end_ns })
        .collect();
    causal(&RunTrace::from_tracks(tracks), &windows, &costs)
}

fn ev(at_ns: u64, kind: EventKind) -> TraceEvent {
    TraceEvent { at: SimTime::from_ns(at_ns), kind }
}

/// Two threads contend a lock: the hand-off arrow leaves t0's release and
/// lands on t1's grant. A release nobody waited on — t2 asks for the lock
/// only after t1 has let it go — draws none.
#[test]
fn lock_handoff_arrow_leaves_the_release_that_was_waited_on() {
    let (slices, flows) = causal_of(
        vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(1_000, EventKind::LockAcquire { lock: 0, wait_ns: 200 }),
                    ev(2_000, EventKind::LockRelease { lock: 0 }),
                ],
            ),
            (
                TrackId::Thread(1),
                vec![
                    ev(2_500, EventKind::LockAcquire { lock: 0, wait_ns: 1_500 }),
                    ev(2_600, EventKind::LockRelease { lock: 0 }),
                ],
            ),
            (TrackId::Thread(2), vec![ev(2_900, EventKind::LockAcquire { lock: 0, wait_ns: 200 })]),
        ],
        &[(0, 3_000); 3],
    );
    // Thread 0: compute [0,800], lock-wait [800,1000], compute [1000,3000].
    // Thread 1: lock-wait [1000,2500], compute [2500,3000].
    assert!(slices.contains(&("lock-wait".into(), 0, 800, 1_000)));
    assert!(slices.contains(&("lock-wait".into(), 1, 1_000, 2_500)));
    assert!(slices.contains(&("lock-wait".into(), 2, 2_700, 2_900)));
    assert_eq!(flows, vec![("lock-handoff".into(), (0, 2_000), (1, 2_500))]);
}

/// A barrier episode's arrow leaves its last arrival — also behind a
/// warm-up episode whose release is the timing epoch (so its waits are
/// clamped out of the picture): each timed episode hangs on its *own* last
/// arrival, not on the episode before it.
#[test]
fn barrier_arrows_leave_their_own_episodes_last_arrival() {
    let episode = |arrive: u64, release: u64| {
        [
            ev(arrive, EventKind::BarrierArrive { barrier: 0 }),
            ev(release, EventKind::BarrierRelease { barrier: 0, wait_ns: release - arrive }),
        ]
    };
    let (slices, flows) = causal_of(
        vec![
            (
                TrackId::Thread(0),
                [episode(400, 1_000), episode(1_500, 3_000), episode(4_800, 5_000)].concat(),
            ),
            (
                TrackId::Thread(1),
                [episode(800, 1_000), episode(2_700, 3_000), episode(3_600, 5_000)].concat(),
            ),
        ],
        &[(1_000, 5_500); 2],
    );
    let waits = slices.iter().filter(|(name, ..)| name == "barrier-wait").count();
    assert_eq!(waits, 4, "the warm-up waits end at the epoch and are not drawn");
    // The last arrival releases the other waiter; its own wait hangs on
    // nobody else.
    assert_eq!(
        flows,
        vec![
            ("barrier".into(), (1, 2_700), (0, 3_000)),
            ("barrier".into(), (0, 4_800), (1, 5_000)),
        ]
    );
}

/// An RPC and a fetch each bind to the serve they rode: the serve is a
/// slice on the service's own track, with a request arrow in and a response
/// arrow out.
#[test]
fn rpc_and_fetch_arrows_bind_to_serve_slices_on_the_service_tracks() {
    let fetch = EventKind::Fetch { page: 7, pages: 1, kind: FetchKind::Demand, wait_ns: 1_200 };
    let (slices, flows) = causal_of(
        vec![
            (
                TrackId::Thread(0),
                vec![
                    ev(2_000, fetch),
                    ev(3_000, EventKind::MgrRpc { op: "alloc-shared", wait_ns: 600 }),
                ],
            ),
            (TrackId::Manager, vec![ev(2_800, EventKind::MgrServe { op: "alloc-shared", tid: 0 })]),
            (
                TrackId::MemServer(0),
                vec![ev(
                    1_700,
                    EventKind::ServeFetch {
                        page: 7,
                        pages: 1,
                        reader: 0,
                        written: 1,
                        queued_ns: 0,
                    },
                )],
            ),
        ],
        &[(0, 3_200)],
    );
    // The manager serve is [2500, 2800] (300 ns service) on tid 1000; the
    // server serve [1200, 1700] (400 + 1024*100/1024 = 500 ns) on tid 1001.
    assert!(slices.contains(&("mgr-service".into(), 1000, 2_500, 2_800)));
    assert!(slices.contains(&("server-service".into(), 1001, 1_200, 1_700)));
    assert_eq!(
        flows,
        vec![
            ("rpc-request".into(), (0, 800), (1001, 1_200)),
            ("fetch-serve".into(), (1001, 1_700), (0, 2_000)),
            ("rpc-request".into(), (0, 2_400), (1000, 2_500)),
            ("rpc-response".into(), (1000, 2_800), (0, 3_000)),
        ]
    );
}

/// On real runs the picture is the walk's: every barrier and lock hand-off
/// arrow leaves an instant strictly inside the wait slice it lands on — the
/// episode's own last arrival, a release somebody was waiting for. (The
/// micro point is `trace-dump`'s: its warm-up barrier releases exactly at
/// the timing epoch.)
#[test]
fn causal_export_arrows_start_inside_the_wait_they_end() {
    let cfg = traced(0);
    for kernel in ["micro", "jacobi"] {
        let rt = SamhitaRt::new(cfg.clone());
        let report = match kernel {
            "micro" => run_micro(&rt, &MicroParams::paper(10, 2, AllocMode::Global, 8)).report,
            _ => run_jacobi(&rt, &JacobiParams { n: 126, iters: 6, threads: 8 }).report,
        };
        let trace = rt.take_trace().expect("tracing enabled");
        let (slices, flows) = causal(&trace, &thread_windows(&report), &cfg.service_costs());
        for (arrow, wait) in [("barrier", "barrier-wait"), ("lock-handoff", "lock-wait")] {
            let arrows: Vec<&Flow> = flows.iter().filter(|(name, ..)| name == arrow).collect();
            assert!(!arrows.is_empty(), "{kernel}: no {arrow} arrows drawn");
            for (_, src, dst) in arrows {
                let (_, _, start, end) = slices
                    .iter()
                    .find(|(name, tid, _, end)| name == wait && (*tid, *end) == *dst)
                    .unwrap_or_else(|| panic!("{kernel}: {arrow} arrow ends on no {wait} slice"));
                assert!(
                    start < &src.1 && src.1 < *end,
                    "{kernel}: {arrow} arrow from {src:?} is outside its wait [{start}, {end}]"
                );
            }
        }
    }
}

/// A ring that overflowed derives nothing: with 64-event tracks the jacobi
/// point above drops events, its critical path would still tile the
/// makespan (the lost stalls counted as compute), and so the report must
/// carry neither trace-derived section rather than a confident wrong one.
#[test]
fn truncated_trace_derives_no_report_sections() {
    let cfg = SamhitaConfig { trace_capacity: 64, ..traced(0) };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_jacobi(&rt, &JacobiParams { n: 126, iters: 6, threads: 8 }).report;
    let trace = rt.take_trace().expect("tracing enabled");
    assert!(trace.dropped > 0, "64-event rings must overflow on this run");
    let err = trace.untruncated().expect_err("a truncated trace is refused").to_string();
    assert!(err.contains("dropped") && err.contains("SamhitaConfig::trace_capacity"), "{err}");

    let bench = BenchReport::from_run("jacobi", "t", &cfg, 8, &report, Some(&trace));
    for section in ["timeline", "critical_path"] {
        assert_eq!(bench.get(section), Some(&JsonValue::Null), "{section} must be null");
    }
    assert_eq!(bench.num("makespan_ns"), Some(report.makespan.as_ns() as f64));
}
