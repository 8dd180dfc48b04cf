//! End-to-end checks of the event-tracing subsystem: export validity, the
//! RegC invariant checker on real kernel traces, and — the load-bearing
//! property — that enabling tracing does not move any virtual clock.

use samhita_bench::harness::{report_config, run_kernel, traced_point, KERNELS};
use samhita_bench::{thread_windows, ExampleArgs, HarnessConfig};
use samhita_repro::core::{FaultConfig, RunReport, Samhita, SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{run_jacobi, run_micro, AllocMode, JacobiParams, MicroParams};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::trace::{validate_json, MetricsTimeline, RunTrace, ServiceCosts, TrackId};

#[path = "common/fold.rs"]
mod fold;

fn traced_cfg() -> SamhitaConfig {
    SamhitaConfig { tracing: true, ..SamhitaConfig::small_for_tests() }
}

#[test]
fn traced_run_exports_valid_chrome_json_and_jsonl() {
    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..SamhitaConfig::default() });
    let p = MicroParams::paper(2, 2, AllocMode::Global, 4);
    run_micro(&rt, &p);
    let trace = rt.take_trace().expect("tracing enabled");
    assert!(!trace.is_empty(), "a false-sharing run must record events");

    let chrome = trace.to_chrome_json();
    validate_json(&chrome).expect("Chrome export must be valid JSON");
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("thread_name"), "tracks need Perfetto name metadata");

    for line in trace.to_jsonl().lines() {
        validate_json(line).expect("every JSONL line must be valid JSON");
    }
}

#[test]
fn trace_covers_threads_and_services() {
    let rt = SamhitaRt::new(traced_cfg());
    run_micro(&rt, &MicroParams::paper(1, 1, AllocMode::Global, 2));
    let trace = rt.take_trace().expect("tracing enabled");
    for id in [
        TrackId::Thread(0),
        TrackId::Thread(1),
        TrackId::Manager,
        TrackId::MemServer(0),
        TrackId::Fabric,
    ] {
        assert!(
            trace.track(id).is_some_and(|evs| !evs.is_empty()),
            "expected events on track {id:?}"
        );
    }
}

#[test]
fn invariants_hold_on_example_kernels() {
    for mode in [AllocMode::Local, AllocMode::Global, AllocMode::GlobalStrided] {
        let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..SamhitaConfig::default() });
        run_micro(&rt, &MicroParams::paper(2, 2, mode, 4));
        let trace = rt.take_trace().expect("tracing enabled");
        let summary = trace
            .check_invariants()
            .unwrap_or_else(|v| panic!("micro/{mode:?} violated invariants: {v:?}"));
        assert!(summary.lock_holds > 0, "micro kernel takes the gsum lock");
        assert!(summary.barrier_episodes > 0);
    }

    let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..SamhitaConfig::default() });
    run_jacobi(&rt, &JacobiParams { n: 62, iters: 4, threads: 4 });
    let trace = rt.take_trace().expect("tracing enabled");
    let summary =
        trace.check_invariants().unwrap_or_else(|v| panic!("jacobi violated invariants: {v:?}"));
    assert!(summary.barrier_episodes > 0, "jacobi is barrier-synchronized");
}

/// The acceptance bar for "tracing is observational": with one compute
/// thread the simulation is fully deterministic (DESIGN.md §2), so the
/// makespan — and every per-thread stat — must be bit-identical with
/// tracing on and off.
#[test]
fn tracing_does_not_perturb_virtual_clocks() {
    let run = |tracing: bool| {
        let rt = SamhitaRt::new(SamhitaConfig { tracing, ..SamhitaConfig::default() });
        run_micro(&rt, &MicroParams::paper(5, 2, AllocMode::Global, 1)).report
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.makespan, traced.makespan, "tracing moved the virtual clock");
    for (a, b) in plain.threads.iter().zip(&traced.threads) {
        assert_eq!(a.total, b.total);
        assert_eq!(a.sync, b.sync);
        assert_eq!(a.fetch_latency, b.fetch_latency, "histograms are tracing-independent");
        assert_eq!(a.lock_wait, b.lock_wait);
        assert_eq!(a.barrier_wait, b.barrier_wait);
    }
}

#[test]
fn report_surfaces_latency_histograms_and_ratios() {
    let rt = SamhitaRt::new(SamhitaConfig::default());
    let report = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 4)).report;
    // Histograms are always on — no tracing flag needed.
    assert!(report.fetch_latency().count() > 0, "a DSM run has fetch stalls");
    assert!(report.lock_wait().count() > 0, "the gsum lock is taken");
    assert!(report.barrier_wait().count() > 0);
    assert!(report.fetch_latency().p50_ns() <= report.fetch_latency().p99_ns());
    let f = report.sync_fraction();
    assert!(f > 0.0 && f < 1.0, "sync fraction {f} out of range");
    assert!(report.compute_imbalance() >= 1.0, "max/mean is at least 1");
}

/// The metrics layer inherits tracing's bit-identity guarantee: the
/// timeline and hotspot map are derived *after the fact* from the event
/// stream and the always-on counters, so enabling them (= enabling tracing)
/// must not move any virtual clock, and the derived views must agree
/// exactly with the run's own statistics.
#[test]
fn metrics_derivation_is_observational_and_conserves_counters() {
    let run = |tracing: bool| {
        let rt = SamhitaRt::new(SamhitaConfig { tracing, ..SamhitaConfig::default() });
        let report = run_micro(&rt, &MicroParams::paper(5, 2, AllocMode::Global, 1)).report;
        (report, rt.take_trace())
    };
    let (plain, no_trace) = run(false);
    assert!(no_trace.is_none());
    let (traced, trace) = run(true);
    let trace = trace.expect("tracing enabled");

    // P=1 bit-identity with metrics enabled vs. disabled.
    assert_eq!(plain.makespan, traced.makespan, "metrics collection moved the virtual clock");
    assert_eq!(plain.hotspots(), traced.hotspots(), "always-on hotspot counters diverged");
    assert_eq!(plain.mgr_busy_ns, traced.mgr_busy_ns);
    assert_eq!(plain.server_busy_ns, traced.server_busy_ns);

    // Conservation: the timeline's bucket totals equal the run's counters,
    // here and on the quick problems, whose barrier releases refetch.
    let cfg = SamhitaConfig::default();
    let timeline = conserved(&traced, &trace, &cfg.service_costs(), "micro P=1");
    for (kernel, p) in [("micro", 8), ("micro", 64), ("jacobi", 8), ("jacobi", 64)] {
        let (q, what) = (HarnessConfig::quick(), format!("{kernel} P={p}"));
        let cfg = report_config(&q, p);
        let rt = SamhitaRt::new(cfg.clone());
        let report = run_kernel(&q, kernel, &rt, p).report;
        let trace = rt.take_trace().expect("tracing enabled");
        let timeline = conserved(&report, &trace, &cfg.service_costs(), &what);
        // Every serve the servers traced, the host's included, priced as
        // the server charged it: a batch once, not part by part.
        let busy: u64 = rt.shutdown().iter().map(|s| s.busy_ns).sum();
        assert_eq!(timeline.totals().server_busy_ns, busy, "{what}");
    }

    // The trace-derived thread statistics are the always-on ones.
    fold::assert_tracks_fold_into(&traced, &trace, "micro P=1");

    // And the timeline exports valid JSON with a human summary.
    validate_json(&timeline.to_json()).expect("timeline JSON must validate");
    assert!(timeline.summary().contains("intervals"));
}

/// Each thread's statistics — counters, histograms, wait sums, hotspot
/// map — are the one fold of the events it emits, whether or not tracing
/// keeps them: on the quick problems, whose barrier releases refetch, and
/// over 4 KiB pages, where a refetch's run often starts before the page
/// that faulted.
#[test]
fn each_stored_thread_track_folds_into_exactly_its_statistics() {
    for kernel in KERNELS {
        for p in [8, 64] {
            let (_, report, trace) = traced_point(kernel, p);
            fold::assert_tracks_fold_into(&report, &trace, &format!("{kernel} P={p}"));
        }
    }
    for (kernel, p) in [("micro", 8), ("md", 8), ("md", 64)] {
        let rt = SamhitaRt::new(SamhitaConfig { tracing: true, ..SamhitaConfig::default() });
        let report = run_kernel(&HarnessConfig::quick(), kernel, &rt, p).report;
        let trace = rt.take_trace().expect("tracing enabled");
        fold::assert_tracks_fold_into(&report, &trace, &format!("{kernel} P={p}, 4 KiB pages"));
    }
}

/// The timeline of `trace` at 16 intervals, after checking that its totals
/// are the counters `report` holds.
fn conserved(
    report: &RunReport,
    trace: &RunTrace,
    costs: &ServiceCosts,
    what: &str,
) -> MetricsTimeline {
    let width = MetricsTimeline::bucket_width_for(report.makespan.as_ns(), 16);
    let timeline = MetricsTimeline::from_trace(trace, width, costs);
    let totals = timeline.totals();
    assert_eq!(totals.misses, report.total_of(|t| t.line_misses), "{what}");
    assert_eq!(totals.refetches, report.total_of(|t| t.page_refetches), "{what}");
    assert_eq!(totals.invalidations, report.total_of(|t| t.invalidations), "{what}");
    assert_eq!(totals.diff_bytes, report.total_of(|t| t.diff_bytes_flushed), "{what}");
    assert_eq!(totals.fine_bytes, report.total_of(|t| t.fine_bytes_flushed), "{what}");
    // The fabric track also covers pre-run control traffic (registration,
    // allocation), so it bounds the run's own traffic from above.
    assert!(totals.fabric_bytes >= report.fabric.total_bytes(), "{what}");
    // Same for service busy time: event-derived busy covers host setup too.
    assert!(totals.mgr_busy_ns >= report.mgr_busy_ns, "{what}");
    assert!(totals.server_busy_ns >= report.server_busy_ns.iter().sum::<u64>(), "{what}");
    timeline
}

#[test]
fn take_trace_is_none_without_tracing_and_drains_when_on() {
    let sys = Samhita::new(SamhitaConfig::small_for_tests());
    assert!(sys.take_trace().is_none(), "tracing off: no trace");

    let sys = Samhita::new(traced_cfg());
    let addr = sys.alloc_global(1024);
    sys.run(1, |ctx| {
        for i in 0..64 {
            ctx.write_f64(addr + i * 8, i as f64);
        }
    });
    let first = sys.take_trace().expect("tracing on");
    assert!(!first.is_empty());
    // A second drain starts from a clean window: thread buffers were taken.
    let second = sys.take_trace().expect("tracing on");
    assert!(second.track(TrackId::Thread(0)).is_none_or(|evs| evs.is_empty()));
}

/// FNV-1a over `bytes` — the fold [`RunTrace::checksum`] applies to the JSONL.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a of the three text forms of one traced run: JSONL, plain Chrome,
/// causal Chrome.
fn export_hashes(cfg: &SamhitaConfig, report: &RunReport, trace: &RunTrace) -> [u64; 3] {
    let jsonl = trace.to_jsonl();
    assert_eq!(trace.checksum(), fnv1a(jsonl.as_bytes()), "the checksum is the JSONL's FNV-1a");
    let causal = trace.to_chrome_json_with(&thread_windows(report), &cfg.service_costs());
    [fnv1a(jsonl.as_bytes()), fnv1a(trace.to_chrome_json().as_bytes()), fnv1a(causal.as_bytes())]
}

/// A two-thread program on the standby cluster behind a lossy fabric, with
/// memory server 0 and the primary manager both crashing mid-run and a lock
/// held across the takeover: the one fixed run whose trace carries every
/// fault-class event (`fault-injected`, `retry`, `failover`, `mgr-failover`,
/// `lease-reclaim`).
fn chaos_standby_run() -> (SamhitaConfig, RunReport, RunTrace) {
    let cfg = SamhitaConfig {
        tracing: true,
        manager_standby: true,
        mem_servers: 2,
        replica_offset: 1,
        topology: TopologyKind::Cluster { nodes: 6 },
        mgr_lease_ns: 20_000,
        faults: FaultConfig {
            crash: Some((0, 10_000)),
            mgr_crash: Some(30_000),
            ..FaultConfig::lossy(0xC4A05, 0.03, 0.01, 0.03, 3_000)
        },
        ..SamhitaConfig::default()
    };
    let line = cfg.line_bytes() as u64;
    let sys = Samhita::new(cfg.clone());
    let slot = sys.alloc_global(8 * line);
    let (lock_a, lock_b) = (sys.create_mutex(), sys.create_mutex());
    let report = sys.run(2, move |ctx| {
        if ctx.tid() == 0 {
            // Holds its lock across the crash: the standby reclaims the lease.
            ctx.lock(lock_a);
            ctx.write_u64(slot, 41);
            ctx.compute(40_000_000);
            ctx.write_u64(slot + 8, 42);
            ctx.unlock(lock_a);
        } else {
            // Lines homed on both servers, so the dead one is a primary too.
            for i in 0..40u64 {
                ctx.lock(lock_b);
                ctx.write_u64(slot + line * (i % 4 + 1), i);
                ctx.unlock(lock_b);
            }
        }
    });
    let trace = sys.take_trace().expect("tracing enabled");
    (cfg, report, trace)
}

/// The export bytes are a contract between commits, not just between two
/// calls: nine values recorded at commit 2b6e062 (the `format!`-based
/// exporters) held until PR 22, which changed the runs themselves — grants
/// carry the merged notice set, so stamps move and `invalidate` events come
/// in page order — and re-recorded them with the exporter untouched; the
/// first two runs' again when lock holders began to hand the lock to their
/// successors directly, and all three when synchronization stopped waiting
/// for its flush to be acked (apply and invalidate events now also name the
/// writer and its batch). The first run's causal form moved once more when
/// a barrier stall's blocker became the last arrival of its own episode,
/// and the first two runs' when a lock waiter's predecessor began to be
/// hinted as it queues, again when batons began to relay what a waiter's
/// earlier advance lacks, and again when a refetch began to move the pages
/// a thread used instead of its line. All three runs' moved when updates
/// became one-way: the acks' fabric events left the trace, and again when
/// runs began to start once every service settled and threads to refetch
/// at a barrier release the pages they used (a serve now also names its
/// reader). The second run's causal form moved when a fetch stall began to
/// ride its own reader's serve of the page, not another reader's. All
/// three runs' moved when a never-written page began to be served as its
/// version, and a serve to say how many written pages it read and how long
/// its request was at the home. All three runs' causal forms moved when a
/// batch serve began to be drawn as long as the server charges it, one
/// batch apply rather than a standalone apply per part. Every later writer
/// must reproduce the values below.
#[test]
fn export_bytes_are_pinned_across_commits() {
    let cfg = SamhitaConfig { max_threads: 8, ..traced_cfg() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_jacobi(&rt, &JacobiParams { n: 16, iters: 2, threads: 8 }).report;
    let trace = rt.take_trace().expect("tracing enabled");
    assert_eq!(
        export_hashes(&cfg, &report, &trace),
        [0xdc6b_620a_8e5e_23b7, 0xda8b_bf5d_8668_c36e, 0xdbbd_3fa5_a34b_9f2d],
        "jacobi P=8"
    );

    let cfg = SamhitaConfig { tracing: true, ..SamhitaConfig::default() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 4)).report;
    let trace = rt.take_trace().expect("tracing enabled");
    assert_eq!(
        export_hashes(&cfg, &report, &trace),
        [0x7fcf_d872_0981_6da3, 0x5d3f_4383_677e_7b64, 0x147c_49f3_f7e4_daee],
        "micro P=4 global"
    );

    let (cfg, report, trace) = chaos_standby_run();
    let jsonl = trace.to_jsonl();
    for event in ["fault-injected", "retry", "failover", "mgr-failover", "lease-reclaim"] {
        assert!(jsonl.contains(&format!("\"event\":\"{event}\"")), "no {event} event in the run");
    }
    assert_eq!(
        export_hashes(&cfg, &report, &trace),
        [0x3a07_2211_c0e2_4fbe, 0x7665_eabb_2205_35df, 0x7b2d_50ec_62ba_1c9d],
        "chaos + standby"
    );
}

/// Every example's `--trace` streams its file instead of building the text
/// first: the bytes on disk are the `String` form's, for the causal Chrome
/// export and for the JSONL alike.
#[test]
fn streamed_files_equal_the_string_exports() {
    let cfg = SamhitaConfig { tracing: true, ..SamhitaConfig::default() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 4)).report;
    let trace = rt.take_trace().expect("tracing enabled");
    let dir = std::env::temp_dir().join(format!("samhita-tracing-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let path = dir.join("trace.json");
    let args = ExampleArgs {
        trace_path: Some(path.to_str().expect("utf-8 temp dir").to_string()),
        ..ExampleArgs::default()
    };
    args.write_outputs("micro", "test", &cfg, 4, &report, Some(trace.clone()));
    let causal = trace.to_chrome_json_with(&thread_windows(&report), &cfg.service_costs());
    assert_eq!(std::fs::read(&path).unwrap(), causal.as_bytes());

    let path = dir.join("trace.jsonl");
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    trace.write_jsonl(file).expect("write JSONL file");
    assert_eq!(std::fs::read(&path).unwrap(), trace.to_jsonl().as_bytes());
    std::fs::remove_dir_all(&dir).unwrap();
}
