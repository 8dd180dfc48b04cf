//! End-to-end checks of the profiling subsystem: hotspot attribution to
//! allocation sites, machine-readable bench reports, and the bench-diff
//! regression gate against the committed baselines.

use samhita_bench::harness::{report_config, report_kernels, KernelPoint};
use samhita_bench::{compare, BenchReport, HarnessConfig};
use samhita_repro::core::{Region, SamhitaConfig};
use samhita_repro::kernels::{run_micro, AllocMode, MicroParams};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::trace::JsonValue;

/// The acceptance bar for the false-sharing profiler: in the micro
/// benchmark's `global` mode, the pages that ping-pong between writers all
/// live in the shared zone, so the hotspot report must attribute (nearly)
/// every refetch to shared-allocation pages and rank one of them first.
#[test]
fn hotspot_report_names_the_false_shared_pages() {
    let rt = SamhitaRt::new(SamhitaConfig::default());
    let report = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 4)).report;
    let hot = report.hotspots();
    let total_refetches = hot.total_of(|c| c.refetches);
    assert!(total_refetches > 0, "global mode must false-share");

    let shared_refetches: u64 = hot
        .iter()
        .filter(|(page, _)| matches!(report.site_of_page(*page), Some(Region::Shared)))
        .map(|(_, c)| c.refetches)
        .sum();
    assert!(
        shared_refetches * 10 >= total_refetches * 9,
        "only {shared_refetches}/{total_refetches} refetches attributed to shared pages"
    );

    // The top churn page is one of the shared ping-pong pages, and the
    // report can name its site.
    let top = hot.top_churn(3);
    assert!(!top.is_empty());
    for (page, counters) in &top {
        assert_eq!(report.site_label(*page), "shared");
        assert!(counters.churn() > 0);
    }

    // Contrast: arena-only allocation has no cross-thread refetches at all.
    let rt = SamhitaRt::new(SamhitaConfig::default());
    let local = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Local, 4)).report;
    let arena_pages_refetched: u64 = local
        .hotspots()
        .iter()
        .filter(|(page, _)| matches!(local.site_of_page(*page), Some(Region::Arena(_))))
        .map(|(_, c)| c.refetches)
        .sum();
    assert_eq!(arena_pages_refetched, 0, "private arenas cannot false-share");
}

#[test]
fn bench_report_from_run_round_trips_with_sane_utilization() {
    let cfg = SamhitaConfig { tracing: true, ..SamhitaConfig::small_for_tests() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 2)).report;
    let trace = rt.take_trace().expect("tracing enabled");
    let bench = BenchReport::from_run("micro", "integration-test", &cfg, 2, &report, Some(&trace));

    let fraction = |path: &str| {
        let v = bench.num(path).unwrap_or_else(|| panic!("{path} missing"));
        assert!(v > 0.0 && v < 1.0, "{path} = {v}");
    };
    assert!(bench.num("makespan_ns").unwrap() > 0.0);
    fraction("sync_fraction");
    fraction("mgr_utilization");
    let servers = bench.get("server_utilization").and_then(JsonValue::as_array).unwrap();
    assert_eq!(servers.len(), 1);
    assert!(servers[0].as_f64().is_some_and(|u| u > 0.0 && u < 1.0));
    assert!(bench.num("timeline.buckets").expect("trace given, timeline present") > 0.0);
    assert!(bench.num("timeline.fabric_bytes").unwrap() > 0.0);
    let hotspots = bench.get("hotspots").and_then(JsonValue::as_array).unwrap();
    assert!(!hotspots.is_empty(), "a sharing run has hotspot pages");
    assert!(hotspots.iter().all(|h| h.get("site").and_then(JsonValue::as_str) != Some("")));

    let parsed = BenchReport::from_json(&bench.to_json()).expect("round trip");
    assert_eq!(parsed, bench);

    // Without a trace the timeline section is absent but the report stands.
    let bare = BenchReport::from_run("micro", "integration-test", &cfg, 2, &report, None);
    assert_eq!(bare.get("timeline"), Some(&JsonValue::Null));
    assert_eq!(BenchReport::from_json(&bare.to_json()).expect("round trip"), bare);
}

/// The committed baselines are this tree's reports, byte for byte: each
/// parses and re-emits to the file's own bytes, a fresh `bench-report`
/// point serializes to exactly those bytes, and the gate run against it
/// behaves exactly as CI relies on — identical reports pass, a synthetic
/// 10% makespan regression fails at the 5% tolerance.
#[test]
fn committed_baselines_match_fresh_runs_and_gate_synthetic_regressions() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baselines");
    let q = HarnessConfig::quick();
    let cfg = report_config(&q, 64);
    let mut checked = 0;
    for (kernel, run) in report_kernels(&q) {
        for p in [1u32, 8, 64] {
            let path = format!("{dir}/BENCH_{kernel}_p{p}.json");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("baseline {path} unreadable: {e}"));
            let base = BenchReport::from_json(&text)
                .unwrap_or_else(|e| panic!("baseline {path} unparsable: {e}"));
            assert_eq!(base.to_json(), text, "{path}: parsing loses nothing");
            assert_eq!(base.text("kernel"), Some(kernel));
            assert_eq!(base.num("threads"), Some(f64::from(p)), "{path} carries its thread count");

            let rt = SamhitaRt::new(cfg.clone());
            let KernelPoint { params, report, .. } = run(&rt, p);
            let trace = rt.take_trace().expect("tracing enabled");
            let fresh = BenchReport::from_run(kernel, &params, &cfg, p, &report, Some(&trace));
            assert_eq!(fresh.to_json(), text, "{path} is stale: regenerate it");

            let same = compare(&base, &fresh, 0.0);
            assert!(same.passed(), "fresh run regressed: {:?}", same.regressions);

            let makespan_ns = base.num("makespan_ns").unwrap() as u64;
            let worse = fresh.with("makespan_ns", makespan_ns * 11 / 10);
            let gate = compare(&base, &worse, 0.05);
            assert!(!gate.passed(), "a 10% makespan regression must fail the 5% gate");
            assert!(gate.regressions.iter().any(|r| r.contains("makespan")));
            checked += 1;
        }
    }
    assert_eq!(checked, 9);
}

/// Queue peaks are per-run values: a one-thread run on a system that has
/// already served a contended run reports its own shallow peaks. A peak
/// that survived the run boundary could only read at least as deep as the
/// first run's.
#[test]
fn queue_peaks_do_not_carry_over_between_runs_on_one_system() {
    let rt = SamhitaRt::new(SamhitaConfig { mem_servers: 2, ..SamhitaConfig::small_for_tests() });
    let first = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 8)).report;
    let second = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 1)).report;

    assert!(first.mgr_peak_queue_depth >= 8, "eight threads must pile up at the manager");
    assert!(
        (1..first.mgr_peak_queue_depth).contains(&second.mgr_peak_queue_depth),
        "manager peak {} after a run that peaked at {}",
        second.mgr_peak_queue_depth,
        first.mgr_peak_queue_depth
    );
    assert_eq!(second.server_peak_queue_depth.len(), 2);
    for (s, f) in second.server_peak_queue_depth.iter().zip(&first.server_peak_queue_depth) {
        assert!((1..*f).contains(s), "server peak {s} after a run that peaked at {f}");
    }
}
