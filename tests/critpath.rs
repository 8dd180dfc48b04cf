//! End-to-end checks of the causal observability layer: the virtual-time
//! critical path must tile the makespan *exactly* on every kernel at every
//! thread count, the span graph must be a monotone DAG, per-thread time
//! conservation must hold on arbitrary generated programs, and the whole
//! layer must be post-hoc — extracting it leaves the trace checksum and
//! every virtual-time quantity bit-identical.

mod common;

use samhita_bench::{thread_windows, BenchReport};
use samhita_repro::core::{RunReport, Samhita, SamhitaConfig};
use samhita_repro::kernels::{
    run_jacobi, run_md, run_micro, AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::trace::{critical_path, validate_json, JsonValue, RunTrace, SpanGraph};

fn traced(sched_seed: u64) -> SamhitaConfig {
    SamhitaConfig { tracing: true, sched_seed, ..SamhitaConfig::default() }
}

/// Run one kernel at CI scale with tracing on and hand back both views.
fn run_kernel(kernel: &str, threads: u32, sched_seed: u64) -> (RunReport, RunTrace) {
    let rt = SamhitaRt::new(traced(sched_seed));
    let report = match kernel {
        "micro" => run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, threads)).report,
        "md" => run_md(&rt, &MdParams { n: 256, steps: 2, ..MdParams::paper(256, threads) }).report,
        "jacobi" => run_jacobi(&rt, &JacobiParams { n: 126, iters: 4, threads }).report,
        other => panic!("unknown kernel {other}"),
    };
    let trace = rt.take_trace().expect("tracing enabled");
    (report, trace)
}

/// The headline acceptance criterion: the critical path's class totals sum
/// to the run makespan exactly — integer nanoseconds, no residue — on all
/// three kernels at P ∈ {1, 8, 64}.
#[test]
fn critical_path_length_equals_makespan_on_all_kernels() {
    let costs = SamhitaConfig::default().service_costs();
    for kernel in ["micro", "jacobi", "md"] {
        for p in [1u32, 8, 64] {
            let (report, trace) = run_kernel(kernel, p, 0);
            let cp = critical_path(&trace, &thread_windows(&report), &costs);
            assert_eq!(
                cp.total_ns(),
                cp.makespan_ns,
                "{kernel} P={p}: class totals must tile the makespan exactly"
            );
            assert_eq!(
                cp.makespan_ns,
                report.makespan.as_ns(),
                "{kernel} P={p}: the path anchors at the run's own makespan"
            );
            assert!(!cp.segments.is_empty(), "{kernel} P={p}: a run has a non-empty path");
            // Segments are contiguous in virtual time walking backwards.
            for s in &cp.segments {
                assert!(s.start_ns < s.end_ns, "{kernel} P={p}: empty segment on the path");
            }
        }
    }
}

/// The span graph is causally well-formed: every edge flows forward in
/// virtual time, and the zero-delay subgraph (where a cycle could hide) is
/// a DAG.
#[test]
fn span_graph_is_acyclic_with_monotone_edges() {
    let costs = SamhitaConfig::default().service_costs();
    for (kernel, p) in [("jacobi", 8u32), ("micro", 4), ("md", 8)] {
        let (report, trace) = run_kernel(kernel, p, 0);
        let g = SpanGraph::build(&trace, &thread_windows(&report), &costs);
        assert!(!g.spans.is_empty(), "{kernel}: graph has spans");
        assert!(!g.edges.is_empty(), "{kernel}: graph has causal edges");
        g.check_monotone().unwrap_or_else(|e| panic!("{kernel} P={p}: non-monotone edge: {e}"));
        assert!(g.is_acyclic(), "{kernel} P={p}: zero-delay causality must be acyclic");
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

/// The whole layer is observational: building the span graph, extracting
/// the critical path, and exporting flow events are read-only (the trace
/// checksum is untouched), and the bench report's virtual-time fields are
/// bit-identical whether or not the trace-derived sections are computed.
#[test]
fn observability_layer_is_post_hoc_and_checksum_stable() {
    let cfg = traced(0);
    let costs = cfg.service_costs();
    let (report, trace) = run_kernel("micro", 4, 0);
    let before = trace.checksum();
    let windows = thread_windows(&report);

    let g = SpanGraph::build(&trace, &windows, &costs);
    let cp = critical_path(&trace, &windows, &costs);
    let chrome = trace.to_chrome_json_with(&windows, &costs);
    validate_json(&chrome).expect("causal Chrome export must be valid JSON");
    assert!(chrome.contains("\"ph\":\"s\""), "flow-start events present");
    assert!(chrome.contains("\"ph\":\"f\""), "flow-finish events present");
    assert!(!g.spans.is_empty() && cp.makespan_ns > 0);
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
