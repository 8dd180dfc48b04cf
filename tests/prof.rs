//! The observability layer's tentpole invariant: host-side profiling is
//! *provably invisible* to virtual time. Running with the profiler enabled
//! must produce bit-identical virtual results — run report, trace
//! checksum, and the full serialized `BenchReport` — at P = 1, 8, and 64.
//! The one host-clock value a run carries lives outside the determinism
//! fingerprint: `RunReport` holds its wall time in a Debug-redacted
//! `HostNanos`, so the debug-string comparison the determinism suites rely
//! on cannot see the host clock, and a `BenchReport` never reads it.

use std::sync::Mutex;

use samhita_bench::BenchReport;
use samhita_repro::core::{RunReport, SamhitaConfig};
use samhita_repro::kernels::{run_jacobi, JacobiParams};
use samhita_repro::prof::{self, Phase};
use samhita_repro::rt::SamhitaRt;

/// The profiler's counters are process-global; serialize every test that
/// toggles them so parallel test threads cannot interleave enable/reset.
static PROF_LOCK: Mutex<()> = Mutex::new(());

fn config() -> SamhitaConfig {
    SamhitaConfig { tracing: true, max_threads: 64, ..SamhitaConfig::small_for_tests() }
}

/// One full observation of a jacobi run: the report (Debug form covers every
/// virtual-time statistic), the trace checksum, and the serialized
/// `BenchReport`. Caller controls whether the profiler is live.
fn observe(threads: u32, profiled: bool) -> (RunReport, String, u64, String) {
    let cfg = config();
    let rt = SamhitaRt::new(cfg.clone());
    let p = JacobiParams { n: 64, iters: 2, threads };
    prof::reset();
    prof::enable(profiled);
    let report = run_jacobi(&rt, &p).report;
    let trace = rt.take_trace().expect("tracing was enabled");
    let bench =
        BenchReport::from_run("jacobi", &format!("{p:?}"), &cfg, threads, &report, Some(&trace));
    prof::enable(false);
    let debug = format!("{report:?}");
    (report, debug, trace.checksum(), bench.to_json())
}

#[test]
fn profiling_is_invisible_to_virtual_results_at_p1_p8_p64() {
    let _guard = PROF_LOCK.lock().unwrap();
    for threads in [1u32, 8, 64] {
        let (_, debug_off, checksum_off, json_off) = observe(threads, false);
        let (_, debug_on, checksum_on, json_on) = observe(threads, true);
        assert_eq!(
            debug_off, debug_on,
            "P={threads}: run report must be bit-identical with profiling on vs off"
        );
        assert_eq!(
            checksum_off, checksum_on,
            "P={threads}: trace checksum must be identical with profiling on vs off"
        );
        assert_eq!(
            json_off, json_on,
            "P={threads}: serialized BenchReport must be byte-identical with profiling on vs off"
        );
    }
}

#[test]
fn host_wall_clock_is_excluded_from_the_determinism_fingerprint() {
    let _guard = PROF_LOCK.lock().unwrap();
    // Two profiled runs: wall clocks inevitably differ, yet the Debug form
    // the determinism suites compare must not — HostNanos redacts itself.
    let (report_a, debug_a, _, _) = observe(8, true);
    let (report_b, debug_b, _, _) = observe(8, true);
    assert!(report_a.host_wall_ns.get() > 0, "run() must stamp a host wall time");
    assert!(report_b.host_wall_ns.get() > 0);
    assert_eq!(debug_a, debug_b, "host wall time leaked into the determinism fingerprint");
    assert!(
        debug_a.contains("HostNanos(<host>)"),
        "HostNanos must redact its value in Debug output"
    );
}

/// A `BenchReport` is a pure function of the run: built twice it is the same
/// bytes, with no field that names the machine or the checkout. With the
/// profiler live through the build the causal-derivation phase is counted, which is
/// the counter `samhita-perf`'s `trace.span_graph_ns` row reads.
#[test]
fn from_run_is_pure_and_its_span_graph_build_is_profiled() {
    let _guard = PROF_LOCK.lock().unwrap();
    let cfg = config();
    let rt = SamhitaRt::new(cfg.clone());
    let p = JacobiParams { n: 64, iters: 2, threads: 8 };
    let report = run_jacobi(&rt, &p).report;
    let trace = rt.take_trace().expect("tracing was enabled");
    let build =
        || BenchReport::from_run("jacobi", &format!("{p:?}"), &cfg, 8, &report, Some(&trace));
    prof::reset();
    prof::enable(true);
    let profiled = build();
    prof::enable(false);
    assert!(
        prof::snapshot().phase(Phase::SpanGraph).calls > 0,
        "the critical-path derivation during from_run must be attributed"
    );
    assert_eq!(build().to_json(), profiled.to_json(), "two builds of one run must not differ");
    for machine_dependent in ["host", "git_rev"] {
        assert_eq!(
            profiled.get(machine_dependent),
            None,
            "{machine_dependent} is not a report key"
        );
    }
}
