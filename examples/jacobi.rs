//! Jacobi iteration on both backends: the paper's Figure 12 workload as a
//! runnable application.
//!
//! ```text
//! cargo run --release --example jacobi [grid_n] [iters] \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```
//!
//! With `--trace`, a dedicated 4-thread Samhita run records a protocol event
//! trace, verifies the RegC invariants on it, and writes it as Chrome
//! trace-event JSON — open it at <https://ui.perfetto.dev>. With
//! `--metrics-out`, the same run also emits a machine-readable `BenchReport`.
//!
//! With `--faults`, every Samhita run rides a lossy fabric (seeded drops,
//! duplicates, latency spikes) over two replicated memory servers; the
//! results must still match the fault-free serial reference bit for bit,
//! and the injected/retried/failed-over counts are printed at exit.

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::SamhitaConfig;
use samhita_repro::kernels::{run_jacobi, serial_reference_jacobi, JacobiParams};
use samhita_repro::rt::{KernelRt, NativeRt, SamhitaRt};

fn main() {
    let args = ExampleArgs::parse();
    let n = args.pos_usize(0, 254);
    let iters = args.pos_usize(1, 20);

    println!("Jacobi, {n}x{n} interior grid, {iters} sweeps (virtual time)\n");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12} {:>10}",
        "backend", "threads", "makespan", "sync(mean)", "halo-refetch", "speedup"
    );

    let baseline = {
        let rt = NativeRt::default();
        run_jacobi(&rt, &JacobiParams { n, iters, threads: 1 }).report.makespan
    };

    for threads in [1u32, 2, 4, 8] {
        let rt = NativeRt::default();
        let r = run_jacobi(&rt, &JacobiParams { n, iters, threads });
        println!(
            "{:>8} {:>10} {:>14} {:>14} {:>12} {:>10.2}",
            rt.name(),
            threads,
            r.report.makespan.to_string(),
            r.report.mean_sync().to_string(),
            "-",
            baseline.as_secs_f64() / r.report.makespan.as_secs_f64(),
        );
    }
    let base_cfg = args.base_config(SamhitaConfig::default());
    let (mut injected, mut retries, mut failovers) = (0u64, 0u64, 0u64);
    let mut last_summary = String::new();
    for threads in [1u32, 2, 4, 8, 16, 32] {
        let rt = SamhitaRt::new(base_cfg.clone());
        let r = run_jacobi(&rt, &JacobiParams { n, iters, threads });
        injected += r.report.fabric.total_faults();
        retries += r.report.total_of(|t| t.retries);
        failovers += r.report.total_of(|t| t.failovers);
        println!(
            "{:>8} {:>10} {:>14} {:>14} {:>12} {:>10.2}",
            rt.name(),
            threads,
            r.report.makespan.to_string(),
            r.report.mean_sync().to_string(),
            r.report.total_of(|t| t.page_refetches),
            baseline.as_secs_f64() / r.report.makespan.as_secs_f64(),
        );
        last_summary = run_summary(&r.report);
    }
    println!("\n32-thread Samhita run summary:\n{last_summary}");

    // Verify against the serial reference (bitwise: Jacobi is data-parallel —
    // this holds even on the lossy fabric, which is the point of the
    // retry/failover machinery).
    let rt = SamhitaRt::new(base_cfg.clone());
    let r = run_jacobi(&rt, &JacobiParams { n: 30, iters: 8, threads: 4 });
    assert_eq!(r.grid, serial_reference_jacobi(30, 8), "DSM run must equal serial reference");
    println!("verification: 4-thread Samhita grid identical to serial reference ✓");
    if let Some(seed) = args.fault_seed {
        println!(
            "faults (seed {seed}): {injected} injected, {retries} retried, \
             {failovers} failed over — results unaffected"
        );
    }

    if args.wants_trace() {
        let p = JacobiParams { n, iters, threads: 4 };
        let cfg = SamhitaConfig { tracing: true, ..base_cfg };
        let rt = SamhitaRt::new(cfg.clone());
        let report = run_jacobi(&rt, &p).report;
        args.write_outputs("jacobi", &format!("{p:?}"), &cfg, 4, &report, rt.take_trace());
    }
}
