//! False sharing under the three allocation strategies — the heart of the
//! paper's micro-benchmark study (Figures 3–10).
//!
//! Runs the Figure 2 kernel in all three modes and shows how allocation
//! placement changes invalidation-refetch traffic and where the time goes.
//!
//! ```text
//! cargo run --release --example false_sharing [threads] [M] \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```
//!
//! With `--trace`, the `global` run (the false-sharing one) records a
//! protocol event trace, verifies the RegC invariants on it, and writes it
//! as Chrome trace-event JSON — open it at <https://ui.perfetto.dev>.
//!
//! With `--metrics-out`, the same `global` run is condensed into a
//! machine-readable `BenchReport` (makespan, sync fraction, utilization,
//! timeline summary, hotspot pages) at the given path.
//!
//! With `--faults`, every Samhita run rides a lossy fabric (seeded drops,
//! duplicates, latency spikes) over two replicated memory servers; the
//! numerics must still check out, and the injected/retried/failed-over
//! counts are printed at exit.
//!
//! The closing hotspot report names the exact global pages that ping-pong
//! between writers in the `global` mode — the pages at block boundaries
//! where two threads' rows share a page.

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::SamhitaConfig;
use samhita_repro::kernels::{expected_gsum, run_micro, AllocMode, MicroParams};
use samhita_repro::rt::{NativeRt, SamhitaRt};

fn main() {
    let args = ExampleArgs::parse();
    let threads = args.pos_u32(0, 8);
    let m = args.pos_usize(1, 10);

    println!("Figure 2 micro-benchmark: {threads} threads, M={m}, S=2, B=260, N=10\n");
    println!(
        "{:>16} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "mode", "compute", "sync", "refetches", "invalidated", "diff bytes", "fine bytes"
    );

    let pth_baseline = {
        let p = MicroParams::paper(m, 2, AllocMode::Local, 1);
        run_micro(&NativeRt::default(), &p).report.mean_compute()
    };

    let base_cfg = args.base_config(SamhitaConfig::default());
    let (mut injected, mut retries, mut failovers) = (0u64, 0u64, 0u64);
    let mut global_summary = String::new();
    for mode in [AllocMode::Local, AllocMode::Global, AllocMode::GlobalStrided] {
        let traced = args.wants_trace() && mode == AllocMode::Global;
        let p = MicroParams::paper(m, 2, mode, threads);
        let cfg = SamhitaConfig { tracing: traced, ..base_cfg.clone() };
        let rt = SamhitaRt::new(cfg.clone());
        let r = run_micro(&rt, &p);
        injected += r.report.fabric.total_faults();
        retries += r.report.total_of(|t| t.retries);
        failovers += r.report.total_of(|t| t.failovers);
        // Check the numerics while we are here.
        let rel = (r.gsum - expected_gsum(&p)).abs() / expected_gsum(&p).abs();
        assert!(rel < 1e-9, "gsum off by {rel:.2e}");
        println!(
            "{:>16} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
            mode.label(),
            r.report.mean_compute().to_string(),
            r.report.mean_sync().to_string(),
            r.report.total_of(|t| t.page_refetches),
            r.report.total_of(|t| t.invalidations),
            r.report.total_of(|t| t.diff_bytes_flushed),
            r.report.total_of(|t| t.fine_bytes_flushed),
        );
        if mode == AllocMode::Global {
            global_summary = run_summary(&r.report);
        }
        if traced {
            let (params, trace) = (format!("{p:?}"), rt.take_trace());
            args.write_outputs("false_sharing", &params, &cfg, threads, &r.report, trace);
        }
    }

    println!("\nglobal-mode run summary (the false-sharing case):\n{global_summary}");
    if let Some(seed) = args.fault_seed {
        println!(
            "faults (seed {seed}): {injected} injected, {retries} retried, \
             {failovers} failed over — numerics unaffected"
        );
    }
    println!(
        "\n1-thread pthreads compute baseline: {pth_baseline} \
         (the paper normalizes Figures 3-5 by this)"
    );
    println!(
        "local allocation draws from per-thread arenas, so threads never share a page;\n\
         global allocation false-shares at block boundaries; the strided access pattern\n\
         interleaves rows and false-shares on nearly every page."
    );
}
