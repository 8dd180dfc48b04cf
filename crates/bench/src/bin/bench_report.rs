//! Emit machine-readable performance reports (`BENCH_<kernel>_p<P>.json`).
//!
//! ```text
//! bench-report [--out DIR] [--threads 1,8,64] [--kernel NAME]
//! bench-report --out results/baselines   # regenerate the committed baselines
//! ```
//!
//! Runs the kernels (micro / jacobi / md) at each requested thread count at
//! the quick (CI) scale with event tracing on, and writes one
//! [`BenchReport`] per (kernel, P) point. Under the deterministic
//! virtual-time runtime (the default) every point — including P > 1 — is
//! bit-reproducible run to run, so the committed baselines can be compared
//! exactly by `bench-diff`; the CI tolerance exists for future
//! configurations, not for noise. The per-point configuration fingerprint
//! covers the thread count (it is part of the kernel params), so a P=8
//! report can never silently gate against a P=64 baseline.
//!
//! A report holds virtual-time numbers only, so two runs of one tree write
//! byte-identical files — CI holds `results/baselines/` with a plain
//! `diff -r`. What the simulator costs on the host clock is measured by the
//! `samhita-perf` harness under `benchmark/`, not here.

use std::path::PathBuf;
use std::process::ExitCode;

use samhita_bench::harness::{report_config, report_kernels, KernelPoint};
use samhita_bench::{run_summary, BenchReport, HarnessConfig};
use samhita_rt::SamhitaRt;

const USAGE: &str = "usage: bench-report [--out DIR] [--threads 1,8,64] [--kernel NAME]";

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut threads: Vec<u32> = vec![1, 8, 64];
    let mut only_kernel: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out_dir = PathBuf::from(v),
                None => return usage("--out needs a directory"),
            },
            "--threads" => match it.next().map(|v| parse_threads(&v)) {
                Some(Ok(list)) => threads = list,
                Some(Err(e)) => return usage(&e),
                None => return usage("--threads needs a comma-separated list (e.g. 1,8,64)"),
            },
            "--kernel" => match it.next() {
                Some(v) => only_kernel = Some(v),
                None => return usage("--kernel needs a kernel name (micro, jacobi, md)"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let q = HarnessConfig::quick();
    let max_p = threads.iter().copied().max().expect("non-empty thread list");
    let cfg = report_config(&q, max_p);

    let mut wrote = 0usize;
    for (kernel, run) in report_kernels(&q) {
        if only_kernel.as_deref().is_some_and(|k| k != kernel) {
            continue;
        }
        for &p in &threads {
            let rt = SamhitaRt::new(cfg.clone());
            let KernelPoint { params, report, .. } = run(&rt, p);
            let trace = rt.take_trace().expect("tracing was enabled");
            if let Err(e) = trace.untruncated() {
                eprintln!("error: {kernel} P={p}: {e}");
                return ExitCode::FAILURE;
            }
            let bench = BenchReport::from_run(kernel, &params, &cfg, p, &report, Some(&trace));
            let path = out_dir.join(format!("BENCH_{kernel}_p{p}.json"));
            std::fs::write(&path, bench.to_json()).expect("write report");
            println!("wrote {} ({})", path.display(), params);
            println!("{}", run_summary(&report));
            wrote += 1;
        }
    }
    if wrote == 0 {
        return usage("no kernel matched --kernel (want micro, jacobi, or md)");
    }
    ExitCode::SUCCESS
}

fn parse_threads(list: &str) -> Result<Vec<u32>, String> {
    let parsed: Result<Vec<u32>, _> = list.split(',').map(|t| t.trim().parse::<u32>()).collect();
    match parsed {
        Ok(v) if !v.is_empty() && v.iter().all(|&p| p >= 1) => Ok(v),
        _ => Err(format!("bad --threads list '{list}' (want e.g. 1,8,64)")),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n{USAGE}");
    ExitCode::FAILURE
}
