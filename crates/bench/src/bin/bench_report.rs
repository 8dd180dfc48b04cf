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
//! Each report also carries a `host` section — the simulator's own
//! wall-clock cost per point, measured with `samhita-prof`. Host numbers
//! are machine-dependent; `--no-host` omits the section for workflows that
//! byte-compare report files across runs (the CI scale smoke does).

use std::path::PathBuf;
use std::process::ExitCode;

use samhita_bench::harness::{report_config, report_kernels};
use samhita_bench::{run_summary, BenchReport, HarnessConfig};
use samhita_rt::SamhitaRt;

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut threads: Vec<u32> = vec![1, 8, 64];
    let mut only_kernel: Option<String> = None;
    let mut with_host = true;
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
            "--no-host" => with_host = false,
            "--help" | "-h" => {
                println!(
                    "usage: bench-report [--out DIR] [--threads 1,8,64] [--kernel NAME] \
                     [--no-host]"
                );
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
            // Profile each (kernel, P) point in isolation: reset the
            // counters, run, snapshot. The profiler is invisible to
            // virtual time (tests/prof.rs pins this), so enabling it here
            // cannot change any other section of the report.
            samhita_prof::reset();
            samhita_prof::enable(with_host);
            let (params, report) = run(&rt, p);
            let trace = rt.take_trace().expect("tracing was enabled");
            // Keep profiling on through report construction so the
            // span-graph/critpath build phase is captured too.
            let bench = BenchReport::from_run(kernel, &params, &cfg, p, &report, Some(&trace));
            samhita_prof::enable(false);
            let bench = if with_host {
                bench.with_host(
                    &samhita_prof::snapshot(),
                    report.host_wall_ns.get(),
                    report.fabric.total_msgs(),
                )
            } else {
                bench
            };
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
    eprintln!(
        "error: {err}\nusage: bench-report [--out DIR] [--threads 1,8,64] [--kernel NAME] \
         [--no-host]"
    );
    ExitCode::FAILURE
}
