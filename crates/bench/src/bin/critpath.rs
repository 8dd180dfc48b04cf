//! Extract and print the virtual-time critical path of one kernel run.
//!
//! ```text
//! critpath                                # jacobi, 8 threads
//! critpath --kernel md --threads 64
//! critpath --kernel micro --threads 8 --top 20
//! critpath --out critpath.json            # machine-readable report
//! ```
//!
//! Runs one kernel with event tracing enabled, extracts the critical path
//! (the chain of causally-dependent intervals whose lengths sum to the
//! makespan — see `samhita_trace::critical_path`), and prints:
//!
//! 1. the composition by class (compute / fetch / lock wait / barrier wait
//!    / manager wait / manager service / server service / queue wait),
//!    which sums to the makespan **exactly** — asserted, not approximated;
//! 2. the top-k longest path segments with page / lock / barrier / op
//!    attribution, plus allocation sites for page segments;
//! 3. optionally, the full deterministic JSON report (`--out`).

use std::path::PathBuf;
use std::process::ExitCode;

use samhita_bench::cli::{check_threads, run_fixed_kernel};
use samhita_bench::harness::{report_config, HarnessConfig};
use samhita_bench::thread_windows;
use samhita_core::SamhitaConfig;
use samhita_rt::SamhitaRt;
use samhita_trace::{critical_path, validate_json, PathClass};

struct Args {
    kernel: String,
    threads: u32,
    top: usize,
    out: Option<PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { kernel: "jacobi".into(), threads: 8, top: 10, out: None };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kernel" => {
                let v = it.next().ok_or("--kernel needs 'micro', 'jacobi' or 'md'")?;
                if !matches!(v.as_str(), "micro" | "jacobi" | "md") {
                    return Err(format!("unknown kernel '{v}' (micro | jacobi | md)"));
                }
                args.kernel = v;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a number")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a number")?;
                args.top = v.parse().map_err(|_| format!("bad top count '{v}'"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                args.out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: critpath [--kernel micro|jacobi|md] [--threads N] \
                     [--top K] [--out critpath.json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    check_threads(&args.kernel, args.threads)?;
    Ok(args)
}

/// `bench-report`'s configuration at the paper's scale: tracing on, arenas
/// provisioned for the requested thread count.
fn config(args: &Args) -> SamhitaConfig {
    report_config(&HarnessConfig::paper(), args.threads)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cfg = config(&args);
    let costs = cfg.service_costs();
    let rt = SamhitaRt::new(cfg);
    println!("# critical path of {} kernel, {} threads", args.kernel, args.threads);
    let report = run_fixed_kernel(&rt, &args.kernel, args.threads);
    let trace = rt.take_trace().expect("tracing was enabled");
    if let Err(e) = trace.untruncated() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let cp = critical_path(&trace, &thread_windows(&report), &costs);

    println!("# makespan {} ns, path of {} segments\n", cp.makespan_ns, cp.segments.len());
    println!("composition:");
    for (i, class) in PathClass::ALL.iter().enumerate() {
        let ns = cp.class_ns[i];
        if ns == 0 {
            continue;
        }
        println!(
            "  {:<16} {:>14} ns  {:>6.2}%",
            class.label(),
            ns,
            ns as f64 * 100.0 / cp.makespan_ns.max(1) as f64
        );
    }
    println!("\ntop {} segments:", args.top);
    for s in cp.top_segments(args.top) {
        // Page-carrying details get their allocation site from the layout.
        let site = s.detail.page().map(|p| format!(" [{}]", report.site_label(p)));
        println!(
            "  {:>12} ns  tid {:<3} {:<16} {}{}  @ {}..{}",
            s.len_ns(),
            s.tid,
            s.class.label(),
            s.detail,
            site.unwrap_or_default(),
            s.start_ns,
            s.end_ns
        );
    }

    if let Some(path) = &args.out {
        let json = cp.to_json(args.top);
        validate_json(&json).expect("critpath serializer produced invalid JSON");
        std::fs::write(path, &json).expect("write critpath report");
        println!("\n# wrote {} ({} bytes)", path.display(), json.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn large_valid_thread_counts_get_their_arenas() {
        let default = SamhitaConfig::default().max_threads;
        let args = parse(&["--kernel", "micro", "--threads", "256"]).unwrap();
        assert_eq!(config(&args).max_threads, 256);
        let args = parse(&["--kernel", "md", "--threads", "8"]).unwrap();
        assert_eq!(config(&args).max_threads, default, "small runs keep the fingerprinted default");
    }
}
