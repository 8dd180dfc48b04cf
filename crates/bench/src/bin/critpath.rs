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

use samhita_bench::harness::{report_config, HarnessConfig};
use samhita_bench::thread_windows;
use samhita_core::SamhitaConfig;
use samhita_kernels::{
    run_jacobi, run_md, run_micro, AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_rt::SamhitaRt;
use samhita_trace::{critical_path, validate_json, PathClass};

/// Jacobi's fixed grid: one interior row per thread at the very least.
const JACOBI_N: usize = 126;
/// MD's fixed particle count: one particle per thread at the very least.
const MD_N: usize = 256;

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
    // The kernels assert these; checked here so a bad count is a usage
    // error, not a panic half-way into bring-up.
    let (most, unit) = match args.kernel.as_str() {
        "jacobi" => (JACOBI_N, "interior rows"),
        "md" => (MD_N, "particles"),
        _ => (usize::MAX, ""),
    };
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if args.threads as usize > most {
        return Err(format!(
            "--threads {} is more than the {} kernel's {most} {unit}",
            args.threads, args.kernel
        ));
    }
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
    let report = match args.kernel.as_str() {
        "micro" => {
            run_micro(&rt, &MicroParams::paper(10, 2, AllocMode::Global, args.threads)).report
        }
        "md" => run_md(&rt, &MdParams { steps: 3, ..MdParams::paper(MD_N, args.threads) }).report,
        _ => run_jacobi(&rt, &JacobiParams { n: JACOBI_N, iters: 6, threads: args.threads }).report,
    };
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

    /// These three used to parse, then panic inside the run (exit 101).
    #[test]
    fn thread_counts_beyond_the_fixed_problem_are_usage_errors() {
        for argv in [
            &["--threads", "256"][..],
            &["--kernel", "jacobi", "--threads", "128"],
            &["--kernel", "md", "--threads", "257"],
        ] {
            let err = parse(argv).err().unwrap_or_else(|| panic!("{argv:?} must be rejected"));
            assert!(err.contains("is more than the"), "{argv:?}: {err}");
        }
        assert!(parse(&["--threads", "0"]).is_err());
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
