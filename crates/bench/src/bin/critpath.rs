//! Extract and print the virtual-time critical path of one kernel run.
//!
//! ```text
//! critpath                                # jacobi, 8 threads
//! critpath --kernel md --threads 1024    # any kernel, any thread count
//! critpath --kernel micro --threads 8 --top 20
//! critpath --out critpath.json            # machine-readable report
//! ```
//!
//! Runs one `bench-report` point (`harness::traced_point`: the quick-scale
//! problem, grown with the thread count), extracts the critical path
//! (the chain of causally-dependent intervals whose lengths sum to the
//! makespan — see `samhita_trace::critical_path`), and prints:
//!
//! 1. the composition by class (compute / fetch / lock wait / barrier wait
//!    / manager wait / manager service / server service / queue wait),
//!    which sums to the makespan **exactly** — asserted, not approximated
//!    — with queue wait split by the resource queued at (memory servers,
//!    manager), and how many of the path's lock hand-offs came by baton
//!    from the releaser rather than through the manager, with what a baton
//!    link cost (median and p90, release to grant);
//! 2. the top-k longest path segments with page / lock / barrier / op
//!    attribution, plus allocation sites for page segments;
//! 3. optionally, the full deterministic JSON report (`--out`).

use std::path::PathBuf;
use std::process::ExitCode;

use samhita_bench::cli::{kernel_arg, threads_arg};
use samhita_bench::harness::traced_point;
use samhita_bench::thread_windows;
use samhita_trace::{critical_path, validate_json, Detail, PathClass, PathSegment};

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
            "--kernel" => args.kernel = kernel_arg(it.next())?,
            "--threads" => args.threads = threads_arg(it.next())?,
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
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# critical path of {} kernel, {} threads", args.kernel, args.threads);
    let (costs, report, trace) = traced_point(&args.kernel, args.threads);
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
    // Queue wait by resource: a memory server's, or the manager's.
    let queued = |server: bool| -> u64 {
        let at = |s: &&PathSegment| {
            s.class == PathClass::QueueWait && matches!(s.detail, Detail::ServerQueue(_)) == server
        };
        cp.segments.iter().filter(at).map(PathSegment::len_ns).sum()
    };
    let (server, manager) = (queued(true), queued(false));
    if server + manager > 0 {
        for (label, ns) in [("server", server), ("manager", manager)] {
            let pct = ns as f64 * 100.0 / cp.makespan_ns.max(1) as f64;
            println!("    {label:<14} {ns:>14} ns  {pct:>6.2}%");
        }
    }
    let (batons, fallbacks) = cp.lock_links();
    if batons + fallbacks > 0 {
        println!(
            "\nlock links: {batons} by baton, {fallbacks} through the manager ({:.1}% baton)",
            batons as f64 * 100.0 / (batons + fallbacks) as f64
        );
    }
    // A baton link is one lock-wait segment, from the release to the grant.
    let mut links: Vec<u64> = cp
        .segments
        .iter()
        .filter(|s| matches!(s.detail, Detail::LockBaton(_)))
        .map(PathSegment::len_ns)
        .collect();
    links.sort_unstable();
    if !links.is_empty() {
        let at = |q: usize| links[(links.len() - 1) * q / 100];
        println!("baton link cost: median {} ns, p90 {} ns", at(50), at(90));
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
