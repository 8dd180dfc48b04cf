//! Trace a kernel run and dump it for inspection.
//!
//! ```text
//! trace-dump                              # false-sharing micro, 4 threads
//! trace-dump --kernel jacobi --threads 8   # micro | jacobi | md, any count
//! trace-dump --out trace.json             # Chrome trace-event JSON (Perfetto)
//! trace-dump --jsonl trace.jsonl          # newline-delimited event records
//! ```
//!
//! Runs one `bench-report` point (`harness::traced_point`: the quick-scale
//! problem, grown with the thread count), then:
//!
//! 1. runs the trace-driven RegC invariant checker (exit 1 on violations),
//! 2. writes the trace as causal Chrome trace-event JSON — open it at
//!    <https://ui.perfetto.dev> or `chrome://tracing` to see one track per
//!    compute thread plus manager / memory-server / fabric tracks, with
//!    flow arrows from each stall to what ended it,
//! 3. prints the run's latency summary (fetch / lock / barrier histograms).

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

use samhita_bench::cli::{kernel_arg, threads_arg};
use samhita_bench::harness::traced_point;
use samhita_bench::{run_summary, thread_windows};
use samhita_trace::{critical_path, validate_json};

struct Args {
    kernel: String,
    threads: u32,
    out: PathBuf,
    jsonl: Option<PathBuf>,
    critpath: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kernel: "micro".into(),
        threads: 4,
        out: PathBuf::from("trace.json"),
        jsonl: None,
        critpath: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kernel" => args.kernel = kernel_arg(it.next())?,
            "--threads" => args.threads = threads_arg(it.next())?,
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                args.out = PathBuf::from(v);
            }
            "--jsonl" => {
                let v = it.next().ok_or("--jsonl needs a path")?;
                args.jsonl = Some(PathBuf::from(v));
            }
            "--critical-path" => args.critpath = true,
            "--help" | "-h" => {
                println!(
                    "usage: trace-dump [--kernel micro|jacobi|md] [--threads N] \
                     [--out trace.json] [--jsonl trace.jsonl] [--critical-path]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# tracing {} kernel, {} threads", args.kernel, args.threads);
    let (costs, report, trace) = traced_point(&args.kernel, args.threads);
    println!("# {} events on {} tracks", trace.len(), trace.tracks.len());

    // Invariant checker first: a trace that fails RegC's rules is still
    // worth looking at in Perfetto, but the exit code must say so.
    let ok = match trace.check_invariants() {
        Ok(summary) => {
            println!("# invariants ok: {summary}");
            true
        }
        Err(violations) => {
            eprintln!("# INVARIANT VIOLATIONS ({}):", violations.len());
            for v in &violations {
                eprintln!("#   {v}");
            }
            false
        }
    };

    // The causal export: thread tracks fully tiled, serve slices on the
    // manager/server tracks, and per stall the critical-path walk's own hops
    // as flow arrows (RPC pairs, lock hand-offs, barrier last arrivals).
    // Built in memory because it is validated before it is written; the
    // JSONL below is streamed.
    let windows = thread_windows(&report);
    let chrome = trace.to_chrome_json_with(&windows, &costs);
    validate_json(&chrome).expect("exporter produced invalid JSON");
    std::fs::write(&args.out, &chrome).expect("write trace file");
    println!(
        "# wrote {} ({} bytes) — open at https://ui.perfetto.dev",
        args.out.display(),
        chrome.len()
    );
    if let Some(path) = &args.jsonl {
        let file = BufWriter::new(File::create(path).expect("create JSONL file"));
        trace.write_jsonl(file).expect("write JSONL file");
        println!("# wrote {}", path.display());
    }

    if args.critpath {
        let cp = critical_path(&trace, &windows, &costs);
        println!("\ncritical path:\n  {}", cp.summary());
        for s in cp.top_segments(10) {
            println!(
                "  {:>12} ns  tid {:<3} {:<16} {}",
                s.len_ns(),
                s.tid,
                s.class.label(),
                s.detail
            );
        }
    }

    println!("\nrun summary:\n{}", run_summary(&report));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
