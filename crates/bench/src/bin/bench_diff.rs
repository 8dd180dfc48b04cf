//! Compare fresh `BENCH_<kernel>.json` reports against committed baselines —
//! the CI regression gate.
//!
//! ```text
//! bench-diff <baseline> <fresh> [--tolerance 0.05] [--host-advisory 1.5]
//! ```
//!
//! `baseline` and `fresh` are either two directories (every `BENCH_*.json`
//! in the baseline directory must have a counterpart in the fresh one) or
//! two files. Exits nonzero when any kernel's makespan or sync fraction
//! regresses beyond the tolerance (relative; default 5%), when a
//! configuration fingerprint does not match its baseline, or when a
//! baseline report has no fresh counterpart. `git_rev` differences are
//! ignored — comparing across commits is the entire point.
//!
//! Host wall-clock cost (the v5 `host` section) always hard-fails only on
//! blowups (see `HOST_BLOWUP_RATIO` in the report module). `--host-advisory
//! RATIO` adds a stricter host ns-per-event gate at the given ratio — CI
//! runs it as a separate `continue-on-error` step so drift is visible
//! without flaking the build on machine noise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samhita_bench::{compare, BenchReport};

struct Args {
    baseline: PathBuf,
    fresh: PathBuf,
    tolerance: f64,
    host_advisory: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut tolerance = 0.05;
    let mut host_advisory = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a fraction (e.g. 0.05)")?;
                tolerance = v.parse().map_err(|_| format!("bad tolerance '{v}'"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err(format!("tolerance {tolerance} out of range [0, 1)"));
                }
            }
            "--host-advisory" => {
                let v = it.next().ok_or("--host-advisory needs a ratio (e.g. 1.5)")?;
                let r: f64 = v.parse().map_err(|_| format!("bad host-advisory ratio '{v}'"))?;
                if r <= 1.0 {
                    return Err(format!("host-advisory ratio {r} must exceed 1"));
                }
                host_advisory = Some(r);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench-diff <baseline> <fresh> [--tolerance 0.05] \
                     [--host-advisory 1.5]"
                );
                std::process::exit(0);
            }
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    if positional.len() != 2 {
        return Err("expected exactly two paths: <baseline> <fresh>".into());
    }
    let fresh = positional.pop().expect("two positionals");
    let baseline = positional.pop().expect("two positionals");
    Ok(Args { baseline, fresh, tolerance, host_advisory })
}

/// Pair up reports: by filename for directories, directly for files.
fn report_pairs(baseline: &Path, fresh: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if baseline.is_file() {
        return Ok(vec![(baseline.to_path_buf(), fresh.to_path_buf())]);
    }
    let mut pairs = Vec::new();
    let entries =
        std::fs::read_dir(baseline).map_err(|e| format!("{}: {e}", baseline.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            pairs.push((path.clone(), fresh.join(name)));
        }
    }
    pairs.sort();
    if pairs.is_empty() {
        return Err(format!("no BENCH_*.json reports under {}", baseline.display()));
    }
    Ok(pairs)
}

fn load(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    BenchReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: bench-diff <baseline> <fresh> [--tolerance 0.05] \
                 [--host-advisory 1.5]"
            );
            return ExitCode::FAILURE;
        }
    };
    let pairs = match report_pairs(&args.baseline, &args.fresh) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# bench-diff: tolerance {:.1}%", args.tolerance * 100.0);
    let mut failures = Vec::new();
    for (base_path, fresh_path) in &pairs {
        let base = match load(base_path) {
            Ok(r) => r,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        // `load` checked it: every report the gate can read names its kernel.
        let kernel = base.text("kernel").expect("from_json requires a kernel");
        let fresh = match load(fresh_path) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!("{e} (fresh report for baseline {kernel})"));
                continue;
            }
        };
        let cmp = compare(&base, &fresh, args.tolerance);
        for line in &cmp.lines {
            println!("{line}");
        }
        failures.extend(cmp.regressions);
        // Stricter host gate, opted into per invocation. Separate from
        // compare() so the always-on gate keeps its blowup-only semantics.
        let ns_per_event = |r: &BenchReport| r.num("host.ns_per_event");
        if let (Some(ratio), Some(b), Some(f)) =
            (args.host_advisory, ns_per_event(&base), ns_per_event(&fresh))
        {
            if b > 0.0 && f > b * ratio {
                failures.push(format!(
                    "{kernel}: host ns/event {f:.1} exceeds {ratio}x the baseline {b:.1} \
                     (--host-advisory)"
                ));
            }
        }
    }

    if failures.is_empty() {
        println!("# gate: PASS ({} report(s) within tolerance)", pairs.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("# gate: FAIL");
        for f in &failures {
            eprintln!("REGRESSION: {f}");
        }
        ExitCode::FAILURE
    }
}
