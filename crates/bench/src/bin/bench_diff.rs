//! Compare fresh `BENCH_<kernel>_p<P>.json` reports against committed
//! baselines — the CI regression gate.
//!
//! ```text
//! bench-diff <baseline> <fresh> [--tolerance 0.05]
//! ```
//!
//! `baseline` and `fresh` are either two directories (paired by file name:
//! every `BENCH_*.json` in either must have a counterpart in the other) or
//! two files. Exits nonzero when any kernel's makespan, sync fraction,
//! message counts or manager queue wait regress beyond the tolerance
//! (relative; default 5%), when a configuration fingerprint does not match
//! its baseline, or when a report exists on one side only — a baseline
//! nobody regenerates any more, or a fresh point nobody gates yet.
//!
//! Everything compared is virtual time. Host wall-clock cost is judged by
//! the `samhita-perf` harness under `benchmark/`, not here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samhita_bench::{compare, BenchReport, Comparison};

const USAGE: &str = "usage: bench-diff <baseline> <fresh> [--tolerance 0.05]";

struct Args {
    baseline: PathBuf,
    fresh: PathBuf,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut tolerance = 0.05;
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
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument '{flag}'")),
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    if positional.len() != 2 {
        return Err("expected exactly two paths: <baseline> <fresh>".into());
    }
    let fresh = positional.pop().expect("two positionals");
    let baseline = positional.pop().expect("two positionals");
    Ok(Args { baseline, fresh, tolerance })
}

/// The `BENCH_*.json` file names directly under `dir`.
fn report_names(dir: &Path) -> Result<BTreeSet<String>, String> {
    let mut names = BTreeSet::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let name = name.to_str().unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.insert(name.to_string());
        }
    }
    Ok(names)
}

/// Pair up reports: directly for files, by file name for directories — the
/// union of both sides' names, so a report only one side has still yields a
/// pair, which [`diff_pair`] then fails on its missing half.
fn report_pairs(baseline: &Path, fresh: &Path) -> Result<Vec<(PathBuf, PathBuf)>, String> {
    if baseline.is_file() {
        return Ok(vec![(baseline.to_path_buf(), fresh.to_path_buf())]);
    }
    let mut names = report_names(baseline)?;
    if names.is_empty() {
        return Err(format!("no BENCH_*.json reports under {}", baseline.display()));
    }
    names.extend(report_names(fresh)?);
    Ok(names.iter().map(|name| (baseline.join(name), fresh.join(name))).collect())
}

fn load(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => format!(
            "{}: no such report, though its counterpart exists — regenerate the baselines \
             (bench-report --out results/baselines) if a (kernel, P) point was added or dropped",
            path.display()
        ),
        _ => format!("{}: {e}", path.display()),
    })?;
    BenchReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Gate one pair of report files; a file that is missing or is not a report
/// is a regression of its own.
fn diff_pair(baseline: &Path, fresh: &Path, tolerance: f64) -> Comparison {
    match (load(baseline), load(fresh)) {
        (Ok(base), Ok(fresh)) => compare(&base, &fresh, tolerance),
        (base, fresh) => Comparison {
            lines: Vec::new(),
            regressions: base.err().into_iter().chain(fresh.err()).collect(),
        },
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
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
        let cmp = diff_pair(base_path, fresh_path, args.tolerance);
        for line in &cmp.lines {
            println!("{line}");
        }
        failures.extend(cmp.regressions);
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

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_core::SamhitaConfig;
    use samhita_kernels::{run_micro, AllocMode, MicroParams};
    use samhita_rt::SamhitaRt;

    /// Directory mode gates the union of both sides' reports: a fresh point
    /// with no committed baseline fails just as a baseline with no fresh run
    /// does, and neither hides the pair that does match.
    #[test]
    fn a_report_on_one_side_only_fails_the_gate() {
        let cfg = SamhitaConfig::small_for_tests();
        let rt = SamhitaRt::new(cfg.clone());
        let run = run_micro(&rt, &MicroParams::paper(2, 2, AllocMode::Global, 1)).report;
        let report = BenchReport::from_run("micro", "unit-test", &cfg, 1, &run, None).to_json();

        let root = std::env::temp_dir().join(format!("bench-diff-test-{}", std::process::id()));
        let (base, fresh) = (root.join("base"), root.join("fresh"));
        for (dir, names) in [
            (&base, ["BENCH_dropped_p1.json", "BENCH_kept_p1.json", "notes.txt"]),
            (&fresh, ["BENCH_kept_p1.json", "BENCH_added_p1.json", "BENCH_scratch.txt"]),
        ] {
            std::fs::create_dir_all(dir).expect("create temp dir");
            for name in names {
                std::fs::write(dir.join(name), &report).expect("write report");
            }
        }

        let pairs = report_pairs(&base, &fresh).expect("both directories are readable");
        let outcomes: Vec<(String, Comparison)> = pairs
            .iter()
            .map(|(b, f)| {
                assert_eq!(b.file_name(), f.file_name());
                assert!(b.starts_with(&base) && f.starts_with(&fresh));
                let name = b.file_name().unwrap().to_str().unwrap().to_string();
                (name, diff_pair(b, f, 0.0))
            })
            .collect();
        std::fs::remove_dir_all(&root).expect("remove temp dir");

        let names: Vec<&str> = outcomes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["BENCH_added_p1.json", "BENCH_dropped_p1.json", "BENCH_kept_p1.json"]);
        let (added, dropped, kept) = (&outcomes[0].1, &outcomes[1].1, &outcomes[2].1);
        assert!(kept.passed() && !kept.lines.is_empty(), "{:?}", kept.regressions);
        for (one_sided, missing_under) in [(added, &base), (dropped, &fresh)] {
            assert_eq!(one_sided.regressions.len(), 1, "{:?}", one_sided.regressions);
            let why = &one_sided.regressions[0];
            assert!(why.starts_with(&*missing_under.to_string_lossy()), "{why}");
            assert!(why.contains("no such report"), "{why}");
        }
    }
}
