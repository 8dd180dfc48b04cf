//! List every field that differs between committed
//! `BENCH_<kernel>_p<P>.json` baselines and fresh reports.
//!
//! ```text
//! bench-diff <baseline> <fresh>
//! ```
//!
//! `baseline` and `fresh` are either two directories (paired by file name:
//! every `BENCH_*.json` in either must have a counterpart in the other) or
//! two files. Each output line names a report, a leaf that differs by its
//! path (`makespan_ns`, `traffic.classes[1].msgs`), both values and, for
//! numbers, the relative change. Exits 1 when any leaf moved, when a report
//! exists on one side only — a baseline nobody regenerates any more, or a
//! fresh point no baseline covers yet — or when a file is not a report;
//! exits 0 otherwise. It is the readable form of `diff -r` over the two
//! trees.
//!
//! Everything compared is virtual time, so the reports of an unchanged tree
//! equal their baselines. Host wall-clock cost is judged by the
//! `samhita-perf` harness under `benchmark/`, not here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use samhita_bench::{moved, BenchReport};

const USAGE: &str = "usage: bench-diff <baseline> <fresh>";

fn parse_args() -> Result<(PathBuf, PathBuf), String> {
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument '{flag}'")),
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    match <[PathBuf; 2]>::try_from(positional) {
        Ok([baseline, fresh]) => Ok((baseline, fresh)),
        Err(_) => Err("expected exactly two paths: <baseline> <fresh>".into()),
    }
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

/// The moved leaves of one pair of report files, one line each. A file
/// that is missing or is not a report is an error.
fn diff_pair(baseline: &Path, fresh: &Path) -> Result<Vec<String>, String> {
    let (base, fresh) = (load(baseline)?, load(fresh)?);
    Ok(moved(&base, &fresh).iter().map(ToString::to_string).collect())
}

fn main() -> ExitCode {
    let (baseline, fresh) = match parse_args() {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let pairs = match report_pairs(&baseline, &fresh) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (mut fields, mut broken) = (0, 0);
    for (base_path, fresh_path) in &pairs {
        let name = fresh_path.file_name().unwrap_or_default().to_string_lossy();
        match diff_pair(base_path, fresh_path) {
            Ok(lines) => {
                for line in &lines {
                    println!("{name}  {line}");
                }
                fields += lines.len();
            }
            Err(e) => {
                eprintln!("error: {e}");
                broken += 1;
            }
        }
    }

    if fields + broken == 0 {
        println!("# nothing moved in {} report(s)", pairs.len());
        ExitCode::SUCCESS
    } else {
        println!("# {fields} field(s) moved; {broken} report(s) missing or unreadable");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_core::SamhitaConfig;
    use samhita_kernels::{run_micro, AllocMode, MicroParams};
    use samhita_rt::SamhitaRt;

    /// Directory mode compares the union of both sides' reports: a fresh
    /// point with no committed baseline fails just as a baseline with no
    /// fresh run does, and neither hides the pair that does match.
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
        let outcomes: Vec<(String, Result<Vec<String>, String>)> = pairs
            .iter()
            .map(|(b, f)| {
                assert_eq!(b.file_name(), f.file_name());
                assert!(b.starts_with(&base) && f.starts_with(&fresh));
                let name = b.file_name().unwrap().to_str().unwrap().to_string();
                (name, diff_pair(b, f))
            })
            .collect();
        std::fs::remove_dir_all(&root).expect("remove temp dir");

        let names: Vec<&str> = outcomes.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["BENCH_added_p1.json", "BENCH_dropped_p1.json", "BENCH_kept_p1.json"]);
        let (added, dropped, kept) = (&outcomes[0].1, &outcomes[1].1, &outcomes[2].1);
        assert_eq!(kept, &Ok(Vec::new()), "identical reports move nothing");
        for (one_sided, missing_under) in [(added, &base), (dropped, &fresh)] {
            let why = one_sided.as_ref().expect_err("a report on one side only fails");
            assert!(why.starts_with(&*missing_under.to_string_lossy()), "{why}");
            assert!(why.contains("no such report"), "{why}");
        }
    }
}
