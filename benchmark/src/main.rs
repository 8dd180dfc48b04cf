//! `samhita-perf`: the paper-scale benchmark of the Samhita simulator.
//!
//! ```text
//! samhita-perf run   [--seed S]     all six workloads, interleaved, plus the layer tables
//! samhita-perf check [--seed S]     two sets back to back; do they agree within the bounds?
//! samhita-perf rep <workload> [--seed S] [--mode plain|prof|trace]     one rep, one line of JSON
//! samhita-perf bench --workload W --seed S --seconds T --trace 0|1     one workload for T seconds
//! ```
//!
//! `bench` is the entry point `BENCHMARK.json` names; its last line of
//! output is the result object the driver reads. See the README.

mod calib;
mod json;
mod layers;
mod metrics;
mod rep;
mod run;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Source, END_TO_END, PER_LAYER};
use run::{Env, Set, Stop, TIMED_ROUNDS};
use stats::{verdict, Verdict};
use workloads::NAMES;

const USAGE: &str = "usage: samhita-perf run|check [--seed S]
       samhita-perf rep <workload> [--seed S] [--mode plain|prof|trace]
       samhita-perf bench --workload W --seed S --seconds T --trace 0|1";

/// `--flag value` pairs and bare words, in that split.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { flags: BTreeMap::new(), words: Vec::new() };
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = args.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    out.flags.insert(flag.to_string(), value);
                }
                None => out.words.push(arg),
            }
        }
        Ok(out)
    }

    /// The flag's value, parsed; `default` when absent.
    fn get<T: std::str::FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.remove(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag}: cannot read '{v}'")),
        }
    }

    fn require<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.flags.remove(flag).ok_or_else(|| format!("--{flag} is required"))?;
        v.parse().map_err(|_| format!("--{flag}: cannot read '{v}'"))
    }

    fn done(self) -> Result<(), String> {
        match self.flags.keys().next() {
            Some(flag) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let origin = Instant::now();
    match dispatch(origin) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("samhita-perf: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(origin: Instant) -> Result<ExitCode, String> {
    let mut args = Args::parse(std::env::args().skip(1))?;
    let words = std::mem::take(&mut args.words);
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    match words[..] {
        ["rep", name] => {
            let seed = args.get("seed", 42)?;
            let mode = args.get("mode", "plain".to_string())?;
            let mode = rep::Mode::from_label(&mode).ok_or(format!("--mode: unknown '{mode}'"))?;
            args.done()?;
            println!("{}", rep::run(name, seed, mode, origin)?.to_json());
            Ok(ExitCode::SUCCESS)
        }
        ["run"] => {
            let seed = args.get("seed", 42)?;
            args.done()?;
            let mut env = Env::new()?;
            let set = Set::measure(&mut env, &NAMES, seed, Stop::Rounds(TIMED_ROUNDS), true)?;
            set.print(&env);
            set.write(&env)?;
            Ok(if set.failed() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        ["check"] => {
            let seed = args.get("seed", 42)?;
            args.done()?;
            let mut env = Env::new()?;
            let a = Set::measure(&mut env, &NAMES, seed, Stop::Rounds(TIMED_ROUNDS), false)?;
            let b = Set::measure(&mut env, &NAMES, seed, Stop::Rounds(TIMED_ROUNDS), false)?;
            Ok(if check(&env, &a, &b) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        ["bench"] => {
            let name: String = args.require("workload")?;
            let (seed, seconds) = (args.require("seed")?, args.require::<f64>("seconds")?);
            let trace = match args.require::<u8>("trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace: {other} is neither 0 nor 1")),
            };
            args.done()?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds: {seconds} is outside (0, 600]"));
            }
            let mut env = Env::new()?;
            let stop = Stop::Elapsed(Duration::from_secs_f64(seconds));
            let set = Set::measure(&mut env, &[name.as_str()], seed, stop, trace)?;
            set.print(&env);
            set.write(&env)?;
            println!("{}", driver_line(&set, trace)?);
            Ok(if set.failed() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        _ => Err("expected one of run, check, rep <workload>, bench".to_string()),
    }
}

/// The one-object result line of the driver's contract: the end-to-end
/// metrics without `--trace`, the per-layer metrics with it.
fn driver_line(set: &Set, trace: bool) -> Result<String, String> {
    let cell = &set.cells[0];
    let value =
        |v: f64, unit: &str| json::object([("value", json::num(v)), ("unit", json::string(unit))]);
    let metrics = if trace {
        let values = cell.layers(&set.alone)?;
        json::object(PER_LAYER.iter().zip(values).map(|(m, v)| (m.name, value(v, m.unit))))
    } else {
        let e2e = cell.end_to_end().ok_or_else(|| {
            format!("no rep of {} passed: {}", cell.name, cell.failures.join("; "))
        })?;
        json::object(END_TO_END.iter().zip(&e2e).map(|(m, s)| (m.name, value(s.median, m.unit))))
    };
    let line = json::object([
        ("correct", (set.failed() == 0).to_string()),
        ("attempted", json::num(set.attempted() as f64)),
        ("failed", json::num(set.failed() as f64)),
        ("metrics", metrics),
    ]);
    samhita_trace::validate_json(&line)?;
    Ok(line)
}

/// Host-clock cells (workload × metric, 18 in all) that `check` lets stay
/// `unresolved` before it fails: beyond that the box is too noisy for the
/// two sets to say anything.
const MAX_UNRESOLVED: usize = 2;

/// Compare two sets of the same commit, cell by cell. True when nothing
/// disagrees: no failed rep, every exact count and the virtual makespan
/// identical, no host-clock value beyond its bound with disjoint
/// interquartile ranges, and at most [`MAX_UNRESOLVED`] beyond it at all.
fn check(env: &Env, a: &Set, b: &Set) -> bool {
    let mut ok = a.failed() == 0 && b.failed() == 0;
    let (mut unresolved, mut cells) = (0, 0);
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "set 1", "set 2", "delta"
    );
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        for why in ca.failures.iter().chain(&cb.failures) {
            println!("{:<20} FAILED {why}", ca.name);
        }
        let (Some(ea), Some(eb)) = (ca.end_to_end(), cb.end_to_end()) else {
            ok = false;
            continue;
        };
        for ((m, sa), sb) in END_TO_END.iter().zip(&ea).zip(&eb) {
            let (va, vb) = (sa.median, sb.median);
            let v = if !m.host_clock {
                // The virtual clock is exact: any difference is a disagreement.
                if va == vb {
                    Verdict::Agree
                } else {
                    Verdict::Disagree
                }
            } else if env.pinned_cpu.is_none() {
                Verdict::Unresolved
            } else {
                verdict(sa, sb, m.bound, m.floor)
            };
            cells += usize::from(m.host_clock);
            unresolved += usize::from(v == Verdict::Unresolved);
            ok &= v != Verdict::Disagree;
            let held_to = if m.host_clock {
                format!("bound {:.0}%", m.bound * 100.0)
            } else {
                "must be equal".to_string()
            };
            println!(
                "{:<20} {:<18} {:>12.6} {:>12.6} {:>+7.1}%  {} (iqr {:.1}% / {:.1}%, {held_to})",
                ca.name,
                m.name,
                va,
                vb,
                (vb / va - 1.0) * 100.0,
                v.label(),
                sa.rel_iqr() * 100.0,
                sb.rel_iqr() * 100.0,
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
            let (va, vb) = (ca.exact_count(m.name), cb.exact_count(m.name));
            if va != vb {
                ok = false;
                println!("{:<20} {:<18} {va:?} vs {vb:?}  DISAGREE (exact count)", ca.name, m.name);
            }
        }
    }
    println!(
        "\n{unresolved} of {cells} host-clock cells unresolved (at most {MAX_UNRESOLVED} allowed); {}",
        if ok { "no disagreement" } else { "the two sets DISAGREE" }
    );
    ok && unresolved <= MAX_UNRESOLVED
}
