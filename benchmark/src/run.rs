//! The parent side: spawn reps as fresh child processes, judge each one,
//! and reduce a set of them to the named metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::calib::{Calibrator, NOMINAL_PASS_NS};
use crate::json;
use crate::layers;
use crate::metrics::{Layer, Source, END_TO_END, PER_LAYER};
use crate::rep::{Mode, Rep};
use crate::spans::{self_times, Span};
use crate::stats::{summarize, Summary};
use crate::sys;
use crate::workloads::{workload, Reference, NAMES, SEED_SENSITIVE};

/// A rep that has not finished by now has deadlocked: the slowest one takes
/// under 2 s on the box this was written on.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// Timed rounds of `run` and of each set of `check`, after the warm-up
/// round. The README's numbers and the bounds `check` applies are for this
/// count.
pub const TIMED_ROUNDS: u32 = 15;

/// Profiled and traced reps per workload in a layer pass: enough that the
/// fastest of three is comparable with the fastest plain rep, so the two
/// overhead fractions are not one rep's luck.
const MEASURING_REPS: u32 = 3;

/// When a set stops adding timed rounds.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many: `run` and `check`.
    Rounds(u32),
    /// Once this much time has passed since the warm-up round: `bench`,
    /// which the driver gives `--seconds`. A round in flight finishes.
    Elapsed(Duration),
}

impl Stop {
    fn reached(self, rounds: u32, elapsed: Duration) -> bool {
        match self {
            Stop::Rounds(n) => rounds >= n,
            Stop::Elapsed(t) => elapsed >= t,
        }
    }
}

/// Where and how this run measures; recorded in `result.json`.
pub struct Env {
    exe: PathBuf,
    /// Brackets every rep with calibration passes, on the pinned CPU.
    cal: Calibrator,
    /// The CPU the parent and every child are confined to, if the kernel
    /// allowed it. Without it host-clock numbers are bimodal on a multicore
    /// box (the scheduler's baton hand-off crosses cores at the OS's whim),
    /// so they are all marked unresolved.
    pub pinned_cpu: Option<usize>,
    nproc: usize,
    rustc: String,
    git_rev: String,
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

impl Env {
    /// Pins the calling process; call once, before any rep is spawned.
    pub fn new() -> Result<Env, String> {
        // Before pinning: afterwards the answer is 1.
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let pinned_cpu = sys::pin_to_one_cpu();
        if pinned_cpu.is_none() {
            eprintln!("samhita-perf: could not pin to one CPU; host-clock metrics are unresolved");
        }
        Ok(Env {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            cal: Calibrator::new(),
            pinned_cpu,
            nproc,
            rustc: rustc_version(),
            git_rev: samhita_bench::report::git_rev(),
        })
    }

    fn to_json(&self) -> String {
        json::object([
            ("pinned", self.pinned_cpu.is_some().to_string()),
            ("cpu", self.pinned_cpu.map_or("null".into(), |c| json::num(c as f64))),
            ("nproc", json::num(self.nproc as f64)),
            ("rustc", json::string(&self.rustc)),
            ("git_rev", json::string(&self.git_rev)),
            ("nominal_pass_ms", json::num(NOMINAL_PASS_NS / 1e6)),
        ])
    }
}

/// One rep in a fresh process of `exe`. The child inherits the CPU mask.
fn spawn_rep(exe: &Path, name: &str, seed: u64, mode: Mode) -> Result<Rep, String> {
    let mut child = Command::new(exe)
        .args(["rep", name, "--seed", &seed.to_string(), "--mode", mode.label()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    // The child's one line fits the pipe buffer, so it can exit before
    // anything is read; polling keeps the harness free of threads.
    let deadline = Instant::now() + REP_TIMEOUT;
    while child.try_wait().map_err(|e| format!("wait: {e}"))?.is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no result after {} s; killed", REP_TIMEOUT.as_secs()));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().map_err(|e| format!("read: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Rep::from_json(text.lines().last().ok_or("child printed nothing")?)
}

fn fastest(reps: &[Rep]) -> Option<&Rep> {
    reps.iter().min_by_key(|r| r.wall_ns)
}

/// Every rep of one workload in one set.
pub struct Cell {
    pub name: &'static str,
    seed: u64,
    reference: Reference,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Passing timed reps of the workload as defined.
    plain: Vec<Rep>,
    /// Passing reps in the two measuring modes; the fastest of each (the
    /// one the box disturbed least) is the one its numbers are read from.
    prof: Vec<Rep>,
    trace: Vec<Rep>,
    /// The virtual makespan of the first passing rep; every later rep, in
    /// any mode, must reproduce it to the nanosecond.
    makespan_ns: Option<u64>,
    spans: Vec<(u64, Mode, Vec<Span>)>,
}

impl Cell {
    /// Computes the serial reference: call outside anything timed.
    pub fn new(name: &str, seed: u64) -> Result<Cell, String> {
        let w = workload(name, seed).ok_or_else(|| {
            format!("unknown workload '{name}' (expected one of {})", NAMES.join(", "))
        })?;
        Ok(Cell {
            name: w.name,
            seed,
            reference: w.kernel.reference(),
            attempted: 0,
            failures: Vec::new(),
            plain: Vec::new(),
            prof: Vec::new(),
            trace: Vec::new(),
            makespan_ns: None,
            spans: Vec::new(),
        })
    }

    /// Why this rep does not count, if it does not.
    fn judge(&self, rep: &Rep, mode: Mode) -> Result<(), String> {
        if let Some(why) = &rep.guard_failure {
            return Err(format!("guard: {why}"));
        }
        if !self.reference.matches(rep.output_bits) {
            return Err(format!("output {:016x} differs from the reference", rep.output_bits));
        }
        if self.makespan_ns.is_some_and(|first| first != rep.makespan_ns) {
            return Err(format!("virtual makespan {} ns differs from rep 1", rep.makespan_ns));
        }
        if let (Mode::Plain, Some(first)) = (mode, self.plain.first()) {
            for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
                if first.layers.get(m.name) != rep.layers.get(m.name) {
                    return Err(format!("{} differs from rep 1", m.name));
                }
            }
        }
        Ok(())
    }

    /// Run one rep between two calibration passes and file it. A warm-up
    /// (`timed` false) is checked like any other rep but its times are
    /// dropped.
    pub fn rep(&mut self, env: &mut Env, mode: Mode, timed: bool) {
        self.attempted += 1;
        let (spawned, pass_ns) =
            env.cal.bracket(|| spawn_rep(&env.exe, self.name, self.seed, mode));
        let outcome = spawned.and_then(|mut rep| {
            self.judge(&rep, mode)?;
            rep.pass_ns = pass_ns;
            Ok(rep)
        });
        match outcome {
            Err(why) => {
                self.failures.push(format!("rep {} ({}): {why}", self.attempted, mode.label()))
            }
            Ok(rep) => {
                self.makespan_ns.get_or_insert(rep.makespan_ns);
                self.spans.push((self.attempted, mode, rep.spans.clone()));
                match mode {
                    Mode::Plain if timed => self.plain.push(rep),
                    Mode::Plain => {}
                    Mode::Prof => self.prof.push(rep),
                    Mode::Trace => self.trace.push(rep),
                }
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn over_plain(&self, f: impl Fn(&Rep) -> f64) -> Option<Summary> {
        summarize(&self.plain.iter().map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics, in `END_TO_END` order; `None` until a timed
    /// rep has passed. The two host-clock times are calibrated: each rep's
    /// own, scaled by how long the passes around it took.
    pub fn end_to_end(&self) -> Option<[Summary; 4]> {
        let calibrated = |ns: u64, r: &Rep| ns as f64 / 1e9 * NOMINAL_PASS_NS / r.pass_ns;
        Some([
            self.over_plain(|r| calibrated(r.wall_ns, r))?,
            self.over_plain(|r| calibrated(r.wall_ns.saturating_sub(r.region_ns), r))?,
            self.over_plain(|r| r.peak_rss_bytes as f64 / (1 << 20) as f64)?,
            self.over_plain(|r| r.makespan_ns as f64 / 1e3)?,
        ])
    }

    /// What calibration started from: the timed reps' wall as the clock read
    /// it, in seconds, and the passes around them, in milliseconds.
    fn uncalibrated(&self) -> Option<(Summary, Summary)> {
        Some((self.over_plain(|r| r.wall_ns as f64 / 1e9)?, self.over_plain(|r| r.pass_ns / 1e6)?))
    }

    /// The per-layer metrics, in `PER_LAYER` order. Needs at least one
    /// passing rep in each mode and the result of [`layers::run_all`].
    pub fn layers(&self, alone: &[(&'static str, f64)]) -> Result<Vec<f64>, String> {
        let wall = fastest(&self.plain).ok_or("no timed rep passed")?.wall_ns as f64;
        let prof = fastest(&self.prof).ok_or("every profiled rep failed")?;
        let trace = fastest(&self.trace).ok_or("every traced rep failed")?;
        let mut computed: BTreeMap<&str, f64> = alone.iter().copied().collect();
        computed.insert("host.prof_overhead_frac", prof.wall_ns as f64 / wall - 1.0);
        computed.insert("host.trace_overhead_frac", trace.wall_ns as f64 / wall - 1.0);
        // A rep reports only what its mode measures, so the first source
        // that knows a name is the right one: the plain reps' median, then
        // the profiled rep (phase totals), then the traced rep (critical
        // path; the trace-side costs of an untraced workload).
        let from_plain = |name: &str| {
            let v: Option<Vec<f64>> =
                self.plain.iter().map(|r| r.layers.get(name).copied()).collect();
            Some(summarize(&v?)?.median)
        };
        PER_LAYER
            .iter()
            .map(|m| {
                from_plain(m.name)
                    .or_else(|| prof.layers.get(m.name).copied())
                    .or_else(|| trace.layers.get(m.name).copied())
                    .or_else(|| computed.get(m.name).copied())
                    .ok_or_else(|| format!("{} was not measured", m.name))
            })
            .collect()
    }

    /// An exact count as the plain reps saw it (they all agree, or the rep
    /// that did not was failed). `None` for what only the traced rep knows.
    pub fn exact_count(&self, name: &str) -> Option<f64> {
        self.plain.first()?.layers.get(name).copied()
    }

    /// Median self time per span name over the timed reps: where a rep's
    /// wall goes, seen from outside the simulator.
    fn span_self_times(&self) -> Vec<(String, f64)> {
        let mut by_name: Vec<(String, Vec<f64>)> = Vec::new();
        for rep in &self.plain {
            for (span, own) in rep.spans.iter().zip(self_times(&rep.spans)) {
                match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                    Some((_, v)) => v.push(own as f64 / 1e9),
                    None => by_name.push((span.name.clone(), vec![own as f64 / 1e9])),
                }
            }
        }
        by_name.into_iter().filter_map(|(name, v)| Some((name, summarize(&v)?.median))).collect()
    }
}

fn print_layer(m: &Layer, v: f64) {
    let better = m.better.label();
    println!("     {:<30} {v:>18.6} {:<5} ({better} is better) -> {}", m.name, m.unit, m.moves);
}

/// One complete measurement: some workloads, each with its reps, and
/// optionally the per-layer pass.
pub struct Set {
    pub seed: u64,
    pub cells: Vec<Cell>,
    /// Group B, once per set; empty when the layer pass was not asked for.
    pub alone: Vec<(&'static str, f64)>,
}

impl Set {
    /// The one measuring schedule: a warm-up round, then timed rounds until
    /// `stop`, each round one rep of every workload in `names` in turn, so
    /// a noisy stretch of the shared box lands on all of them alike. With
    /// `with_layers` the per-layer pass follows; under [`Stop::Elapsed`] it
    /// gets the second half of the time and the plain rounds the first.
    pub fn measure(
        env: &mut Env,
        names: &[&str],
        seed: u64,
        stop: Stop,
        with_layers: bool,
    ) -> Result<Set, String> {
        let mut cells = names.iter().map(|n| Cell::new(n, seed)).collect::<Result<Vec<_>, _>>()?;
        for cell in &mut cells {
            cell.rep(env, Mode::Plain, false);
        }
        let start = Instant::now();
        let plain_stop = match stop {
            Stop::Elapsed(t) if with_layers => Stop::Elapsed(t / 2),
            _ => stop,
        };
        let mut rounds = 0;
        while !plain_stop.reached(rounds, start.elapsed()) {
            for cell in &mut cells {
                cell.rep(env, Mode::Plain, true);
            }
            rounds += 1;
            eprintln!("samhita-perf: round {rounds} done");
        }
        let mut set = Set { seed, cells, alone: Vec::new() };
        if with_layers {
            let deadline = match stop {
                Stop::Rounds(_) => None,
                Stop::Elapsed(t) => Some(start + t),
            };
            set.layer_pass(env, deadline);
        }
        Ok(set)
    }

    /// Each layer alone (a fixed ~3 s), then up to `MEASURING_REPS` rounds
    /// of one profiled and one traced rep per workload. The first round
    /// always runs; with a `deadline`, another starts only if one as long as
    /// the last would end before it.
    fn layer_pass(&mut self, env: &mut Env, deadline: Option<Instant>) {
        self.alone = layers::run_all();
        for _ in 0..MEASURING_REPS {
            let began = Instant::now();
            for cell in &mut self.cells {
                cell.rep(env, Mode::Prof, false);
                cell.rep(env, Mode::Trace, false);
            }
            if deadline.is_some_and(|d| Instant::now() + began.elapsed() > d) {
                break;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.cells.iter().map(Cell::failed).sum()
    }

    /// Every metric by name, with its unit, for a person.
    pub fn print(&self, env: &Env) {
        let clock = if env.pinned_cpu.is_some() { "" } else { "  [unresolved: not pinned]" };
        for cell in &self.cells {
            println!(
                "\n== {} (seed {}): {} reps attempted, {} failed{}",
                cell.name,
                self.seed,
                cell.attempted,
                cell.failed(),
                if cell.name == SEED_SENSITIVE { "  [not in BENCHMARK.json]" } else { "" },
            );
            for why in &cell.failures {
                println!("   FAILED {why}");
            }
            println!("   fail_frac          {:.4}", cell.failed() as f64 / cell.attempted as f64);
            let Some(e2e) = cell.end_to_end() else { continue };
            for (m, s) in END_TO_END.iter().zip(&e2e) {
                println!(
                    "   {:<18} {:>12.6} {:<4} n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} iqr {:.1}%{}",
                    m.name,
                    s.median,
                    m.unit,
                    s.n,
                    s.min,
                    s.q1,
                    s.median,
                    s.q3,
                    s.max,
                    s.rel_iqr() * 100.0,
                    if m.host_clock { clock } else { "" },
                );
            }
            if let Some((wall, pass)) = cell.uncalibrated() {
                println!(
                    "   as measured: wall fastest {:.6} median {:.6} s; calibration pass fastest {:.2} median {:.2} ms (nominal {:.0})",
                    wall.min,
                    wall.median,
                    pass.min,
                    pass.median,
                    NOMINAL_PASS_NS / 1e6,
                );
            }
            println!("   span self time (median over timed reps):");
            for (name, s) in cell.span_self_times() {
                println!("     {name:<20} {s:>10.6} s");
            }
            if self.alone.is_empty() {
                continue;
            }
            match cell.layers(&self.alone) {
                Err(why) => println!("   per-layer table unavailable: {why}"),
                Ok(values) => {
                    println!("   per layer:");
                    for (m, v) in
                        PER_LAYER.iter().zip(values).filter(|(m, _)| m.source != Source::Alone)
                    {
                        print_layer(m, v);
                    }
                }
            }
        }
        if !self.alone.is_empty() {
            println!("\n== each layer alone");
            for (name, v) in &self.alone {
                print_layer(
                    PER_LAYER.iter().find(|m| m.name == *name).expect("a group-B name"),
                    *v,
                );
            }
        }
    }

    pub fn result_json(&self, env: &Env) -> String {
        let cells = self.cells.iter().map(|cell| {
            let e2e = cell.end_to_end().map_or("null".to_string(), |e2e| {
                json::object(END_TO_END.iter().zip(&e2e).map(|(m, s)| {
                    let digest = json::object([
                        ("value", json::num(s.median)),
                        ("unit", json::string(m.unit)),
                        ("median", json::num(s.median)),
                        ("n", json::num(s.n as f64)),
                        ("min", json::num(s.min)),
                        ("q1", json::num(s.q1)),
                        ("q3", json::num(s.q3)),
                        ("max", json::num(s.max)),
                        ("resolved", (!m.host_clock || env.pinned_cpu.is_some()).to_string()),
                    ]);
                    (m.name, digest)
                }))
            });
            let layers = match cell.layers(&self.alone) {
                Ok(values) => {
                    json::object(PER_LAYER.iter().zip(values).map(|(m, v)| (m.name, json::num(v))))
                }
                Err(_) => "null".to_string(),
            };
            let uncalibrated = cell.uncalibrated().map_or("null".to_string(), |(wall, pass)| {
                json::object([
                    ("wall_s_fastest", json::num(wall.min)),
                    ("wall_s_median", json::num(wall.median)),
                    ("pass_ms_fastest", json::num(pass.min)),
                    ("pass_ms_median", json::num(pass.median)),
                ])
            });
            json::object([
                ("name", json::string(cell.name)),
                ("attempted", json::num(cell.attempted as f64)),
                ("failed", json::num(cell.failed() as f64)),
                ("failures", json::array(cell.failures.iter().map(|f| json::string(f)))),
                ("end_to_end", e2e),
                ("uncalibrated", uncalibrated),
                ("per_layer", layers),
            ])
        });
        json::object([
            ("schema", json::string("samhita-perf-v1")),
            ("seed", json::num(self.seed as f64)),
            ("env", env.to_json()),
            ("workloads", json::array(cells)),
        ])
    }

    pub fn spans_json(&self) -> String {
        let mut rows = Vec::new();
        for cell in &self.cells {
            for (rep, mode, spans) in &cell.spans {
                for s in spans {
                    let mut fields = s.json_fields();
                    fields.push(("workload", json::string(cell.name)));
                    fields.push(("rep", json::num(*rep as f64)));
                    fields.push(("mode", json::string(mode.label())));
                    rows.push(json::object(fields));
                }
            }
        }
        json::array(rows)
    }

    /// Write `out/result.json` and `out/spans.json` beside the manifest.
    pub fn write(&self, env: &Env) -> Result<(), String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (file, text) in
            [("result.json", self.result_json(env)), ("spans.json", self.spans_json())]
        {
            samhita_trace::validate_json(&text).map_err(|e| format!("{file}: {e}"))?;
            let path = dir.join(file);
            std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_stops_on_its_round_count_or_its_time() {
        let rounds = Stop::Rounds(15);
        assert!(!rounds.reached(14, Duration::from_secs(3600)));
        assert!(rounds.reached(15, Duration::ZERO));
        let elapsed = Stop::Elapsed(Duration::from_secs(20));
        assert!(!elapsed.reached(1000, Duration::from_millis(19_999)));
        assert!(elapsed.reached(0, Duration::from_secs(20)));
    }
}
