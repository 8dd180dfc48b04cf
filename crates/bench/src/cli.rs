//! Shared command-line plumbing for the examples and the harness tools.
//!
//! `trace-dump`, `critpath` and `chaos-sweep` take the same `--kernel` and
//! `--threads` values — a kernel of `harness::KERNELS` at any thread count
//! of at least 1 — and refuse anything else while parsing: [`kernel_arg`]
//! and [`threads_arg`].
//!
//! Every example accepts the same observability flags; parsing them in one
//! place keeps the six binaries consistent:
//!
//! ```text
//! [positional ...] [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```
//!
//! * `--trace PATH` — record a protocol event trace of a designated run and
//!   write it as Chrome trace-event JSON.
//! * `--faults SEED` — run on a seeded lossy fabric with two replicated
//!   memory servers (the standard chaos configuration).
//! * `--metrics-out PATH` — write a machine-readable [`BenchReport`]
//!   (`crate::report`) for a designated run.
//!
//! [`BenchReport`]: crate::report::BenchReport

use std::fs::File;
use std::io::BufWriter;

use samhita_core::{FaultConfig, RunReport, SamhitaConfig};
use samhita_trace::RunTrace;

use crate::harness::KERNELS;
use crate::report::{thread_windows, BenchReport};

/// The value of `--kernel`: one of [`KERNELS`].
pub fn kernel_arg(value: Option<String>) -> Result<String, String> {
    let want = KERNELS.join(" | ");
    let v = value.ok_or_else(|| format!("--kernel needs a kernel ({want})"))?;
    if !KERNELS.contains(&v.as_str()) {
        return Err(format!("unknown kernel '{v}' ({want})"));
    }
    Ok(v)
}

/// The value of `--threads`: any count of at least 1 is a point of every
/// kernel (`harness::report_kernels` grows the problem with it).
pub fn threads_arg(value: Option<String>) -> Result<u32, String> {
    let v = value.ok_or("--threads needs a number")?;
    match v.parse() {
        Ok(0) => Err("--threads must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad thread count '{v}'")),
    }
}

/// Parsed example arguments: positionals plus the shared flags.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExampleArgs {
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    /// `--trace PATH`.
    pub trace_path: Option<String>,
    /// `--faults SEED`.
    pub fault_seed: Option<u64>,
    /// `--metrics-out PATH`.
    pub metrics_out: Option<String>,
}

impl ExampleArgs {
    /// Parse the process arguments (skipping `argv[0]`).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (tests).
    ///
    /// # Panics
    /// Panics with a usage message on a flag missing its value or on an
    /// unparsable seed, mirroring what the examples did individually.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = ExampleArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => out.trace_path = Some(args.next().expect("--trace needs a path")),
                "--faults" => {
                    let seed = args.next().expect("--faults needs a seed");
                    out.fault_seed = Some(seed.parse().expect("fault seed must be an integer"));
                }
                "--metrics-out" => {
                    out.metrics_out = Some(args.next().expect("--metrics-out needs a path"));
                }
                _ => out.positional.push(a),
            }
        }
        out
    }

    /// The `i`-th positional as a `usize`, or `default`.
    pub fn pos_usize(&self, i: usize, default: usize) -> usize {
        self.positional.get(i).map(|v| v.parse().expect("numeric argument")).unwrap_or(default)
    }

    /// The `i`-th positional as a `u32`, or `default`.
    pub fn pos_u32(&self, i: usize, default: u32) -> u32 {
        self.positional.get(i).map(|v| v.parse().expect("numeric argument")).unwrap_or(default)
    }

    /// The base system configuration: `base` untouched, or — with
    /// `--faults` — the same cluster with two write-through-replicated
    /// memory servers behind a seeded lossy fabric (3% drops, 1%
    /// duplicates, 3% delays of 3µs), the configuration every example used
    /// individually before this helper existed.
    pub fn base_config(&self, base: SamhitaConfig) -> SamhitaConfig {
        match self.fault_seed {
            None => base,
            Some(seed) => SamhitaConfig {
                mem_servers: 2,
                replica_offset: 1,
                faults: FaultConfig::lossy(seed, 0.03, 0.01, 0.03, 3_000),
                ..base
            },
        }
    }

    /// Whether any flag requests an event trace (`--trace`, or
    /// `--metrics-out`, whose timeline section is trace-derived).
    pub fn wants_trace(&self) -> bool {
        self.trace_path.is_some() || self.metrics_out.is_some()
    }

    /// What every example does with its designated traced run: check the
    /// RegC invariants on the trace, then write what the flags asked for —
    /// `--trace` the causal Chrome trace-event JSON (tiled threads, serve
    /// slices, flow arrows), streamed to the file rather than built in
    /// memory first; `--metrics-out` a [`BenchReport`] named `kernel` /
    /// `params`.
    ///
    /// # Panics
    /// Panics if `trace` is `None` (the run was not configured with
    /// `tracing`), on an invariant violation, or on a write error.
    pub fn write_outputs(
        &self,
        kernel: &str,
        params: &str,
        cfg: &SamhitaConfig,
        threads: u32,
        report: &RunReport,
        trace: Option<RunTrace>,
    ) {
        let trace = trace.expect("tracing was enabled");
        trace.check_invariants().expect("RegC invariants violated");
        if let Some(path) = &self.trace_path {
            let file = BufWriter::new(File::create(path).expect("create trace file"));
            trace
                .write_chrome_json_with(file, &thread_windows(report), &cfg.service_costs())
                .expect("write trace file");
            println!("  wrote {path} ({} events) — open at https://ui.perfetto.dev", trace.len());
        }
        if let Some(path) = &self.metrics_out {
            let bench = BenchReport::from_run(kernel, params, cfg, threads, report, Some(&trace));
            std::fs::write(path, bench.to_json()).expect("write metrics file");
            println!("  wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExampleArgs {
        ExampleArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positionals_and_flags_mix_freely() {
        let a =
            parse(&["8", "--trace", "t.json", "10", "--faults", "7", "--metrics-out", "m.json"]);
        assert_eq!(a.positional, vec!["8", "10"]);
        assert_eq!(a.pos_u32(0, 1), 8);
        assert_eq!(a.pos_usize(1, 1), 10);
        assert_eq!(a.pos_usize(2, 99), 99, "missing positional falls back to default");
        assert_eq!(a.trace_path.as_deref(), Some("t.json"));
        assert_eq!(a.fault_seed, Some(7));
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert!(a.wants_trace());
    }

    #[test]
    fn empty_args_parse_to_defaults() {
        let a = parse(&[]);
        assert_eq!(a, ExampleArgs::default());
        assert!(!a.wants_trace());
    }

    #[test]
    fn fault_flag_builds_the_chaos_config() {
        let base = SamhitaConfig::default();
        let plain = parse(&[]).base_config(base.clone());
        assert_eq!(plain.mem_servers, base.mem_servers);
        assert!(!plain.faults.is_active());
        let faulty = parse(&["--faults", "42"]).base_config(base);
        assert_eq!(faulty.mem_servers, 2);
        assert_eq!(faulty.replica_offset, 1);
        assert!(faulty.faults.is_active());
        assert_eq!(faulty.faults.seed, 42);
    }

    #[test]
    fn any_kernel_of_the_table_runs_at_any_thread_count_of_at_least_one() {
        let arg = |v: &str| Some(v.to_string());
        for kernel in KERNELS {
            assert_eq!(kernel_arg(arg(kernel)).as_deref(), Ok(kernel));
        }
        for (threads, n) in [("1", 1), ("127", 127), ("257", 257), ("1024", 1024)] {
            assert_eq!(threads_arg(arg(threads)), Ok(n));
        }
        for bad in [kernel_arg(arg("bogus")), kernel_arg(arg("")), kernel_arg(None)] {
            assert!(bad.is_err_and(|e| e.contains("micro | jacobi | md")));
        }
        for bad in [arg("0"), arg("eight"), arg("-1"), None] {
            assert!(threads_arg(bad).is_err_and(|e| e.contains("thread")));
        }
    }

    #[test]
    #[should_panic(expected = "--trace needs a path")]
    fn trace_flag_requires_a_value() {
        parse(&["--trace"]);
    }
}
