//! Deterministic manager-crash-point sweep — the recovery analogue of the
//! bench regression gate.
//!
//! ```text
//! chaos-sweep [--kernel jacobi] [--threads 8] [--max-points 16]
//!             [--time-box SECS] [--out FILE.json]
//! ```
//!
//! FoundationDB-style simulation testing, specialized to the one fault the
//! recovery subsystem exists for: the manager process dying mid-run. The
//! sweep first executes the kernel fault-free on a replicated cluster (hot
//! standby mirroring the primary's log) and records two things — the final
//! memory values, and the virtual times of every `mgr-serve` event. Those
//! serve instants are exactly the decision points of the run: crashing the
//! manager at each of them (and at the midpoints between consecutive ones,
//! to catch requests in flight) exercises every distinct "log shipped /
//! response sent / crash" interleaving the write-ahead protocol can face.
//! Because the whole system runs in virtual time, each crash point is a
//! deterministic, reproducible execution — a failing point can be re-run
//! bit-identically with `faults.mgr_crash = Some(at)`.
//!
//! Every crashed-and-recovered execution must end with memory bit-identical
//! to the fault-free reference and a trace that satisfies the RegC invariant
//! checker (including the diff-byte conservation identity). Any divergence
//! fails the sweep and the process exits nonzero.
//!
//! `--max-points` bounds the sweep by even subsampling; `--time-box` bounds
//! it by wall-clock. Either bound prints how many candidate points were
//! skipped — a truncated sweep never silently reads as a complete one.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use samhita_bench::cli::{kernel_arg, threads_arg};
use samhita_bench::harness::{run_kernel, HarnessConfig};
use samhita_core::{FaultConfig, SamhitaConfig, TopologyKind};
use samhita_rt::SamhitaRt;
use samhita_trace::{EventKind, JsonValue, RunTrace, TrackId};

struct Args {
    kernel: String,
    threads: u32,
    max_points: usize,
    time_box: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { kernel: "jacobi".into(), threads: 8, max_points: 16, time_box: None, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--kernel" => args.kernel = kernel_arg(it.next())?,
            "--threads" => args.threads = threads_arg(it.next())?,
            "--max-points" => {
                args.max_points =
                    val("--max-points")?.parse().map_err(|e| format!("bad --max-points: {e}"))?
            }
            "--time-box" => {
                args.time_box =
                    Some(val("--time-box")?.parse().map_err(|e| format!("bad --time-box: {e}"))?)
            }
            "--out" => args.out = Some(PathBuf::from(val("--out")?)),
            "--help" | "-h" => {
                println!(
                    "usage: chaos-sweep [--kernel jacobi|micro|md] [--threads 8] \
                     [--max-points 16] [--time-box SECS] [--out FILE.json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    if args.max_points == 0 {
        return Err("--max-points must be at least 1".into());
    }
    Ok(args)
}

/// The replicated cluster every sweep run executes on: two memory servers
/// with replication and a hot-standby manager on the last compute node.
fn cluster(threads: u32, faults: FaultConfig) -> SamhitaConfig {
    let base = SamhitaConfig::default();
    SamhitaConfig {
        manager_standby: true,
        mem_servers: 2,
        replica_offset: 1,
        topology: TopologyKind::Cluster { nodes: 6 },
        tracing: true,
        max_threads: base.max_threads.max(threads),
        faults,
        ..base
    }
}

/// Outcome of one kernel execution: the memory fingerprint (FNV-1a over the
/// bit patterns of the kernel's final *shared memory* — the jacobi grid, the
/// micro global sum, the md positions) and the recovery counters.
///
/// Host-side cross-thread f64 reductions (jacobi's `final_diff`, md's
/// energies) are deliberately excluded: they sum per-thread contributions in
/// lock-acquisition order, and a failover legitimately changes that order —
/// the standby grants the queue it reconstructed, not the queue the primary
/// would have grown — so those sums can differ in the last ULP while every
/// byte of DSM memory is identical. The invariant checker still audits the
/// full protocol timeline of every crashed run.
struct RunOutcome {
    mem_fp: u64,
    mgr_failovers: u64,
    takeover_ns: u64,
    lease_reclaims: u64,
    log_records_shipped: u64,
    trace: RunTrace,
}

fn fp_f64s(h: &mut u64, vals: &[f64]) {
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Run the selected kernel's quick-scale point (`harness::report_kernels`,
/// the problems `bench-report` runs) once on `cfg` and fingerprint its final
/// memory.
fn execute(kernel: &str, threads: u32, cfg: SamhitaConfig) -> RunOutcome {
    let rt = SamhitaRt::new(cfg);
    let point = run_kernel(&HarnessConfig::quick(), kernel, &rt, threads);
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    fp_f64s(&mut fp, &point.memory);
    let report = point.report;
    RunOutcome {
        mem_fp: fp,
        mgr_failovers: report.mgr_failovers(),
        takeover_ns: report.takeover_ns,
        lease_reclaims: report.lease_reclaims,
        log_records_shipped: report.log_records_shipped,
        trace: rt.take_trace().expect("tracing was enabled"),
    }
}

/// Candidate crash instants from a fault-free trace: every distinct
/// `mgr-serve` time on the primary's track, plus the midpoint between each
/// consecutive pair (a request in flight toward an already-doomed primary).
fn crash_points(trace: &RunTrace) -> Vec<u64> {
    let mut serves: Vec<u64> = trace
        .track(TrackId::Manager)
        .unwrap_or(&[])
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MgrServe { .. }))
        .map(|e| e.at.as_ns())
        .collect();
    serves.sort_unstable();
    serves.dedup();
    let mut points = Vec::with_capacity(serves.len() * 2);
    for pair in serves.windows(2) {
        points.push(pair[0]);
        let mid = pair[0] + (pair[1] - pair[0]) / 2;
        if mid > pair[0] && mid < pair[1] {
            points.push(mid);
        }
    }
    points.extend(serves.last().copied());
    points
}

/// Evenly subsample `points` down to at most `max` entries.
fn subsample(points: &[u64], max: usize) -> Vec<u64> {
    if points.len() <= max {
        return points.to_vec();
    }
    (0..max).map(|i| points[i * (points.len() - 1) / (max - 1).max(1)]).collect()
}

struct PointResult {
    at_ns: u64,
    ok: bool,
    detail: String,
    failovers: u64,
    takeover_ns: u64,
    lease_reclaims: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();

    // Fault-free reference: the memory fingerprint every crashed-and-
    // recovered execution must reproduce, and the serve times to crash at.
    let reference =
        execute(&args.kernel, args.threads, cluster(args.threads, FaultConfig::default()));
    if let Err(v) = reference.trace.check_invariants() {
        eprintln!("error: fault-free reference run violates invariants: {v:?}");
        return ExitCode::FAILURE;
    }
    assert_eq!(reference.mgr_failovers, 0, "fault-free run must not fail over");
    let candidates = crash_points(&reference.trace);
    let sweep = subsample(&candidates, args.max_points);
    println!(
        "# chaos-sweep: {} P={} — {} serve-derived crash points, sweeping {} \
         ({} log records shipped fault-free)",
        args.kernel,
        args.threads,
        candidates.len(),
        sweep.len(),
        reference.log_records_shipped
    );
    if sweep.len() < candidates.len() {
        println!(
            "#   --max-points {} skipped {} points",
            args.max_points,
            candidates.len() - sweep.len()
        );
    }

    let mut results: Vec<PointResult> = Vec::new();
    let mut timed_out = 0usize;
    for (i, &at) in sweep.iter().enumerate() {
        if let Some(limit) = args.time_box {
            if started.elapsed().as_secs() >= limit {
                timed_out = sweep.len() - i;
                println!("#   --time-box {limit}s reached: skipped the last {timed_out} points");
                break;
            }
        }
        if std::env::var("CHAOS_SWEEP_DEBUG").is_ok() {
            eprintln!("# running crash point {i}: {at}ns");
        }
        let faults = FaultConfig { mgr_crash: Some(at), ..FaultConfig::default() };
        let outcome = execute(&args.kernel, args.threads, cluster(args.threads, faults));
        let mut detail = String::from("recovered bit-identically");
        let mut ok = true;
        if outcome.mem_fp != reference.mem_fp {
            ok = false;
            detail = format!(
                "final memory diverged from the fault-free reference \
                 ({:016x} != {:016x})",
                outcome.mem_fp, reference.mem_fp
            );
        } else if let Err(v) = outcome.trace.check_invariants() {
            ok = false;
            detail = format!("invariant checker rejected the recovered run: {v:?}");
        }
        println!(
            "{}  crash@{at:>10}ns  {} failovers, takeover@{}ns, {} reclaims  {}",
            if ok { "ok  " } else { "FAIL" },
            outcome.mgr_failovers,
            outcome.takeover_ns,
            outcome.lease_reclaims,
            detail
        );
        results.push(PointResult {
            at_ns: at,
            ok,
            detail,
            failovers: outcome.mgr_failovers,
            takeover_ns: outcome.takeover_ns,
            lease_reclaims: outcome.lease_reclaims,
        });
    }

    let failed = results.iter().filter(|r| !r.ok).count();
    let swept = results.len();
    if let Some(path) = &args.out {
        let point = |r: &PointResult| {
            JsonValue::object([
                ("at_ns", r.at_ns.into()),
                ("ok", JsonValue::Bool(r.ok)),
                ("failovers", r.failovers.into()),
                ("takeover_ns", r.takeover_ns.into()),
                ("lease_reclaims", r.lease_reclaims.into()),
                ("detail", r.detail.as_str().into()),
            ])
        };
        let json = JsonValue::object([
            ("schema", "samhita-chaos-sweep-v1".into()),
            ("kernel", args.kernel.as_str().into()),
            ("threads", u64::from(args.threads).into()),
            ("candidates", (candidates.len() as u64).into()),
            ("swept", (swept as u64).into()),
            ("skipped_by_time_box", (timed_out as u64).into()),
            ("failed", (failed as u64).into()),
            // A full-range u64: JSON numbers stop being exact at 2^53.
            ("reference_mem_fp", format!("{:016x}", reference.mem_fp).into()),
            ("points", JsonValue::array(results.iter().map(point))),
        ])
        .to_string();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# wrote {}", path.display());
    }

    if failed == 0 {
        println!("# sweep: PASS ({swept} crash points recovered bit-identically)");
        ExitCode::SUCCESS
    } else {
        eprintln!("# sweep: FAIL ({failed} of {swept} crash points diverged)");
        ExitCode::FAILURE
    }
}
