//! Velocity-Verlet molecular dynamics on both backends: the paper's
//! Figure 13 workload ("applications that are computationally intensive …
//! can easily mask the synchronization overhead of Samhita").
//!
//! ```text
//! cargo run --release --example molecular_dynamics [particles] [steps] \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```
//!
//! With `--trace`, a dedicated 4-thread Samhita run records a protocol
//! event trace and writes it as Chrome trace-event JSON; `--metrics-out`
//! condenses the same run into a machine-readable `BenchReport`. With
//! `--faults`, every Samhita run rides the standard lossy-fabric chaos
//! configuration and the trajectories must still be bit-exact.

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::SamhitaConfig;
use samhita_repro::kernels::{run_md, serial_reference_md, MdParams};
use samhita_repro::rt::{KernelRt, NativeRt, SamhitaRt};

fn main() {
    let args = ExampleArgs::parse();
    let n = args.pos(0, 768);
    let steps = args.pos(1, 5);

    let params = |threads| MdParams { n, steps, dt: 1e-3, threads, seed: 42 };
    println!("molecular dynamics, {n} particles, {steps} velocity-Verlet steps\n");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>16} {:>10}",
        "backend", "threads", "makespan", "sync(mean)", "energy (K+P)", "speedup"
    );

    let baseline = run_md(&NativeRt::default(), &params(1)).report.makespan;

    for threads in [1u32, 2, 4, 8] {
        let rt = NativeRt::default();
        let r = run_md(&rt, &params(threads));
        println!(
            "{:>8} {:>10} {:>14} {:>14} {:>16.6} {:>10.2}",
            rt.name(),
            threads,
            r.report.makespan.to_string(),
            r.report.mean_sync().to_string(),
            r.kinetic + r.potential,
            baseline.as_secs_f64() / r.report.makespan.as_secs_f64(),
        );
    }
    let base_cfg = args.base_config(SamhitaConfig::default());
    let mut last_summary = String::new();
    for threads in [1u32, 2, 4, 8, 16, 32] {
        let rt = SamhitaRt::new(base_cfg.clone());
        let r = run_md(&rt, &params(threads));
        println!(
            "{:>8} {:>10} {:>14} {:>14} {:>16.6} {:>10.2}",
            rt.name(),
            threads,
            r.report.makespan.to_string(),
            r.report.mean_sync().to_string(),
            r.kinetic + r.potential,
            baseline.as_secs_f64() / r.report.makespan.as_secs_f64(),
        );
        last_summary = run_summary(&r.report);
    }
    println!("\n32-thread Samhita run summary:\n{last_summary}");

    // Trajectories are deterministic: the DSM run reproduces the serial
    // reference bit for bit.
    let small = MdParams { n: 64, steps: 3, dt: 1e-3, threads: 4, seed: 7 };
    let r = run_md(&SamhitaRt::new(base_cfg.clone()), &small);
    assert_eq!(r.positions, serial_reference_md(&small));
    println!("verification: 4-thread Samhita trajectory identical to serial reference ✓");

    if args.wants_trace() {
        let p = params(4);
        let cfg = SamhitaConfig { tracing: true, ..base_cfg };
        let rt = SamhitaRt::new(cfg.clone());
        let report = run_md(&rt, &p).report;
        args.write_outputs("md", &format!("{p:?}"), &cfg, 4, &report, rt.take_trace());
    }
}
