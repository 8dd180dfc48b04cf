//! The Figure 1 scenario: one host processor (manager + memory server, large
//! memory) and a many-core coprocessor over PCI Express, with compute
//! threads on the coprocessor cores — Samhita's proposed Xeon Phi
//! deployment. Compares the stock verbs-proxy transport against the SCIF
//! port the paper's §V proposes.
//!
//! ```text
//! cargo run --release --example heterogeneous_node \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```
//!
//! `--trace` / `--metrics-out` record the final SCIF 32-thread run.

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::{FabricProfile, SamhitaConfig, TopologyKind};
use samhita_repro::kernels::{run_micro, AllocMode, MicroParams};
use samhita_repro::rt::SamhitaRt;

fn main() {
    let args = ExampleArgs::parse();
    println!("host + coprocessor node (Figure 1): 60 coprocessor cores over PCIe\n");
    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>14}",
        "transport", "threads", "compute", "sync", "makespan"
    );

    let mut scif_summary = String::new();
    for fabric in [FabricProfile::PcieVerbsProxy, FabricProfile::Scif] {
        for threads in [4u32, 16, 32] {
            let record = args.wants_trace() && fabric == FabricProfile::Scif && threads == 32;
            let cfg = SamhitaConfig {
                topology: TopologyKind::HeteroNode { coprocessors: 1, cores_per_cop: 60 },
                fabric,
                tracing: record,
                ..args.base_config(SamhitaConfig::default())
            };
            let rt = SamhitaRt::new(cfg.clone());
            let p = MicroParams::paper(10, 2, AllocMode::Global, threads);
            let r = run_micro(&rt, &p);
            println!(
                "{:>14} {:>8} {:>12} {:>12} {:>14}",
                match fabric {
                    FabricProfile::PcieVerbsProxy => "verbs proxy",
                    FabricProfile::Scif => "SCIF",
                    _ => unreachable!(),
                },
                threads,
                r.report.mean_compute().to_string(),
                r.report.mean_sync().to_string(),
                r.report.makespan.to_string(),
            );
            if fabric == FabricProfile::Scif && threads == 32 {
                scif_summary = run_summary(&r.report);
            }
            if record {
                let (params, trace) = (format!("scif {p:?}"), rt.take_trace());
                args.write_outputs("heterogeneous_node", &params, &cfg, threads, &r.report, trace);
            }
        }
    }
    println!("\nSCIF 32-thread run summary:\n{scif_summary}");

    println!(
        "SCIF removes the verbs-proxy software overhead on every PCIe crossing —\n\
         the communication-layer improvement §V of the paper proposes."
    );
}
