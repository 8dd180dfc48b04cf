//! Quickstart: bring up a Samhita system, share memory between threads that
//! have no hardware cache coherence, and read the statistics back.
//!
//! ```text
//! cargo run --release --example quickstart \
//!     [--trace out.json] [--faults seed] [--metrics-out out.json]
//! ```

use samhita_bench::{run_summary, ExampleArgs};
use samhita_repro::core::{Samhita, SamhitaConfig};

fn main() {
    let args = ExampleArgs::parse();
    // The default configuration models the paper's evaluation platform: a
    // six-node QDR InfiniBand cluster with one manager node and one
    // memory-server node; compute threads fill the remaining four nodes.
    let cfg =
        SamhitaConfig { tracing: args.wants_trace(), ..args.base_config(SamhitaConfig::default()) };
    let system = Samhita::new(cfg.clone());

    // Host-side setup: global memory and synchronization objects.
    let n_threads = 8u32;
    let histogram = system.alloc_global(64 * 8); // 64 u64-sized bins
    let total = system.alloc_global(8);
    let lock = system.create_mutex();
    let barrier = system.create_barrier(n_threads);

    // Run a parallel region. Each thread gets a `ThreadCtx`: its window
    // into the shared global address space.
    let report = system.run(n_threads, |ctx| {
        // Thread-local allocation (strategy 1: the per-thread arena —
        // no manager round-trip, no false sharing by construction).
        let scratch = ctx.alloc(1024, 8);
        for i in 0..128u64 {
            ctx.write_u64(scratch + i * 8, i * ctx.tid() as u64);
        }

        // Ordinary-region writes to disjoint histogram bins: page
        // granularity, twin + diff at the next synchronization.
        let my_bins = 64 / ctx.nthreads() as u64;
        for b in 0..my_bins {
            let bin = ctx.tid() as u64 * my_bins + b;
            ctx.write_u64(histogram + bin * 8, bin * bin);
        }

        // A consistency region: stores under the lock are tracked at fine
        // (object) granularity and travel with the lock at release.
        ctx.lock(lock);
        let t = ctx.read_u64(total);
        ctx.write_u64(total, t + ctx.tid() as u64 + 1);
        ctx.unlock(lock);

        // The barrier is also a consistency operation: dirty pages flush,
        // write notices propagate, stale copies invalidate.
        ctx.barrier(barrier);

        // Every thread now sees every bin and the full total.
        let checksum: u64 = (0..64).map(|b| ctx.read_u64(histogram + b * 8)).sum();
        assert_eq!(checksum, (0..64u64).map(|b| b * b).sum());
        assert_eq!(ctx.read_u64(total), (1..=n_threads as u64).sum());
    });

    println!("samhita quickstart: {} threads over a simulated non-coherent machine", n_threads);
    println!("  virtual makespan        : {}", report.makespan);
    println!("  mean compute / thread   : {}", report.mean_compute());
    println!("  mean sync / thread      : {}", report.mean_sync());
    println!("  line misses (demand)    : {}", report.total_of(|t| t.line_misses));
    println!("  prefetch hits           : {}", report.total_of(|t| t.prefetch_hits));
    println!("  invalidations received  : {}", report.total_of(|t| t.invalidations));
    println!("  diff bytes flushed      : {}", report.total_of(|t| t.diff_bytes_flushed));
    println!("  fine-grain bytes flushed: {}", report.total_of(|t| t.fine_bytes_flushed));
    println!("\nrun summary:\n{}", run_summary(&report));

    // Host can inspect global memory after the run.
    let mut buf = [0u8; 8];
    system.read_global(total, &mut buf);
    println!("  final total (host view) : {}", u64::from_le_bytes(buf));

    if args.wants_trace() {
        let params = format!("threads={n_threads}");
        args.write_outputs("quickstart", &params, &cfg, n_threads, &report, system.take_trace());
    }

    let stats = system.shutdown();
    println!("  manager requests        : {}", stats.manager.requests);
    println!("  memory-server fetches   : {}", stats.servers[0].line_fetches);
}
