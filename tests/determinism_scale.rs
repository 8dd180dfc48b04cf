//! Determinism at scale: under the virtual-time scheduler (the default
//! runtime), repeated runs of the same randomized parallel program are
//! bit-identical — not just in computed values but in every virtual-time
//! statistic and in the full protocol event timeline — at P = 2, 8, and 64
//! simulated cores.
//!
//! This is the property DESIGN.md §12 promises: event delivery and every
//! blocking point (locks, barriers, fetches, flushes) are ordered by
//! `(virtual_time, seeded tie-break)` alone, so wall-clock scheduling of
//! the underlying OS threads can never leak into results.
//!
//! Determinism is also what lets the last two tests state how the wire cost
//! of a grant scales with P in exact byte counts, with no clock anywhere.

mod common;

use common::{generate, interpret, run_on_dsm};
use samhita_bench::harness::{report_config, run_kernel};
use samhita_bench::HarnessConfig;
use samhita_repro::core::{RunReport, Samhita, SamhitaConfig};
use samhita_repro::rt::SamhitaRt;
use samhita_repro::scl::MsgClass;

const PHASES: usize = 5;

fn scale_config() -> SamhitaConfig {
    SamhitaConfig { tracing: true, max_threads: 64, ..SamhitaConfig::small_for_tests() }
}

/// One full observation of a run: final memory, the report's complete debug
/// form (per-thread stats, histograms, fabric counters, makespan), and the
/// trace checksum. Equality of two observations is bit-identity of the runs.
fn observe(seed: u64, threads: u32) -> (Vec<u64>, Vec<u64>, String, u64) {
    let phases = generate(seed, threads, PHASES);
    let sys = Samhita::new(scale_config());
    let (slots, accs, report) = run_on_dsm(&sys, &phases, threads);
    let trace = sys.take_trace().expect("tracing was enabled");
    (slots, accs, format!("{report:?}"), trace.checksum())
}

#[test]
fn random_programs_reproduce_bit_identically_at_p2_p8_p64() {
    for threads in [2u32, 8, 64] {
        for seed in [11u64, 12] {
            let a = observe(seed, threads);
            let b = observe(seed, threads);
            assert_eq!(
                a.2, b.2,
                "P={threads} seed {seed}: makespan/stats must be bit-identical across runs"
            );
            assert_eq!(a.3, b.3, "P={threads} seed {seed}: trace checksums must match across runs");
            // And the values are not merely reproducible but correct.
            let phases = generate(seed, threads, PHASES);
            let (want_slots, want_accs) = interpret(&phases, threads);
            assert_eq!(a.0, want_slots, "P={threads} seed {seed}: slots diverged");
            assert_eq!(a.1, want_accs, "P={threads} seed {seed}: accumulators diverged");
        }
    }
}

#[test]
fn scheduler_seed_changes_tie_breaks_not_results() {
    // Two different scheduler seeds may order same-virtual-time events
    // differently (so traces can differ), but the computed memory must not:
    // determinism is a scheduling property, correctness a protocol one.
    let threads = 8u32;
    let phases = generate(21, threads, PHASES);
    let (want_slots, want_accs) = interpret(&phases, threads);
    for sched_seed in [0u64, 1, 0xfeed] {
        let sys = Samhita::new(SamhitaConfig { sched_seed, ..scale_config() });
        let (slots, accs, _) = run_on_dsm(&sys, &phases, threads);
        assert_eq!(slots, want_slots, "sched_seed {sched_seed}: slots diverged");
        assert_eq!(accs, want_accs, "sched_seed {sched_seed}: accumulators diverged");
    }
}

/// The report of one `bench-report --threads P --kernel K` point.
fn report_point(kernel: &str, threads: u32) -> RunReport {
    let q = HarnessConfig::quick();
    let rt = SamhitaRt::new(report_config(&q, threads));
    run_kernel(&q, kernel, &rt, threads).report
}

#[test]
fn a_grant_costs_a_run_per_writer_not_a_page_list_per_notice() {
    // The Fig. 2 micro-benchmark over one shared allocation: before its
    // lock every thread flushes its two rows (two or three pages, the
    // boundary ones false-shared) and under it bumps one counter, so a
    // grant late in the chain stands for ~2P notices. Sent as such it was
    // ~60 bytes a notice: 1 446 / 5 286 / 20 646 sync-class bytes per
    // grant at P = 16 / 64 / 256. Merged it is one 16-byte run per other
    // writer's block and one counter update: 432 / 1 149 / 3 965, and
    // 498 / 1 205 / 4 029 once locks were handed over directly, and
    // 570 / 1 325 / 4 291 since intervals carry update-batch marks,
    // 564 / 1 319 / 4 320 since a waiter's predecessor is hinted as it
    // queues, and 570 / 1 349 / 4 392 since batons relay the interval a
    // waiter's earlier advance lacks. A run is now charged varints of its
    // gap, length and writer, 3 or 4 bytes instead of 16: 380 / 545 /
    // 1 307. Exact byte and grant counts — no clock involved.
    let sync_bytes_per_grant = |threads: u32| {
        let report = report_point("micro", threads);
        let grants = report.total_of(|t| t.locks_acquired);
        assert_eq!(grants, 4 * threads as u64);
        report.fabric.bytes(MsgClass::Sync) as f64 / grants as f64
    };
    let per_grant = [16u32, 64, 256].map(|p| (p, sync_bytes_per_grant(p)));
    for (threads, bytes) in per_grant {
        // Everything a thread sends and is sent per lock it takes —
        // acquire, grant, release, the barrier after — comes to less than
        // a run per thread plus a constant, 4·P + 256, and the marks. The
        // acquire, the release and the barrier arrival carry the sender's
        // batch count per home (4 bytes each), the baton its own mark (17);
        // the grant's advance and the barrier release carry everyone's, a
        // 16-byte header and a few bits a writer each: 61 + P/4 bytes here,
        // at three bits. The bound allows 64 + P for them, and P more
        // (17·P + 320 while a run cost 16 bytes).
        let bound = 6.0 * threads as f64 + 320.0;
        assert!(bytes < bound, "P={threads}: {bytes:.0} sync bytes per grant, bound {bound}");
    }
    // What is left is linear in writers — every page of the array has a
    // different first writer and a run names one — so the figure still
    // grows with P: by 3.4x over this 16x range (7.7x while a run cost 16
    // bytes, 7.5x before hints at enqueue, 8.1x before the marks), where
    // it grew by 14.3x.
    let growth = per_grant[2].1 / per_grant[0].1;
    assert!(growth < 10.0, "sync bytes per grant grew {growth:.1}x from P=16 to P=256");
}

#[test]
fn jacobi_p256_moves_fewer_sync_bytes_than_data_bytes() {
    // A P=256 barrier release used to ship 255 page lists to each of 256
    // threads, and the notices outweighed the grid: 31.9 MB of sync-class
    // traffic against 22.4 MB of data. Merged they are 6.7 MB; with the
    // update-batch marks intervals carry, 7.2 MB against 22.5 MB. Since a
    // refetch moves the pages a thread used, not its line, data is 18.5
    // MB, and runs charged as varints bring sync to 2.4 MB.
    let report = report_point("jacobi", 256);
    let (sync, data) = (report.fabric.bytes(MsgClass::Sync), report.fabric.bytes(MsgClass::Data));
    assert!(3 * sync < data, "sync {sync} B against data {data} B");
}
