//! The faulted-timeline pin shared by `tests/chaos.rs` and
//! `tests/recovery.rs`.
//!
//! The committed baselines and the export hashes in `tests/tracing.rs` pin
//! fault-free runs; a faulted run is deterministic too, and these rows pin
//! its clock: one row per (fault plan, problem), seven numbers a change to
//! the retry / backoff / fail-over path cannot move without moving at least
//! one. A refactor of that path must leave every row as it is; only a PR
//! that says it moves faulted timelines may re-record (the rows as the tree
//! produces them are printed in source form by
//! `cargo test --test chaos --test recovery pinned -- --nocapture`).

use samhita_repro::core::RunReport;
use samhita_repro::trace::{EventKind, RunTrace};

/// What a row holds, in order.
pub const COLUMNS: [&str; 7] = [
    "makespan_ns",
    "retries",
    "failovers",
    "mgr_failovers",
    "fabric faults",
    "fabric msgs",
    "trace checksum",
];

/// One pinned run: `"plan/problem"` and its [`COLUMNS`].
pub type Row = (&'static str, [u64; 7]);

/// `Retry` events across every track of `trace`.
pub fn retry_events(trace: &RunTrace) -> u64 {
    let events = trace.tracks.iter().flat_map(|(_, events)| events);
    events.filter(|e| matches!(e.kind, EventKind::Retry { .. })).count() as u64
}

/// The pinned columns of one traced run, whose trace and counters must tell
/// one story: every retransmission is both counted and traced.
pub fn timeline(report: &RunReport, trace: &RunTrace) -> [u64; 7] {
    assert_eq!(
        retry_events(trace),
        report.total_of(|t| t.retries),
        "the trace's Retry events and the threads' retry counters disagree"
    );
    [
        report.makespan.as_ns(),
        report.total_of(|t| t.retries),
        report.total_of(|t| t.failovers),
        report.mgr_failovers(),
        report.fabric.total_faults(),
        report.fabric.total_msgs(),
        trace.checksum(),
    ]
}

/// Print `fresh` in source form (what a legitimate re-recording pastes),
/// then require it to be `pinned`, row for row and column for column.
pub fn assert_pinned(pinned: &[Row], fresh: &[(String, [u64; 7])]) {
    for (name, v) in fresh {
        println!(
            "    ({name:?}, [{}, {}, {}, {}, {}, {}, {:#018x}]),",
            v[0], v[1], v[2], v[3], v[4], v[5], v[6]
        );
    }
    assert_eq!(pinned.len(), fresh.len(), "the pinned table and the runs list different rows");
    for ((want_name, want), (name, got)) in pinned.iter().zip(fresh) {
        assert_eq!(want_name, name, "the pinned table and the runs list different rows");
        for (col, (w, g)) in COLUMNS.iter().zip(want.iter().zip(got)) {
            assert_eq!(w, g, "{name}: {col} moved off its pinned value");
        }
    }
}
