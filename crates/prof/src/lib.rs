//! Host-side self-profiling for the simulator.
//!
//! Everything else in this workspace measures *virtual* time; this crate
//! measures what the simulator itself costs on the host: phase-scoped
//! wall-clock timers and a peak-RSS readout, read by the `samhita-perf`
//! harness under `benchmark/`. It is the only place host clocks are read on
//! purpose, and it is structurally invisible to virtual time: no simulator
//! code branches on anything recorded here.
//!
//! # Invisibility contract
//!
//! - Profiling is off by default. Disabled, every instrumentation point is a
//!   single relaxed atomic load — no `Instant::now()`.
//! - Nothing in this crate feeds back into the simulation: the counters are
//!   write-only from the simulator's perspective and are read only by the
//!   reporting layer after a run completes.
//! - Enabling or disabling profiling must never change a virtual-time
//!   result, a trace checksum, or a serialized `BenchReport`.
//!   `tests/prof.rs` asserts this at P ∈ {1, 8, 64}.
//!
//! # Usage
//!
//! ```
//! samhita_prof::enable(true);
//! {
//!     let _g = samhita_prof::enter(samhita_prof::Phase::RegcDiff);
//!     // ... hot-path work ...
//! }
//! let report = samhita_prof::snapshot();
//! assert!(report.phase(samhita_prof::Phase::RegcDiff).calls >= 1);
//! samhita_prof::enable(false);
//! ```
//!
//! Phase timers are *inclusive*: if phase B runs inside phase A's guard, the
//! span counts toward both. The instrumented phases are chosen not to nest
//! in practice (scheduler step, diffing, batch apply, channel send/recv,
//! trace emit, causal-index derivation), so the per-phase table reads as a flat
//! breakdown.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A profiled hot-path phase. Discriminants are slot indices into the
/// global counter table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// One scheduler grant decision (`Scheduler::pick`).
    SchedStep = 0,
    /// Word-granularity twin/current diffing (`Diff::compute`, and
    /// `Diff::compute_shared`, which every flush and eviction takes).
    RegcDiff = 1,
    /// Applying an `UpdateBatch` at a memory server.
    BatchApply = 2,
    /// Fabric message send (delay model + delivery).
    ChannelSend = 3,
    /// Deterministic endpoint receive (drain + heap ordering).
    ChannelRecv = 4,
    /// Trace-event construction and ring-buffer push.
    TraceEvent = 5,
    /// Post-hoc causal derivation of a finished trace: the index build plus
    /// its reader, once per `critical_path` call and once per causal Chrome
    /// export. (Named for the span graph that was the first such derivation;
    /// `samhita-perf` reads the variant by name.)
    SpanGraph = 6,
}

impl Phase {
    /// All phases, in slot order.
    pub const ALL: [Phase; 7] = [
        Phase::SchedStep,
        Phase::RegcDiff,
        Phase::BatchApply,
        Phase::ChannelSend,
        Phase::ChannelRecv,
        Phase::TraceEvent,
        Phase::SpanGraph,
    ];
}

struct Slot {
    wall_ns: AtomicU64,
    calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat initializer
const ZERO_SLOT: Slot = Slot { wall_ns: AtomicU64::new(0), calls: AtomicU64::new(0) };

static SLOTS: [Slot; Phase::ALL.len()] = [ZERO_SLOT; Phase::ALL.len()];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn profiling on or off. Off is the default; while off, every
/// instrumentation point costs one relaxed atomic load.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Zero all counters. Call between runs while no [`PhaseGuard`] is live;
/// a guard dropped after a reset adds its full span to the fresh counters.
pub fn reset() {
    for slot in &SLOTS {
        slot.wall_ns.store(0, Relaxed);
        slot.calls.store(0, Relaxed);
    }
}

/// Enter `phase`; the returned guard attributes wall time to it until
/// dropped. When profiling is disabled this is one relaxed load and the
/// guard is inert.
#[inline]
pub fn enter(phase: Phase) -> PhaseGuard {
    PhaseGuard { start: ENABLED.load(Relaxed).then(Instant::now), phase }
}

/// RAII scope for one phase; see [`enter`].
#[must_use = "a PhaseGuard records its span when dropped"]
pub struct PhaseGuard {
    start: Option<Instant>,
    phase: Phase,
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let slot = &SLOTS[self.phase as usize];
            slot.wall_ns.fetch_add(ns, Relaxed);
            slot.calls.fetch_add(1, Relaxed);
        }
    }
}

/// Counter totals for one phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Wall-clock nanoseconds spent inside the phase's guards.
    pub wall_ns: u64,
    /// Guard entries (phase invocations).
    pub calls: u64,
}

/// A point-in-time copy of all profiling counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostReport([PhaseStat; Phase::ALL.len()]);

impl HostReport {
    /// The totals for `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseStat {
        self.0[phase as usize]
    }
}

/// Copy the current counter totals.
pub fn snapshot() -> HostReport {
    HostReport(Phase::ALL.map(|p| {
        let slot = &SLOTS[p as usize];
        PhaseStat { wall_ns: slot.wall_ns.load(Relaxed), calls: slot.calls.load(Relaxed) }
    }))
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`; 0 where that interface is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter state is process-global, so the tests that depend on it run
    // under one lock to keep `cargo test`'s default parallelism honest.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_guard_records_nothing() {
        let _l = LOCK.lock().unwrap();
        enable(false);
        reset();
        {
            let _g = enter(Phase::RegcDiff);
            std::hint::black_box(42);
        }
        assert_eq!(snapshot().phase(Phase::RegcDiff), PhaseStat::default());
    }

    #[test]
    fn enabled_guard_accumulates_wall_time_and_calls() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        reset();
        for _ in 0..3 {
            let _g = enter(Phase::BatchApply);
            std::hint::black_box(vec![0u8; 64]);
        }
        let stat = snapshot().phase(Phase::BatchApply);
        enable(false);
        assert_eq!(stat.calls, 3);
        // Instant is monotone; three guard spans cannot sum to zero only on
        // clocks coarser than the guard body, which Linux does not have.
        assert!(stat.wall_ns > 0, "expected nonzero wall time, got {stat:?}");
    }

    #[test]
    fn reset_zeroes_every_slot() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        {
            let _g = enter(Phase::SchedStep);
        }
        reset();
        enable(false);
        assert_eq!(snapshot(), HostReport::default());
    }

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}
