//! Host-side self-profiling for the simulator.
//!
//! Everything else in this workspace measures *virtual* time; this crate
//! measures what the simulator itself costs on the host: phase-scoped
//! wall-clock timers and a peak-RSS readout, read by the `samhita-perf`
//! harness under `benchmark/`. It is the only place host clocks are read on
//! purpose, and it is structurally invisible to virtual time: no simulator
//! code branches on anything recorded here.
//!
//! It also holds the one host-memory hint the simulator gives,
//! [`vec_with_huge_pages`]: a leaf crate that already talks to the kernel
//! (`/proc` for the peak RSS) and that the trace writer and the core both
//! reach. The hint changes no byte, so it sits outside the contract below.
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

use std::ops::Range;
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

/// A `Vec::with_capacity(capacity)` whose whole 2 MiB pages the kernel is
/// asked to back with transparent huge pages: for a buffer the caller is
/// about to fill, one fault per 2 MiB instead of one per 4 KiB.
///
/// A hint, nothing more: no byte of the buffer changes, and a kernel that
/// refuses it (THP off or not built, the range not anonymous memory) is
/// ignored. Below one aligned 2 MiB, and off Linux, this is
/// `Vec::with_capacity`. A huge page that is touched is resident whole, so
/// a buffer reserved well past what it will hold can cost up to 2 MiB more
/// RSS than its 4 KiB pages would.
pub fn vec_with_huge_pages<T>(capacity: usize) -> Vec<T> {
    let mut v: Vec<T> = Vec::with_capacity(capacity);
    let base = v.as_mut_ptr().cast::<u8>();
    if let Some(r) = huge_page_interior(base as usize, v.capacity() * size_of::<T>()) {
        advise_huge_pages(base.wrapping_add(r.start - base as usize), r.len());
    }
    v
}

/// `madvise(at, len, MADV_HUGEPAGE)`, its result ignored.
#[cfg(target_os = "linux")]
fn advise_huge_pages(at: *mut u8, len: usize) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    // SAFETY: `MADV_HUGEPAGE` writes no byte of the range; it only marks
    // the mappings that cover it, and the range lies inside an allocation
    // its caller owns. A failure leaves them as they were.
    unsafe {
        madvise(at.cast(), len, MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_at: *mut u8, _len: usize) {}

/// The granule of a transparent huge page on x86_64 (and on aarch64 with
/// 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

/// The whole 2 MiB pages inside the `len` bytes at `addr`: from the first
/// 2 MiB boundary at or after `addr` to the last one at or before
/// `addr + len`. `None` when no aligned 2 MiB fits.
fn huge_page_interior(addr: usize, len: usize) -> Option<Range<usize>> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then_some(start..end)
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

    /// The interior of `len` bytes at `addr`, checked against its
    /// definition: inside the buffer, both ends on a 2 MiB boundary, and
    /// no room for another whole 2 MiB page at either end.
    fn interior_holds(addr: usize, len: usize) -> Option<Range<usize>> {
        let got = huge_page_interior(addr, len);
        if let Some(r) = &got {
            assert!(addr <= r.start && r.end <= addr + len, "{r:x?} outside {addr:#x}+{len}");
            assert_eq!(r.start % HUGE_PAGE, 0, "{r:x?}");
            assert_eq!(r.end % HUGE_PAGE, 0, "{r:x?}");
            assert!(r.start - addr < HUGE_PAGE && addr + len - r.end < HUGE_PAGE, "{r:x?}");
        } else {
            let first = addr.next_multiple_of(HUGE_PAGE);
            assert!(first + HUGE_PAGE > addr + len, "a whole page fits in {addr:#x}+{len}");
        }
        got
    }

    #[test]
    fn the_huge_page_interior_lies_inside_on_2_mib_boundaries() {
        const MIB: usize = 1 << 20;
        // A glibc `mmap` chunk's payload starts 16 bytes into a page.
        let odd = 0x7f00_0000_0000 + 4096 + 16;
        assert_eq!(interior_holds(odd, 0), None);
        assert_eq!(interior_holds(odd, HUGE_PAGE - 1), None);
        assert_eq!(interior_holds(0x7f00_0000_0000, HUGE_PAGE - 1), None);
        // Exactly 2 MiB fits only when the buffer starts on a boundary.
        assert_eq!(interior_holds(odd, HUGE_PAGE), None);
        assert_eq!(interior_holds(odd + 1, HUGE_PAGE), None);
        assert_eq!(
            interior_holds(0x7f00_0000_0000, HUGE_PAGE),
            Some(0x7f00_0000_0000..0x7f00_0020_0000)
        );
        // A 45 MB reserve, as a paper-scale Chrome export's, loses less than
        // a huge page at each end: 20 whole pages of its 21.5 MiB.
        let r = interior_holds(odd, 45_000_000).expect("45 MB holds whole pages");
        assert_eq!(r, 0x7f00_0020_0000..0x7f00_02a0_0000);
        assert_eq!(r.len(), 20 * HUGE_PAGE);
        for (addr, len) in [(odd, 4 * MIB - 32), (odd, 4 * MIB), (1, usize::MAX - 1)] {
            interior_holds(addr, len);
        }
        assert_eq!(huge_page_interior(usize::MAX, 1), None, "past the address space");
        for addr in (0..3 * HUGE_PAGE).step_by(4096 + 8) {
            for len in [0, 1, HUGE_PAGE - 1, HUGE_PAGE, HUGE_PAGE + 4096, 3 * HUGE_PAGE] {
                interior_holds(addr, len);
            }
        }
    }
}
