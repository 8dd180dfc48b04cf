//! Heap traffic of the trace exporters and of a flush's diff, counted rather
//! than timed: a count repeats exactly on any machine, so an export that goes
//! back to allocating per event, or a diff that goes back to copying its
//! page, fails the build instead of drifting a benchmark. This is its own
//! test binary because the counter is a `#[global_allocator]`; it counts per
//! thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use samhita_bench::thread_windows;
use samhita_repro::core::SamhitaConfig;
use samhita_repro::kernels::{run_jacobi, JacobiParams};
use samhita_repro::mem::PageFrame;
use samhita_repro::regc::Diff;
use samhita_repro::rt::SamhitaRt;
use samhita_repro::trace::critical_path;

thread_local! {
    /// (allocations, reallocations) made by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Heap bytes this thread has asked for and not yet given back.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn bump(allocs: u64, reallocs: u64, bytes: isize) {
    // A thread being torn down has no counter left to bump; nothing measured
    // here runs then.
    let _ = COUNTS.try_with(|c| {
        let (a, r) = c.get();
        c.set((a + allocs, r + reallocs));
    });
    let _ = HELD.try_with(|h| h.set(h.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// `Cell`s of integers with no destructor, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 0, layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, 0, -(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(0, 1, new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocated and reallocated on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (a0, r0) = COUNTS.with(Cell::get);
    let out = f();
    let (a1, r1) = COUNTS.with(Cell::get);
    ((a1 - a0, r1 - r0), out)
}

/// The fixed allocations an export may make whatever the trace's size: the
/// `String` itself, and room for a profiler guard or a buffer to be added.
const FIXED: u64 = 8;

#[test]
fn exports_allocate_per_call_not_per_event() {
    let cfg = SamhitaConfig { tracing: true, ..SamhitaConfig::default() };
    let rt = SamhitaRt::new(cfg.clone());
    let report = run_jacobi(&rt, &JacobiParams { n: 126, iters: 6, threads: 64 }).report;
    let trace = rt.take_trace().expect("tracing enabled");
    assert!(trace.len() >= 10_000, "{} events: too few to tell per-event from fixed", trace.len());
    let (windows, costs) = (thread_windows(&report), cfg.service_costs());

    let ((allocs, reallocs), jsonl) = counted(|| trace.to_jsonl());
    assert!(allocs <= FIXED, "to_jsonl made {allocs} allocations");
    assert_eq!(reallocs, 0, "to_jsonl outgrew its reservation");

    let ((allocs, reallocs), chrome) = counted(|| trace.to_chrome_json());
    assert!(allocs <= FIXED, "to_chrome_json made {allocs} allocations");
    assert_eq!(reallocs, 0, "to_chrome_json outgrew its reservation");

    let (heap, _) = counted(|| trace.checksum());
    assert_eq!(heap, (0, 0), "checksum holds no bytes");

    // The causal form reads the critical path's index, the one thing allowed
    // to allocate per event: it may cost what a `critical_path` call costs
    // (index plus walk), and the fixed few on top.
    let ((index, _), _) = counted(|| critical_path(&trace, &windows, &costs));
    let ((allocs, _), causal) = counted(|| trace.to_chrome_json_with(&windows, &costs));
    assert!(allocs <= index + FIXED, "causal export: {allocs} allocations, critical path {index}");
    assert!(causal.len() > chrome.len());

    // Streaming holds nothing: a sink that only counts bytes sees them all.
    struct Count(usize);
    impl std::io::Write for Count {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut to = Count(0);
    let (heap, result) = counted(|| trace.write_jsonl(&mut to));
    result.expect("counting cannot fail");
    assert_eq!((heap, to.0), ((0, 0), jsonl.len()), "write_jsonl streams every byte, holds none");
}

/// A flush's diff reads the writer's page frame in place
/// (`PageFrame::diff_since`): a page that changed everywhere costs the run
/// table alone — one allocation, never regrown — and holds the frame rather
/// than a copy of it; a page that changed in one word holds a table of a
/// few entries; an unchanged page allocates nothing and holds no frame.
/// A diff of plain slices packs its changed bytes into one exact buffer.
#[test]
fn a_diff_allocates_its_run_table_and_shares_its_page() {
    const PAGE: usize = 4096;
    let twin = PageFrame::new(&[0; PAGE], 1);
    let dense = PageFrame::new(&[0x5A; PAGE], 1);
    let (heap, diff) = counted(|| dense.diff_since(&twin));
    assert_eq!(heap, (1, 0), "dense page: the run table, not regrown, and no payload");
    assert_eq!((diff.run_count(), diff.payload_bytes()), (1, PAGE));
    assert!(dense.backs(&diff), "the diff shares the page's frame");
    let (heap, whole) = counted(|| dense.whole_diff());
    assert_eq!((heap, whole.payload_bytes()), ((1, 0), PAGE));
    assert!(dense.backs(&whole), "a twinless page ships its own frame");

    // 32 runs of 64 B: the table may double its way to 32 entries.
    let mut striped = dense.clone();
    striped.bytes_mut().chunks_mut(64).step_by(2).for_each(|chunk| chunk.fill(0));
    let ((allocs, reallocs), diff) = counted(|| striped.diff_since(&twin));
    assert_eq!((diff.run_count(), diff.payload_bytes()), (32, PAGE / 2));
    assert!(
        allocs == 1 && reallocs <= 3,
        "striped page: {allocs} allocations, {reallocs} regrowths"
    );
    assert!(striped.backs(&diff));

    let mut sparse = twin.clone();
    sparse.bytes_mut()[PAGE / 2] = 1;
    let before = HELD.with(Cell::get);
    let (heap, diff) = counted(|| sparse.diff_since(&twin));
    let held = HELD.with(Cell::get) - before;
    assert_eq!((heap, diff.payload_bytes()), ((1, 0), 8));
    assert!(held < 64, "a one-word diff holds {held} B");
    assert!(sparse.backs(&diff));

    let (heap, diff) = counted(|| twin.diff_since(&twin));
    assert!(diff.is_empty());
    assert_eq!(heap, (0, 0), "an empty diff owns nothing");
    assert!(!twin.backs(&diff), "and holds no frame");

    // Over plain slices there is no frame to share: the changed bytes are
    // packed into one buffer of exactly their size, beside the table.
    let (zeros, page) = (vec![0u8; PAGE], vec![0x5Au8; PAGE]);
    let (heap, diff) = counted(|| Diff::compute(&zeros, &page));
    assert_eq!((heap, diff.payload_bytes()), ((2, 0), PAGE));
    let mut one_word = zeros.clone();
    one_word[PAGE / 2] = 1;
    let before = HELD.with(Cell::get);
    let (heap, diff) = counted(|| Diff::compute(&zeros, &one_word));
    let held = HELD.with(Cell::get) - before;
    assert_eq!((heap, diff.payload_bytes()), ((2, 0), 8));
    assert!(held < 128, "a one-word packed diff holds {held} B");
}

/// A frame of zeros — a claimed page's, a store's never-written page — is
/// one allocation, with no zeroed buffer to copy it from.
#[test]
fn a_zeroed_frame_is_one_allocation() {
    let (heap, frame) = counted(|| PageFrame::zeroed(4096));
    assert_eq!(heap, (1, 0));
    assert!(frame.bytes().len() == 4096 && frame.bytes().iter().all(|&b| b == 0));
    assert_eq!(frame.version(), 0);
}
