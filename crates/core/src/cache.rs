//! The per-thread software cache.
//!
//! Each compute thread accesses the shared global address space exclusively
//! through this cache. Geometry follows the paper: the unit of *fetch* is a
//! cache line of multiple pages (amortizing fabric latency for spatially
//! local applications), while the unit of *consistency* — twins, diffs,
//! invalidation — is the page.
//!
//! The cache owns the RegC page protocol: [`SoftCache::write`] applies
//! [`samhita_regc::protocol`] transitions (twin creation, fine-grain
//! logging decisions, twin write-through), and [`SoftCache::flush_page`]
//! produces the diff to ship home at synchronization operations.
//!
//! Eviction implements the paper's "biased towards pages that have been
//! written to" policy ([`EvictionPolicy::DirtyFirst`]) with plain LRU as the
//! ablation baseline.
//!
//! ## Cost model of the bookkeeping
//!
//! * **One lookup per access.** [`SoftCache::resolve`] is the only hash
//!   probe on the access path; it returns a [`PageRef`] that the LRU stamp
//!   and the read or write that follow index directly.
//! * **State changes keep the summaries.** Every page-state transition goes
//!   through one function that maintains the sorted dirty-page set and each
//!   line's dirty count, so a synchronization operation with nothing dirty
//!   and a victim choice never scan resident lines × pages. A revalidation
//!   scans the one line it refetches from.
//! * **Refetch what was used.** A line is fetched whole, but once resident
//!   its pages are invalidated one by one, and an invalid page the thread
//!   has not touched since the line arrived may never be read. A fault
//!   revalidates the smallest run of the line's pages holding the faulting
//!   page, every invalid page the thread has used, and the invalid pages
//!   the faulting access goes on to touch ([`SoftCache::refetch_run`]); the
//!   rest stay invalid until touched. A barrier release refetches the same
//!   runs before any fault asks: the cache keeps the set of lines holding a
//!   used invalid page, like the dirty set, and
//!   [`SoftCache::take_used_runs`] hands out their runs, picked as a fault
//!   would pick them. What comes back, either way, fills only the pages
//!   still invalid ([`SoftCache::fill_invalid`]).
//! * **Pages arrive and leave by reference.** A resident page holds the
//!   frame its home served (ownership rule: [`samhita_mem::store`]), so
//!   installing and revalidating move pointers, not bytes, and
//!   a flush or eviction diff reads the page's frame in place
//!   ([`PageFrame::diff_since`], [`PageFrame::whole_diff`]). Its home
//!   adopts that frame, copying nothing, when the diff covers the whole
//!   page or its twin is still the home's frame — no other writer's diff
//!   landed in between — and applies the runs otherwise. Every partial
//!   store goes through [`PageFrame::bytes_mut`], which copies the page
//!   first if anyone else — the home, another cache, this page's own twin,
//!   a diff in flight — still holds it. The first ordinary-region store
//!   keeps the frame as the twin and lands on a copy: the one page copy
//!   twinning costs, and the only one a flush leaves behind. A whole-page
//!   store copies nothing: it lands on a fresh frame
//!   ([`PageFrame::bytes_for_overwrite`]) and the twin keeps the old one.
//!   An `Invalid` page holds no frame, so the home may update its own in
//!   place.
//! * **A page stored over whole is claimed, not fetched.** An
//!   ordinary-region store is owed its page only at the next
//!   synchronization, and a store that covers all of it needs none of the
//!   home's bytes: [`SoftCache::claim_page`] gives the page a frame of its
//!   own without a fetch (installing its line, every other page `Invalid`,
//!   if it was absent) and no twin — it ships whole.

use std::collections::BTreeSet;

use samhita_mem::PageFrame;
use samhita_regc::{protocol, Diff, PageState, RegionKind};
use samhita_scl::IntMap;

use crate::config::EvictionPolicy;

/// Per-page bookkeeping within a resident line.
#[derive(Debug)]
struct PageSlot {
    /// Protocol state.
    state: PageState,
    /// The page's bytes, at the home version they were fetched at; absent
    /// exactly while the page is `Invalid`.
    frame: Option<PageFrame>,
    /// The pristine page: the frame held at the first ordinary-region
    /// write. Present exactly while the page is `Dirty`, but for a claimed
    /// page ([`SoftCache::claim_page`]): it has nothing pristine to keep and
    /// ships whole.
    twin: Option<PageFrame>,
    /// The thread has touched the page since its line was installed.
    used: bool,
}

/// One resident cache line: `line_pages` consecutive pages.
#[derive(Debug)]
struct CacheLine {
    /// Global page number of the first page in the line.
    first_page: u64,
    /// LRU stamp.
    last_use: u64,
    /// How many of `slots` are `Dirty`.
    dirty: u32,
    /// How many of `slots` are `Invalid` and used.
    used_invalid: u32,
    slots: Vec<PageSlot>,
}

/// A resolved page of a resident line, good until the next
/// [`SoftCache::install_line`] or [`SoftCache::evict`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PageRef {
    /// Position of the line in `SoftCache::lines`.
    line: usize,
    /// Index of the page within its line.
    idx: usize,
}

/// What a write did, as reported to the thread context.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The store must be recorded in the fine-grain write set.
    pub log_fine_grain: bool,
    /// A twin was created by this write (statistics).
    pub twin_created: bool,
}

/// The software cache of one compute thread.
#[derive(Debug)]
pub struct SoftCache {
    page_size: usize,
    line_pages: usize,
    capacity_lines: usize,
    policy: EvictionPolicy,
    /// Line id → position in `lines`.
    index: IntMap<u64, usize>,
    /// The resident lines, dense (eviction swap-removes).
    lines: Vec<CacheLine>,
    /// Every `Dirty` page.
    dirty: BTreeSet<u64>,
    /// Every line holding a used `Invalid` page.
    used_invalid: BTreeSet<u64>,
    tick: u64,
}

impl SoftCache {
    /// An empty cache.
    ///
    /// # Panics
    /// Panics on degenerate geometry (see [`crate::config::SamhitaConfig::validate`]).
    pub fn new(
        page_size: usize,
        line_pages: usize,
        capacity_lines: usize,
        policy: EvictionPolicy,
    ) -> Self {
        assert!(page_size.is_power_of_two() && page_size >= 64);
        assert!(line_pages >= 1);
        assert!(capacity_lines >= 2);
        SoftCache {
            page_size,
            line_pages,
            capacity_lines,
            policy,
            index: IntMap::default(),
            lines: Vec::new(),
            dirty: BTreeSet::new(),
            used_invalid: BTreeSet::new(),
            tick: 0,
        }
    }

    /// The line a page belongs to.
    #[inline]
    pub fn line_of(&self, page: u64) -> u64 {
        page / self.line_pages as u64
    }

    /// Pages per line.
    pub fn line_pages(&self) -> usize {
        self.line_pages
    }

    /// Is this line resident?
    pub fn contains_line(&self, line: u64) -> bool {
        self.index.contains_key(&line)
    }

    /// Look a page up: where it is and its protocol state, or `None` when
    /// its line is not resident. The one hash probe of an access.
    #[inline]
    pub fn resolve(&self, page: u64) -> Option<(PageRef, PageState)> {
        let line = *self.index.get(&self.line_of(page))?;
        let idx = (page - self.lines[line].first_page) as usize;
        Some((PageRef { line, idx }, self.lines[line].slots[idx].state))
    }

    /// Protocol state of a page; `None` when its line is not resident.
    pub fn page_state(&self, page: u64) -> Option<PageState> {
        self.resolve(page).map(|(_, state)| state)
    }

    /// True when a new line cannot be installed without eviction.
    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity_lines
    }

    /// Bump the LRU stamp of a page's line and mark the page used (called
    /// on every access).
    #[inline]
    pub fn touch(&mut self, at: PageRef) {
        self.tick += 1;
        let line = &mut self.lines[at.line];
        line.last_use = self.tick;
        let slot = &mut line.slots[at.idx];
        if !slot.used {
            slot.used = true;
            if slot.state == PageState::Invalid {
                self.count_used_invalid(at.line, true);
            }
        }
    }

    /// One page of the line at `pos` became (`true`) or stopped being a
    /// used `Invalid` page: keep the line's count and the set of lines in
    /// step.
    fn count_used_invalid(&mut self, pos: usize, became: bool) {
        let line = &mut self.lines[pos];
        let id = line.first_page / self.line_pages as u64;
        if became {
            line.used_invalid += 1;
            if line.used_invalid == 1 {
                self.used_invalid.insert(id);
            }
        } else {
            line.used_invalid -= 1;
            if line.used_invalid == 0 {
                self.used_invalid.remove(&id);
            }
        }
    }

    /// The one place a page changes state: keeps the dirty set, the set of
    /// lines holding a used invalid page and the line's counts in step, and
    /// lets go of an invalidated page's frame.
    fn set_state(&mut self, at: PageRef, next: PageState) {
        let line = &mut self.lines[at.line];
        let page = line.first_page + at.idx as u64;
        let slot = &mut line.slots[at.idx];
        if slot.state == next {
            return;
        }
        let (used, was_invalid) = (slot.used, slot.state == PageState::Invalid);
        match slot.state {
            PageState::Dirty => {
                line.dirty -= 1;
                self.dirty.remove(&page);
            }
            PageState::Invalid | PageState::Clean => {}
        }
        match next {
            PageState::Dirty => {
                line.dirty += 1;
                self.dirty.insert(page);
            }
            PageState::Invalid => slot.frame = None,
            PageState::Clean => {}
        }
        slot.state = next;
        if used && (was_invalid || next == PageState::Invalid) {
            self.count_used_invalid(at.line, next == PageState::Invalid);
        }
    }

    /// Install a freshly fetched line. All pages enter `Clean` and unused.
    ///
    /// # Panics
    /// Panics if the line is already resident, the cache is full (evict
    /// first), or the payload has the wrong size.
    pub fn install_line(&mut self, line: u64, pages: Vec<PageFrame>) {
        assert!(!self.contains_line(line), "line {line} already resident");
        assert!(!self.is_full(), "install into a full cache: evict first");
        assert_eq!(pages.len(), self.line_pages, "line page count mismatch");
        let sized = pages.iter().all(|p| p.bytes().len() == self.page_size);
        assert!(sized, "line payload size mismatch");
        let slots = pages.into_iter().map(|frame| PageSlot {
            state: PageState::Clean,
            frame: Some(frame),
            twin: None,
            used: false,
        });
        self.push_line(line, slots.collect());
    }

    fn push_line(&mut self, line: u64, slots: Vec<PageSlot>) {
        self.tick += 1;
        self.index.insert(line, self.lines.len());
        self.lines.push(CacheLine {
            first_page: line * self.line_pages as u64,
            last_use: self.tick,
            dirty: 0,
            used_invalid: 0,
            slots,
        });
    }

    /// Claim `page` for a store that overwrites all of it, fetching
    /// nothing: its line is installed if absent, every other page `Invalid`
    /// — the next access to one fetches it — and the page gets a frame of
    /// its own and turns `Dirty` without a twin, so its flush or eviction
    /// ships it whole. The caller's store must cover the page.
    ///
    /// # Panics
    /// Panics if the page is valid, or its line is absent and the cache is
    /// full (evict first).
    pub fn claim_page(&mut self, page: u64) -> PageRef {
        let line = self.line_of(page);
        if !self.contains_line(line) {
            assert!(!self.is_full(), "claim into a full cache: evict first");
            let invalid =
                || PageSlot { state: PageState::Invalid, frame: None, twin: None, used: false };
            self.push_line(line, (0..self.line_pages).map(|_| invalid()).collect());
        }
        let (at, state) = self.resolve(page).expect("the line is resident");
        assert_eq!(state, PageState::Invalid, "claim of valid page {page}");
        self.lines[at.line].slots[at.idx].frame = Some(PageFrame::zeroed(self.page_size));
        self.set_state(at, PageState::Dirty);
        at
    }

    /// The bytes of a resolved, valid page.
    ///
    /// # Panics
    /// Panics if the page is `Invalid` (the fault handler must run first).
    #[inline]
    pub fn bytes(&self, at: PageRef) -> &[u8] {
        let frame = &self.lines[at.line].slots[at.idx].frame;
        frame.as_ref().expect("read of invalid page").bytes()
    }

    /// Store to `len` bytes at `offset` of a resolved, valid page, applying
    /// the RegC protocol for the current region kind: `fill` receives the
    /// page's bytes in that range — holding their current values — and
    /// leaves the new ones. A `whole` store — a page long, from offset 0,
    /// whose `fill` writes every byte and reads none — receives bytes of no
    /// particular value instead: when another holder has the page, a
    /// fresh frame ([`PageFrame::bytes_for_overwrite`]), so the page is
    /// never copied. Returns what the caller must do (fine-grain logging)
    /// and what happened (twin creation).
    ///
    /// # Panics
    /// Panics if the page is `Invalid`, the range overruns the page, or a
    /// `whole` store does not cover it.
    pub fn write(
        &mut self,
        at: PageRef,
        offset: usize,
        len: usize,
        region: RegionKind,
        whole: bool,
        fill: impl FnOnce(&mut [u8]),
    ) -> WriteOutcome {
        let slot = &mut self.lines[at.line].slots[at.idx];
        let effect = protocol::on_write(slot.state, region);
        let frame = slot.frame.as_mut().expect("valid page without bytes");
        if effect.make_twin {
            debug_assert!(slot.twin.is_none());
            // The pristine page is the frame itself: keep it, and let the
            // store below land on a copy — or, for a whole store, on a
            // fresh frame.
            slot.twin = Some(frame.clone());
        }
        let dst = if whole {
            assert_eq!((offset, len), (0, self.page_size), "a whole store covers its page");
            frame.bytes_for_overwrite()
        } else {
            &mut frame.bytes_mut()[offset..offset + len]
        };
        fill(dst);
        // A claimed page has no twin to keep the bytes out of its diff: it
        // ships whole, and they go with it.
        if let Some(twin) = slot.twin.as_mut().filter(|_| effect.write_through_twin) {
            twin.bytes_mut()[offset..offset + len].copy_from_slice(dst);
        }
        self.set_state(at, effect.next);
        WriteOutcome { log_fine_grain: effect.log_fine_grain, twin_created: effect.make_twin }
    }

    /// All currently dirty pages, ascending.
    pub fn dirty_pages(&self) -> Vec<u64> {
        self.dirty.iter().copied().collect()
    }

    /// Diff a dirty page against its twin and let the twin go; a claimed
    /// page, which has none, is one run of all its bytes. Either way the
    /// diff reads the page's frame in place, and the next store copies it.
    fn take_diff(&mut self, at: PageRef) -> Diff {
        let slot = &mut self.lines[at.line].slots[at.idx];
        let frame = slot.frame.as_ref().expect("valid page without bytes");
        match slot.twin.take() {
            Some(twin) => frame.diff_since(&twin),
            None => frame.whole_diff(),
        }
    }

    /// Flush one page at a synchronization operation: diff against the twin
    /// (a claimed page ships whole), drop the twin, mark the page clean.
    /// Returns `None` for clean/invalid pages and `Some(diff)` (possibly
    /// empty) for dirty ones.
    pub fn flush_page(&mut self, page: u64) -> Option<Diff> {
        let (at, state) = self.resolve(page)?;
        if state != PageState::Dirty {
            return None;
        }
        let diff = self.take_diff(at);
        self.set_state(at, protocol::after_flush(PageState::Dirty));
        Some(diff)
    }

    /// The pages to revalidate when the resolved page `at` faults as
    /// `Invalid` in an access that ends on page `last`, as `(first page,
    /// count)`: the smallest run of its line holding `at` and every
    /// `Invalid` page the thread has used or is about to, in this access.
    /// One fetch covers what the thread is likely to read again; an invalid
    /// page it never touched stays invalid, and is fetched if it ever is.
    ///
    /// # Panics
    /// Panics if `at` is not `Invalid`.
    pub fn refetch_run(&self, at: PageRef, last: u64) -> (u64, u32) {
        let line = &self.lines[at.line];
        let access = at.idx..=(last.saturating_sub(line.first_page) as usize).max(at.idx);
        let wanted = |&(idx, slot): &(usize, &PageSlot)| {
            slot.state == PageState::Invalid && (slot.used || access.contains(&idx))
        };
        let mut run = line.slots.iter().enumerate().filter(wanted).map(|(idx, _)| idx);
        let lo = run.next().expect("refetch of a page that is not invalid");
        let hi = run.next_back().unwrap_or(lo);
        (line.first_page + lo as u64, (hi - lo + 1) as u32)
    }

    /// The run [`SoftCache::refetch_run`] picks for each resident line that
    /// holds a used `Invalid` page, as a fault on its first such page that
    /// accesses nothing more would: from its first to its last used invalid
    /// page, as `(first page, count)`, ascending by line. Taking a run spends the used marks of the invalid pages in it
    /// — the thread earns each back by touching the page again — so a page
    /// no longer read stops being refetched.
    pub fn take_used_runs(&mut self) -> Vec<(u64, u32)> {
        let lines = std::mem::take(&mut self.used_invalid);
        let mut runs = Vec::with_capacity(lines.len());
        for id in lines {
            let pos = self.index[&id];
            let line = &self.lines[pos];
            let idx = line.slots.iter().position(|s| s.used && s.state == PageState::Invalid);
            let idx = idx.expect("a line in the set holds one");
            let page = line.first_page + idx as u64;
            let (first, pages) = self.refetch_run(PageRef { line: pos, idx }, page);
            let line = &mut self.lines[pos];
            let lo = (first - line.first_page) as usize;
            for slot in &mut line.slots[lo..lo + pages as usize] {
                slot.used &= slot.state != PageState::Invalid;
            }
            line.used_invalid = 0;
            runs.push((first, pages));
        }
        runs
    }

    /// Fill the `Invalid` pages of a run of one resident line from `first`
    /// with home data — a fault's refetch, or a run prefetched before the
    /// caller's latest stores: they turn `Clean`. Every other page keeps
    /// what it holds: a `Dirty` page its stores, and a `Clean` one a copy
    /// no notice has invalidated, which RegC lets the thread go on reading
    /// (and a prefetched run may be older than).
    ///
    /// # Panics
    /// Panics if the line is absent, the run leaves the line, or a payload
    /// has the wrong size.
    pub fn fill_invalid(&mut self, first: u64, pages: Vec<PageFrame>) {
        let (at, _) = self.resolve(first).expect("fill of absent line");
        assert!(at.idx + pages.len() <= self.line_pages, "fill run leaves its line");
        for (idx, frame) in (at.idx..).zip(pages) {
            assert_eq!(frame.bytes().len(), self.page_size, "page payload size mismatch");
            let slot = &mut self.lines[at.line].slots[idx];
            if slot.state == PageState::Invalid {
                slot.frame = Some(frame);
                self.set_state(PageRef { line: at.line, idx }, PageState::Clean);
            }
        }
    }

    /// Apply a fine-grain update carried by another thread's write notice
    /// to a resident page. Returns `true` when the bytes were applied
    /// (invalid or absent pages are left for demand fetch).
    ///
    /// # Panics
    /// Panics if the page is dirty: updates are only applied at
    /// synchronization points, after the local flush.
    pub fn apply_update(&mut self, page: u64, offset: usize, bytes: &[u8]) -> bool {
        match self.resolve(page) {
            None | Some((_, PageState::Invalid)) => false,
            Some((_, PageState::Dirty)) => {
                panic!("fine update applied to an unflushed dirty page")
            }
            Some((at, PageState::Clean)) => {
                let frame = self.lines[at.line].slots[at.idx].frame.as_mut();
                let page = frame.expect("valid page without bytes").bytes_mut();
                page[offset..offset + bytes.len()].copy_from_slice(bytes);
                true
            }
        }
    }

    /// Apply a write notice: invalidate the page if resident. Returns `true`
    /// when something was invalidated.
    ///
    /// # Panics
    /// Panics if the page is still dirty (callers must flush before applying
    /// notices; see [`protocol::on_invalidate`]).
    pub fn invalidate_page(&mut self, page: u64) -> bool {
        match self.resolve(page) {
            None | Some((_, PageState::Invalid)) => false,
            Some((at, state)) => {
                self.set_state(at, protocol::on_invalidate(state));
                true
            }
        }
    }

    /// Position of the eviction victim per the configured policy.
    fn victim(&self) -> Option<usize> {
        // Paper's bias: prefer evicting written-to lines (their updates
        // must be flushed home anyway); LRU among those, falling back to
        // global LRU. One pass: the top bit of the key, which no stamp
        // reaches, sorts a clean line after every dirty one.
        let dirty_first = self.policy == EvictionPolicy::DirtyFirst;
        let key = |l: &CacheLine| l.last_use | u64::from(dirty_first && l.dirty == 0) << 63;
        self.lines.iter().enumerate().min_by_key(|(_, l)| key(l)).map(|(pos, _)| pos)
    }

    /// Choose and remove an eviction victim per the configured policy.
    /// Returns the line's id and the non-empty diffs of its dirty pages
    /// (ascending), or `None` when the cache is empty.
    pub fn evict(&mut self) -> Option<(u64, Vec<(u64, Diff)>)> {
        let pos = self.victim()?;
        let mut diffs = Vec::new();
        for idx in 0..self.line_pages {
            let at = PageRef { line: pos, idx };
            if self.lines[pos].slots[idx].state == PageState::Dirty {
                let diff = self.take_diff(at);
                // Through `set_state` so the page leaves the dirty set.
                self.set_state(at, PageState::Clean);
                if !diff.is_empty() {
                    diffs.push((self.lines[pos].first_page + idx as u64, diff));
                }
            }
        }
        let line = self.lines.swap_remove(pos);
        let id = self.line_of(line.first_page);
        self.index.remove(&id);
        self.used_invalid.remove(&id);
        if let Some(moved) = self.lines.get(pos) {
            self.index.insert(self.line_of(moved.first_page), pos);
        }
        Some((id, diffs))
    }
}

/// Page-keyed access for the tests below: resolve, stamp, then read or
/// write — the sequence `ThreadCtx` performs.
#[cfg(test)]
mod access {
    use super::*;

    pub fn write(
        c: &mut SoftCache,
        page: u64,
        offset: usize,
        bytes: &[u8],
        region: RegionKind,
    ) -> WriteOutcome {
        let (at, _) = c.resolve(page).expect("write to non-resident page");
        c.touch(at);
        // A pure store: whole when it is an ordinary one a page long.
        let whole = bytes.len() == c.page_size && region == RegionKind::Ordinary;
        c.write(at, offset, bytes.len(), region, whole, |dst| dst.copy_from_slice(bytes))
    }

    pub fn read(c: &mut SoftCache, page: u64, offset: usize, out: &mut [u8]) {
        let (at, _) = c.resolve(page).expect("read of non-resident page");
        c.touch(at);
        out.copy_from_slice(&c.bytes(at)[offset..offset + out.len()]);
    }

    /// Stamp a line as used without touching its data.
    pub fn touch_line(c: &mut SoftCache, line: u64) {
        let (at, _) = c.resolve(line * c.line_pages() as u64).expect("touch of absent line");
        c.touch(at);
    }
}

#[cfg(test)]
mod tests {
    use super::access::{read, touch_line, write};
    use super::*;
    use samhita_mem::{PageId, PageStore};

    const PS: usize = 256;

    fn cache(capacity: usize) -> SoftCache {
        SoftCache::new(PS, 2, capacity, EvictionPolicy::DirtyFirst)
    }

    /// A line of zero pages, all sharing one frame — as a fetch of
    /// never-written pages delivers them.
    fn install(c: &mut SoftCache, line: u64) {
        c.install_line(line, vec![PageFrame::new(&[0; PS], 0); c.line_pages()]);
    }

    fn slot(c: &SoftCache, page: u64) -> &PageSlot {
        let (at, _) = c.resolve(page).expect("resident");
        &c.lines[at.line].slots[at.idx]
    }

    fn page_bytes(c: &SoftCache, page: u64) -> &[u8] {
        c.bytes(c.resolve(page).expect("resident").0)
    }

    #[test]
    fn install_and_read() {
        let mut c = cache(4);
        install(&mut c, 0);
        assert!(c.contains_line(0));
        assert_eq!(c.page_state(0), Some(PageState::Clean));
        assert_eq!(c.page_state(1), Some(PageState::Clean));
        assert_eq!(c.page_state(2), None);
        assert!(c.resolve(2).is_none());
        let mut buf = [1u8; 8];
        read(&mut c, 0, 0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn ordinary_write_creates_twin_and_diff() {
        let mut c = cache(4);
        install(&mut c, 0);
        let out = write(&mut c, 1, 16, &[7; 8], RegionKind::Ordinary);
        assert!(out.twin_created);
        assert!(!out.log_fine_grain);
        assert_eq!(c.page_state(1), Some(PageState::Dirty));
        assert_eq!(c.dirty_pages(), vec![1]);
        let diff = c.flush_page(1).unwrap();
        assert_eq!(diff.payload_bytes(), 8);
        assert_eq!(c.page_state(1), Some(PageState::Clean));
        assert!(c.dirty_pages().is_empty());
        assert!(c.flush_page(1).is_none(), "second flush is a no-op");
    }

    #[test]
    fn consistency_write_requests_logging_not_twin() {
        let mut c = cache(4);
        install(&mut c, 0);
        let out = write(&mut c, 0, 0, &[9; 8], RegionKind::Consistency);
        assert!(out.log_fine_grain);
        assert!(!out.twin_created);
        assert_eq!(c.page_state(0), Some(PageState::Clean));
        assert!(c.dirty_pages().is_empty());
    }

    #[test]
    fn mixed_writes_write_through_twin() {
        let mut c = cache(4);
        install(&mut c, 0);
        write(&mut c, 0, 0, &[1; 8], RegionKind::Ordinary); // twin created
        let out = write(&mut c, 0, 64, &[2; 8], RegionKind::Consistency);
        assert!(out.log_fine_grain);
        // The consistency bytes went through the twin, so the flush diff
        // contains only the ordinary write.
        let diff = c.flush_page(0).unwrap();
        assert_eq!(diff.payload_bytes(), 8);
        let mut probe = vec![0u8; PS];
        diff.apply(&mut probe);
        assert_eq!(&probe[0..8], &[1; 8]);
        assert_eq!(&probe[64..72], &[0; 8], "consistency bytes must not be in the diff");
    }

    #[test]
    fn write_fill_sees_current_bytes() {
        // The read-modify-write form the bulk accessors use.
        let mut c = cache(4);
        install(&mut c, 0);
        write(&mut c, 0, 8, &[5; 8], RegionKind::Ordinary);
        let (at, _) = c.resolve(0).unwrap();
        c.write(at, 8, 8, RegionKind::Ordinary, false, |dst| dst.iter_mut().for_each(|b| *b += 1));
        assert_eq!(&page_bytes(&c, 0)[8..16], &[6; 8]);
    }

    #[test]
    fn the_twin_is_the_fetched_frame() {
        let mut c = cache(4);
        let home = PageFrame::new(&[3; PS], 5);
        c.install_line(0, vec![home.clone(); 2]);
        assert!(
            slot(&c, 0).frame.as_ref().unwrap().shares_bytes_with(&home),
            "a fetch copies nothing"
        );
        for round in 0..3u8 {
            let held = slot(&c, 0).frame.clone().unwrap();
            write(&mut c, 0, 0, &[round + 10; 8], RegionKind::Ordinary);
            let s = slot(&c, 0);
            assert!(
                s.twin.as_ref().unwrap().shares_bytes_with(&held),
                "the twin is the frame held"
            );
            assert!(!s.frame.as_ref().unwrap().shares_bytes_with(&held), "the store hit a copy");
            assert_eq!(held.bytes()[0], if round == 0 { 3 } else { round + 9 });
            // Dirty now, and nobody else holds the copy: stores are in place.
            let at = page_bytes(&c, 0).as_ptr();
            write(&mut c, 0, 8, &[round + 10; 8], RegionKind::Ordinary);
            assert_eq!(page_bytes(&c, 0).as_ptr(), at);
            // The twin holds this round's pristine page: the diff is exactly
            // the two changed words.
            assert_eq!(c.flush_page(0).unwrap().payload_bytes(), 16);
            assert!(slot(&c, 0).twin.is_none(), "a flush lets the twin go");
        }
        assert_eq!(home.bytes(), &[3; PS], "the home's bytes never moved");
        assert_eq!(page_bytes(&c, 1), &[3; PS], "nor did the page fetched as the same frame");
    }

    #[test]
    fn a_whole_store_over_a_clean_page_twins_its_frame_and_copies_nothing() {
        let mut home = PageStore::new(PS);
        home.write_page(PageId(0), &[3; PS]);
        let fetched = home.read(PageId(0));
        let (mut c, mut copying) = (cache(4), cache(4));
        c.install_line(0, home.read_line(PageId(0), 2));
        copying.install_line(0, home.read_line(PageId(0), 2));
        let mut bytes = [3u8; PS];
        bytes[64..72].fill(9);
        let (at, _) = c.resolve(0).unwrap();
        c.touch(at);
        let out = c.write(at, 0, PS, RegionKind::Ordinary, true, |dst| {
            assert_eq!(dst, &[0; PS], "a fresh frame, not a copy of the page");
            dst.copy_from_slice(&bytes);
        });
        assert!(out.twin_created && !out.log_fine_grain);
        let s = slot(&c, 0);
        assert!(s.twin.as_ref().unwrap().shares_bytes_with(&fetched), "the twin is the old frame");
        let frame = s.frame.as_ref().unwrap();
        assert!(!frame.shares_bytes_with(&fetched));
        assert_eq!((frame.bytes(), frame.version()), (&bytes[..], 1), "at the page's version");
        assert_eq!(fetched.bytes(), &[3; PS]);
        // Dirty, and nobody else holds the frame: the next whole store is
        // in place.
        let at_ptr = page_bytes(&c, 0).as_ptr();
        write(&mut c, 0, 0, &bytes, RegionKind::Ordinary);
        assert_eq!(page_bytes(&c, 0).as_ptr(), at_ptr);
        // The same bytes stored in two halves, on a copy: the same diff,
        // the one word that changed.
        write(&mut copying, 0, 0, &bytes[..PS / 2], RegionKind::Ordinary);
        write(&mut copying, 0, PS / 2, &bytes[PS / 2..], RegionKind::Ordinary);
        let diff = c.flush_page(0).unwrap();
        assert_eq!(diff, copying.flush_page(0).unwrap());
        assert_eq!((diff.run_count(), diff.payload_bytes()), (1, 8));
        // Its twin is still the home's frame: the home adopts the page.
        drop(fetched);
        home.apply_diff(PageId(0), &diff);
        assert!(home.read(PageId(0)).shares_bytes_with(slot(&c, 0).frame.as_ref().unwrap()));
    }

    #[test]
    fn consistency_stores_and_carried_updates_copy_a_shared_frame_first() {
        let mut c = cache(4);
        let home = PageFrame::new(&[3; PS], 5);
        c.install_line(0, vec![home.clone(); 2]);
        write(&mut c, 0, 0, &[4; 8], RegionKind::Consistency);
        assert!(c.apply_update(1, 8, &[5; 8]));
        assert_eq!((page_bytes(&c, 0)[0], page_bytes(&c, 1)[8]), (4, 5));
        assert_eq!(home.bytes(), &[3; PS]);
        // Write-through to a twin the home still holds copies the twin too.
        install(&mut c, 1);
        let home = slot(&c, 2).frame.clone().unwrap();
        write(&mut c, 2, 0, &[1; 8], RegionKind::Ordinary);
        write(&mut c, 2, 64, &[2; 8], RegionKind::Consistency);
        assert_eq!(home.bytes(), &[0; PS]);
        assert_eq!(c.flush_page(2).unwrap().payload_bytes(), 8);
    }

    #[test]
    fn an_invalid_page_holds_no_frame() {
        let mut home = PageStore::new(PS);
        home.write_page(PageId(0), &[1; PS]);
        home.write_page(PageId(1), &[1; PS]);
        let mut c = cache(2);
        c.install_line(0, home.read_line(PageId(0), 2));
        let at = [0, 1].map(|p| home.read(PageId(p)).bytes().as_ptr());
        assert!(c.invalidate_page(1));
        assert!(slot(&c, 1).frame.is_none());
        // The invalidated page's frame is the home's alone again: the next
        // update lands in place. The page still cached is copied first.
        home.apply_fine(PageId(0), 0, &[2; 8]);
        home.apply_fine(PageId(1), 0, &[2; 8]);
        assert_ne!(home.read(PageId(0)).bytes().as_ptr(), at[0]);
        assert_eq!(home.read(PageId(1)).bytes().as_ptr(), at[1]);
        assert_eq!(page_bytes(&c, 0), &[1; PS]);
        // A line with an invalid page still evicts, flushing its dirty one.
        write(&mut c, 0, 8, &[7; 8], RegionKind::Ordinary);
        let (line, diffs) = c.evict().unwrap();
        assert_eq!((line, diffs.len(), diffs[0].0), (0, 1, 0));
    }

    #[test]
    fn invalidate_and_revalidate() {
        let mut c = cache(4);
        install(&mut c, 0);
        assert!(c.invalidate_page(1));
        assert_eq!(c.page_state(1), Some(PageState::Invalid));
        assert!(!c.invalidate_page(1), "already invalid");
        assert!(!c.invalidate_page(100), "absent pages are a no-op");
        c.fill_invalid(1, vec![PageFrame::new(&[5u8; PS], 3)]);
        assert_eq!(c.page_state(1), Some(PageState::Clean));
        let mut b = [0u8; 1];
        read(&mut c, 1, 10, &mut b);
        assert_eq!(b[0], 5);
    }

    #[test]
    #[should_panic(expected = "loses writes")]
    fn invalidating_dirty_page_panics() {
        let mut c = cache(4);
        install(&mut c, 0);
        write(&mut c, 0, 0, &[1], RegionKind::Ordinary);
        c.invalidate_page(0);
    }

    #[test]
    fn dirty_first_eviction_prefers_written_lines() {
        let mut c = cache(3);
        install(&mut c, 0);
        install(&mut c, 1);
        install(&mut c, 2);
        // Line 1 is dirty; line 0 is older. DirtyFirst must pick line 1.
        write(&mut c, 2, 0, &[1], RegionKind::Ordinary); // page 2 = line 1
        touch_line(&mut c, 0);
        let (victim, diffs) = c.evict().unwrap();
        assert_eq!(victim, 1);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0, 2);
        assert!(c.dirty_pages().is_empty(), "evicted pages leave the dirty set");
        // The survivors are still found where eviction moved them.
        assert!(c.contains_line(0) && c.contains_line(2) && !c.contains_line(1));
        assert_eq!(c.page_state(4), Some(PageState::Clean));
    }

    #[test]
    fn lru_eviction_ignores_dirtiness() {
        let mut c = SoftCache::new(PS, 2, 3, EvictionPolicy::Lru);
        install(&mut c, 0);
        install(&mut c, 1);
        install(&mut c, 2);
        write(&mut c, 2, 0, &[1], RegionKind::Ordinary);
        touch_line(&mut c, 2);
        let (victim, _) = c.evict().unwrap();
        assert_eq!(victim, 0, "LRU evicts the oldest line regardless of dirtiness");
    }

    #[test]
    fn capacity_enforced() {
        let mut c = cache(2);
        install(&mut c, 0);
        install(&mut c, 1);
        assert!(c.is_full());
        let (_, diffs) = c.evict().unwrap();
        assert!(diffs.is_empty(), "clean eviction ships nothing");
        assert!(!c.is_full());
        install(&mut c, 5);
        assert_eq!(c.lines.len(), 2);
        c.evict().unwrap();
        c.evict().unwrap();
        assert!(c.evict().is_none(), "nothing left to evict");
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_install_panics() {
        let mut c = cache(4);
        install(&mut c, 0);
        install(&mut c, 0);
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn install_into_full_cache_panics() {
        let mut c = cache(2);
        install(&mut c, 0);
        install(&mut c, 1);
        install(&mut c, 2);
    }

    #[test]
    #[should_panic(expected = "read of invalid page")]
    fn read_of_invalidated_page_panics() {
        let mut c = cache(4);
        install(&mut c, 0);
        c.invalidate_page(0);
        let mut b = [0u8; 1];
        read(&mut c, 0, 0, &mut b);
    }

    #[test]
    fn a_fill_preserves_dirty_pages() {
        let mut c = cache(4);
        install(&mut c, 0);
        c.invalidate_page(0);
        write(&mut c, 1, 0, &[9; 8], RegionKind::Ordinary); // dirty
        c.fill_invalid(0, vec![PageFrame::new(&[5; PS], 7); 2]);
        // Invalid page took the new bytes; dirty page kept local writes.
        assert_eq!(c.page_state(0), Some(PageState::Clean));
        assert_eq!(page_bytes(&c, 0)[0], 5);
        assert_eq!(c.page_state(1), Some(PageState::Dirty));
        let mut b = [0u8; 8];
        read(&mut c, 1, 0, &mut b);
        assert_eq!(b, [9; 8]);
    }

    #[test]
    fn apply_update_only_touches_clean_pages() {
        let mut c = cache(4);
        install(&mut c, 0);
        assert!(c.apply_update(0, 16, &[3; 8]));
        assert_eq!(page_bytes(&c, 0)[16], 3);
        c.invalidate_page(0);
        assert!(!c.apply_update(0, 16, &[4; 8]), "invalid pages wait for demand fetch");
        assert!(!c.apply_update(99, 0, &[1]), "absent pages are a no-op");
    }

    #[test]
    fn a_refetch_covers_the_invalid_pages_used_since_install() {
        let mut c = SoftCache::new(PS, 4, 4, EvictionPolicy::DirtyFirst);
        c.install_line(1, vec![PageFrame::new(&[0; PS], 0); 4]);
        let at = |c: &SoftCache, page| c.resolve(page).unwrap().0;
        for page in 4..8 {
            c.invalidate_page(page);
        }
        // Nothing used yet: the faulting page alone, or with the rest of
        // the access.
        assert_eq!(c.refetch_run(at(&c, 6), 6), (6, 1));
        assert_eq!(c.refetch_run(at(&c, 6), 9), (6, 2));
        let mut b = [0u8; 1];
        c.fill_invalid(4, vec![PageFrame::new(&[1; PS], 1)]);
        read(&mut c, 4, 0, &mut b);
        c.fill_invalid(7, vec![PageFrame::new(&[1; PS], 1)]);
        read(&mut c, 7, 0, &mut b);
        // Used pages 4 and 7 valid again: still the page alone.
        assert_eq!(c.refetch_run(at(&c, 5), 5), (5, 1));
        // Both invalid again: the run spans them, and the unused 5 and 6
        // between them.
        c.invalidate_page(4);
        c.invalidate_page(7);
        assert_eq!(c.refetch_run(at(&c, 7), 7), (4, 4));
        assert_eq!(c.refetch_run(at(&c, 5), 5), (4, 4));
        c.fill_invalid(4, vec![PageFrame::new(&[2; PS], 2)]);
        assert_eq!(c.refetch_run(at(&c, 5), 5), (5, 3));
        assert_eq!(c.page_state(6), Some(PageState::Invalid));
        // A reinstalled line starts unused.
        c.evict().unwrap();
        c.install_line(1, vec![PageFrame::new(&[0; PS], 0); 4]);
        c.invalidate_page(4);
        c.invalidate_page(7);
        assert_eq!(c.refetch_run(at(&c, 7), 7), (7, 1));
    }

    #[test]
    fn a_release_refetches_the_used_invalid_pages_once_and_fills_only_those() {
        let mut c = SoftCache::new(PS, 4, 4, EvictionPolicy::DirtyFirst);
        c.install_line(1, vec![PageFrame::new(&[0; PS], 0); 4]);
        c.install_line(2, vec![PageFrame::new(&[0; PS], 0); 4]);
        let mut b = [0u8; 1];
        for page in [4, 5, 7, 9] {
            read(&mut c, page, 0, &mut b);
        }
        assert!(c.take_used_runs().is_empty(), "nothing used is invalid");
        for page in [4, 6, 7, 8, 9] {
            c.invalidate_page(page);
        }
        // Line 1: used 4 and 7 invalid, the used 5 valid between them, the
        // unused 6 invalid. Line 2: used 9 invalid, unused 8 beside it.
        assert_eq!(c.take_used_runs(), vec![(4, 4), (9, 1)]);
        assert!(c.take_used_runs().is_empty(), "a refetch spends the marks");
        assert_eq!(c.refetch_run(c.resolve(7).unwrap().0, 7), (7, 1), "spent here too");
        // The reader stores to 5 and flushes it before the response comes:
        // the fill leaves it and takes the invalid 4, 6 and 7.
        write(&mut c, 5, 0, &[9; 8], RegionKind::Ordinary);
        c.flush_page(5).unwrap();
        c.fill_invalid(4, vec![PageFrame::new(&[1; PS], 1); 4]);
        assert!((4..8).all(|p| c.page_state(p) == Some(PageState::Clean)));
        assert_eq!((page_bytes(&c, 4)[0], page_bytes(&c, 5)[0], page_bytes(&c, 6)[0]), (1, 9, 1));
        // Read again, the page earns its mark back.
        read(&mut c, 7, 0, &mut b);
        c.invalidate_page(7);
        assert_eq!(c.take_used_runs(), vec![(7, 1)]);
        // An evicted line leaves the set.
        c.fill_invalid(9, vec![PageFrame::new(&[1; PS], 1)]);
        for page in [4, 9] {
            read(&mut c, page, 0, &mut b);
            c.invalidate_page(page);
        }
        read(&mut c, 10, 0, &mut b);
        c.evict().unwrap();
        assert!(!c.contains_line(1));
        assert_eq!(c.take_used_runs(), vec![(9, 1)]);
    }

    /// Claim `page` and store `fill` over all of it, as `ThreadCtx` does.
    fn overwrite(c: &mut SoftCache, page: u64, fill: u8) {
        let at = c.claim_page(page);
        c.touch(at);
        let out = c.write(at, 0, PS, RegionKind::Ordinary, true, |dst| dst.fill(fill));
        assert!(!out.twin_created && !out.log_fine_grain);
    }

    #[test]
    fn a_claim_installs_an_absent_line_with_its_other_pages_invalid() {
        let mut c = SoftCache::new(PS, 4, 2, EvictionPolicy::DirtyFirst);
        overwrite(&mut c, 6, 9);
        assert!(c.contains_line(1));
        let states: Vec<_> = (4..8).map(|p| c.page_state(p)).collect();
        let (i, d) = (Some(PageState::Invalid), Some(PageState::Dirty));
        assert_eq!(states, [i, i, d, i]);
        assert_eq!(c.dirty_pages(), vec![6]);
        assert!(slot(&c, 6).twin.is_none(), "nothing pristine to keep");
        assert_eq!(page_bytes(&c, 6), &[9; PS]);
        assert!((4..8).filter(|&p| p != 6).all(|p| slot(&c, p).frame.is_none()));
        // A claimed line is written to: the paper's bias evicts it first.
        install(&mut c, 0);
        assert_eq!(c.evict().unwrap().0, 1);
    }

    #[test]
    #[should_panic(expected = "claim of valid page")]
    fn a_valid_page_is_not_claimed() {
        let mut c = cache(4);
        install(&mut c, 0);
        c.claim_page(1);
    }

    #[test]
    fn a_claimed_page_ships_whole_at_flush_and_at_eviction() {
        let mut c = cache(4);
        install(&mut c, 0);
        write(&mut c, 0, 8, &[4; 8], RegionKind::Ordinary);
        c.invalidate_page(1);
        // An invalid page beside a dirty one: claimed, not refetched. The
        // store leaves zeros where the home may hold anything, so the diff
        // is every byte, not what differs from zeros.
        overwrite(&mut c, 1, 0);
        write(&mut c, 1, 16, &[5; 8], RegionKind::Ordinary);
        assert_eq!(c.dirty_pages(), vec![0, 1]);
        let whole = c.flush_page(1).unwrap();
        assert_eq!((whole.run_count(), whole.payload_bytes()), (1, PS));
        let mut home = vec![7u8; PS];
        whole.apply(&mut home);
        assert_eq!(&home[..16], &[0; 16]);
        assert_eq!(&home[16..24], &[5; 8]);
        assert_eq!(c.flush_page(0).unwrap().payload_bytes(), 8, "the neighbour diffs as ever");
        // A second interval's store to the claimed page twins it as usual.
        write(&mut c, 1, 0, &[6; 8], RegionKind::Ordinary);
        assert!(slot(&c, 1).twin.is_some());
        assert_eq!(c.flush_page(1).unwrap().payload_bytes(), 8);
        // Evicted while claimed: one whole run.
        overwrite(&mut c, 4, 3);
        let (line, diffs) = c.evict().unwrap();
        assert_eq!((line, diffs.len(), diffs[0].0), (2, 1, 4));
        assert_eq!((diffs[0].1.run_count(), diffs[0].1.payload_bytes()), (1, PS));
    }

    #[test]
    fn a_store_after_a_flush_never_changes_the_flushed_diff() {
        let runs = |d: &Diff| d.runs().map(|(o, b)| (o, b.to_vec())).collect::<Vec<_>>();
        let mut c = cache(4);
        install(&mut c, 0);
        // A twinned page's diff and a claimed page's whole diff both read
        // the page's frame in place.
        write(&mut c, 0, 0, &[1; 8], RegionKind::Ordinary);
        overwrite(&mut c, 2, 2);
        let (twinned, whole) = (c.flush_page(0).unwrap(), c.flush_page(2).unwrap());
        assert!(slot(&c, 0).frame.as_ref().unwrap().backs(&twinned), "the flush copied nothing");
        assert!(slot(&c, 2).frame.as_ref().unwrap().backs(&whole));
        let (want_twinned, want_whole) = (runs(&twinned), runs(&whole));
        // Every kind of store, to the bytes the diffs read.
        write(&mut c, 0, 0, &[3; 8], RegionKind::Ordinary);
        write(&mut c, 0, 8, &[4; 8], RegionKind::Consistency);
        assert!(c.apply_update(2, 24, &[6; 8]));
        write(&mut c, 2, 0, &[5; 8], RegionKind::Consistency);
        write(&mut c, 2, 16, &[7; 8], RegionKind::Ordinary);
        assert_eq!((runs(&twinned), runs(&whole)), (want_twinned, want_whole));
        assert_eq!(&page_bytes(&c, 0)[..16], &[[3; 8], [4; 8]].concat()[..]);
        assert_eq!(&page_bytes(&c, 2)[..32], &[[5; 8], [2; 8], [7; 8], [6; 8]].concat()[..]);
    }

    #[test]
    fn after_a_claim_a_refetch_moves_only_the_invalid_pages_used() {
        let mut c = SoftCache::new(PS, 4, 4, EvictionPolicy::DirtyFirst);
        let at = |c: &SoftCache, page| c.resolve(page).unwrap().0;
        overwrite(&mut c, 5, 1);
        // Nothing else of the line was used: a fault fetches its own page.
        assert_eq!(c.refetch_run(at(&c, 7), 7), (7, 1));
        assert_eq!(c.refetch_run(at(&c, 4), 4), (4, 1));
        c.fill_invalid(7, vec![PageFrame::new(&[2; PS], 1)]);
        let mut b = [0u8; 1];
        read(&mut c, 7, 0, &mut b);
        assert_eq!(b[0], 2);
        // Page 7 used and invalidated again, after a flush: the run spans
        // it and the faulting page, and the claimed page's bytes stay.
        c.flush_page(5).unwrap();
        c.invalidate_page(7);
        assert_eq!(c.refetch_run(at(&c, 4), 4), (4, 4));
        c.fill_invalid(4, vec![PageFrame::new(&[3; PS], 2); 4]);
        assert_eq!(page_bytes(&c, 5), &[1; PS], "a clean page keeps its bytes");
        assert_eq!(page_bytes(&c, 6), &[3; PS]);
    }

    #[test]
    #[should_panic(expected = "leaves its line")]
    fn a_fill_stays_in_its_line() {
        let mut c = cache(4);
        install(&mut c, 0);
        c.fill_invalid(1, vec![PageFrame::new(&[5; PS], 7); 2]);
    }

    /// A page of one line, as the states a fill or a refetch meets it in.
    #[derive(Copy, Clone, Debug, PartialEq)]
    enum Kind {
        Clean {
            used: bool,
        },
        Invalid {
            used: bool,
        },
        /// Stored over with a twin.
        Dirty,
        /// Claimed, stored over whole, no twin.
        Claimed,
    }

    /// A cache whose line 1 holds `kinds`, reached through the calls the
    /// thread context makes; line 0 is resident and clean, so line 1's
    /// runs do not start at page 0.
    fn line_of(kinds: &[Kind]) -> SoftCache {
        let mut c = SoftCache::new(PS, kinds.len(), 4, EvictionPolicy::DirtyFirst);
        install(&mut c, 0);
        install(&mut c, 1);
        for (page, &kind) in (kinds.len() as u64..).zip(kinds) {
            let used = matches!(kind, Kind::Clean { used: true } | Kind::Invalid { used: true });
            if used || kind == Kind::Dirty {
                touch(&mut c, page);
            }
            match kind {
                Kind::Clean { .. } => {}
                Kind::Invalid { .. } => assert!(c.invalidate_page(page)),
                Kind::Dirty => {
                    write(&mut c, page, page as usize % 64, &[0xD1; 8], RegionKind::Ordinary);
                }
                Kind::Claimed => {
                    assert!(c.invalidate_page(page));
                    let at = c.claim_page(page);
                    c.touch(at);
                    c.write(at, 0, PS, RegionKind::Ordinary, true, |dst| dst.fill(0xC1));
                }
            }
        }
        c
    }

    fn touch(c: &mut SoftCache, page: u64) {
        let (at, _) = c.resolve(page).expect("resident");
        c.touch(at);
    }

    /// Over random page states of one line: the run a release refetches
    /// for the line is the run a fault refetches at the line's first used
    /// invalid page, in an access that ends there; and neither fill — the
    /// prefetched run's nor the fault's — touches a `Dirty` page. Merging
    /// the two pickers, or the two fills, rests on both.
    #[test]
    fn a_release_refetches_what_a_fault_would_and_fills_keep_dirty_pages() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(39);
        for case in 0..2_000 {
            let n = rng.gen_range(1..=8usize);
            let kinds: Vec<Kind> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => Kind::Clean { used: false },
                    1 => Kind::Clean { used: true },
                    2 => Kind::Invalid { used: false },
                    3 => Kind::Invalid { used: true },
                    4 => Kind::Dirty,
                    _ => Kind::Claimed,
                })
                .collect();
            let first = n as u64;
            let mut c = line_of(&kinds);
            let lead = kinds.iter().position(|&k| k == Kind::Invalid { used: true });
            let fault = lead.map(|i| {
                let page = first + i as u64;
                c.refetch_run(c.resolve(page).expect("resident").0, page)
            });
            let runs = c.take_used_runs();
            assert_eq!(runs, fault.into_iter().collect::<Vec<_>>(), "case {case}: {kinds:?}");

            {
                let mut c = line_of(&kinds);
                let before: Vec<Vec<u8>> = (first..first + n as u64)
                    .map(|p| match c.page_state(p) {
                        Some(PageState::Dirty) => page_bytes(&c, p).to_vec(),
                        _ => Vec::new(),
                    })
                    .collect();
                c.fill_invalid(first, vec![PageFrame::new(&[0xF1; PS], 9); n]);
                for (i, kind) in kinds.iter().enumerate() {
                    let page = first + i as u64;
                    match kind {
                        Kind::Dirty | Kind::Claimed => {
                            assert_eq!(c.page_state(page), Some(PageState::Dirty), "case {case}");
                            assert_eq!(page_bytes(&c, page), &before[i][..], "case {case}");
                            let twinned = slot(&c, page).twin.is_some();
                            assert_eq!(twinned, *kind == Kind::Dirty, "case {case}");
                        }
                        _ => assert_eq!(c.page_state(page), Some(PageState::Clean)),
                    }
                }
                assert_eq!(c.dirty_pages().len(), before.iter().filter(|b| !b.is_empty()).count());
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::access::{read, write};
    use super::*;
    use proptest::prelude::*;
    use samhita_mem::{PageId, PageStore};

    const PS: usize = 256;
    const LINE_PAGES: usize = 4;
    const PAGES: u64 = 16;

    #[derive(Clone, Debug)]
    enum Op {
        Write { page: u64, offset: usize, bytes: Vec<u8> },
        Overwrite { page: u64, fill: u8 },
        Flush,
        Evict,
        Read { page: u64, offset: usize, len: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..PAGES, 0usize..(PS - 16), proptest::collection::vec(any::<u8>(), 1..16))
                .prop_map(|(page, offset, bytes)| Op::Write { page, offset, bytes }),
            (0..PAGES, any::<u8>()).prop_map(|(page, fill)| Op::Overwrite { page, fill }),
            Just(Op::Flush),
            Just(Op::Evict),
            (0..PAGES, 0usize..(PS - 16), 1usize..16).prop_map(|(page, offset, len)| Op::Read {
                page,
                offset,
                len
            }),
        ]
    }

    proptest! {
        /// Single-threaded coherence: a random sequence of writes, flushes,
        /// evictions, and reads through the cache + a simulated "home" must
        /// always read back exactly what a flat reference array holds.
        #[test]
        fn cache_plus_home_equals_flat_memory(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut cache = SoftCache::new(PS, LINE_PAGES, 3, EvictionPolicy::DirtyFirst);
            let mut home = vec![vec![0u8; PS]; PAGES as usize];
            let mut reference = vec![0u8; PS * PAGES as usize];

            let make_room = |cache: &mut SoftCache, home: &mut Vec<Vec<u8>>| {
                while cache.is_full() {
                    let (_, diffs) = cache.evict().expect("full cache");
                    for (p, diff) in diffs {
                        diff.apply(&mut home[p as usize]);
                    }
                }
            };
            let ensure = |cache: &mut SoftCache, home: &mut Vec<Vec<u8>>, page: u64| {
                let line = cache.line_of(page);
                if !cache.contains_line(line) {
                    make_room(cache, home);
                    let first = line as usize * LINE_PAGES;
                    let pages = home[first..first + LINE_PAGES]
                        .iter()
                        .map(|bytes| PageFrame::new(bytes, 0))
                        .collect();
                    cache.install_line(line, pages);
                }
                // A page its line's claim left invalid: fetch it alone.
                if cache.page_state(page) == Some(PageState::Invalid) {
                    cache.fill_invalid(page, vec![PageFrame::new(&home[page as usize], 0)]);
                }
            };

            for op in ops {
                match op {
                    Op::Write { page, offset, bytes } => {
                        ensure(&mut cache, &mut home, page);
                        write(&mut cache, page, offset, &bytes, RegionKind::Ordinary);
                        let base = page as usize * PS + offset;
                        reference[base..base + bytes.len()].copy_from_slice(&bytes);
                    }
                    Op::Overwrite { page, fill } => {
                        if cache.page_state(page).is_some_and(|s| s != PageState::Invalid) {
                            write(&mut cache, page, 0, &[fill; PS], RegionKind::Ordinary);
                        } else {
                            if !cache.contains_line(cache.line_of(page)) {
                                make_room(&mut cache, &mut home);
                            }
                            let at = cache.claim_page(page);
                            cache.touch(at);
                            cache.write(at, 0, PS, RegionKind::Ordinary, true, |dst| dst.fill(fill));
                        }
                        reference[page as usize * PS..][..PS].fill(fill);
                    }
                    Op::Flush => {
                        for page in cache.dirty_pages() {
                            if let Some(diff) = cache.flush_page(page) {
                                diff.apply(&mut home[page as usize]);
                            }
                        }
                    }
                    Op::Evict => {
                        if let Some((_, diffs)) = cache.evict() {
                            for (p, diff) in diffs {
                                diff.apply(&mut home[p as usize]);
                            }
                        }
                    }
                    Op::Read { page, offset, len } => {
                        ensure(&mut cache, &mut home, page);
                        let mut buf = vec![0u8; len];
                        read(&mut cache, page, offset, &mut buf);
                        let base = page as usize * PS + offset;
                        prop_assert_eq!(
                            &buf[..],
                            &reference[base..base + len],
                            "page {} offset {} diverged from reference",
                            page,
                            offset
                        );
                    }
                }
            }

            // Final drain: everything must land at the home exactly.
            for page in cache.dirty_pages() {
                if let Some(diff) = cache.flush_page(page) {
                    diff.apply(&mut home[page as usize]);
                }
            }
            for p in 0..PAGES as usize {
                prop_assert_eq!(&home[p][..], &reference[p * PS..(p + 1) * PS], "home page {} diverged", p);
            }
        }
    }

    // ------------------------------------------------------------------
    // Differential test of frame sharing
    // ------------------------------------------------------------------

    /// One page held by the copying model's cache, every byte its own.
    struct Held {
        /// The page's bytes.
        bytes: Vec<u8>,
        /// The home version they were fetched at; 0 for a claimed page.
        version: u64,
        /// While dirty, the pristine page.
        twin: Option<Vec<u8>>,
        /// Dirty without a twin: claimed, so its flush ships all of it.
        claimed: bool,
    }

    impl Held {
        fn fetched(bytes: &[u8], version: u64) -> Held {
            Held { bytes: bytes.to_vec(), version, twin: None, claimed: false }
        }

        /// What a flush ships, if the page is dirty: the diff against the
        /// twin, or every byte of a claimed page. The page turns clean.
        fn take_diff(&mut self) -> Option<Diff> {
            match self.twin.take() {
                Some(twin) => Some(Diff::compute(&twin, &self.bytes)),
                None if std::mem::take(&mut self.claimed) => {
                    Some(Diff::from_run(0, self.bytes.clone()))
                }
                None => None,
            }
        }
    }

    /// A home and two caches passing frames by reference, beside the data
    /// path they replaced: the same three, each owning every byte it holds,
    /// every fetch and every twin a deep copy.
    struct Shared {
        home: PageStore,
        caches: [SoftCache; 2],
        model_home: Vec<Vec<u8>>,
        /// Per page: how many updates the home has applied.
        model_versions: Vec<u64>,
        /// Per cache: every resident valid page.
        model_caches: [std::collections::BTreeMap<u64, Held>; 2],
        /// Every frame fetched since the last [`Share::LetGo`], beside a
        /// copy of its bytes when it was fetched.
        fetched: Vec<(PageFrame, Vec<u8>)>,
    }

    impl Shared {
        /// The model's copy of `page` as the home serves it now.
        fn model_fetch(&self, page: u64) -> Held {
            Held::fetched(&self.model_home[page as usize], self.model_versions[page as usize])
        }

        /// Keep a reference to every frame of a fetch, and what it read.
        fn keep(&mut self, frames: &[PageFrame]) {
            self.fetched.extend(frames.iter().map(|f| (f.clone(), f.bytes().to_vec())));
        }

        fn fetch_page(&mut self, who: usize, page: u64) {
            let frame = self.home.read(PageId(page));
            self.keep(std::slice::from_ref(&frame));
            self.caches[who].fill_invalid(page, vec![frame]);
            let held = self.model_fetch(page);
            self.model_caches[who].insert(page, held);
        }

        /// Take `page`'s flush diff from cache `who` and from its copy in
        /// the model: both, or neither when the page is not dirty.
        fn take(&mut self, who: usize, page: u64) -> Option<(Diff, Diff)> {
            let diff = self.caches[who].flush_page(page);
            let model = self.model_caches[who].get_mut(&page).and_then(Held::take_diff);
            prop_assert_eq!(
                diff.is_some(),
                model.is_some(),
                "cache {} flush of page {}",
                who,
                page
            );
            diff.zip(model)
        }

        /// A flush diff reaches the home, and the model's its copy.
        fn land(&mut self, page: u64, (diff, model): (Diff, Diff)) {
            self.home.apply_diff(PageId(page), &diff);
            model.apply(&mut self.model_home[page as usize]);
            self.model_versions[page as usize] += 1;
        }

        fn flush_page(&mut self, who: usize, page: u64) {
            if let Some(diffs) = self.take(who, page) {
                self.land(page, diffs);
            }
        }

        fn evict(&mut self, who: usize) {
            let Some((line, diffs)) = self.caches[who].evict() else { return };
            let mut models = Vec::new();
            for page in line * LINE_PAGES as u64..(line + 1) * LINE_PAGES as u64 {
                let held = self.model_caches[who].remove(&page);
                if let Some(diff) = held.and_then(|mut held| held.take_diff()) {
                    if !diff.is_empty() {
                        models.push((page, diff));
                    }
                }
            }
            let pages = |d: &[(u64, Diff)]| d.iter().map(|(p, _)| *p).collect::<Vec<_>>();
            prop_assert_eq!(pages(&diffs), pages(&models), "cache {} eviction", who);
            for ((page, diff), (_, model)) in diffs.into_iter().zip(models) {
                self.land(page, (diff, model));
            }
        }

        /// Make `page` resident and valid in cache `who`.
        fn ensure(&mut self, who: usize, page: u64) {
            let line = page / LINE_PAGES as u64;
            if !self.caches[who].contains_line(line) {
                while self.caches[who].is_full() {
                    self.evict(who);
                }
                let first = line * LINE_PAGES as u64;
                let frames = self.home.read_line(PageId(first), LINE_PAGES);
                self.keep(&frames);
                self.caches[who].install_line(line, frames);
                for p in first..first + LINE_PAGES as u64 {
                    let held = self.model_fetch(p);
                    self.model_caches[who].insert(p, held);
                }
            }
            if self.caches[who].page_state(page) == Some(PageState::Invalid) {
                self.fetch_page(who, page);
            }
        }

        fn store(
            &mut self,
            who: usize,
            page: u64,
            offset: usize,
            bytes: &[u8],
            region: RegionKind,
        ) {
            self.ensure(who, page);
            write(&mut self.caches[who], page, offset, bytes, region);
            let held = self.model_caches[who].get_mut(&page).expect("resident");
            match region {
                RegionKind::Ordinary if !held.claimed => {
                    held.twin.get_or_insert_with(|| held.bytes.clone());
                }
                RegionKind::Ordinary => {}
                RegionKind::Consistency => {
                    if let Some(twin) = &mut held.twin {
                        twin[offset..offset + bytes.len()].copy_from_slice(bytes);
                    }
                }
            }
            held.bytes[offset..offset + bytes.len()].copy_from_slice(bytes);
            if region == RegionKind::Consistency {
                // What the next release does with the logged store: the
                // home applies it, and the other cache — past its own flush
                // — patches its copy in place.
                let other = 1 - who;
                self.home.apply_fine(PageId(page), offset as u32, bytes);
                self.model_home[page as usize][offset..offset + bytes.len()].copy_from_slice(bytes);
                self.model_versions[page as usize] += 1;
                self.flush_page(other, page);
                let applied = self.caches[other].apply_update(page, offset, bytes);
                let theirs = self.model_caches[other].get_mut(&page);
                prop_assert_eq!(applied, theirs.is_some());
                if let Some(theirs) = theirs {
                    theirs.bytes[offset..offset + bytes.len()].copy_from_slice(bytes);
                }
            }
        }

        /// A pure ordinary-region store of `fill` over all of `page`, as
        /// `ThreadCtx::write_chunk` makes it: over the page if it is valid,
        /// else on a claim of it, its line installed if absent.
        fn overwrite(&mut self, who: usize, page: u64, fill: u8) {
            let valid = self.caches[who].page_state(page).is_some_and(|s| s != PageState::Invalid);
            if valid {
                self.store(who, page, 0, &[fill; PS], RegionKind::Ordinary);
                return;
            }
            while !self.caches[who].contains_line(page / LINE_PAGES as u64)
                && self.caches[who].is_full()
            {
                self.evict(who);
            }
            let at = self.caches[who].claim_page(page);
            self.caches[who].touch(at);
            let out =
                self.caches[who].write(at, 0, PS, RegionKind::Ordinary, true, |dst| dst.fill(fill));
            prop_assert!(!out.twin_created && !out.log_fine_grain);
            let held = Held { bytes: vec![fill; PS], version: 0, twin: None, claimed: true };
            self.model_caches[who].insert(page, held);
        }

        /// Both caches refetch `page` and store to it, then both flushes'
        /// diffs — each taken against its twin before either lands — reach
        /// the home, cache `first`'s first.
        fn race(&mut self, page: u64, first: usize, offsets: [usize; 2], fill: u8) {
            for who in 0..2 {
                self.flush_page(who, page);
                self.model_caches[who].remove(&page);
                self.caches[who].invalidate_page(page);
            }
            for (who, offset) in offsets.into_iter().enumerate() {
                let bytes = [fill.wrapping_add(who as u8); 8];
                self.store(who, page, offset, &bytes, RegionKind::Ordinary);
            }
            let mut diffs = [0, 1].map(|who| self.take(who, page));
            for who in [first, 1 - first] {
                let diff = diffs[who].take();
                prop_assert!(diff.is_some(), "cache {} stored to page {}", who, page);
                self.land(page, diff.expect("dirty"));
            }
        }

        /// Every byte either side can read is the byte the copying model
        /// holds there, at the version it holds, and every frame fetched
        /// still reads as it did.
        fn agree(&self) {
            for page in 0..PAGES {
                let home = self.home.read(PageId(page));
                prop_assert_eq!(
                    home.bytes(),
                    &self.model_home[page as usize][..],
                    "home page {}",
                    page
                );
                prop_assert_eq!(
                    home.version(),
                    self.model_versions[page as usize],
                    "home page {}",
                    page
                );
                for who in 0..2 {
                    let want = self.model_caches[who].get(&page);
                    let slot = self.caches[who]
                        .resolve(page)
                        .map(|(at, _)| &self.caches[who].lines[at.line].slots[at.idx]);
                    let got = slot.and_then(|s| s.frame.as_ref());
                    prop_assert_eq!(
                        got.map(|f| (f.bytes(), f.version())),
                        want.map(|held| (&held.bytes[..], held.version)),
                        "cache {} page {}",
                        who,
                        page
                    );
                    prop_assert_eq!(
                        slot.and_then(|s| s.twin.as_ref()).map(PageFrame::bytes),
                        want.and_then(|held| held.twin.as_deref()),
                        "cache {} twin of page {}",
                        who,
                        page
                    );
                }
            }
            for (frame, bytes) in &self.fetched {
                prop_assert_eq!(
                    frame.bytes(),
                    &bytes[..],
                    "a fetched frame changed under its holder"
                );
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Share {
        /// Make the page resident and valid in cache `who` (fetching,
        /// evicting and refetching as needed), then maybe store to it.
        Access {
            who: usize,
            page: u64,
            offset: usize,
            fill: u8,
            store: Option<RegionKind>,
        },
        /// A pure ordinary-region store over the whole page.
        Overwrite {
            who: usize,
            page: u64,
            fill: u8,
        },
        /// Both caches' twinned flushes of one page reach the home, in
        /// either order.
        Race {
            page: u64,
            first: usize,
            offsets: [usize; 2],
            fill: u8,
        },
        Flush {
            who: usize,
        },
        Evict {
            who: usize,
        },
        /// A write notice: flush the page if dirty, then drop it.
        Invalidate {
            who: usize,
            page: u64,
        },
        /// A run's response: the line's invalid pages take the home's.
        FillLine {
            who: usize,
            line: u64,
        },
        /// The home overwrites a page behind every cache's back.
        WritePage {
            page: u64,
            fill: u8,
        },
        /// The test lets go of the frames it fetched.
        LetGo,
    }

    fn share_strategy() -> impl Strategy<Value = Share> {
        let access = || {
            let store = prop_oneof![
                Just(None),
                Just(Some(RegionKind::Ordinary)),
                Just(Some(RegionKind::Ordinary)),
                Just(Some(RegionKind::Consistency)),
            ];
            (0..2usize, 0..PAGES, 0usize..PS - 8, 1u8..=255, store).prop_map(
                |(who, page, offset, fill, store)| Share::Access { who, page, offset, fill, store },
            )
        };
        prop_oneof![
            access(),
            access(),
            access(),
            (0..2usize, 0..PAGES, any::<u8>()).prop_map(|(who, page, fill)| Share::Overwrite {
                who,
                page,
                fill
            }),
            (0..PAGES, 0..2usize, 0usize..PS - 8, 0usize..PS - 8, 1u8..=254).prop_map(
                |(page, first, a, b, fill)| Share::Race { page, first, offsets: [a, b], fill }
            ),
            (0..2usize).prop_map(|who| Share::Flush { who }),
            (0..2usize).prop_map(|who| Share::Evict { who }),
            (0..2usize, 0..PAGES).prop_map(|(who, page)| Share::Invalidate { who, page }),
            (0..2usize, 0..PAGES / LINE_PAGES as u64)
                .prop_map(|(who, line)| Share::FillLine { who, line }),
            (0..PAGES, 1u8..=255).prop_map(|(page, fill)| Share::WritePage { page, fill }),
            Just(Share::LetGo),
        ]
    }

    proptest! {
        /// After every step each valid page, each twin and each home page
        /// holds exactly what the copying model holds, at the version it
        /// holds: no store through one holder of a frame was ever visible
        /// through another.
        #[test]
        fn shared_frames_behave_like_deep_copies(
            steps in proptest::collection::vec(share_strategy(), 1..200)
        ) {
            let mut w = Shared {
                home: PageStore::new(PS),
                caches: [0, 1].map(|_| SoftCache::new(PS, LINE_PAGES, 3, EvictionPolicy::DirtyFirst)),
                model_home: vec![vec![0u8; PS]; PAGES as usize],
                model_versions: vec![0; PAGES as usize],
                model_caches: Default::default(),
                fetched: Vec::new(),
            };
            for step in steps {
                match step {
                    Share::Access { who, page, offset, fill, store: Some(region) } => {
                        w.store(who, page, offset, &[fill; 8], region);
                    }
                    Share::Access { who, page, .. } => w.ensure(who, page),
                    Share::Overwrite { who, page, fill } => w.overwrite(who, page, fill),
                    Share::Race { page, first, offsets, fill } => w.race(page, first, offsets, fill),
                    Share::Flush { who } => {
                        for page in w.caches[who].dirty_pages() {
                            w.flush_page(who, page);
                        }
                    }
                    Share::Evict { who } => w.evict(who),
                    Share::Invalidate { who, page } => {
                        w.flush_page(who, page);
                        let held = w.model_caches[who].remove(&page).is_some();
                        prop_assert_eq!(w.caches[who].invalidate_page(page), held);
                    }
                    Share::FillLine { who, line } => {
                        if !w.caches[who].contains_line(line) {
                            continue;
                        }
                        let first = line * LINE_PAGES as u64;
                        let pages = w.home.read_line(PageId(first), LINE_PAGES);
                        w.keep(&pages);
                        w.caches[who].fill_invalid(first, pages);
                        for p in first..first + LINE_PAGES as u64 {
                            let held = w.model_fetch(p);
                            w.model_caches[who].entry(p).or_insert(held);
                        }
                    }
                    Share::WritePage { page, fill } => {
                        w.home.write_page(PageId(page), &[fill; PS]);
                        w.model_home[page as usize].fill(fill);
                        w.model_versions[page as usize] += 1;
                    }
                    Share::LetGo => w.fetched.clear(),
                }
                w.agree();
            }
        }
    }

    // ------------------------------------------------------------------
    // Differential test of the incremental bookkeeping
    // ------------------------------------------------------------------

    /// What the cache kept before it kept summaries: one record per
    /// resident line, every question answered by scanning them all.
    #[derive(Default)]
    struct Model {
        lines: Vec<ModelLine>,
        tick: u64,
    }

    struct ModelLine {
        id: u64,
        last_use: u64,
        /// Per page: `(state, has a twin)`.
        pages: Vec<(PageState, bool)>,
        /// Per page: touched since the line was installed.
        used: Vec<bool>,
    }

    impl Model {
        fn line(&mut self, line: u64) -> Option<&mut ModelLine> {
            self.lines.iter_mut().find(|l| l.id == line)
        }

        fn page(&mut self, page: u64) -> Option<&mut (PageState, bool)> {
            let idx = (page % LINE_PAGES as u64) as usize;
            self.line(page / LINE_PAGES as u64).map(|l| &mut l.pages[idx])
        }

        fn touch(&mut self, page: u64) {
            self.tick += 1;
            let tick = self.tick;
            let line = self.line(page / LINE_PAGES as u64).expect("resident");
            line.last_use = tick;
            line.used[(page % LINE_PAGES as u64) as usize] = true;
        }

        fn dirty_pages(&self) -> Vec<u64> {
            let mut pages: Vec<u64> = self
                .lines
                .iter()
                .flat_map(|l| {
                    l.pages
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.0 == PageState::Dirty)
                        .map(move |(i, _)| l.id * LINE_PAGES as u64 + i as u64)
                })
                .collect();
            pages.sort_unstable();
            pages
        }

        /// The run an invalid `page` revalidates in an access through
        /// `last`: from the first to the last of the line's pages that are
        /// it, or invalid and used or in the access.
        fn refetch_run(&self, page: u64, last: u64) -> (u64, u32) {
            let line = self.lines.iter().find(|l| l.id == page / LINE_PAGES as u64);
            let line = line.expect("resident");
            let first = line.id * LINE_PAGES as u64;
            let run: Vec<u64> = (first..first + LINE_PAGES as u64)
                .filter(|&p| {
                    let idx = (p - first) as usize;
                    let wanted = line.used[idx] || (page..=last).contains(&p);
                    p == page || (wanted && line.pages[idx].0 == PageState::Invalid)
                })
                .collect();
            (run[0], (run[run.len() - 1] - run[0] + 1) as u32)
        }

        /// Every line holding a used invalid page, ascending.
        fn used_invalid_lines(&self) -> Vec<u64> {
            let mut ids: Vec<u64> = (self.lines.iter())
                .filter(|l| {
                    (0..LINE_PAGES).any(|i| l.used[i] && l.pages[i].0 == PageState::Invalid)
                })
                .map(|l| l.id)
                .collect();
            ids.sort_unstable();
            ids
        }

        /// What a release refetches: per line holding a used invalid page,
        /// the run from the first to the last — spending their marks.
        fn take_used_runs(&mut self) -> Vec<(u64, u32)> {
            let mut runs = Vec::new();
            for id in self.used_invalid_lines() {
                let line = self.line(id).expect("resident");
                let wanted: Vec<usize> = (0..LINE_PAGES)
                    .filter(|&i| line.used[i] && line.pages[i].0 == PageState::Invalid)
                    .collect();
                for &i in &wanted {
                    line.used[i] = false;
                }
                let (lo, hi) = (wanted[0], wanted[wanted.len() - 1]);
                runs.push((id * LINE_PAGES as u64 + lo as u64, (hi - lo + 1) as u32));
            }
            runs
        }

        fn victim(&self, policy: EvictionPolicy) -> Option<u64> {
            let lru = |dirty_only: bool| {
                self.lines
                    .iter()
                    .filter(|l| !dirty_only || l.pages.iter().any(|s| s.0 == PageState::Dirty))
                    .min_by_key(|l| l.last_use)
                    .map(|l| l.id)
            };
            match policy {
                EvictionPolicy::Lru => lru(false),
                EvictionPolicy::DirtyFirst => lru(true).or_else(|| lru(false)),
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// Access a page (installing its line if absent, evicting to fit)
        /// and store to it in the given region; `None` only reads.
        Access {
            page: u64,
            store: Option<RegionKind>,
        },
        Flush {
            page: u64,
        },
        FlushAll,
        Invalidate {
            page: u64,
        },
        /// A fault's refetch of one page arrives.
        FillPage {
            page: u64,
        },
        /// An ordinary-region store over a whole page: claimed unless the
        /// page is valid.
        Overwrite {
            page: u64,
        },
        Evict,
        /// A release refetches the used invalid pages of every line.
        TakeUsedRuns,
        /// Its response for a line arrives: the invalid pages take it.
        FillInvalid {
            line: u64,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        let store = || {
            prop_oneof![
                Just(None),
                Just(Some(RegionKind::Ordinary)),
                Just(Some(RegionKind::Ordinary)),
                Just(Some(RegionKind::Consistency)),
            ]
        };
        prop_oneof![
            (0..PAGES, store()).prop_map(|(page, store)| Step::Access { page, store }),
            (0..PAGES, store()).prop_map(|(page, store)| Step::Access { page, store }),
            (0..PAGES).prop_map(|page| Step::Flush { page }),
            Just(Step::FlushAll),
            (0..PAGES).prop_map(|page| Step::Invalidate { page }),
            (0..PAGES).prop_map(|page| Step::FillPage { page }),
            (0..PAGES).prop_map(|page| Step::Overwrite { page }),
            Just(Step::Evict),
            Just(Step::TakeUsedRuns),
            (0..PAGES / LINE_PAGES as u64).prop_map(|line| Step::FillInvalid { line }),
        ]
    }

    /// Everything the summaries answer, against the scan.
    fn agree(cache: &SoftCache, model: &Model, policy: EvictionPolicy) {
        prop_assert_eq!(cache.dirty_pages(), model.dirty_pages());
        prop_assert_eq!(cache.lines.len(), model.lines.len());
        for page in 0..PAGES {
            let idx = (page % LINE_PAGES as u64) as usize;
            let want =
                model.lines.iter().find(|l| l.id == page / LINE_PAGES as u64).map(|l| l.pages[idx]);
            prop_assert_eq!(cache.page_state(page), want.map(|s| s.0), "state of page {}", page);
            if let Some((at, state)) = cache.resolve(page) {
                let slot = &cache.lines[at.line].slots[at.idx];
                prop_assert_eq!(
                    slot.twin.is_some(),
                    want.expect("resident").1,
                    "twin of page {}",
                    page
                );
                prop_assert_eq!(
                    slot.frame.is_some(),
                    state != PageState::Invalid,
                    "frame of page {}",
                    page
                );
                for last in (page..page + 3).filter(|_| state == PageState::Invalid) {
                    let want = model.refetch_run(page, last);
                    prop_assert_eq!(cache.refetch_run(at, last), want, "run of {}", page);
                }
            }
        }
        prop_assert_eq!(
            cache.victim().map(|pos| cache.line_of(cache.lines[pos].first_page)),
            model.victim(policy)
        );
        let want = model.used_invalid_lines();
        prop_assert_eq!(cache.used_invalid.iter().copied().collect::<Vec<_>>(), want.clone());
        for line in &cache.lines {
            let held = want.contains(&cache.line_of(line.first_page));
            prop_assert_eq!(line.used_invalid > 0, held, "count of line at {}", line.first_page);
        }
    }

    fn run_steps(policy: EvictionPolicy, steps: &[Step]) {
        const CAPACITY: usize = 3;
        let mut cache = SoftCache::new(PS, LINE_PAGES, CAPACITY, policy);
        let mut model = Model::default();
        let evict = |cache: &mut SoftCache, model: &mut Model| {
            let want = model.victim(policy);
            let got = cache.evict().map(|(line, _)| line);
            model.lines.retain(|l| Some(l.id) != want);
            (got, want)
        };
        for step in steps.iter().cloned() {
            match step {
                Step::Access { page, store } => {
                    let line = page / LINE_PAGES as u64;
                    if !cache.contains_line(line) {
                        while cache.is_full() {
                            let (got, want) = evict(&mut cache, &mut model);
                            prop_assert_eq!(got, want, "victim");
                        }
                        cache.install_line(line, vec![PageFrame::new(&[0; PS], 0); LINE_PAGES]);
                        model.tick += 1;
                        model.lines.push(ModelLine {
                            id: line,
                            last_use: model.tick,
                            pages: vec![(PageState::Clean, false); LINE_PAGES],
                            used: vec![false; LINE_PAGES],
                        });
                    }
                    if let Some((at, PageState::Invalid)) = cache.resolve(page) {
                        // What `ThreadCtx` does on the fault.
                        let (first, pages) = cache.refetch_run(at, page);
                        cache
                            .fill_invalid(first, vec![PageFrame::new(&[1; PS], 1); pages as usize]);
                        for p in first..first + u64::from(pages) {
                            let slot = model.page(p).expect("resident");
                            if slot.0 == PageState::Invalid {
                                *slot = (PageState::Clean, false);
                            }
                        }
                    }
                    let mut byte = [0u8; 1];
                    match store {
                        None => read(&mut cache, page, 3, &mut byte),
                        Some(region) => {
                            let out = write(&mut cache, page, 3, &[7], region);
                            let slot = model.page(page).expect("resident");
                            // A dirty page keeps what it has: its twin, or
                            // none when it was claimed.
                            let twinned =
                                region == RegionKind::Ordinary && slot.0 == PageState::Clean;
                            prop_assert_eq!(out.twin_created, twinned);
                            if region == RegionKind::Ordinary {
                                *slot = (PageState::Dirty, slot.1 || twinned);
                            }
                        }
                    }
                    model.touch(page);
                }
                Step::Flush { page } => {
                    let was_dirty = model.page(page).is_some_and(|s| s.0 == PageState::Dirty);
                    prop_assert_eq!(cache.flush_page(page).is_some(), was_dirty);
                    if was_dirty {
                        *model.page(page).expect("resident") = (PageState::Clean, false);
                    }
                }
                Step::FlushAll => {
                    for page in cache.dirty_pages() {
                        prop_assert!(cache.flush_page(page).is_some());
                        *model.page(page).expect("resident") = (PageState::Clean, false);
                    }
                }
                Step::Invalidate { page } => {
                    // Notices are applied after the flush; a dirty page is
                    // the caller's bug (and a panic), so the model skips it.
                    let slot = model.page(page).map(|s| *s);
                    if slot.is_some_and(|s| s.0 == PageState::Dirty) {
                        continue;
                    }
                    let want = slot.is_some_and(|s| s.0 == PageState::Clean);
                    prop_assert_eq!(cache.invalidate_page(page), want);
                    if want {
                        *model.page(page).expect("resident") = (PageState::Invalid, false);
                    }
                }
                Step::FillPage { page } => {
                    if let Some(slot) = model.page(page) {
                        cache.fill_invalid(page, vec![PageFrame::new(&[2; PS], 2)]);
                        if slot.0 == PageState::Invalid {
                            *slot = (PageState::Clean, false);
                        }
                    }
                }
                Step::Overwrite { page } => {
                    let line = page / LINE_PAGES as u64;
                    let idx = (page % LINE_PAGES as u64) as usize;
                    let valid = cache.page_state(page).is_some_and(|s| s != PageState::Invalid);
                    let at = if valid {
                        cache.resolve(page).expect("resident").0
                    } else {
                        if !cache.contains_line(line) {
                            while cache.is_full() {
                                let (got, want) = evict(&mut cache, &mut model);
                                prop_assert_eq!(got, want, "victim");
                            }
                            model.tick += 1;
                            model.lines.push(ModelLine {
                                id: line,
                                last_use: model.tick,
                                pages: vec![(PageState::Invalid, false); LINE_PAGES],
                                used: vec![false; LINE_PAGES],
                            });
                        }
                        cache.claim_page(page)
                    };
                    cache.touch(at);
                    let out = cache.write(at, 0, PS, RegionKind::Ordinary, true, |dst| dst.fill(5));
                    let slot = &mut model.line(line).expect("resident").pages[idx];
                    let twinned = slot.0 == PageState::Clean;
                    prop_assert_eq!(out.twin_created, twinned);
                    *slot = (PageState::Dirty, slot.1 || twinned);
                    model.touch(page);
                }
                Step::Evict => {
                    let (got, want) = evict(&mut cache, &mut model);
                    prop_assert_eq!(got, want, "victim");
                }
                Step::TakeUsedRuns => {
                    prop_assert_eq!(cache.take_used_runs(), model.take_used_runs());
                }
                Step::FillInvalid { line } => {
                    if let Some(l) = model.line(line) {
                        let first = line * LINE_PAGES as u64;
                        let frames = vec![PageFrame::new(&[4; PS], 4); LINE_PAGES];
                        cache.fill_invalid(first, frames);
                        for slot in l.pages.iter_mut().filter(|s| s.0 == PageState::Invalid) {
                            *slot = (PageState::Clean, false);
                        }
                    }
                }
            }
            agree(&cache, &model, policy);
        }
    }

    proptest! {
        /// The incrementally kept dirty set, invalid counts and victim
        /// choice equal a brute-force scan after every step, under both
        /// eviction policies.
        #[test]
        fn summaries_match_a_scanning_model(
            steps in proptest::collection::vec(step_strategy(), 1..150)
        ) {
            run_steps(EvictionPolicy::DirtyFirst, &steps);
            run_steps(EvictionPolicy::Lru, &steps);
        }
    }
}
