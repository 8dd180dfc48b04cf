//! The versioned page store backing one memory server.
//!
//! Pages read as zeros until first written (like anonymous memory) and
//! carry a version counter bumped by every mutation; versions let the cache
//! side detect stale prefetches and make the protocol auditable in tests.
//!
//! ## Who owns a page's bytes
//!
//! A page's bytes are one reference-counted frame ([`PageFrame`]), handed
//! from holder to holder by reference, not by copy: the home, any number of
//! caches (a clean page, or a dirty page's twin), a prefetch-ready map, a
//! server's dedup cache, the host, and a diff in flight
//! ([`PageFrame::diff_since`] and [`PageFrame::whole_diff`] read the
//! writer's frame in place, and a twinned diff holds its twin too) may all
//! hold one frame at once. Nobody writes bytes another holder can see: a
//! frame is mutated only through [`PageFrame::bytes_mut`], in place for a
//! sole holder and on a private copy otherwise, or overwritten whole
//! through [`PageFrame::bytes_for_overwrite`], which gives a shared
//! frame's holder a fresh one instead of a copy. So a page is copied
//! exactly when part of it is written while shared — at the home when an
//! update lands on a frame a reader still holds, in a cache at the first
//! partial store after a fetch or a flush — and never on the fetch or
//! flush path.
//!
//! The home adopts rather than applies whenever the diff holds what it
//! makes of the home's frame ([`PageStore::apply_diff`],
//! [`Diff::result_over`]): a diff that covers a whole page, or one taken
//! against a twin that *is* the home's current frame — twin plus runs is
//! the writer's frame, since neither can be written while the diff holds
//! them. The writer's frame becomes the home's, and nothing is copied. So
//! a page one writer changed in an interval costs no copy at the home;
//! when a second writer's diff of it lands, its twin is stale and its
//! runs are applied to a copy (the multiple-writer merge). Pages nobody
//! has written share one zero frame per store.

use std::sync::Arc;

use samhita_regc::Diff;
use samhita_scl::IntMap;

use crate::page::PageId;

/// One page's bytes at one home version: a handle to a shared frame.
/// Cloning it shares the bytes.
#[derive(Clone, Debug)]
pub struct PageFrame {
    bytes: Arc<[u8]>,
    version: u64,
}

impl PageFrame {
    /// A frame of its own holding `bytes`, at home version `version`.
    pub fn new(bytes: &[u8], version: u64) -> Self {
        PageFrame { bytes: bytes.into(), version }
    }

    /// A frame of its own holding `len` zero bytes, at version 0: one
    /// allocation, nothing copied.
    pub fn zeroed(len: usize) -> Self {
        PageFrame { bytes: zeros(len), version: 0 }
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The contents for writing: in place when this handle is the frame's
    /// only holder, on a private copy of the page otherwise.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.bytes)
    }

    /// The contents for a store that overwrites every byte without
    /// reading one: in place when this handle is the frame's only holder,
    /// otherwise on a fresh frame of zeros at the same version — the other
    /// holders keep the old one, and nothing is copied.
    pub fn bytes_for_overwrite(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.bytes).is_none() {
            self.bytes = zeros(self.bytes.len());
        }
        Arc::get_mut(&mut self.bytes).expect("a fresh frame has one holder")
    }

    /// Mutation count at the home when the bytes were read there.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True when both handles hold the same frame: no copy lies between
    /// them.
    pub fn shares_bytes_with(&self, other: &PageFrame) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// This frame's diff against `twin`, the pristine page: its runs read
    /// this frame in place, so only the run table is allocated, and it
    /// holds both frames — a home whose frame is still `twin` adopts this
    /// one ([`PageStore::apply_diff`]).
    pub fn diff_since(&self, twin: &PageFrame) -> Diff {
        Diff::compute_shared(&twin.bytes, &self.bytes)
    }

    /// The whole frame as a diff, shared: what a page with no twin ships.
    pub fn whole_diff(&self) -> Diff {
        Diff::whole(&self.bytes)
    }

    /// True when `diff`'s runs read this frame: no copy lies between them.
    pub fn backs(&self, diff: &Diff) -> bool {
        diff.shares(&self.bytes)
    }
}

/// `len` zero bytes in a frame of their own: one allocation.
fn zeros(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}

/// All pages homed on one memory server.
#[derive(Debug)]
pub struct PageStore {
    /// The pages written at least once.
    pages: IntMap<PageId, PageFrame>,
    /// What every other page reads as.
    zero: PageFrame,
}

impl PageStore {
    /// An empty store serving pages of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64 && page_size.is_power_of_two(), "unreasonable page size");
        PageStore { pages: IntMap::default(), zero: PageFrame::zeroed(page_size) }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.zero.bytes.len()
    }

    /// Read a page: a reference to its frame — the shared zero frame if it
    /// was never written.
    pub fn read(&self, id: PageId) -> PageFrame {
        self.pages.get(&id).unwrap_or(&self.zero).clone()
    }

    /// Read `count` consecutive pages starting at `first` (a cache-line
    /// fetch).
    pub fn read_line(&self, first: PageId, count: usize) -> Vec<PageFrame> {
        (first.0..first.0 + count as u64).map(|page| self.read(PageId(page))).collect()
    }

    /// The one way a page changes: `write` gets its frame — whose bytes
    /// it writes through [`PageFrame::bytes_mut`], copied first if a reader
    /// still holds them, or replaces whole — and the version moves on.
    /// Returns the new version.
    fn mutate(&mut self, id: PageId, write: impl FnOnce(&mut PageFrame)) -> u64 {
        let frame = self.pages.entry(id).or_insert_with(|| self.zero.clone());
        write(frame);
        frame.version += 1;
        frame.version
    }

    /// Apply an ordinary-region diff to a page (multiple-writer merge point).
    /// A diff that holds what it makes of the page's frame
    /// ([`Diff::result_over`]: a whole page, or runs taken against this
    /// very frame) is adopted: its shared bytes become the page's frame,
    /// and nothing is copied. Any other is applied. Returns the new version.
    pub fn apply_diff(&mut self, id: PageId, diff: &Diff) -> u64 {
        self.mutate(id, |frame| match diff.result_over(&frame.bytes) {
            Some(bytes) => frame.bytes = Arc::clone(bytes),
            None => diff.apply(frame.bytes_mut()),
        })
    }

    /// Apply a fine-grain (consistency-region) update. Returns the new
    /// version.
    ///
    /// # Panics
    /// Panics if the update overruns the page.
    pub fn apply_fine(&mut self, id: PageId, offset: u32, bytes: &[u8]) -> u64 {
        let start = offset as usize;
        let end = start + bytes.len();
        assert!(end <= self.page_size(), "fine-grain update out of page bounds");
        self.mutate(id, |frame| frame.bytes_mut()[start..end].copy_from_slice(bytes))
    }

    /// Overwrite a whole page (used by the whole-page consistency ablation).
    pub fn write_page(&mut self, id: PageId, bytes: &[u8]) -> u64 {
        assert_eq!(bytes.len(), self.page_size(), "whole-page write size mismatch");
        self.mutate(id, |frame| frame.bytes_mut().copy_from_slice(bytes))
    }

    /// Number of pages with a frame of their own: those written at least
    /// once. Reading materializes nothing, and superseded versions kept
    /// alive by readers are theirs, not the store's.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing store in those frames (the shared zero frame is not
    /// counted).
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * self.page_size()
    }
}

/// The fetch [`PageStore::read_line`] replaced, kept as its oracle: one
/// buffer per line, every page copied into it.
#[cfg(test)]
fn read_line_copying(store: &PageStore, first: PageId, count: usize) -> (Vec<u8>, Vec<u64>) {
    let mut data = Vec::with_capacity(count * store.page_size());
    let mut versions = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let frame = store.read(PageId(first.0 + i));
        versions.push(frame.version());
        data.extend_from_slice(frame.bytes());
    }
    (data, versions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_pages_read_as_one_shared_zero_frame() {
        let s = PageStore::new(4096);
        let f = s.read(PageId(7));
        assert!(f.bytes().iter().all(|&b| b == 0));
        assert_eq!(f.version(), 0);
        assert!(f.shares_bytes_with(&s.read(PageId(8))), "one zero frame serves every page");
        assert_eq!(s.resident_pages(), 0, "reading materializes nothing");
    }

    #[test]
    fn the_first_write_to_a_page_leaves_the_zero_frame_alone() {
        let mut s = PageStore::new(256);
        let zero = s.read(PageId(0));
        s.apply_fine(PageId(0), 0, &[1; 8]);
        assert!(zero.bytes().iter().all(|&b| b == 0));
        assert!(zero.shares_bytes_with(&s.read(PageId(1))));
        assert!(!zero.shares_bytes_with(&s.read(PageId(0))));
        assert_eq!((s.resident_pages(), s.resident_bytes()), (1, 256));
    }

    #[test]
    fn read_line_returns_each_pages_frame() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(1), 0, &[0xAA; 4]);
        let pages = s.read_line(PageId(0), 3);
        assert_eq!(pages.len(), 3);
        assert_eq!(&pages[1].bytes()[..4], &[0xAA; 4]);
        assert_eq!(pages.iter().map(PageFrame::version).collect::<Vec<_>>(), vec![0, 1, 0]);
        assert!(pages[1].shares_bytes_with(&s.read(PageId(1))), "a fetch copies nothing");
    }

    #[test]
    fn the_home_writes_in_place_unless_a_reader_holds_the_frame() {
        let mut s = PageStore::new(256);
        s.write_page(PageId(0), &[1; 256]);
        // Unshared: same allocation before and after.
        let at = s.read(PageId(0)).bytes().as_ptr();
        s.apply_fine(PageId(0), 0, &[2; 8]);
        let mut cur = [1u8; 256];
        cur[8..16].fill(3);
        s.apply_diff(PageId(0), &Diff::compute(&[1; 256], &cur));
        assert_eq!(s.read(PageId(0)).bytes().as_ptr(), at);
        // Shared: the reader keeps the version it fetched, bytes and all.
        let held = s.read(PageId(0));
        s.apply_fine(PageId(0), 16, &[4; 8]);
        let now = s.read(PageId(0));
        assert!(!held.shares_bytes_with(&now));
        assert_eq!((held.version(), now.version()), (3, 4));
        assert_eq!((&held.bytes()[16..24], &now.bytes()[16..24]), (&[1u8; 8][..], &[4u8; 8][..]));
        // The reader lets go: the next update is in place again.
        drop(held);
        let at = now.bytes().as_ptr();
        drop(now);
        s.write_page(PageId(0), &[5; 256]);
        assert_eq!(s.read(PageId(0)).bytes().as_ptr(), at);
    }

    #[test]
    fn a_whole_page_diff_is_adopted_and_a_later_partial_one_copies_it() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(0), 0, &[1; 8]);
        // Writer B fetches the page before writer A's update lands.
        let twin = s.read(PageId(0));
        // Writer A stored over the whole page: its diff is its frame.
        let a = PageFrame::new(&[0xA; 256], 0);
        let whole = a.whole_diff();
        assert!(a.backs(&whole));
        assert_eq!(s.apply_diff(PageId(0), &whole), 2, "the version moves on as for any update");
        assert!(s.read(PageId(0)).shares_bytes_with(&a), "adopted, not copied");
        drop(whole);
        // Writer B's partial diff, against its now stale twin, lands on a
        // copy: A still holds the frame.
        let mut b = twin.clone();
        b.bytes_mut()[16..24].fill(0xB);
        assert_eq!(s.apply_diff(PageId(0), &b.diff_since(&twin)), 3);
        let home = s.read(PageId(0));
        assert!(!home.shares_bytes_with(&a));
        assert!(!home.shares_bytes_with(&b), "a stale twin's diff is applied, not adopted");
        assert!(a.bytes().iter().all(|&x| x == 0xA), "writer A's bytes are untouched");
        assert_eq!((home.bytes()[0], home.bytes()[16]), (0xA, 0xB));
        // A dense diff of a twinned page is adopted the same way.
        let mut c = home.clone();
        c.bytes_mut().fill(0xC);
        let dense = c.diff_since(&home);
        assert!(c.backs(&dense));
        drop((twin, home));
        s.apply_diff(PageId(0), &dense);
        assert!(s.read(PageId(0)).shares_bytes_with(&c));
    }

    #[test]
    fn a_diff_against_the_homes_own_frame_is_adopted_and_one_against_a_stale_twin_copies() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(0), 0, &[1; 8]);
        // Two writers twin the home's frame and each store a word.
        let twin = s.read(PageId(0));
        let (mut a, mut b) = (twin.clone(), twin.clone());
        a.bytes_mut()[8..16].fill(0xA);
        b.bytes_mut()[24..32].fill(0xB);
        let (da, db) = (a.diff_since(&twin), b.diff_since(&twin));
        drop(twin);
        // A's lands over the very frame it was taken against: adopted.
        assert_eq!(s.apply_diff(PageId(0), &da), 2);
        assert!(s.read(PageId(0)).shares_bytes_with(&a), "adopted, not applied");
        // B's twin is stale now: its runs land on a copy of A's frame.
        assert_eq!(s.apply_diff(PageId(0), &db), 3);
        let home = s.read(PageId(0));
        assert!(!home.shares_bytes_with(&a) && !home.shares_bytes_with(&b));
        assert_eq!(&home.bytes()[..32], &[[1; 8], [0xA; 8], [0; 8], [0xB; 8]].concat()[..]);
        assert_eq!((a.bytes()[24], b.bytes()[8]), (0, 0), "neither writer's frame moved");
    }

    #[test]
    fn a_readers_own_write_never_reaches_the_home() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(0), 0, &[1; 8]);
        let mut mine = s.read(PageId(0));
        mine.bytes_mut()[0] = 9;
        assert_eq!(s.read(PageId(0)).bytes()[0], 1);
        assert!(!mine.shares_bytes_with(&s.read(PageId(0))));
    }

    #[test]
    fn diffs_bump_versions_and_merge() {
        let mut s = PageStore::new(256);
        let base = vec![0u8; 256];
        let mut w1 = base.clone();
        w1[0] = 1;
        let mut w2 = base.clone();
        w2[128] = 2;
        let v1 = s.apply_diff(PageId(0), &Diff::compute(&base, &w1));
        let v2 = s.apply_diff(PageId(0), &Diff::compute(&base, &w2));
        assert_eq!((v1, v2), (1, 2));
        let f = s.read(PageId(0));
        assert_eq!(f.bytes()[0], 1);
        assert_eq!(f.bytes()[128], 2);
    }

    #[test]
    fn fine_grain_updates_land_exactly() {
        let mut s = PageStore::new(4096);
        s.apply_fine(PageId(3), 100, &[9, 8, 7]);
        let f = s.read(PageId(3));
        assert_eq!(&f.bytes()[100..103], &[9, 8, 7]);
        assert_eq!(f.bytes()[99], 0);
        assert_eq!(f.bytes()[103], 0);
    }

    #[test]
    fn whole_page_write() {
        let mut s = PageStore::new(256);
        s.write_page(PageId(0), &[5u8; 256]);
        assert!(s.read(PageId(0)).bytes().iter().all(|&b| b == 5));
        assert_eq!(s.resident_bytes(), 256);
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn fine_grain_overrun_panics() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(0), 250, &[0; 16]);
    }

    #[test]
    #[should_panic(expected = "unreasonable page size")]
    fn bad_page_size_rejected() {
        let _ = PageStore::new(1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PS: usize = 256;
    const PAGES: u64 = 8;

    proptest! {
        /// Fetching by reference returns what the copying fetch returned —
        /// same bytes, same versions — and every frame handed out earlier
        /// still reads as it did when it was fetched, whatever the home has
        /// applied since. A writer's diff against a frame it holds — the
        /// home's current one or a stale one — leaves the page at what
        /// applying its runs to a copy of the home's bytes leaves.
        #[test]
        fn read_line_matches_the_copying_fetch(
            steps in proptest::collection::vec((0..PAGES, 0usize..PS - 8, any::<u8>(), 0u8..5), 1..60)
        ) {
            let mut store = PageStore::new(PS);
            let mut held: Vec<(PageFrame, Vec<u8>)> = Vec::new();
            for (page, offset, fill, kind) in steps {
                match kind {
                    0 => drop(store.apply_fine(PageId(page), offset as u32, &[fill; 8])),
                    1 => drop(store.write_page(PageId(page), &[fill; PS])),
                    2 => {
                        let twin = store.read(PageId(page));
                        let mut cur = twin.bytes().to_vec();
                        cur[offset] = fill;
                        store.apply_diff(PageId(page), &Diff::compute(twin.bytes(), &cur));
                    }
                    3 => {
                        // A twin: the home's frame now, or one fetched earlier.
                        let twin = if held.is_empty() || fill % 2 == 0 {
                            store.read(PageId(page))
                        } else {
                            held[offset % held.len()].0.clone()
                        };
                        let mut writer = twin.clone();
                        writer.bytes_mut()[offset..offset + 8].fill(fill);
                        let diff = writer.diff_since(&twin);
                        let mut want = store.read(PageId(page)).bytes().to_vec();
                        diff.apply(&mut want);
                        let version = store.read(PageId(page)).version() + 1;
                        prop_assert_eq!(store.apply_diff(PageId(page), &diff), version);
                        prop_assert_eq!(store.read(PageId(page)).bytes(), &want[..]);
                        let copy = writer.bytes().to_vec();
                        let twin_copy = twin.bytes().to_vec();
                        held.extend([(writer, copy), (twin, twin_copy)]);
                    }
                    _ => {
                        let first = PageId(page & !1);
                        let pages = store.read_line(first, 2);
                        let (data, versions) = read_line_copying(&store, first, 2);
                        prop_assert_eq!(pages.iter().map(PageFrame::version).collect::<Vec<_>>(), versions);
                        prop_assert_eq!(pages.iter().flat_map(|p| p.bytes()).copied().collect::<Vec<_>>(), data);
                        held.extend(pages.into_iter().map(|p| { let copy = p.bytes().to_vec(); (p, copy) }));
                    }
                }
                for (frame, copy) in &held {
                    prop_assert_eq!(frame.bytes(), &copy[..], "a held frame changed under its reader");
                }
            }
        }
    }
}
