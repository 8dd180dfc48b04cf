//! The versioned page store backing one memory server.
//!
//! Pages materialize zero-filled on first touch (like anonymous memory) and
//! carry a version counter bumped by every mutation; versions let the cache
//! side detect stale prefetches and make the protocol auditable in tests.

use samhita_regc::Diff;

use crate::intmap::IntMap;
use crate::page::PageId;

/// One stored page.
#[derive(Clone, Debug)]
pub struct PageFrame {
    bytes: Box<[u8]>,
    version: u64,
}

impl PageFrame {
    fn zeroed(page_size: usize) -> Self {
        PageFrame { bytes: vec![0u8; page_size].into_boxed_slice(), version: 0 }
    }

    /// The page contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutation count.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// All pages homed on one memory server.
#[derive(Debug)]
pub struct PageStore {
    pages: IntMap<PageId, PageFrame>,
    page_size: usize,
}

impl PageStore {
    /// An empty store serving pages of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64 && page_size.is_power_of_two(), "unreasonable page size");
        PageStore { pages: IntMap::default(), page_size }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Read a page, materializing it zero-filled if never touched.
    pub fn read(&mut self, id: PageId) -> &PageFrame {
        let ps = self.page_size;
        self.pages.entry(id).or_insert_with(|| PageFrame::zeroed(ps))
    }

    /// Read `count` consecutive pages starting at `first` into one buffer
    /// (a cache-line fetch), returning the buffer and per-page versions.
    pub fn read_line(&mut self, first: PageId, count: usize) -> (Vec<u8>, Vec<u64>) {
        let mut data = Vec::with_capacity(count * self.page_size);
        let mut versions = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let frame = self.read(PageId(first.0 + i));
            versions.push(frame.version());
            data.extend_from_slice(frame.bytes());
        }
        (data, versions)
    }

    /// Apply an ordinary-region diff to a page (multiple-writer merge point).
    /// Returns the new version.
    pub fn apply_diff(&mut self, id: PageId, diff: &Diff) -> u64 {
        let ps = self.page_size;
        let frame = self.pages.entry(id).or_insert_with(|| PageFrame::zeroed(ps));
        diff.apply(&mut frame.bytes);
        frame.version += 1;
        frame.version
    }

    /// Apply a fine-grain (consistency-region) update. Returns the new
    /// version.
    ///
    /// # Panics
    /// Panics if the update overruns the page.
    pub fn apply_fine(&mut self, id: PageId, offset: u32, bytes: &[u8]) -> u64 {
        let ps = self.page_size;
        let frame = self.pages.entry(id).or_insert_with(|| PageFrame::zeroed(ps));
        let start = offset as usize;
        let end = start + bytes.len();
        assert!(end <= ps, "fine-grain update out of page bounds");
        frame.bytes[start..end].copy_from_slice(bytes);
        frame.version += 1;
        frame.version
    }

    /// Overwrite a whole page (used by the whole-page consistency ablation).
    pub fn write_page(&mut self, id: PageId, bytes: &[u8]) -> u64 {
        assert_eq!(bytes.len(), self.page_size, "whole-page write size mismatch");
        let ps = self.page_size;
        let frame = self.pages.entry(id).or_insert_with(|| PageFrame::zeroed(ps));
        frame.bytes.copy_from_slice(bytes);
        frame.version += 1;
        frame.version
    }

    /// Number of materialized pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing store in use.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_zero_filled() {
        let mut s = PageStore::new(4096);
        let f = s.read(PageId(7));
        assert!(f.bytes().iter().all(|&b| b == 0));
        assert_eq!(f.version(), 0);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn read_line_concatenates_pages() {
        let mut s = PageStore::new(256);
        s.apply_fine(PageId(1), 0, &[0xAA; 4]);
        let (data, versions) = s.read_line(PageId(0), 3);
        assert_eq!(data.len(), 3 * 256);
        assert_eq!(&data[256..260], &[0xAA; 4]);
        assert_eq!(versions, vec![0, 1, 0]);
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
