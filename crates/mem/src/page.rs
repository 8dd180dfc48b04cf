//! Page identifiers and constants.

/// Default page size, matching the 4 KiB host pages the original system
/// managed with `mprotect`.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A global page number: `global address / page size`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The page containing global byte address `addr`.
    #[inline]
    pub fn of_addr(addr: u64, page_size: usize) -> PageId {
        PageId(addr / page_size as u64)
    }

    /// First byte address of this page.
    #[inline]
    pub fn base_addr(self, page_size: usize) -> u64 {
        self.0 * page_size as u64
    }
}

impl From<u64> for PageId {
    fn from(v: u64) -> Self {
        PageId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_roundtrip() {
        let ps = DEFAULT_PAGE_SIZE;
        assert_eq!(PageId::of_addr(0, ps), PageId(0));
        assert_eq!(PageId::of_addr(4095, ps), PageId(0));
        assert_eq!(PageId::of_addr(4096, ps), PageId(1));
        assert_eq!(PageId(3).base_addr(ps), 3 * 4096);
    }

    #[test]
    fn works_with_non_default_page_sizes() {
        assert_eq!(PageId::of_addr(1023, 1024), PageId(0));
        assert_eq!(PageId::of_addr(1024, 1024), PageId(1));
        assert_eq!(PageId(2).base_addr(256), 512);
    }
}
