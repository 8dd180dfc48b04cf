//! Hash maps keyed by page, line and token numbers.
//!
//! The keys are small integers the simulator hands out itself — nobody can
//! craft them to collide — so SipHash's flooding resistance buys nothing
//! here and costs a few dozen nanoseconds on every page-table probe. One
//! multiply is enough to spread consecutive integers over the table.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for keys that hash as one `u64` (`u64` itself,
/// [`crate::PageId`]).
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The matching `HashSet`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Fibonacci (multiplicative) hashing of integer keys.
#[derive(Copy, Clone, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table takes
        // its bucket from the low bits, so swap them round.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageId;

    #[test]
    fn behaves_like_a_map() {
        let mut m: IntMap<PageId, u64> = IntMap::default();
        for p in 0..10_000u64 {
            m.insert(PageId(p * 4), p);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|p| m.get(&PageId(p * 4)) == Some(&p)));
        assert_eq!(m.remove(&PageId(8)), Some(2));
        assert!(!m.contains_key(&PageId(8)) && !m.contains_key(&PageId(3)));
    }

    #[test]
    fn strided_keys_spread_over_buckets_and_tags() {
        // Line and page numbers arrive with power-of-two strides (striping,
        // line size): neither the low bits (bucket) nor the top seven (the
        // table's tag) may collapse.
        for stride in [1u64, 4, 64, 4096, 1 << 20] {
            let hashes: Vec<u64> = (0..1024u64)
                .map(|i| {
                    let mut h = IntHasher::default();
                    h.write_u64(i * stride);
                    h.finish()
                })
                .collect();
            let buckets: IntSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let tags: IntSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(buckets.len() > 512, "stride {stride}: {} buckets of 1024", buckets.len());
            assert!(tags.len() > 64, "stride {stride}: {} tags of 128", tags.len());
        }
    }
}
