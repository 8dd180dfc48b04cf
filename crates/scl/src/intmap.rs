//! Hash maps keyed by page, line, token and thread numbers.
//!
//! The keys are small integers the simulator hands out itself — nobody can
//! craft them to collide — so SipHash's flooding resistance buys nothing
//! here and costs a few dozen nanoseconds on every page-table probe (and
//! on every trace event the invariant checker files). One multiply per
//! integer is enough to spread consecutive integers over the table.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for keys that hash as integers: `u64` itself, a page id, or
/// a tuple of them such as `(tid, page)`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The matching `HashSet`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Fibonacci (multiplicative) hashing of integer keys.
#[derive(Copy, Clone, Debug, Default)]
pub struct IntHasher(u64);

// Inlined into the page tables and maps of the crates that use them; the
// calls must not cost more than the hashing.
impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table takes
        // its bucket from the low bits, so swap them round.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for p in 0..10_000u64 {
            m.insert(p * 4, p);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|p| m.get(&(p * 4)) == Some(&p)));
        assert_eq!(m.remove(&8), Some(2));
        assert!(!m.contains_key(&8) && !m.contains_key(&3));
        // Tuple keys hash field by field.
        let pairs: IntMap<(u32, u64), u64> = (0..64u32).map(|t| ((t, 7), u64::from(t))).collect();
        assert!((0..64u32).all(|t| pairs.get(&(t, 7)) == Some(&u64::from(t))));
        assert!(!pairs.contains_key(&(64, 7)) && !pairs.contains_key(&(0, 8)));
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
