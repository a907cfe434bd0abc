//! A fast hasher for word-keyed maps on the analysis hot paths.
//!
//! [`crate::PageMap`] indexes its pages by page number (guest memory and
//! the dependency table both keep their pages there), and the ISA
//! back-ends key their decode caches by guest address. These maps are
//! touched once or twice per retired instruction — hundreds of millions
//! of lookups at paper scale, though the page map's cache answers most of
//! its own. The default SipHash is DoS-hardened but slow for this; a
//! splitmix64 finalizer is ample for guest-address keys (the "attacker" is
//! our own workload generator).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by u64 keys, kept correct anyway).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // splitmix64 finalizer: excellent low-bit diffusion (hashbrown
        // selects buckets from the low bits) at a few cycles per key.
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by guest words using [`WordHasher`].
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_behaves_like_hashmap() {
        let mut m: WordMap<u64> = WordMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 8, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 8)), Some(&i));
        }
        m.remove(&80);
        assert_eq!(m.get(&80), None);
    }

    #[test]
    fn aligned_addresses_spread() {
        // 8-byte-aligned keys must not collapse onto few buckets: check the
        // low bits of hashes differ across a stride-8 sequence.
        use std::hash::Hash;
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            let mut h = WordHasher::default();
            (i * 8).hash(&mut h);
            low_bits.insert(h.finish() & 0x3F);
        }
        assert!(
            low_bits.len() > 32,
            "only {} distinct low-6-bit patterns",
            low_bits.len()
        );
    }
}
