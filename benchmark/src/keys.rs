//! Seeded keys. `mix64` is a bijection, so two different `(stream,
//! index)` pairs never give the same key under one seed: sets that must
//! be disjoint take different streams, and a churn chunk can be built
//! again from its index when the time comes to delete it.

use peel_graph::rng::mix64;

#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    base: u64,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        KeySpace {
            base: mix64(seed ^ 0x6b65_795f_7370_6163),
        }
    }

    /// Streams are below 2²⁴ and indices below 2⁴⁰.
    pub fn key(&self, stream: u64, index: u64) -> u64 {
        debug_assert!(stream < 1 << 24 && index < 1 << 40);
        mix64(self.base.wrapping_add(stream << 40).wrapping_add(index))
    }

    pub fn range(&self, stream: u64, indices: std::ops::Range<u64>) -> Vec<u64> {
        indices.map(|i| self.key(stream, i)).collect()
    }

    /// Order-free summary of a key set: equal sets give equal
    /// fingerprints, and different ones collide with probability about
    /// 2⁻⁶⁴. Lets every repetition be checked without a sort.
    pub fn fingerprint(keys: &[u64]) -> (usize, u64, u64) {
        let mut xor = 0u64;
        let mut sum = 0u64;
        for &k in keys {
            xor ^= k;
            sum = sum.wrapping_add(mix64(k));
        }
        (keys.len(), xor, sum)
    }
}
