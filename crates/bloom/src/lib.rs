//! # bloom — content summaries for petal gossip
//!
//! Flower-CDN content peers "periodically exchange contacts ... and
//! **summaries of their stored content**" (§3.1), and a freshly promoted
//! directory peer answers its first queries "from its content summaries
//! previously received during gossip exchanges" (§6.2.1). The paper does not
//! prescribe a summary encoding; the standard choice for web-cache
//! summaries — and the one used by the related summary-cache literature —
//! is the **Bloom filter**, which is what we implement here:
//! [`BloomFilter`], the classic insert-only filter used as the on-wire
//! summary (compact, unionable).

pub mod hash;

use hash::{base_hashes, nth_hash};

/// An insert-only Bloom filter over `u64` keys.
///
/// Keys are item identifiers (e.g. an encoded `ObjectId`); the filter
/// guarantees **no false negatives** and a tunable false-positive rate.
///
/// ```
/// use bloom::BloomFilter;
/// let mut summary = BloomFilter::with_rate(100, 0.01);
/// summary.insert(42);
/// assert!(summary.contains(42));        // never a false negative
/// assert!(summary.estimated_fpp() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
    items: usize,
}

impl BloomFilter {
    /// Create a filter sized for `expected_items` at the target
    /// `false_positive_rate` using the standard optimal formulas
    /// `m = -n·ln(p)/ln(2)²` and `k = (m/n)·ln(2)`.
    pub fn with_rate(expected_items: usize, false_positive_rate: f64) -> BloomFilter {
        assert!(
            (1e-10..1.0).contains(&false_positive_rate),
            "false positive rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * false_positive_rate.ln()) / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        BloomFilter::with_params(m.max(64), k)
    }

    /// Create a filter with explicit bit count `m` and hash count `k`.
    pub fn with_params(m: usize, k: u32) -> BloomFilter {
        assert!(m > 0 && k > 0);
        BloomFilter {
            bits: vec![0; m.div_ceil(64)],
            m,
            k,
            items: 0,
        }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let hashes = base_hashes(key);
        for i in 0..self.k {
            let idx = (nth_hash(hashes, u64::from(i)) % self.m as u64) as usize;
            self.bits[idx / 64] |= 1 << (idx % 64);
        }
        self.items += 1;
    }

    /// Query a key. `false` is definite; `true` may be a false positive.
    pub fn contains(&self, key: u64) -> bool {
        self.contains_hashed(base_hashes(key))
    }

    /// [`BloomFilter::contains`] for a key whose [`hash::base_hashes`] the
    /// caller already has: hash once, probe many filters.
    pub fn contains_hashed(&self, hashes: (u64, u64)) -> bool {
        (0..self.k).all(|i| {
            let idx = (nth_hash(hashes, u64::from(i)) % self.m as u64) as usize;
            self.bits[idx / 64] & (1 << (idx % 64)) != 0
        })
    }

    /// Number of bits `m`.
    pub fn bit_len(&self) -> usize {
        self.m
    }

    /// Number of hash functions `k`.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Inserts performed (not distinct keys).
    pub fn inserted(&self) -> usize {
        self.items
    }

    /// Fraction of bits set — a load indicator.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / self.m as f64
    }

    /// Estimated false-positive probability at the current fill:
    /// `(fill_ratio)^k`.
    pub fn estimated_fpp(&self) -> f64 {
        self.fill_ratio().powi(self.k as i32)
    }

    /// In-place union with a filter of identical parameters. Useful when a
    /// directory peer merges summaries from several content peers.
    ///
    /// # Panics
    /// If the parameters differ.
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!(self.m, other.m, "bloom union requires equal m");
        assert_eq!(self.k, other.k, "bloom union requires equal k");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        self.items += other.items;
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.items = 0;
    }

    /// The raw bit words, for serialization.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a filter from serialized parts (the inverse of reading
    /// [`BloomFilter::bit_len`], [`BloomFilter::hash_count`],
    /// [`BloomFilter::inserted`] and [`BloomFilter::words`]).
    ///
    /// Returns `None` if the word count does not match `m` or either
    /// parameter is zero, so codecs can reject malformed frames without
    /// panicking.
    pub fn from_parts(m: usize, k: u32, items: usize, words: Vec<u64>) -> Option<BloomFilter> {
        if m == 0 || k == 0 || words.len() != m.div_ceil(64) {
            return None;
        }
        Some(BloomFilter {
            bits: words,
            m,
            k,
            items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_false_negatives_basic() {
        let mut b = BloomFilter::with_rate(1_000, 0.01);
        for k in 0..1_000u64 {
            b.insert(k * 7 + 3);
        }
        for k in 0..1_000u64 {
            assert!(b.contains(k * 7 + 3));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut b = BloomFilter::with_rate(500, 0.01);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let members: Vec<u64> = (0..500).map(|_| rng.gen()).collect();
        for &m in &members {
            b.insert(m);
        }
        let mut fp = 0u32;
        let trials = 20_000u32;
        for _ in 0..trials {
            let probe: u64 = rng.gen();
            if !members.contains(&probe) && b.contains(probe) {
                fp += 1;
            }
        }
        let rate = f64::from(fp) / f64::from(trials);
        assert!(rate < 0.03, "measured fp rate {rate}");
        assert!(b.estimated_fpp() < 0.03);
    }

    #[test]
    fn union_contains_both_sides() {
        let mut a = BloomFilter::with_params(1024, 4);
        let mut b = BloomFilter::with_params(1024, 4);
        a.insert(1);
        a.insert(2);
        b.insert(3);
        a.union(&b);
        assert!(a.contains(1) && a.contains(2) && a.contains(3));
        assert_eq!(a.inserted(), 3);
    }

    #[test]
    #[should_panic(expected = "equal m")]
    fn union_mismatched_panics() {
        let mut a = BloomFilter::with_params(1024, 4);
        let b = BloomFilter::with_params(512, 4);
        a.union(&b);
    }

    #[test]
    fn clear_resets() {
        let mut b = BloomFilter::with_params(256, 3);
        b.insert(42);
        assert!(b.contains(42));
        b.clear();
        assert!(!b.contains(42));
        assert_eq!(b.fill_ratio(), 0.0);
    }

    #[test]
    fn sizing_formula_sane() {
        let b = BloomFilter::with_rate(1_000, 0.01);
        // ~9.6 bits per item for p=0.01.
        assert!((9_000..11_000).contains(&b.bit_len()), "{}", b.bit_len());
        assert!((6..=8).contains(&b.hash_count()), "{}", b.hash_count());
    }

    /// `hash::double_hash` and the probe loop as they were before
    /// `base_hashes` (11a0052), verbatim: the oracle for hash-once probing.
    fn double_hash_rehashing(key: u64, i: u64) -> u64 {
        let h1 = hash::hash_u64(key, 0x5bd1_e995);
        let h2 = hash::hash_u64(key, 0xc2b2_ae35) | 1; // odd, so it cycles all slots
        h1.wrapping_add(i.wrapping_mul(h2))
    }

    fn slots_rehashing(b: &BloomFilter, key: u64) -> impl Iterator<Item = usize> + '_ {
        (0..b.k).map(move |i| (double_hash_rehashing(key, u64::from(i)) % b.m as u64) as usize)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_hash_once_probes_like_rehashing(
            m in 1usize..5_000,
            k in 1u32..12,
            members in proptest::collection::vec(any::<u64>(), 0..200),
            probes in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut b = BloomFilter::with_params(m, k);
            let mut old = BloomFilter::with_params(m, k);
            for &key in &members {
                b.insert(key);
                let slots: Vec<usize> = slots_rehashing(&old, key).collect();
                for idx in slots {
                    old.bits[idx / 64] |= 1 << (idx % 64);
                }
                old.items += 1;
                prop_assert_eq!(hash::double_hash(key, 3), double_hash_rehashing(key, 3));
            }
            prop_assert_eq!(&b, &old, "insert sets other bits than it used to");
            // Small keys collide with set bits far more often than random ones.
            for key in members.iter().chain(&probes).copied().chain(0..64) {
                let was = slots_rehashing(&b, key).all(|idx| b.bits[idx / 64] & (1 << (idx % 64)) != 0);
                prop_assert_eq!(b.contains_hashed(hash::base_hashes(key)), was);
                prop_assert_eq!(b.contains(key), was);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_no_false_negatives(keys in proptest::collection::vec(any::<u64>(), 1..400)) {
            let mut b = BloomFilter::with_rate(400, 0.02);
            for &k in &keys { b.insert(k); }
            for &k in &keys { prop_assert!(b.contains(k)); }
        }

        #[test]
        fn prop_union_is_superset(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            ys in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut a = BloomFilter::with_params(4096, 5);
            let mut b = BloomFilter::with_params(4096, 5);
            for &k in &xs { a.insert(k); }
            for &k in &ys { b.insert(k); }
            let mut u = a.clone();
            u.union(&b);
            for &k in xs.iter().chain(ys.iter()) {
                prop_assert!(u.contains(k));
            }
        }

        #[test]
        fn prop_fill_ratio_bounded(keys in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut b = BloomFilter::with_params(2048, 4);
            for &k in &keys { b.insert(k); }
            let f = b.fill_ratio();
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(b.estimated_fpp() <= 1.0);
        }
    }
}
