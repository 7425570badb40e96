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

use std::fmt;

use hash::{base_hashes, nth_hash};

/// The most hash functions a filter may use. [`BloomFilter::with_rate`]
/// never asks for more than 34 (at its 1e-10 floor); a filter decoded from
/// a frame that asks for more is refused, so no probe of a hostile summary
/// runs for billions of steps.
pub const MAX_HASHES: u32 = 64;

/// The largest `m` whose bit positions all fit a `u16`.
const SPARSE_MAX_BITS: usize = 1 << 16;

/// An insert-only Bloom filter over `u64` keys.
///
/// Keys are item identifiers (e.g. an encoded `ObjectId`); the filter
/// guarantees **no false negatives** and a tunable false-positive rate.
///
/// The set bits are kept in whichever of two forms is smaller (Roaring's
/// array-versus-bitmap container): their ascending `u16` positions behind
/// a 16-byte bucket mask while those undercut eight bytes a word and
/// `m ≤ 2¹⁶`, the bit words otherwise. The form is a function of `m` and
/// the bits alone and every mutation restores it, so equal filters compare
/// equal, and [`BloomFilter::words`] and `Debug` read the same in either
/// form.
///
/// ```
/// use bloom::BloomFilter;
/// let mut summary = BloomFilter::with_rate(100, 0.01);
/// summary.insert(42);
/// assert!(summary.contains(42));        // never a false negative
/// assert!(summary.estimated_fpp() < 0.01);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Bits,
    m: u32,
    k: u32,
    items: usize,
}

/// The set bits of a filter, in the form [`Bits::fits_sparse`] picks.
#[derive(Clone, PartialEq, Eq)]
enum Bits {
    /// Nothing when no bit is set; otherwise a [`Mask`] of
    /// [`MASK_LEN`] `u16`s, then the positions of the set bits, ascending.
    Sparse(Box<[u16]>),
    /// Bit `i` is bit `i % 64` of word `i / 64`.
    Dense(Box<[u64]>),
}

/// The `u16`s of a sparse filter's bucket mask: 128 buckets.
const MASK_LEN: usize = 8;

fn word_count(m: u32) -> usize {
    (m as usize).div_ceil(64)
}

fn set(words: &mut [u64], at: usize) {
    words[at / 64] |= 1 << (at % 64);
}

fn is_set(words: &[u64], at: usize) -> bool {
    words[at / 64] & (1 << (at % 64)) != 0
}

/// A sparse filter's mask of 128 buckets of sixteen positions each (a
/// quarter word; positions past 2 032 share the last bucket): a bucket's
/// bit is set exactly when one of the positions falls in it, so a probe
/// with a position in an empty bucket misses without searching the
/// positions — a key that is not in a ten-object summary almost always
/// does.
#[derive(Clone, Copy, Default)]
struct Mask([u64; 2]);

impl Mask {
    fn add(&mut self, at: usize) {
        let bucket = (at / 16).min(127);
        self.0[bucket / 64] |= 1 << (bucket % 64);
    }

    /// Add the set bits of word `i`.
    fn add_word(&mut self, i: usize, word: u64) {
        if i < 32 {
            // Bit j of `quarters`: whether quarter j of the word has a bit.
            let quarter = |j: u32| u64::from(word >> (16 * j) & 0xffff != 0) << j;
            let quarters = quarter(0) | quarter(1) | quarter(2) | quarter(3);
            self.0[i / 16] |= quarters << (4 * (i % 16));
        } else {
            self.0[1] |= u64::from(word != 0) << 63;
        }
    }

    /// As a sparse form keeps it, in its first [`MASK_LEN`] `u16`s.
    fn parts(self) -> [u16; MASK_LEN] {
        std::array::from_fn(|i| (self.0[i / 4] >> (16 * (i % 4))) as u16)
    }
}

/// The `k` probe positions in an `m`-bit filter of a key with base hashes
/// `hashes`, in probe order.
fn positions(hashes: (u64, u64), m: u32, k: u32) -> impl Iterator<Item = usize> {
    (0..u64::from(k)).map(move |i| (nth_hash(hashes, i) % u64::from(m)) as usize)
}

impl Bits {
    /// Whether `ones` set bits of an `m`-bit filter are kept as positions:
    /// every position fits a `u16`, and the positions with their mask take
    /// fewer bytes than the words (two a position and sixteen of mask
    /// against eight a word).
    fn fits_sparse(m: u32, ones: usize) -> bool {
        m as usize <= SPARSE_MAX_BITS && 2 * (MASK_LEN + ones) < 8 * word_count(m)
    }

    /// No bit set. The sparse empty form allocates nothing.
    fn empty(m: u32) -> Bits {
        if Bits::fits_sparse(m, 0) {
            Bits::Sparse(Box::default())
        } else {
            Bits::Dense(vec![0; word_count(m)].into_boxed_slice())
        }
    }

    /// The sparse form of the ascending `positions` of a filter's set
    /// bits, whose [`Mask`] is `mask`, in one exact allocation.
    fn sparse(mask: Mask, positions: &[u16]) -> Bits {
        if positions.is_empty() {
            return Bits::Sparse(Box::default());
        }
        let mut bits = Vec::with_capacity(MASK_LEN + positions.len());
        bits.extend_from_slice(&mask.parts());
        bits.extend_from_slice(positions);
        Bits::Sparse(bits.into_boxed_slice())
    }

    /// The bits of `words`, of which `ones` are set, in their form and one
    /// exact allocation.
    fn from_words(m: u32, words: &[u64], ones: usize) -> Bits {
        if !Bits::fits_sparse(m, ones) {
            return Bits::Dense(words.into());
        }
        if ones == 0 {
            return Bits::Sparse(Box::default());
        }
        // The positions are read with as few branches on the bits as may
        // be: only words with a bit are visited (up to 64 words, their
        // indices are the set bits of `occupied`), four slots a word are
        // written whether or not the word has that many bits, and the count
        // moves on by the bits it had.
        with_scratch::<u16, 264, _>(ones + 4, |slots| {
            let (mut n, mut mask) = (0, Mask::default());
            let mut take = |i: usize, word: u64| {
                let base = (i * 64) as u16;
                let mut rest = word;
                for _ in 0..4 {
                    slots[n] = base.wrapping_add(rest.trailing_zeros() as u16);
                    n += usize::from(rest != 0);
                    rest &= rest.wrapping_sub(1);
                }
                while rest != 0 {
                    slots[n] = base + rest.trailing_zeros() as u16;
                    n += 1;
                    rest &= rest - 1;
                }
                mask.add_word(i, word);
            };
            if words.len() <= 64 {
                let set = words.iter().enumerate();
                let mut occupied = set.fold(0u64, |o, (i, &w)| o | u64::from(w != 0) << i);
                while occupied != 0 {
                    let i = occupied.trailing_zeros() as usize;
                    take(i, words[i]);
                    occupied &= occupied - 1;
                }
            } else {
                words
                    .iter()
                    .enumerate()
                    .for_each(|(i, &word)| take(i, word));
            }
            Bits::sparse(mask, &slots[..ones])
        })
    }

    /// The bits at the ascending, repeat-free positions `a` and `b`
    /// together, of which there are `ones`, in their form and one exact
    /// allocation.
    fn merged(m: u32, a: &[u16], b: &[u16], ones: usize) -> Bits {
        if Bits::fits_sparse(m, ones) {
            with_scratch::<u16, 264, _>(ones, |slots| {
                let mut next = slots.iter_mut();
                let mut mask = Mask::default();
                merge(a, b, |at| {
                    *next.next().expect("a slot for every set bit") = at;
                    mask.add(at.into());
                });
                Bits::sparse(mask, slots)
            })
        } else {
            let mut words = vec![0; word_count(m)].into_boxed_slice();
            a.iter().chain(b).for_each(|&at| set(&mut words, at.into()));
            Bits::Dense(words)
        }
    }

    /// The positions of a sparse form's set bits, ascending.
    fn positions(sparse: &[u16]) -> &[u16] {
        sparse.get(MASK_LEN..).unwrap_or_default()
    }

    fn ones(&self) -> usize {
        match self {
            Bits::Sparse(bits) => Bits::positions(bits).len(),
            Bits::Dense(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether every position of `at` (each below `m`) is set; `need` is
    /// the mask of their buckets.
    fn all_set(&self, at: &[u32], need: &[u16; MASK_LEN]) -> bool {
        match self {
            Bits::Sparse(bits) => {
                let Some((mask, positions)) = bits.split_first_chunk::<MASK_LEN>() else {
                    return false;
                };
                let missing = (0..MASK_LEN).fold(0, |or, i| or | need[i] & !mask[i]);
                missing == 0
                    && at
                        .iter()
                        .all(|&at| positions.binary_search(&(at as u16)).is_ok())
            }
            Bits::Dense(words) => at.iter().all(|&at| is_set(words, at as usize)),
        }
    }
}

/// `f` of `len` zeroed values: on the stack up to `N`, on the heap past it.
fn with_scratch<T: Copy + Default, const N: usize, R>(
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    let mut on_stack = [T::default(); N];
    match on_stack.get_mut(..len) {
        Some(scratch) => f(scratch),
        None => f(&mut vec![T::default(); len]),
    }
}

/// Calls `emit` with the ascending union of the ascending, repeat-free
/// lists `a` and `b`, each value once.
fn merge(a: &[u16], b: &[u16], mut emit: impl FnMut(u16)) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        emit(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a[i..].iter().chain(&b[j..]).for_each(|&at| emit(at));
}

/// `m` as stored, after the checks every constructor makes.
fn checked_shape(m: usize, k: u32) -> u32 {
    assert!(m > 0 && k > 0);
    assert!(k <= MAX_HASHES, "bloom k above {MAX_HASHES}");
    u32::try_from(m).expect("bloom m fits a u32")
}

/// The standard optimal shape `(m, k)` for `expected_items` at the target
/// `false_positive_rate`: `m = -n·ln(p)/ln(2)²` (at least 64) and
/// `k = (m/n)·ln(2)`.
pub fn optimal_shape(expected_items: usize, false_positive_rate: f64) -> (usize, u32) {
    assert!(
        (1e-10..1.0).contains(&false_positive_rate),
        "false positive rate must be in (0, 1)"
    );
    let n = expected_items.max(1) as f64;
    let ln2 = std::f64::consts::LN_2;
    let m = (-(n * false_positive_rate.ln()) / (ln2 * ln2)).ceil() as usize;
    let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
    (m.max(64), k)
}

impl BloomFilter {
    /// Create a filter of the [`optimal_shape`] for `expected_items` at the
    /// target `false_positive_rate`.
    pub fn with_rate(expected_items: usize, false_positive_rate: f64) -> BloomFilter {
        let (m, k) = optimal_shape(expected_items, false_positive_rate);
        BloomFilter::with_params(m, k)
    }

    /// Create a filter with explicit bit count `m` and hash count `k`.
    pub fn with_params(m: usize, k: u32) -> BloomFilter {
        let m = checked_shape(m, k);
        BloomFilter {
            bits: Bits::empty(m),
            m,
            k,
            items: 0,
        }
    }

    /// A filter of shape `(m, k)` holding `keys`: what inserting them one
    /// by one into [`BloomFilter::with_params`] gives, built in one pass
    /// over a scratch of words (on the stack up to 4 096 bits) with one
    /// exact allocation.
    pub fn from_keys(m: usize, k: u32, keys: impl IntoIterator<Item = u64>) -> BloomFilter {
        let m = checked_shape(m, k);
        let (mut items, mut ones) = (0, 0);
        let bits = with_scratch::<u64, 64, _>(word_count(m), |words| {
            // `for_each`, not `for`: a nested iterator (a store's object
            // set) runs as nested loops.
            keys.into_iter().for_each(|key| {
                items += 1;
                for at in positions(base_hashes(key), m, k) {
                    ones += usize::from(!is_set(words, at));
                    set(words, at);
                }
            });
            Bits::from_words(m, words, ones)
        });
        BloomFilter { bits, m, k, items }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let add = positions(base_hashes(key), self.m, self.k);
        match &mut self.bits {
            Bits::Dense(words) => add.for_each(|at| set(words, at)),
            Bits::Sparse(have) => {
                let have = Bits::positions(have);
                let mut new = [0u16; MAX_HASHES as usize];
                let mut fresh = 0;
                for at in add.map(|at| at as u16) {
                    if have.binary_search(&at).is_err() && !new[..fresh].contains(&at) {
                        new[fresh] = at;
                        fresh += 1;
                    }
                }
                if fresh > 0 {
                    let new = &mut new[..fresh];
                    new.sort_unstable();
                    self.bits = Bits::merged(self.m, have, new, have.len() + fresh);
                }
            }
        }
        self.items += 1;
    }

    /// Query a key. `false` is definite; `true` may be a false positive.
    /// To probe many filters for one key, see [`Probe`].
    pub fn contains(&self, key: u64) -> bool {
        match &self.bits {
            // A division a probe, up to the first unset bit.
            Bits::Dense(words) => {
                positions(base_hashes(key), self.m, self.k).all(|at| is_set(words, at))
            }
            Bits::Sparse(_) => Probe::new(key).hits(self),
        }
    }

    /// Number of bits `m`.
    pub fn bit_len(&self) -> usize {
        self.m as usize
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
        self.bits.ones() as f64 / f64::from(self.m)
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
        match (&mut self.bits, &other.bits) {
            (Bits::Dense(words), Bits::Dense(theirs)) => {
                for (a, b) in words.iter_mut().zip(theirs.iter()) {
                    *a |= b;
                }
            }
            (Bits::Dense(words), Bits::Sparse(theirs)) => {
                let theirs = Bits::positions(theirs).iter();
                theirs.for_each(|&at| set(words, usize::from(at)));
            }
            // `other` is dense, so it already has too many bits to be sparse.
            (Bits::Sparse(have), Bits::Dense(theirs)) => {
                let mut words = theirs.clone();
                let have = Bits::positions(have).iter();
                have.for_each(|&at| set(&mut words, usize::from(at)));
                self.bits = Bits::Dense(words);
            }
            (Bits::Sparse(have), Bits::Sparse(theirs)) => {
                let (have, theirs) = (Bits::positions(have), Bits::positions(theirs));
                let mut ones = 0;
                merge(have, theirs, |_| ones += 1);
                self.bits = Bits::merged(self.m, have, theirs, ones);
            }
        }
        self.items += other.items;
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.bits = Bits::empty(self.m);
        self.items = 0;
    }

    /// The bit words, for serialization: bit `i` is bit `i % 64` of word
    /// `i / 64`, whichever form the filter keeps.
    pub fn words(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        // The sparse form's positions are consumed word by word, in order.
        let mut next = 0;
        (0..word_count(self.m)).map(move |i| match &self.bits {
            Bits::Dense(words) => words[i],
            Bits::Sparse(bits) => {
                let positions = Bits::positions(bits);
                let mut word = 0;
                while let Some(&at) = positions.get(next).filter(|&&at| usize::from(at) / 64 == i) {
                    word |= 1 << (at % 64);
                    next += 1;
                }
                word
            }
        })
    }

    /// Rebuild a filter from serialized parts (the inverse of reading
    /// [`BloomFilter::bit_len`], [`BloomFilter::hash_count`],
    /// [`BloomFilter::inserted`] and [`BloomFilter::words`]).
    ///
    /// Returns `None` if the word count does not match `m`, either
    /// parameter is zero, `k` exceeds [`MAX_HASHES`] or `m` a `u32`, so
    /// codecs can reject malformed frames without panicking.
    pub fn from_parts(m: usize, k: u32, items: usize, words: Vec<u64>) -> Option<BloomFilter> {
        if m == 0 || k == 0 || k > MAX_HASHES || words.len() != m.div_ceil(64) {
            return None;
        }
        let m = u32::try_from(m).ok()?;
        let ones = words.iter().map(|w| w.count_ones() as usize).sum();
        Some(BloomFilter {
            bits: Bits::from_words(m, &words, ones),
            m,
            k,
            items,
        })
    }
}

/// The text `#[derive(Debug)]` gave when the bits were one `Vec<u64>`:
/// traces and replay digests hash it.
impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Words<'a>(&'a BloomFilter);
        impl fmt::Debug for Words<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.words()).finish()
            }
        }
        f.debug_struct("BloomFilter")
            .field("bits", &Words(self))
            .field("m", &self.m)
            .field("k", &self.k)
            .field("items", &self.items)
            .finish()
    }
}

/// One key probed against many filters: its base hashes are computed once,
/// and its `k` probe positions and their buckets once per filter shape
/// `(m, k)` — a whole-petal view of summaries mostly shares one shape.
///
/// ```
/// use bloom::{BloomFilter, Probe};
/// let mut a = BloomFilter::with_params(1024, 4);
/// a.insert(7);
/// let b = BloomFilter::with_params(1024, 4);
/// let mut probe = Probe::new(7);
/// assert!(probe.hits(&a) && !probe.hits(&b));
/// ```
pub struct Probe {
    hashes: (u64, u64),
    /// The `(m, k)` that `at` holds the positions for; `m = 0` before the
    /// first filter, as no filter has.
    shape: (u32, u32),
    /// The first `k` are the probe positions.
    at: [u32; MAX_HASHES as usize],
    /// The buckets of the `k` positions, as a sparse filter's mask.
    need: [u16; MASK_LEN],
}

impl Probe {
    pub fn new(key: u64) -> Probe {
        Probe {
            hashes: base_hashes(key),
            shape: (0, 0),
            at: [0; MAX_HASHES as usize],
            need: [0; MASK_LEN],
        }
    }

    /// [`BloomFilter::contains`] of the key on `filter`.
    pub fn hits(&mut self, filter: &BloomFilter) -> bool {
        let (m, k) = (filter.m, filter.k);
        let at = &mut self.at[..k as usize];
        if self.shape != (m, k) {
            let positions = positions(self.hashes, m, k);
            at.iter_mut()
                .zip(positions)
                .for_each(|(a, p)| *a = p as u32);
            let mut need = Mask::default();
            at.iter().for_each(|&at| need.add(at as usize));
            self.need = need.parts();
            self.shape = (m, k);
        }
        filter.bits.all_set(at, &self.need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
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

    #[test]
    fn with_rate_stays_within_the_hash_bound() {
        for p in [1e-10, 1e-9, 1e-6, 1e-3, 0.02, 0.5] {
            for n in [1, 2, 3, 10, 256, 10_000] {
                let k = BloomFilter::with_rate(n, p).hash_count();
                assert!(k <= 34, "n {n}, p {p}: k {k}");
            }
        }
    }

    #[test]
    fn from_parts_refuses_a_hash_count_above_the_bound() {
        let words = || vec![u64::MAX; 2];
        assert!(BloomFilter::from_parts(128, MAX_HASHES, 1, words()).is_some());
        assert!(BloomFilter::from_parts(128, MAX_HASHES + 1, 1, words()).is_none());
        assert!(BloomFilter::from_parts(128, u32::MAX, 1, words()).is_none());
    }

    /// The filter as it was before its two forms, verbatim but for the
    /// names: one `Vec<u64>` of words, `Debug` derived, and every probe
    /// re-hashed from the key as `hash::double_hash` did before
    /// `base_hashes` (11a0052). The oracle for both forms, for the one-pass
    /// build and for [`Probe`].
    mod reference {
        use crate::hash;

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct BloomFilter {
            pub bits: Vec<u64>,
            pub m: usize,
            pub k: u32,
            pub items: usize,
        }

        pub fn double_hash_rehashing(key: u64, i: u64) -> u64 {
            let h1 = hash::hash_u64(key, 0x5bd1_e995);
            let h2 = hash::hash_u64(key, 0xc2b2_ae35) | 1; // odd, so it cycles all slots
            h1.wrapping_add(i.wrapping_mul(h2))
        }

        impl BloomFilter {
            pub fn with_params(m: usize, k: u32) -> BloomFilter {
                BloomFilter {
                    bits: vec![0; m.div_ceil(64)],
                    m,
                    k,
                    items: 0,
                }
            }

            fn slots(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
                (0..self.k).map(move |i| {
                    (double_hash_rehashing(key, u64::from(i)) % self.m as u64) as usize
                })
            }

            pub fn insert(&mut self, key: u64) {
                let slots: Vec<usize> = self.slots(key).collect();
                for idx in slots {
                    self.bits[idx / 64] |= 1 << (idx % 64);
                }
                self.items += 1;
            }

            pub fn contains(&self, key: u64) -> bool {
                self.slots(key)
                    .all(|idx| self.bits[idx / 64] & (1 << (idx % 64)) != 0)
            }

            pub fn fill_ratio(&self) -> f64 {
                let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
                f64::from(set) / self.m as f64
            }

            pub fn union(&mut self, other: &BloomFilter) {
                for (a, b) in self.bits.iter_mut().zip(&other.bits) {
                    *a |= b;
                }
                self.items += other.items;
            }

            pub fn clear(&mut self) {
                self.bits.fill(0);
                self.items = 0;
            }
        }
    }

    /// `f` reads as `r` through every accessor, is in its canonical form,
    /// and survives the `from_parts` round trip; `probes` (and a probe
    /// that last saw a filter of another shape) answer as `r` does.
    fn same(
        f: &BloomFilter,
        r: &reference::BloomFilter,
        probes: &[u64],
    ) -> Result<(), TestCaseError> {
        let words: Vec<u64> = f.words().collect();
        prop_assert_eq!(f.words().len(), r.bits.len());
        prop_assert_eq!(&words, &r.bits);
        prop_assert_eq!(format!("{f:?}"), format!("{r:?}"));
        prop_assert_eq!(format!("{f:#?}"), format!("{r:#?}"));
        prop_assert_eq!(
            (f.bit_len(), f.hash_count(), f.inserted()),
            (r.m, r.k, r.items)
        );
        prop_assert_eq!(f.fill_ratio(), r.fill_ratio());
        // Canonical: positions exactly while they and their 16-B mask
        // undercut 8 B a word and every position fits a `u16`.
        let ones: usize = r.bits.iter().map(|w| w.count_ones() as usize).sum();
        let sparse = r.m <= 1 << 16 && 16 + 2 * ones < 8 * r.bits.len();
        prop_assert_eq!(
            matches!(f.bits, Bits::Sparse(_)),
            sparse,
            "form at {} of {} bits",
            ones,
            r.m
        );
        if let Bits::Sparse(bits) = &f.bits {
            // Nothing for no bit; else the buckets of the set bits, sixteen
            // positions each and the last taking the rest, then positions.
            let mut mask = [0u16; MASK_LEN];
            let mut positions = Vec::new();
            for (i, &word) in r.bits.iter().enumerate() {
                for bit in (0..64).filter(|bit| word >> bit & 1 == 1) {
                    let bucket = ((64 * i + bit) / 16).min(127);
                    mask[bucket / 16] |= 1 << (bucket % 16);
                    positions.push((64 * i + bit) as u16);
                }
            }
            let want = if ones == 0 {
                Vec::new()
            } else {
                [&mask[..], &positions].concat()
            };
            prop_assert_eq!(&bits[..], &want[..]);
        }
        let back = BloomFilter::from_parts(r.m, r.k, r.items, words);
        prop_assert_eq!(back.as_ref(), Some(f));
        let elsewhere = BloomFilter::with_params(r.m + 1, r.k);
        for &key in probes {
            let want = r.contains(key);
            prop_assert_eq!(f.contains(key), want);
            let mut probe = Probe::new(key);
            probe.hits(&elsewhere);
            prop_assert_eq!(probe.hits(f), want);
            prop_assert_eq!(probe.hits(f), want);
        }
        Ok(())
    }

    fn bit_count() -> impl Strategy<Value = usize> {
        prop_oneof![
            1usize..400,
            // A word edge: 64·w − 1, 64·w, 64·w + 1.
            (1usize..48, 0usize..3).prop_map(|(w, d)| 64 * w + d - 1),
            // Around 2¹⁶, where positions stop fitting a `u16`.
            (1 << 16) - 130usize..(1 << 16) + 130,
            2_000usize..2_200,
            70_000usize..90_000,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both forms against the plain-words filter they replaced: insert
        /// by insert (the form flips where the set bits outgrow the
        /// positions), the one-pass build, a union each way, a clear.
        #[test]
        fn prop_both_forms_read_as_plain_words(
            m in bit_count(),
            k in prop_oneof![1u32..12, 1u32..MAX_HASHES + 1],
            xs in proptest::collection::vec(any::<u64>(), 0..160),
            ys in proptest::collection::vec(any::<u64>(), 0..160),
            strangers in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            // Small keys collide with set bits far more often than random ones.
            let probes: Vec<u64> = xs.iter().chain(&ys).chain(&strangers).copied().chain(0..16).collect();
            let mut f = BloomFilter::with_params(m, k);
            let mut r = reference::BloomFilter::with_params(m, k);
            same(&f, &r, &probes[..0])?;
            for (n, &key) in xs.iter().enumerate() {
                f.insert(key);
                r.insert(key);
                prop_assert!(f.contains(key));
                prop_assert_eq!(hash::double_hash(key, 3), reference::double_hash_rehashing(key, 3));
                if n.is_power_of_two() {
                    same(&f, &r, &xs[..=n])?;
                }
            }
            same(&f, &r, &probes)?;
            prop_assert_eq!(&BloomFilter::from_keys(m, k, xs.iter().copied()), &f);

            let g = BloomFilter::from_keys(m, k, ys.iter().copied());
            let mut rg = reference::BloomFilter::with_params(m, k);
            ys.iter().for_each(|&key| rg.insert(key));
            same(&g, &rg, &probes)?;
            let (mut fg, mut gf) = (f.clone(), g.clone());
            let (mut rfg, mut rgf) = (r.clone(), rg.clone());
            fg.union(&g);
            rfg.union(&rg);
            same(&fg, &rfg, &probes)?;
            gf.union(&f);
            rgf.union(&r);
            same(&gf, &rgf, &probes)?;

            fg.clear();
            rfg.clear();
            same(&fg, &rfg, &probes)?;
            prop_assert_eq!(&fg, &BloomFilter::with_params(m, k));
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
