//! Self-contained 64-bit hashing used by the Bloom filters and by D-ring's
//! key-management service. We avoid `std::collections::hash_map::DefaultHasher`
//! because its output is unspecified across Rust releases, and reproducibility
//! of simulation runs matters more than raw speed here.

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A strong 64-bit mixer (the `splitmix64` finalizer). Used to derive
/// independent hash functions from a single base hash via seeding.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash a 64-bit key with a seed, producing a well-mixed 64-bit value.
pub fn hash_u64(key: u64, seed: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// The two base hashes `(h1, h2)` every probe of `key` is derived from.
/// They depend on the key alone, so a caller probing many filters for one
/// key computes them once (see [`crate::Probe`]).
pub fn base_hashes(key: u64) -> (u64, u64) {
    let h1 = hash_u64(key, 0x5bd1_e995);
    let h2 = hash_u64(key, 0xc2b2_ae35) | 1; // odd, so it cycles all slots
    (h1, h2)
}

/// The classic Kirsch–Mitzenmacher double-hashing scheme: derive the i-th
/// hash as `h1 + i*h2`, which preserves Bloom-filter false-positive bounds
/// while needing only two base hashes.
pub fn double_hash(key: u64, i: u64) -> u64 {
    nth_hash(base_hashes(key), i)
}

/// The i-th hash from precomputed [`base_hashes`].
pub(crate) fn nth_hash((h1, h2): (u64, u64), i: u64) -> u64 {
    h1.wrapping_add(i.wrapping_mul(h2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        // splitmix64's finalizer is a bijection; collisions on a sample of
        // sequential inputs would indicate a broken implementation.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn seeded_hashes_are_independent_looking() {
        // Same key, different seeds should disagree on about half the bits.
        let mut total = 0u32;
        for k in 0..256u64 {
            let a = hash_u64(k, 1);
            let b = hash_u64(k, 2);
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / 256.0;
        assert!((24.0..40.0).contains(&avg), "avg differing bits {avg}");
    }

    #[test]
    fn double_hash_strides_are_odd() {
        for k in 0..64u64 {
            let d = double_hash(k, 1).wrapping_sub(double_hash(k, 0));
            assert_eq!(d % 2, 1, "stride must be odd to cycle all slots");
        }
    }
}
