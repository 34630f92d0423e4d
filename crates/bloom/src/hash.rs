//! Key hashing for Bloom filters.
//!
//! The paper requires `k` independent hash functions mapping a key to bit
//! positions in `[0, m)`. We implement the standard Kirsch–Mitzenmacher
//! *double hashing* construction: two independent 64-bit digests
//! `h1`, `h2` are derived from the key, and the `i`-th position is
//! `(h1 + i·h2) mod m`. Kirsch & Mitzenmacher (2006) showed this
//! preserves the asymptotic false-positive rate of `k` truly independent
//! hash functions.
//!
//! The base digests come from a from-scratch FNV-1a pass whose output is
//! finalized with the SplitMix64 mixer, seeded differently for the two
//! digests. No external hashing crates are used so that the
//! microbenchmarks in `bsub-bench` measure exactly the cost a B-SUB node
//! would pay.

/// Derives the `k` bit positions of a key for a filter of `m` bits.
///
/// Two [`KeyHasher`]s with the same seeds always produce the same
/// positions for the same key, so filters built by different nodes are
/// mergeable as long as they share seeds (B-SUB assumes a network-wide
/// hash configuration).
///
/// # Examples
///
/// ```
/// use bsub_bloom::KeyHasher;
///
/// let hasher = KeyHasher::default();
/// let positions: Vec<usize> = hasher.positions(b"NewMoon", 4, 256).collect();
/// assert_eq!(positions.len(), 4);
/// assert!(positions.iter().all(|&p| p < 256));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHasher {
    seed_lo: u64,
    seed_hi: u64,
}

/// Seeds chosen arbitrarily; all B-SUB nodes must agree on them.
const DEFAULT_SEED_LO: u64 = 0x5171_04b5_1071_04b5;
const DEFAULT_SEED_HI: u64 = 0x9e37_79b9_7f4a_7c15;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl KeyHasher {
    /// Creates a hasher with the crate-default seeds.
    #[must_use]
    pub const fn new() -> Self {
        Self::with_seeds(DEFAULT_SEED_LO, DEFAULT_SEED_HI)
    }

    /// Creates a hasher with explicit seeds.
    ///
    /// Useful in tests that need adversarial or varied hash behavior.
    #[must_use]
    pub const fn with_seeds(seed_lo: u64, seed_hi: u64) -> Self {
        Self { seed_lo, seed_hi }
    }

    /// FNV-1a over `bytes`, starting from `seed` instead of the standard
    /// offset basis so that two seeded passes are independent.
    fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
        let mut h = seed ^ FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// SplitMix64 finalizer: breaks up the weak avalanche of raw FNV.
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Returns the two base digests `(h1, h2)` for a key.
    ///
    /// `h2` is forced odd so that for power-of-two `m` the stride is
    /// coprime with `m` and the `k` probes never collapse onto a short
    /// cycle.
    #[must_use]
    pub fn digests(&self, key: &[u8]) -> (u64, u64) {
        let h1 = Self::splitmix(Self::fnv1a(self.seed_lo, key));
        let h2 = Self::splitmix(Self::fnv1a(self.seed_hi, key)) | 1;
        (h1, h2)
    }

    /// Returns an iterator over the `k` bit positions of `key` in a
    /// filter of `m` bits.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn positions(&self, key: &[u8], k: usize, m: usize) -> Positions {
        assert!(m > 0, "filter length must be positive");
        Self::positions_from_digests(self.digests(key), k, m)
    }

    /// Returns the `k` bit positions derived from pre-computed
    /// [`KeyHasher::digests`] output, for a filter of `m` bits.
    ///
    /// This is the batch-matching fast path: hash a key **once**, then
    /// derive positions for any number of filter geometries (the broker
    /// contact pipeline probes several filters from the same digest
    /// pair). Identical to
    /// [`KeyHasher::positions`] when the digests came from the same
    /// hasher and key.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn positions_from_digests(digests: (u64, u64), k: usize, m: usize) -> Positions {
        assert!(m > 0, "filter length must be positive");
        Positions {
            h1: digests.0,
            h2: digests.1,
            m: m as u64,
            i: 0,
            k,
        }
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over the bit positions of a key, produced by
/// [`KeyHasher::positions`].
#[derive(Debug, Clone)]
pub struct Positions {
    h1: u64,
    h2: u64,
    m: u64,
    i: usize,
    k: usize,
}

impl Iterator for Positions {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.i >= self.k {
            return None;
        }
        let pos = self.h1.wrapping_add(self.h2.wrapping_mul(self.i as u64)) % self.m;
        self.i += 1;
        Some(pos as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.k - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Positions {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_same_key() {
        let h = KeyHasher::default();
        let a: Vec<_> = h.positions(b"Phillies", 4, 256).collect();
        let b: Vec<_> = h.positions(b"Phillies", 4, 256).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_differ() {
        let h = KeyHasher::default();
        let a: Vec<_> = h.positions(b"Phillies", 4, 256).collect();
        let b: Vec<_> = h.positions(b"NewMoon", 4, 256).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = KeyHasher::default().positions(b"key", 4, 256).collect();
        let b: Vec<_> = KeyHasher::with_seeds(1, 2)
            .positions(b"key", 4, 256)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn positions_in_range() {
        let h = KeyHasher::default();
        for key in ["a", "bb", "ccc", "", "Thanksgiving", "Michael Jackson"] {
            for &m in &[1usize, 2, 7, 64, 256, 1023] {
                for pos in h.positions(key.as_bytes(), 8, m) {
                    assert!(pos < m, "key={key} m={m} pos={pos}");
                }
            }
        }
    }

    #[test]
    fn positions_from_digests_match_keyed_positions() {
        let h = KeyHasher::default();
        for key in ["a", "", "NewMoon", "Thanksgiving"] {
            let digests = h.digests(key.as_bytes());
            for &m in &[7usize, 64, 256, 4096] {
                let direct: Vec<_> = h.positions(key.as_bytes(), 4, m).collect();
                let derived: Vec<_> = KeyHasher::positions_from_digests(digests, 4, m).collect();
                assert_eq!(direct, derived, "key={key} m={m}");
            }
        }
    }

    #[test]
    fn exact_size_iterator() {
        let h = KeyHasher::default();
        let it = h.positions(b"x", 5, 64);
        assert_eq!(it.len(), 5);
        assert_eq!(it.count(), 5);
    }

    #[test]
    fn empty_key_is_valid() {
        let h = KeyHasher::default();
        assert_eq!(h.positions(b"", 3, 128).count(), 3);
    }

    #[test]
    fn zero_k_yields_nothing() {
        let h = KeyHasher::default();
        assert_eq!(h.positions(b"x", 0, 128).count(), 0);
    }

    #[test]
    #[should_panic(expected = "filter length must be positive")]
    fn zero_m_panics() {
        let h = KeyHasher::default();
        let _ = h.positions(b"x", 1, 0);
    }

    #[test]
    fn stride_is_odd() {
        let h = KeyHasher::default();
        for key in ["a", "b", "c", "d", "e"] {
            let (_, h2) = h.digests(key.as_bytes());
            assert_eq!(h2 & 1, 1);
        }
    }

    /// Sanity check that the positions spread roughly uniformly: with
    /// 4096 keys × 4 probes into 256 bits, every bit should be hit.
    #[test]
    fn positions_cover_all_bits() {
        let h = KeyHasher::default();
        let mut seen = HashSet::new();
        for i in 0..4096 {
            let key = format!("key-{i}");
            seen.extend(h.positions(key.as_bytes(), 4, 256));
        }
        assert_eq!(seen.len(), 256);
    }

    /// Chi-squared-ish uniformity smoke test: no bit should receive more
    /// than 3x or less than 1/3x the expected number of probes.
    #[test]
    fn positions_roughly_uniform() {
        let h = KeyHasher::default();
        let m = 64;
        let mut counts = vec![0u32; m];
        let trials = 20_000;
        for i in 0..trials {
            let key = format!("uniform-{i}");
            for p in h.positions(key.as_bytes(), 2, m) {
                counts[p] += 1;
            }
        }
        let expected = (trials * 2 / m) as f64;
        for (bit, &c) in counts.iter().enumerate() {
            let ratio = f64::from(c) / expected;
            assert!(
                (0.33..3.0).contains(&ratio),
                "bit {bit} count {c} vs expected {expected}"
            );
        }
    }
}
