//! Precomputed probes: hash a key once, test many filters.
//!
//! Every filter geometry in a B-SUB broker shares one network-wide
//! [`KeyHasher`] (Section IV-A), and the Kirsch–Mitzenmacher
//! construction derives all `k` bit positions from two 64-bit digests.
//! A [`Probe`] caches those digests, so batch matching pays the
//! variable-length key hash **once per key** and then derives
//! positions for any `(k, m)` with two integer ops per probe — the
//! amortization the `MatchIndex` batch path and the broker contact
//! pipeline in `bsub-core` both lean on (the latter computes one probe
//! per message when it is published and carries it with every copy).
//!
//! All checks here are *uninstrumented*, mirroring
//! [`BloomFilter::contains`]: swapping a per-key query for a
//! precomputed probe must not perturb any `bsub-obs` counter, which is
//! what keeps the refactored broker path byte-identical to the
//! committed figure artifacts.

use bsub_bloom::hash::Positions;
use bsub_bloom::{BloomFilter, KeyHasher, Tcbf};

/// The two Kirsch–Mitzenmacher digests of one key, ready to probe any
/// filter geometry without re-hashing the key bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    digests: (u64, u64),
}

impl Probe {
    /// Hashes `key` once with `hasher`. The probe is only valid
    /// against filters built with an equal hasher.
    #[must_use]
    pub fn new(hasher: &KeyHasher, key: &[u8]) -> Self {
        Self {
            digests: hasher.digests(key),
        }
    }

    /// The key's two digests, exactly [`KeyHasher::digests`] — for the
    /// instrumented `*_from_digests` queries of [`Tcbf`].
    #[must_use]
    pub fn digests(&self) -> (u64, u64) {
        self.digests
    }

    /// The key's `k` bit positions in a filter of `m` bits — identical
    /// to [`KeyHasher::positions`] for the same key.
    #[must_use]
    pub fn positions(&self, k: usize, m: usize) -> Positions {
        KeyHasher::positions_from_digests(self.digests, k, m)
    }

    /// Exactly [`BloomFilter::contains`] for the probed key, without
    /// re-hashing it.
    #[must_use]
    pub fn hits_bloom(&self, bloom: &BloomFilter) -> bool {
        self.positions(bloom.hash_count(), bloom.bit_len())
            .all(|pos| bloom.bits().get(pos))
    }

    /// Exactly [`Tcbf::min_counter`] for the probed key, without
    /// re-hashing it — and without the `TcbfQuery` counter bump, so
    /// batch probing stays invisible to the metrics layer.
    #[must_use]
    pub fn min_counter(&self, filter: &Tcbf) -> u32 {
        self.positions(filter.hash_count(), filter.bit_len())
            .map(|pos| filter.counter_at(pos))
            .min()
            .unwrap_or(0)
    }

    /// Exactly [`Tcbf::contains`] for the probed key.
    #[must_use]
    pub fn hits_tcbf(&self, filter: &Tcbf) -> bool {
        self.min_counter(filter) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_matches_bloom_contains() {
        let hasher = KeyHasher::default();
        let filter = Tcbf::from_keys(256, 4, 10, ["a", "b", "c"]);
        let bloom = filter.to_bloom();
        for key in ["a", "b", "c", "d", "absent", ""] {
            let probe = Probe::new(&hasher, key.as_bytes());
            assert_eq!(probe.hits_bloom(&bloom), bloom.contains(key), "key={key}");
        }
    }

    #[test]
    fn probe_matches_tcbf_min_counter_under_decay() {
        let hasher = KeyHasher::default();
        let mut filter = Tcbf::from_keys(64, 4, 10, ["x", "y"]);
        filter.decay(4);
        for key in ["x", "y", "z"] {
            let probe = Probe::new(&hasher, key.as_bytes());
            assert_eq!(probe.min_counter(&filter), filter.min_counter(key));
            assert_eq!(probe.hits_tcbf(&filter), filter.contains(key));
        }
    }

    #[test]
    fn probe_positions_match_hasher_positions() {
        let hasher = KeyHasher::default();
        let probe = Probe::new(&hasher, b"NewMoon");
        for &(k, m) in &[(4usize, 256usize), (3, 64), (8, 4096)] {
            let direct: Vec<_> = hasher.positions(b"NewMoon", k, m).collect();
            let derived: Vec<_> = probe.positions(k, m).collect();
            assert_eq!(direct, derived);
        }
    }
}
