//! Precomputed probes: hash a key once, test many filters.
//!
//! Every filter geometry in a B-SUB broker shares one network-wide
//! [`KeyHasher`] (Section IV-A), and the Kirsch–Mitzenmacher
//! construction derives all `k` bit positions from two 64-bit digests.
//! A [`Probe`] caches those digests, so batch matching pays the
//! variable-length key hash **once per key** and then derives
//! positions for any `(k, m)` with two integer ops per probe — the
//! amortization the `MatchIndex` batch path and the contact pipeline
//! in `bsub-core` both lean on (the latter keeps one probe per
//! distinct message key).

use bsub_bloom::hash::Positions;
use bsub_bloom::KeyHasher;

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
    /// instrumented `*_from_digests` queries of `bsub_bloom::Tcbf`.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
