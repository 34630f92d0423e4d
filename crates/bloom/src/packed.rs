//! Word-packed TCBF: sixteen 4-bit counters per `u64` word, with
//! SWAR (SIMD-within-a-register) merge kernels and the same lazy
//! epoch-decay rule as [`Tcbf`].
//!
//! The protocol-path [`Tcbf`] keeps full `u32` counters because the
//! paper experiments reinforce counters far past 15 (the Fig. 6
//! A-merge ablation drives them to `u32::MAX` on purpose). At the
//! million-node scale tier, counters are bounded by construction
//! (`C ≤ 15`, saturating arithmetic), so a counter fits in a nibble
//! and a whole filter shrinks 8x: a 256-bit filter is sixteen `u64`
//! words, and every merge touches 16 words instead of 256 `u32`s.
//!
//! # Word layout
//!
//! Counter `i` lives in word `i / 16`, nibble `i % 16`, at bit offset
//! `4·(i % 16)` — little-endian nibble order within the word. All
//! kernels split a word into its even and odd nibbles spread across
//! 8-bit lanes (`x & 0x0F0F…` and `(x >> 4) & 0x0F0F…`): byte lanes
//! holding values ≤ 15 can be added, subtracted, and compared without
//! cross-lane carries, which is what makes the merges branch-free.
//!
//! `tests/packed.rs` holds scalar reference kernels that define the
//! intended per-nibble semantics, and checks the SWAR kernels against
//! them exhaustively at the 8-bit-lane level and differentially
//! (against [`Tcbf`] as well) over seeded key sets.
//!
//! [`Tcbf`]: crate::tcbf::Tcbf

use crate::error::Error;
use crate::hash::KeyHasher;
use bsub_obs::{self as obs, Counter, TimeHist};

use crate::tcbf::Preference;

/// Counters saturate at the largest nibble value.
pub const NIBBLE_MAX: u8 = 15;

/// Nibbles (counters) per `u64` word.
pub const NIBBLES_PER_WORD: usize = 16;

/// Low nibble of every byte lane.
const EVEN: u64 = 0x0F0F_0F0F_0F0F_0F0F;
/// Low bit of every byte lane.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;
/// High bit of every byte lane.
const LANE_MSB: u64 = 0x8080_8080_8080_8080;

/// Saturating add of two nibble-packed words (each nibble independently
/// clamps at 15).
#[must_use]
pub fn word_sat_add(a: u64, b: u64) -> u64 {
    let even = lane_sat((a & EVEN) + (b & EVEN));
    let odd = lane_sat(((a >> 4) & EVEN) + ((b >> 4) & EVEN));
    even | (odd << 4)
}

/// Clamps byte lanes holding nibble sums (≤ 30) back to ≤ 15: a lane
/// with bit 4 set overflowed and becomes 0xF.
fn lane_sat(sum: u64) -> u64 {
    let over = (sum >> 4) & LANE_LSB;
    // Each overflowed lane gets an 0x0F mask (0x01 * 0x0F never
    // carries between lanes).
    (sum | (over * 0x0F)) & EVEN
}

/// Per-nibble maximum of two nibble-packed words, branch-free.
#[must_use]
pub fn word_max(a: u64, b: u64) -> u64 {
    let even = lane_max(a & EVEN, b & EVEN);
    let odd = lane_max((a >> 4) & EVEN, (b >> 4) & EVEN);
    even | (odd << 4)
}

/// Byte-lane maximum for lanes holding values ≤ 15. `(a | 0x80) - b`
/// keeps the lane's high bit set exactly when `a ≥ b` (the guard bit
/// absorbs the borrow), which turns into a full-lane select mask.
fn lane_max(a: u64, b: u64) -> u64 {
    let ge = (((a | LANE_MSB) - b) >> 7) & LANE_LSB;
    let mask = ge * 0xFF;
    (a & mask) | (b & !mask)
}

/// Saturating subtract of the constant nibble `d` (≤ 15) from every
/// nibble of a packed word — the epoch-materialization kernel.
#[must_use]
pub fn word_sat_sub(a: u64, d: u8) -> u64 {
    debug_assert!(d <= NIBBLE_MAX);
    let bcast = u64::from(d) * LANE_LSB;
    let even = lane_sat_sub(a & EVEN, bcast);
    let odd = lane_sat_sub((a >> 4) & EVEN, bcast);
    even | (odd << 4)
}

/// Byte-lane saturating subtract for lanes ≤ 15: lanes where `a < b`
/// lose the guard bit and are zeroed by the select mask.
fn lane_sat_sub(a: u64, b: u64) -> u64 {
    let diff = (a | LANE_MSB) - b;
    let keep = ((diff >> 7) & LANE_LSB) * 0xFF;
    diff & keep & EVEN
}

/// A mask with bit `4·j` set for every non-zero nibble `j` — feeding
/// `count_ones` gives the word's set-bit (non-zero-counter) count.
#[must_use]
pub fn word_nonzero_nibbles(a: u64) -> u64 {
    (a | (a >> 1) | (a >> 2) | (a >> 3)) & 0x1111_1111_1111_1111
}

/// Reads nibble `i % 16` of a packed word.
#[must_use]
pub fn word_get(word: u64, i: usize) -> u8 {
    ((word >> ((i % NIBBLES_PER_WORD) * 4)) & 0xF) as u8
}

/// Returns `word` with nibble `i % 16` set to `v` (≤ 15).
#[must_use]
pub fn word_set(word: u64, i: usize, v: u8) -> u64 {
    debug_assert!(v <= NIBBLE_MAX);
    let shift = (i % NIBBLES_PER_WORD) * 4;
    (word & !(0xFu64 << shift)) | (u64::from(v) << shift)
}

/// A TCBF with 4-bit packed counters — the scale-tier representation.
///
/// Same algebra as [`Tcbf`](crate::Tcbf) (insert-at-`C`, A-merge,
/// M-merge, lazy epoch decay, existential and preferential queries)
/// with counters saturating at [`NIBBLE_MAX`] instead of `u32::MAX`,
/// and merges running word-parallel over 16 counters at a time.
///
/// # Examples
///
/// ```
/// use bsub_bloom::PackedTcbf;
///
/// let mut relay = PackedTcbf::new(256, 4, 5);
/// let consumer = PackedTcbf::from_keys(256, 4, 5, ["NewMoon"]);
/// relay.a_merge(&consumer)?;
/// relay.a_merge(&consumer)?;
/// assert_eq!(relay.min_counter("NewMoon"), 10);
/// relay.decay(10); // O(1): recorded as an epoch offset
/// assert!(!relay.contains("NewMoon"));
/// # Ok::<(), bsub_bloom::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedTcbf {
    words: Vec<u64>,
    bits: usize,
    hashes: usize,
    initial: u8,
    /// Pending lazy decay, kept `< NIBBLE_MAX`: reaching 15 wipes every
    /// nibble, so [`PackedTcbf::decay`] clears the words instead.
    epoch: u8,
    hasher: KeyHasher,
    merged: bool,
}

/// Equality on materialized counters, like [`Tcbf`](crate::Tcbf).
impl PartialEq for PackedTcbf {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits
            && self.hashes == other.hashes
            && self.initial == other.initial
            && self.hasher == other.hasher
            && self.merged == other.merged
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(&a, &b)| word_sat_sub(a, self.epoch) == word_sat_sub(b, other.epoch))
    }
}

impl Eq for PackedTcbf {}

impl PackedTcbf {
    /// Creates an empty packed TCBF of `bits` counters, `hashes` hash
    /// functions, and insertion value `initial` (`1..=15`).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `hashes == 0`, `initial == 0`, or
    /// `initial > 15`.
    #[must_use]
    pub fn new(bits: usize, hashes: usize, initial: u8) -> Self {
        Self::with_hasher(bits, hashes, initial, KeyHasher::default())
    }

    /// Creates an empty packed TCBF with an explicit hasher.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PackedTcbf::new`].
    #[must_use]
    pub fn with_hasher(bits: usize, hashes: usize, initial: u8, hasher: KeyHasher) -> Self {
        assert!(bits > 0, "bit-vector length must be positive");
        assert!(hashes > 0, "hash count must be positive");
        assert!(
            (1..=NIBBLE_MAX).contains(&initial),
            "initial counter must be in 1..=15"
        );
        Self {
            words: vec![0; bits.div_ceil(NIBBLES_PER_WORD)],
            bits,
            hashes,
            initial,
            epoch: 0,
            hasher,
            merged: false,
        }
    }

    /// Builds a never-merged packed TCBF containing every key in
    /// `keys`.
    #[must_use]
    pub fn from_keys<I, K>(bits: usize, hashes: usize, initial: u8, keys: I) -> Self
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut f = Self::new(bits, hashes, initial);
        for key in keys {
            f.insert(key).expect("fresh filter accepts inserts");
        }
        f
    }

    /// Inserts a key, setting unset counters to `C` (the same
    /// Section IV-A rule as [`Tcbf::insert`](crate::Tcbf::insert)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsertAfterMerge`] if this filter has received
    /// a merge.
    pub fn insert<K: AsRef<[u8]>>(&mut self, key: K) -> Result<(), Error> {
        if self.merged {
            return Err(Error::InsertAfterMerge);
        }
        obs::count(Counter::TcbfInsert, 1);
        self.flush_epoch();
        for pos in self.hasher.positions(key.as_ref(), self.hashes, self.bits) {
            let w = pos / NIBBLES_PER_WORD;
            if word_get(self.words[w], pos) == 0 {
                self.words[w] = word_set(self.words[w], pos, self.initial);
            }
        }
        Ok(())
    }

    /// Additive merge, word-parallel and saturating at 15. Folds both
    /// filters' pending epochs in the same pass.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] on differing parameters.
    pub fn a_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.merge_words(&other.words, other.epoch, word_sat_add);
        Ok(())
    }

    /// Maximum merge, word-parallel and branch-free per nibble.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] on differing parameters.
    pub fn m_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfMMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.merge_words(&other.words, other.epoch, word_max);
        Ok(())
    }

    /// A-merges raw packed words (an epoch-free source such as an
    /// arena of genuine filters), without a compatibility check — the
    /// caller guarantees the layout matches. This is the scale
    /// harness's hot path.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than this filter's word count.
    pub fn a_merge_words(&mut self, words: &[u64]) {
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.merge_words(words, 0, word_sat_add);
    }

    /// A-merges a sparse list of `(word_index, packed_word)` entries
    /// from an epoch-free source, skipping the zero words a dense
    /// merge would stream through. With B-SUB's sizing (fill ratio
    /// ≈ 11%) most words of a consumer filter are zero, so the sparse
    /// form touches ~8× fewer words — the sharded scale harness's
    /// exchange format.
    ///
    /// Like [`PackedTcbf::a_merge_words`], no compatibility check: the
    /// caller guarantees the layout matches.
    ///
    /// # Panics
    ///
    /// Panics if any `word_index` is out of range for this filter.
    pub fn a_merge_sparse(&mut self, entries: &[(u32, u64)]) {
        obs::count(Counter::TcbfAMerge, 1);
        self.flush_epoch();
        for &(w, word) in entries {
            let slot = &mut self.words[w as usize];
            *slot = word_sat_add(*slot, word);
        }
        self.merged = true;
    }

    /// The non-zero materialized words as `(word_index, packed_word)`
    /// pairs — the sparse source format for
    /// [`PackedTcbf::a_merge_sparse`].
    #[must_use]
    pub fn sparse_words(&self) -> Vec<(u32, u64)> {
        let e = self.epoch;
        self.words
            .iter()
            .enumerate()
            .filter_map(|(i, &w)| {
                let m = word_sat_sub(w, e);
                (m != 0).then_some((i as u32, m))
            })
            .collect()
    }

    fn merge_words(&mut self, other: &[u64], other_epoch: u8, op: fn(u64, u64) -> u64) {
        let (se, oe) = (self.epoch, other_epoch);
        if se == 0 && oe == 0 {
            for (a, &b) in self.words.iter_mut().zip(other) {
                *a = op(*a, b);
            }
        } else {
            for (a, &b) in self.words.iter_mut().zip(other) {
                *a = op(word_sat_sub(*a, se), word_sat_sub(b, oe));
            }
            self.epoch = 0;
        }
        self.merged = true;
    }

    /// Lazy decay: O(1). An accumulated epoch of 15 zeroes every
    /// nibble, so the filter is cleared outright and the epoch resets.
    pub fn decay(&mut self, amount: u32) {
        if amount == 0 {
            return;
        }
        obs::count(Counter::TcbfDecay, 1);
        let _span = obs::span(TimeHist::DecayNs);
        if amount >= u32::from(NIBBLE_MAX - self.epoch) {
            self.words.fill(0);
            self.epoch = 0;
        } else {
            self.epoch += amount as u8;
        }
    }

    fn flush_epoch(&mut self) {
        if self.epoch == 0 {
            return;
        }
        let e = self.epoch;
        for w in &mut self.words {
            *w = word_sat_sub(*w, e);
        }
        self.epoch = 0;
    }

    /// Existential query (classic Bloom membership).
    #[must_use]
    pub fn contains<K: AsRef<[u8]>>(&self, key: K) -> bool {
        self.min_counter(key) > 0
    }

    /// Minimum materialized counter over the key's hashed bits.
    #[must_use]
    pub fn min_counter<K: AsRef<[u8]>>(&self, key: K) -> u32 {
        obs::count(Counter::TcbfQuery, 1);
        self.hasher
            .positions(key.as_ref(), self.hashes, self.bits)
            .map(|pos| word_get(self.words[pos / NIBBLES_PER_WORD], pos).saturating_sub(self.epoch))
            .min()
            .unwrap_or(0)
            .into()
    }

    /// Preferential query, with the same `Relative`/`Absolute`
    /// semantics as [`Tcbf::preference`](crate::Tcbf::preference).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] on differing parameters.
    pub fn preference<K: AsRef<[u8]>>(&self, against: &Self, key: K) -> Result<Preference, Error> {
        self.check_compatible(against)?;
        obs::count(Counter::TcbfPreference, 1);
        let _span = obs::span(TimeHist::PreferenceNs);
        let key = key.as_ref();
        let f = i64::from(self.min_counter(key));
        let g = i64::from(against.min_counter(key));
        Ok(if g == 0 {
            Preference::Absolute(f)
        } else {
            Preference::Relative(f - g)
        })
    }

    /// Length of the counter vector (the paper's `m`).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bits
    }

    /// Number of hash functions (the paper's `k`).
    #[must_use]
    pub fn hash_count(&self) -> usize {
        self.hashes
    }

    /// The insertion counter value `C`.
    #[must_use]
    pub fn initial_counter(&self) -> u8 {
        self.initial
    }

    /// Number of non-zero materialized counters, counted word-parallel.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        let e = self.epoch;
        self.words
            .iter()
            .map(|&w| word_nonzero_nibbles(word_sat_sub(w, e)).count_ones() as usize)
            .sum()
    }

    /// Fill ratio: non-zero counters over total (Eq. 3).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits() as f64 / self.bits as f64
    }

    /// Whether no counter is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let e = self.epoch;
        self.words.iter().all(|&w| word_sat_sub(w, e) == 0)
    }

    /// Whether this filter has received a merge.
    #[must_use]
    pub fn is_merged(&self) -> bool {
        self.merged
    }

    /// Resets the filter to empty and never-merged.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.epoch = 0;
        self.merged = false;
    }

    /// Materialized counter values, indexed by bit position.
    #[must_use]
    pub fn counter_values(&self) -> Vec<u8> {
        (0..self.bits)
            .map(|i| word_get(self.words[i / NIBBLES_PER_WORD], i).saturating_sub(self.epoch))
            .collect()
    }

    /// The packed words with the pending epoch folded in — a valid
    /// epoch-free source for [`PackedTcbf::a_merge_words`] (e.g. when
    /// building a genuine-filter arena).
    #[cfg(test)]
    fn materialized_words(&self) -> Vec<u64> {
        let e = self.epoch;
        self.words.iter().map(|&w| word_sat_sub(w, e)).collect()
    }

    /// Heap bytes held by the packed counter array.
    #[must_use]
    pub fn word_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    fn check_compatible(&self, other: &Self) -> Result<(), Error> {
        if self.bits != other.bits || self.hashes != other.hashes || self.hasher != other.hasher {
            return Err(Error::ParamMismatch {
                ours: (self.bits, self.hashes),
                theirs: (other.bits, other.hashes),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_get_set_roundtrip() {
        let mut w = 0u64;
        for i in 0..NIBBLES_PER_WORD {
            w = word_set(w, i, (i % 16) as u8);
        }
        for i in 0..NIBBLES_PER_WORD {
            assert_eq!(word_get(w, i), (i % 16) as u8);
        }
    }

    #[test]
    fn insert_and_query() {
        let mut f = PackedTcbf::new(256, 4, 10);
        f.insert("k").unwrap();
        assert_eq!(f.min_counter("k"), 10);
        f.insert("k").unwrap();
        assert_eq!(f.min_counter("k"), 10, "re-insert leaves counters");
    }

    #[test]
    fn merge_decay_query_cycle() {
        let mut relay = PackedTcbf::new(256, 4, 5);
        let consumer = PackedTcbf::from_keys(256, 4, 5, ["t"]);
        relay.a_merge(&consumer).unwrap();
        relay.a_merge(&consumer).unwrap();
        relay.a_merge(&consumer).unwrap();
        assert_eq!(relay.min_counter("t"), 15, "saturates at nibble max");
        relay.decay(14);
        assert!(relay.contains("t"));
        relay.decay(1);
        assert!(relay.is_empty());
        assert_eq!(relay.epoch, 0, "full decay clears instead of epoching");
    }

    #[test]
    fn insert_rejected_after_merge() {
        let mut f = PackedTcbf::new(256, 4, 5);
        f.m_merge(&PackedTcbf::from_keys(256, 4, 5, ["x"])).unwrap();
        assert_eq!(f.insert("y"), Err(Error::InsertAfterMerge));
    }

    #[test]
    fn param_mismatch_rejected() {
        let mut a = PackedTcbf::new(256, 4, 5);
        let b = PackedTcbf::new(128, 4, 5);
        assert!(matches!(a.a_merge(&b), Err(Error::ParamMismatch { .. })));
        assert!(a.preference(&b, "k").is_err());
    }

    #[test]
    #[should_panic(expected = "1..=15")]
    fn oversized_initial_rejected() {
        let _ = PackedTcbf::new(256, 4, 16);
    }

    #[test]
    fn arena_merge_matches_filter_merge() {
        let src = PackedTcbf::from_keys(256, 4, 5, ["a", "b"]);
        let mut via_filter = PackedTcbf::new(256, 4, 5);
        via_filter.a_merge(&src).unwrap();
        let mut via_words = PackedTcbf::new(256, 4, 5);
        via_words.a_merge_words(&src.materialized_words());
        assert_eq!(via_filter, via_words);
    }

    #[test]
    fn sparse_merge_matches_dense_merge() {
        let src = PackedTcbf::from_keys(256, 4, 5, ["a", "b", "c"]);
        let mut dense = PackedTcbf::from_keys(256, 4, 7, ["x"]);
        let mut sparse = dense.clone();
        dense.a_merge_words(&src.materialized_words());
        sparse.a_merge_sparse(&src.sparse_words());
        assert_eq!(dense, sparse);
        assert!(sparse.is_merged());
    }

    #[test]
    fn sparse_merge_folds_pending_epoch() {
        let src = PackedTcbf::from_keys(256, 4, 5, ["s"]);
        let mut decayed = PackedTcbf::from_keys(256, 4, 9, ["s"]);
        decayed.decay(3); // pending epoch, not yet materialized
        let mut dense = decayed.clone();
        dense.a_merge_words(&src.materialized_words());
        decayed.a_merge_sparse(&src.sparse_words());
        assert_eq!(decayed, dense);
        assert_eq!(decayed.min_counter("s"), 11, "9 - 3 + 5");
    }

    #[test]
    fn sparse_words_skips_zero_words() {
        let f = PackedTcbf::from_keys(8192, 4, 5, ["only-key"]);
        let sparse = f.sparse_words();
        assert!(sparse.len() <= 4, "one key sets at most k words");
        assert!(sparse.iter().all(|&(_, w)| w != 0));
        let mut rebuilt = PackedTcbf::new(8192, 4, 5);
        rebuilt.a_merge_sparse(&sparse);
        assert_eq!(rebuilt.min_counter("only-key"), 5);
    }

    #[test]
    fn non_multiple_of_16_bits() {
        let mut f = PackedTcbf::new(300, 3, 7);
        f.insert("odd").unwrap();
        assert!(f.contains("odd"));
        assert_eq!(f.counter_values().len(), 300);
        assert_eq!(f.word_bytes(), 19 * 8);
    }
}
