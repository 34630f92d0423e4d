//! The Temporal Counting Bloom Filter (Section IV of the paper).

use crate::bitvec::BitVec;
use crate::bloom::BloomFilter;
use crate::error::Error;
use crate::hash::KeyHasher;
use bsub_obs::{self as obs, Counter, TimeHist};

/// The Temporal Counting Bloom Filter (TCBF), the B-SUB paper's core
/// data structure.
///
/// Like a counting Bloom filter, a TCBF associates a counter with each
/// bit — but the counters do **not** count key multiplicity. Instead
/// (Section IV-A):
///
/// - **Insertion** sets the counters of the key's hashed bits to a
///   fixed initial value `C` ([`Tcbf::initial_counter`]). Counters that
///   are already set are left unchanged, so a freshly built filter
///   always has uniform counters.
/// - **A-merge** (additive merge, [`Tcbf::a_merge`]) ORs the bit
///   vectors and *adds* the counters. B-SUB uses it when a consumer
///   reports its interests to a broker: repeated meetings *reinforce*
///   the interests' counters.
/// - **M-merge** (maximum merge, [`Tcbf::m_merge`]) ORs the bit vectors
///   and takes the counter-wise *maximum*. B-SUB uses it between
///   brokers, which prevents the "bogus counter" feedback loop of
///   Fig. 6 (two brokers meeting frequently would otherwise inflate
///   each other's counters without any consumer nearby).
/// - **Decaying** ([`Tcbf::decay`]) subtracts from every counter; a bit
///   whose counter reaches zero is reset. This is the *temporal
///   deletion* that expires interests of consumers a broker no longer
///   meets. The subtraction rate is the paper's *decaying factor* (DF);
///   see [`Decayer`] for fractional-rate bookkeeping.
/// - An **existential query** ([`Tcbf::contains`]) is classic Bloom
///   membership; a **preferential query** ([`Tcbf::preference`])
///   compares the min-counters of a key in two filters to decide which
///   filter's owner is the better carrier for that key.
///
/// Insertion is only defined for filters that have never been merged
/// (the paper's rule); to add keys to a merged filter, insert them into
/// a fresh TCBF and merge the two.
///
/// # Lazy epoch decay
///
/// [`Tcbf::decay`] does **not** walk the counter array. It adds the
/// amount to a per-filter *epoch* offset, and every observable value is
/// materialized on read as `stored.saturating_sub(epoch)`. Because
/// saturating subtractions of accumulated amounts compose exactly
/// (`(c ∸ d₁) ∸ d₂ = c ∸ (d₁ + d₂)`), the materialized counters are
/// bit-identical to what an eager per-counter walk would produce — the
/// equivalence the property tests in `tests/properties.rs` pin down.
/// A-merges fold both filters' pending epochs into the stored counters
/// in the same single pass that combines them; M-merges only *equalize*
/// the two epochs (max commutes with a shared saturating offset, so the
/// common `min(e_self, e_other)` part stays lazy). Either way a broker
/// that meets rarely pays O(1) per decay instead of O(m) per contact.
///
/// # Examples
///
/// Reinforcement and expiry, the mechanism behind B-SUB forwarding:
///
/// ```
/// use bsub_bloom::Tcbf;
///
/// // A consumer's genuine filter.
/// let mut genuine = Tcbf::new(256, 4, 10);
/// genuine.insert("NewMoon")?;
///
/// // A broker A-merges it on every meeting.
/// let mut relay = Tcbf::new(256, 4, 10);
/// relay.a_merge(&genuine)?;
/// relay.a_merge(&genuine)?; // met twice: counter is now 20
/// assert_eq!(relay.min_counter("NewMoon"), 20);
///
/// // Decay below the reinforced level: the interest survives ...
/// relay.decay(15);
/// assert!(relay.contains("NewMoon"));
/// // ... but eventually expires.
/// relay.decay(5);
/// assert!(!relay.contains("NewMoon"));
/// # Ok::<(), bsub_bloom::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tcbf {
    /// Stored counters, *before* the pending epoch is subtracted.
    counters: Vec<u32>,
    /// Pending lazy decay: every observable counter value is
    /// `stored.saturating_sub(epoch)`. Saturating here is exact —
    /// stored values never exceed `u32::MAX`, so an epoch saturated at
    /// `u32::MAX` already wipes every counter.
    epoch: u32,
    hashes: usize,
    initial: u32,
    hasher: KeyHasher,
    merged: bool,
}

/// Equality is on *materialized* counters: a filter decayed lazily and
/// one decayed eagerly by the same amounts are the same filter.
impl PartialEq for Tcbf {
    fn eq(&self, other: &Self) -> bool {
        self.hashes == other.hashes
            && self.initial == other.initial
            && self.hasher == other.hasher
            && self.merged == other.merged
            && self.counters.len() == other.counters.len()
            && self.iter_counters().eq(other.iter_counters())
    }
}

impl Eq for Tcbf {}

impl Tcbf {
    /// Creates an empty TCBF of `bits` counters, `hashes` hash
    /// functions, and insertion counter value `initial` (the paper's
    /// `C`).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `hashes == 0`, or `initial == 0`.
    #[must_use]
    pub fn new(bits: usize, hashes: usize, initial: u32) -> Self {
        Self::with_hasher(bits, hashes, initial, KeyHasher::default())
    }

    /// Creates an empty TCBF with an explicit hasher.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`, `hashes == 0`, or `initial == 0`.
    #[must_use]
    pub fn with_hasher(bits: usize, hashes: usize, initial: u32, hasher: KeyHasher) -> Self {
        assert!(bits > 0, "bit-vector length must be positive");
        assert!(hashes > 0, "hash count must be positive");
        assert!(initial > 0, "initial counter value must be positive");
        Self {
            counters: vec![0; bits],
            epoch: 0,
            hashes,
            initial,
            hasher,
            merged: false,
        }
    }

    /// Builds a never-merged TCBF containing every key in `keys`.
    #[must_use]
    pub fn from_keys<I, K>(bits: usize, hashes: usize, initial: u32, keys: I) -> Self
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

    /// Inserts a key: the counters of its hashed bits are set to the
    /// initial value `C`; counters that are already non-zero keep their
    /// value (Section IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsertAfterMerge`] if this filter has been the
    /// receiver of an A-merge or M-merge. The paper only defines
    /// insertion on never-merged filters; insert into a fresh TCBF and
    /// merge it instead.
    pub fn insert<K: AsRef<[u8]>>(&mut self, key: K) -> Result<(), Error> {
        if self.merged {
            return Err(Error::InsertAfterMerge);
        }
        obs::count(Counter::TcbfInsert, 1);
        // Fold any pending decay into the stored counters first, so
        // "already set" is judged on materialized values and the new
        // counters are stored exactly at `C`. Fresh filters (the only
        // insertion target in practice) have epoch 0 and skip this.
        self.flush_epoch();
        for pos in self
            .hasher
            .positions(key.as_ref(), self.hashes, self.counters.len())
        {
            if self.counters[pos] == 0 {
                self.counters[pos] = self.initial;
            }
        }
        Ok(())
    }

    /// Additive merge: bit vectors are ORed and counters are *summed*
    /// (saturating).
    ///
    /// Used for consumer → broker interest reinforcement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' length, hash
    /// count, or hasher differ. (The initial counter value `C` may
    /// differ; merged counters no longer correspond to any single `C`.)
    pub fn a_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfAMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        self.merge_with(other, u32::saturating_add);
        Ok(())
    }

    /// Maximum merge: bit vectors are ORed and each counter becomes the
    /// *maximum* of the two.
    ///
    /// Used for broker ↔ broker relay-filter combination; prevents the
    /// bogus-counter loop of Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn m_merge(&mut self, other: &Self) -> Result<(), Error> {
        self.check_compatible(other)?;
        obs::count(Counter::TcbfMMerge, 1);
        let _span = obs::span(TimeHist::MergeNs);
        // Max commutes with a shared saturating offset:
        // `max(a ∸ e, b ∸ f) = max(a ∸ (e−m), b ∸ (f−m)) ∸ m` for
        // `m = min(e, f)`. So the merge only equalizes the two
        // epochs — at most ONE per-element subtraction, on the side
        // with the larger epoch — and the common part `m` stays lazy,
        // to be folded (or decayed further) later. Exact for all
        // values: only saturating subtractions are involved, and
        // those compose.
        let (se, oe) = (self.epoch, other.epoch);
        let m = se.min(oe);
        if se == oe {
            for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                *a = (*a).max(*b);
            }
        } else if se == m {
            let db = oe - m;
            for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                *a = (*a).max(b.saturating_sub(db));
            }
        } else {
            let da = se - m;
            for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                *a = a.saturating_sub(da).max(*b);
            }
        }
        self.epoch = m;
        self.merged = true;
        Ok(())
    }

    /// Shared merge loop, monomorphized per combiner so `op` inlines
    /// into a branchless, autovectorizable pass. When either side has
    /// a pending decay epoch, the fold happens *inside* the same pass
    /// (`(a ∸ e_a) op (b ∸ e_b)`) — the lazy decays cost one extra
    /// vector subtract here instead of their own O(m) walks.
    fn merge_with<F: Fn(u32, u32) -> u32>(&mut self, other: &Self, op: F) {
        let (se, oe) = (self.epoch, other.epoch);
        match (se, oe) {
            (0, 0) => {
                for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                    *a = op(*a, *b);
                }
            }
            (0, _) => {
                for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                    *a = op(*a, b.saturating_sub(oe));
                }
            }
            (_, 0) => {
                for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                    *a = op(a.saturating_sub(se), *b);
                }
            }
            _ => {
                for (a, b) in self.counters.iter_mut().zip(&other.counters) {
                    *a = op(a.saturating_sub(se), b.saturating_sub(oe));
                }
            }
        }
        self.epoch = 0;
        self.merged = true;
    }

    /// Decays the filter: every non-zero counter is decremented by
    /// `amount` (saturating); counters that reach zero reset their bit.
    ///
    /// This is the TCBF's only deletion mechanism ("temporal
    /// deletion"). Callers translate wall-clock time into an integer
    /// `amount` via the decaying factor; [`Decayer`] handles fractional
    /// DFs.
    ///
    /// Decay is *lazy*: this is an O(1) epoch bump, not a counter walk.
    /// Reads materialize `stored ∸ epoch` on the fly and merges fold
    /// the epoch into their combining pass — see the type-level docs.
    pub fn decay(&mut self, amount: u32) {
        if amount == 0 {
            return;
        }
        obs::count(Counter::TcbfDecay, 1);
        let _span = obs::span(TimeHist::DecayNs);
        self.epoch = self.epoch.saturating_add(amount);
    }

    /// Folds the pending epoch into the stored counters (making the
    /// lazy representation eager again). O(m), called only where a
    /// stored-value invariant matters (insertion).
    fn flush_epoch(&mut self) {
        if self.epoch == 0 {
            return;
        }
        let e = self.epoch;
        for c in &mut self.counters {
            *c = c.saturating_sub(e);
        }
        self.epoch = 0;
    }

    /// The materialized (epoch-adjusted) counter at bit `idx`.
    ///
    /// This is the batch-matching read path: a caller that derived a
    /// key's positions once (via [`crate::KeyHasher::digests`]) probes
    /// counters directly instead of re-hashing the key per filter.
    /// Uninstrumented, exactly like [`BloomFilter::contains`] — batch
    /// probing must not perturb the metrics of the per-key query path.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.bit_len()`.
    #[must_use]
    pub fn counter_at(&self, idx: usize) -> u32 {
        self.counters[idx].saturating_sub(self.epoch)
    }

    /// Materialized (epoch-adjusted) counter values, in bit order — the
    /// observable state of the filter. Allocation-free iterator; use
    /// [`Tcbf::counter_values`] for a `Vec`.
    pub fn iter_counters(&self) -> impl Iterator<Item = u32> + '_ {
        let e = self.epoch;
        self.counters.iter().map(move |c| c.saturating_sub(e))
    }

    /// Existential query: `true` iff all hashed bits of the key have
    /// non-zero counters. Same false-positive behavior as the classic
    /// Bloom filter (Section IV-A).
    #[must_use]
    pub fn contains<K: AsRef<[u8]>>(&self, key: K) -> bool {
        self.min_counter(key) > 0
    }

    /// The minimum counter value over the key's hashed bits.
    ///
    /// Zero means the key is (definitely) not present. A non-zero value
    /// is the filter's "strength" for the key — how recently and how
    /// often it was reinforced — and is what preferential queries
    /// compare.
    #[must_use]
    pub fn min_counter<K: AsRef<[u8]>>(&self, key: K) -> u32 {
        self.min_counter_from_digests(self.hasher.digests(key.as_ref()))
    }

    /// [`Tcbf::min_counter`] for a key already hashed to `digests` by
    /// this filter's hasher ([`KeyHasher::digests`]): the same value
    /// and the same `TcbfQuery` count, without re-hashing the key.
    #[must_use]
    pub fn min_counter_from_digests(&self, digests: (u64, u64)) -> u32 {
        obs::count(Counter::TcbfQuery, 1);
        KeyHasher::positions_from_digests(digests, self.hashes, self.counters.len())
            .map(|pos| self.counters[pos].saturating_sub(self.epoch))
            .min()
            .unwrap_or(0)
    }

    /// Preferential query (Section IV-A): the preference of `self` over
    /// `against` for `key`.
    ///
    /// With `f = self.min_counter(key)` and `g = against.min_counter(key)`:
    ///
    /// - if `g != 0`, the preference is the finite difference `f - g`;
    /// - if `g == 0`, the preference is `f` but marked *absolute*: the
    ///   other filter does not hold the key at all, so its owner is not
    ///   a carrier for it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn preference<K: AsRef<[u8]>>(&self, against: &Self, key: K) -> Result<Preference, Error> {
        self.preference_from_digests(against, self.hasher.digests(key.as_ref()))
    }

    /// [`Tcbf::preference`] for a key already hashed to `digests` by
    /// the filters' shared hasher: the same result, counters and span,
    /// without hashing the key twice.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParamMismatch`] if the filters' parameters
    /// differ.
    pub fn preference_from_digests(
        &self,
        against: &Self,
        digests: (u64, u64),
    ) -> Result<Preference, Error> {
        self.check_compatible(against)?;
        obs::count(Counter::TcbfPreference, 1);
        let _span = obs::span(TimeHist::PreferenceNs);
        let f = i64::from(self.min_counter_from_digests(digests));
        let g = i64::from(against.min_counter_from_digests(digests));
        Ok(if g == 0 {
            Preference::Absolute(f)
        } else {
            Preference::Relative(f - g)
        })
    }

    /// Projects the TCBF to a plain [`BloomFilter`] by "ripping off the
    /// counters" (Section V-D): what a broker sends to a producer when
    /// requesting messages, to save bandwidth.
    #[must_use]
    pub fn to_bloom(&self) -> BloomFilter {
        let mut bits = BitVec::new(self.counters.len());
        for (i, &c) in self.counters.iter().enumerate() {
            if c > self.epoch {
                bits.set(i);
            }
        }
        BloomFilter::from_parts(bits, self.hashes, self.hasher)
    }

    /// Length of the counter vector (the paper's `m`).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions (the paper's `k`).
    #[must_use]
    pub fn hash_count(&self) -> usize {
        self.hashes
    }

    /// The insertion counter value `C`.
    #[must_use]
    pub fn initial_counter(&self) -> u32 {
        self.initial
    }

    /// Number of non-zero counters (set bits).
    #[must_use]
    pub fn set_bits(&self) -> usize {
        let e = self.epoch;
        self.counters.iter().filter(|&&c| c > e).count()
    }

    /// Fill ratio: non-zero counters over total (Eq. 3).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits() as f64 / self.counters.len() as f64
    }

    /// Whether no counter is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c <= self.epoch)
    }

    /// Whether this filter has ever been the receiver of a merge (and
    /// therefore rejects direct insertion).
    #[must_use]
    pub fn is_merged(&self) -> bool {
        self.merged
    }

    /// Resets the filter to empty and never-merged.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.epoch = 0;
        self.merged = false;
    }

    /// Largest counter value in the filter; zero if empty.
    #[must_use]
    pub fn max_counter_value(&self) -> u32 {
        self.iter_counters().max().unwrap_or(0)
    }

    /// The hasher used by this filter.
    #[must_use]
    pub fn hasher(&self) -> KeyHasher {
        self.hasher
    }

    /// Materialized counter values, indexed by bit position.
    ///
    /// Allocates; prefer [`Tcbf::iter_counters`] in hot paths.
    #[must_use]
    pub fn counter_values(&self) -> Vec<u32> {
        self.iter_counters().collect()
    }

    /// Rebuilds a filter from raw materialized counters.
    ///
    /// This is the deserialization seam: `bsub_bloom::wire::decode`
    /// and the node-state snapshot codec in `bsub-core` use it to
    /// reconstruct a filter whose counters, insertion value `C`, and
    /// merged flag were recorded elsewhere. The counters are taken as
    /// already materialized (epoch zero); behavior is identical to a
    /// filter that reached the same counter values through
    /// insert/merge/decay operations.
    #[must_use]
    pub fn from_parts(
        counters: Vec<u32>,
        hashes: usize,
        initial: u32,
        hasher: KeyHasher,
        merged: bool,
    ) -> Self {
        Self {
            counters,
            epoch: 0,
            hashes,
            initial,
            hasher,
            merged,
        }
    }

    fn check_compatible(&self, other: &Self) -> Result<(), Error> {
        if self.counters.len() != other.counters.len()
            || self.hashes != other.hashes
            || self.hasher != other.hasher
        {
            return Err(Error::ParamMismatch {
                ours: (self.counters.len(), self.hashes),
                theirs: (other.counters.len(), other.hashes),
            });
        }
        Ok(())
    }
}

/// Result of a preferential query ([`Tcbf::preference`]).
///
/// Ordered so that any [`Preference::Absolute`] with a positive value
/// beats any [`Preference::Relative`]: a carrier that holds the key
/// when the other does not is always preferred, matching the paper's
/// "the preference is `f` when `g` equals 0" rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Both filters hold the key; the value is `f - g`.
    Relative(i64),
    /// Only `self` may hold the key (`g == 0`); the value is `f`.
    Absolute(i64),
}

impl Preference {
    /// Whether this preference is strictly positive — i.e. the queried
    /// filter's owner is a *better* carrier. B-SUB forwards only
    /// messages with positive preference (Section V-D).
    #[must_use]
    pub fn is_positive(&self) -> bool {
        match self {
            Preference::Relative(v) | Preference::Absolute(v) => *v > 0,
        }
    }

    /// A sort key: absolute preferences rank above all relative ones,
    /// then by value. Messages with the largest positive preference are
    /// forwarded first.
    #[must_use]
    pub fn rank(&self) -> (u8, i64) {
        match self {
            Preference::Relative(v) => (0, *v),
            Preference::Absolute(v) => (1, *v),
        }
    }
}

impl PartialOrd for Preference {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Preference {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// Translates a fractional decaying factor into integer decay amounts.
///
/// The paper expresses the DF in counter units per minute (Fig. 9's
/// x-axis runs from 0 to 2.0 per minute, and the "best granularity" of
/// a 1-byte counter over 24 h is one decrement per 5.6 min). Counters
/// are integers, so a `Decayer` accumulates the exact product
/// `DF × elapsed` and releases its integer part, carrying the
/// fractional remainder — no decay is ever lost or double-applied.
///
/// # Examples
///
/// ```
/// use bsub_bloom::Decayer;
///
/// let mut d = Decayer::new(0.4); // 0.4 counter units per minute
/// assert_eq!(d.advance(1.0), 0); // 0.4 accumulated
/// assert_eq!(d.advance(2.0), 1); // 1.2 -> release 1, keep 0.2
/// assert_eq!(d.advance(2.0), 1); // 1.0 -> release 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Decayer {
    rate_per_min: f64,
    residual: f64,
}

impl Decayer {
    /// Creates a decayer with the given DF in counter units per minute.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite.
    #[must_use]
    pub fn new(rate_per_min: f64) -> Self {
        assert!(
            rate_per_min >= 0.0 && rate_per_min.is_finite(),
            "decaying factor must be a finite non-negative rate"
        );
        Self {
            rate_per_min,
            residual: 0.0,
        }
    }

    /// The decaying factor, in counter units per minute.
    #[must_use]
    pub fn rate_per_min(&self) -> f64 {
        self.rate_per_min
    }

    /// Changes the decaying factor, keeping the accumulated fractional
    /// residual. B-SUB's online DF adaptation (Section VI-B: "we can
    /// tentatively adjust the DF, then re-adjust its value") uses this
    /// as contact rates drift.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite.
    pub fn set_rate_per_min(&mut self, rate_per_min: f64) {
        assert!(
            rate_per_min >= 0.0 && rate_per_min.is_finite(),
            "decaying factor must be a finite non-negative rate"
        );
        self.rate_per_min = rate_per_min;
    }

    /// The accumulated fractional decay not yet released by
    /// [`Decayer::advance`], in `[0, 1)` counter units.
    ///
    /// Exposed so a decayer can be serialized exactly: reconstructing
    /// via [`Decayer::restore`] with this value reproduces the same
    /// future release schedule bit-for-bit.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Rebuilds a decayer from a rate and a previously observed
    /// [`Decayer::residual`] — the deserialization counterpart of the
    /// accessor pair.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_min` is negative or not finite, or if
    /// `residual` is not in `[0, 1)`.
    #[must_use]
    pub fn restore(rate_per_min: f64, residual: f64) -> Self {
        let mut d = Self::new(rate_per_min);
        assert!(
            (0.0..1.0).contains(&residual),
            "residual must be a fraction in [0, 1)"
        );
        d.residual = residual;
        d
    }

    /// Advances time by `minutes` and returns the integer decay amount
    /// to apply via [`Tcbf::decay`].
    pub fn advance(&mut self, minutes: f64) -> u32 {
        debug_assert!(minutes >= 0.0, "time cannot flow backwards");
        self.residual += self.rate_per_min * minutes;
        let whole = self.residual.floor();
        self.residual -= whole;
        // Counters saturate at u32 range anyway; clamp the release.
        whole.min(f64::from(u32::MAX)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcbf() -> Tcbf {
        Tcbf::new(256, 4, 10)
    }

    #[test]
    fn insert_sets_counters_to_initial() {
        let mut f = tcbf();
        f.insert("k0").unwrap();
        assert_eq!(f.min_counter("k0"), 10);
        assert!(f.contains("k0"));
    }

    #[test]
    fn reinsert_does_not_change_set_counters() {
        // Section IV-A: "If the counter has already been set, we do not
        // change its value."
        let mut f = tcbf();
        f.insert("k0").unwrap();
        f.insert("k0").unwrap();
        assert_eq!(f.min_counter("k0"), 10);
        assert_eq!(f.max_counter_value(), 10);
    }

    #[test]
    fn counter_at_matches_iter_counters_under_lazy_decay() {
        let mut f = Tcbf::from_keys(64, 4, 10, ["a", "b", "c"]);
        f.decay(3);
        let eager: Vec<u32> = f.iter_counters().collect();
        for (i, &c) in eager.iter().enumerate() {
            assert_eq!(f.counter_at(i), c);
        }
    }

    #[test]
    fn fresh_filter_has_uniform_counters() {
        let mut f = tcbf();
        for k in ["a", "b", "c", "d"] {
            f.insert(k).unwrap();
        }
        for c in f.counter_values() {
            assert!(c == 0 || c == 10);
        }
    }

    #[test]
    fn insert_after_merge_rejected() {
        let mut f = tcbf();
        let other = Tcbf::from_keys(256, 4, 10, ["x"]);
        f.a_merge(&other).unwrap();
        assert!(f.is_merged());
        assert_eq!(f.insert("y"), Err(Error::InsertAfterMerge));
    }

    #[test]
    fn paper_insert_into_merged_workflow() {
        // "In order to insert multiple keys into a merged filter, we
        // first insert the keys into an empty TCBF, then merge."
        let mut merged = tcbf();
        merged
            .a_merge(&Tcbf::from_keys(256, 4, 10, ["old"]))
            .unwrap();
        let fresh = Tcbf::from_keys(256, 4, 10, ["new"]);
        merged.a_merge(&fresh).unwrap();
        assert!(merged.contains("old"));
        assert!(merged.contains("new"));
    }

    #[test]
    fn a_merge_adds_counters() {
        // Fig. 3: A-merge of two filters holding {k0} and {k1}, both at
        // 10, yields k0/k1-only bits at 10 and shared bits at 20.
        let f0 = Tcbf::from_keys(256, 4, 10, ["k0"]);
        let f1 = Tcbf::from_keys(256, 4, 10, ["k1"]);
        let mut m = f0.clone();
        m.a_merge(&f1).unwrap();
        assert!(m.contains("k0") && m.contains("k1"));
        // Each counter is 10 (unshared bit) or 20 (shared bit).
        for c in m.counter_values() {
            assert!(c == 0 || c == 10 || c == 20, "counter {c}");
        }
    }

    #[test]
    fn m_merge_takes_maximum() {
        // Fig. 3: M-merge of the same two filters keeps all counters at
        // 10 — no bogus inflation.
        let f0 = Tcbf::from_keys(256, 4, 10, ["k0"]);
        let f1 = Tcbf::from_keys(256, 4, 10, ["k1"]);
        let mut m = f0.clone();
        m.m_merge(&f1).unwrap();
        assert!(m.contains("k0") && m.contains("k1"));
        assert_eq!(m.max_counter_value(), 10);
    }

    #[test]
    fn m_merge_prevents_bogus_counters() {
        // Fig. 6 scenario: two brokers repeatedly exchanging relay
        // filters must not inflate each other's counters.
        let seed = Tcbf::from_keys(256, 4, 10, ["a-interest"]);
        let mut broker_b = Tcbf::new(256, 4, 10);
        let mut broker_c = Tcbf::new(256, 4, 10);
        broker_b.a_merge(&seed).unwrap();
        for _ in 0..100 {
            broker_c.m_merge(&broker_b).unwrap();
            broker_b.m_merge(&broker_c).unwrap();
        }
        assert_eq!(broker_b.min_counter("a-interest"), 10);
        assert_eq!(broker_c.min_counter("a-interest"), 10);
        // With A-merge instead, the counters would explode:
        let mut bogus_b = Tcbf::new(256, 4, 10);
        let mut bogus_c = Tcbf::new(256, 4, 10);
        bogus_b.a_merge(&seed).unwrap();
        for _ in 0..5 {
            bogus_c.a_merge(&bogus_b).unwrap();
            bogus_b.a_merge(&bogus_c).unwrap();
        }
        assert!(bogus_b.min_counter("a-interest") > 100);
    }

    #[test]
    fn decay_removes_expired_keys() {
        // Fig. 4: keys decay out unless reinforced.
        let mut f = tcbf();
        f.insert("fleeting").unwrap();
        f.decay(9);
        assert!(f.contains("fleeting"));
        f.decay(1);
        assert!(!f.contains("fleeting"));
        assert!(f.is_empty());
    }

    #[test]
    fn decay_zero_is_noop() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        let before = f.clone();
        f.decay(0);
        assert_eq!(f, before);
    }

    #[test]
    fn decay_saturates_at_zero() {
        let mut f = Tcbf::from_keys(256, 4, 10, ["k"]);
        f.decay(1000);
        assert!(f.is_empty());
        assert_eq!(f.max_counter_value(), 0);
    }

    #[test]
    fn reinforcement_extends_lifetime() {
        // The decaying-and-reinforcement mechanism: a consumer met
        // twice survives decay that expires a consumer met once.
        let once = Tcbf::from_keys(256, 4, 10, ["rare"]);
        let twice = Tcbf::from_keys(256, 4, 10, ["frequent"]);
        let mut relay = Tcbf::new(256, 4, 10);
        relay.a_merge(&once).unwrap();
        relay.a_merge(&twice).unwrap();
        relay.a_merge(&twice).unwrap();
        relay.decay(15);
        assert!(!relay.contains("rare"));
        assert!(relay.contains("frequent"));
    }

    #[test]
    fn existential_query_no_false_negatives() {
        let mut f = Tcbf::new(1024, 4, 5);
        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        for k in &keys {
            f.insert(k).unwrap();
        }
        for k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn preference_relative() {
        let mut strong = Tcbf::new(256, 4, 10);
        let mut weak = Tcbf::new(256, 4, 10);
        let genuine = Tcbf::from_keys(256, 4, 10, ["topic"]);
        strong.a_merge(&genuine).unwrap();
        strong.a_merge(&genuine).unwrap(); // counter 20
        weak.a_merge(&genuine).unwrap(); // counter 10
        let p = strong.preference(&weak, "topic").unwrap();
        assert_eq!(p, Preference::Relative(10));
        assert!(p.is_positive());
        let q = weak.preference(&strong, "topic").unwrap();
        assert_eq!(q, Preference::Relative(-10));
        assert!(!q.is_positive());
    }

    #[test]
    fn preference_absolute_when_other_lacks_key() {
        let holder = Tcbf::from_keys(256, 4, 10, ["topic"]);
        let empty = Tcbf::new(256, 4, 10);
        let p = holder.preference(&empty, "topic").unwrap();
        assert_eq!(p, Preference::Absolute(10));
        assert!(p.is_positive());
        // Neither holds it: absolute zero, not positive.
        let z = empty.preference(&empty.clone(), "topic").unwrap();
        assert_eq!(z, Preference::Absolute(0));
        assert!(!z.is_positive());
    }

    #[test]
    fn preference_ordering_absolute_beats_relative() {
        assert!(Preference::Absolute(1) > Preference::Relative(100));
        assert!(Preference::Relative(5) > Preference::Relative(3));
        assert!(Preference::Absolute(7) > Preference::Absolute(2));
    }

    #[test]
    fn to_bloom_rips_counters() {
        let f = Tcbf::from_keys(256, 4, 10, ["x", "y"]);
        let b = f.to_bloom();
        assert!(b.contains("x") && b.contains("y"));
        assert_eq!(b.set_bits(), f.set_bits());
    }

    #[test]
    fn merge_param_mismatch() {
        let mut a = Tcbf::new(256, 4, 10);
        let b = Tcbf::new(128, 4, 10);
        assert!(matches!(a.a_merge(&b), Err(Error::ParamMismatch { .. })));
        assert!(matches!(a.m_merge(&b), Err(Error::ParamMismatch { .. })));
        assert!(a.preference(&b, "k").is_err());
    }

    #[test]
    fn differing_initial_counters_still_merge() {
        let mut a = Tcbf::new(256, 4, 10);
        let b = Tcbf::from_keys(256, 4, 50, ["k"]);
        a.a_merge(&b).unwrap();
        assert_eq!(a.min_counter("k"), 50);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut f = tcbf();
        f.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        f.reset();
        assert!(f.is_empty());
        assert!(!f.is_merged());
        f.insert("again").unwrap();
        assert!(f.contains("again"));
    }

    #[test]
    fn fig4_timeline() {
        // Fig. 4's concept: k0 inserted repeatedly outlives k1, k2
        // inserted once. Initial value 10, DF 1 per unit time. We model
        // the timeline with fresh filters merged in (insertion into a
        // merged filter is not allowed).
        let mut f = Tcbf::new(256, 2, 10);
        let ins = |key: &str| Tcbf::from_keys(256, 2, 10, [key]);
        f.m_merge(&ins("k0")).unwrap(); // t=0
        f.decay(1);
        f.m_merge(&ins("k1")).unwrap(); // t=1
        f.decay(1);
        f.m_merge(&ins("k2")).unwrap(); // t=2
                                        // decay to t=10: k1 inserted at t=1 has counter 10-9=1, k2 has 2.
        f.decay(8);
        f.m_merge(&ins("k0")).unwrap(); // k0 refreshed at t=10
        f.decay(9); // t=19
        assert!(f.contains("k0"), "k0 was refreshed and survives");
        assert!(!f.contains("k1"), "k1 decayed away");
        assert!(!f.contains("k2"), "k2 decayed away");
    }

    #[test]
    fn decayer_accumulates_fractions() {
        let mut d = Decayer::new(0.25);
        let mut total = 0u32;
        for _ in 0..16 {
            total += d.advance(1.0);
        }
        assert_eq!(total, 4, "0.25/min over 16 min is exactly 4");
    }

    #[test]
    fn decayer_zero_rate_never_decays() {
        let mut d = Decayer::new(0.0);
        assert_eq!(d.advance(1e9), 0);
    }

    #[test]
    fn decayer_large_step() {
        let mut d = Decayer::new(2.0);
        assert_eq!(d.advance(600.0), 1200);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn decayer_rejects_negative_rate() {
        let _ = Decayer::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_counter_panics() {
        let _ = Tcbf::new(256, 4, 0);
    }

    #[test]
    fn decay_is_lazy_but_observably_eager() {
        // The epoch offset must be invisible: every read path reports
        // the same values an eager per-counter walk would.
        let mut lazy = Tcbf::from_keys(256, 4, 10, ["a", "b", "c"]);
        lazy.a_merge(&Tcbf::from_keys(256, 4, 10, ["a"])).unwrap();
        let mut eager = lazy.clone();
        lazy.decay(4);
        lazy.decay(3);
        eager.flush_epoch(); // no-op, epoch 0
        for c in &mut eager.counters {
            *c = c.saturating_sub(4);
        }
        for c in &mut eager.counters {
            *c = c.saturating_sub(3);
        }
        assert!(lazy.epoch > 0, "decay must not have walked the array");
        assert_eq!(lazy, eager);
        assert_eq!(lazy.counter_values(), eager.counter_values());
        assert_eq!(lazy.set_bits(), eager.set_bits());
        assert_eq!(lazy.max_counter_value(), eager.max_counter_value());
        assert_eq!(lazy.min_counter("a"), eager.min_counter("a"));
        assert_eq!(lazy.to_bloom(), eager.to_bloom());
    }

    #[test]
    fn merge_folds_pending_epochs() {
        // Decayed filters on both sides of a merge must combine their
        // *materialized* values (the fused pass folds both pending
        // epochs); only observable values are asserted.
        let mut a = Tcbf::new(256, 4, 10);
        a.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        a.decay(3); // k at 7
        let mut b = Tcbf::new(256, 4, 10);
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["k"])).unwrap();
        b.decay(8); // k at 2
        let mut sum = a.clone();
        sum.a_merge(&b).unwrap();
        assert_eq!(sum.min_counter("k"), 9);
        let mut max = a.clone();
        max.m_merge(&b).unwrap();
        assert_eq!(max.min_counter("k"), 7);
        // Post-merge decay still applies on top.
        sum.decay(2);
        assert_eq!(sum.min_counter("k"), 7);
    }

    #[test]
    fn merge_near_u32_max_with_pending_epoch_stays_exact() {
        // Saturation at the top of the counter range must commute
        // with the lazy epoch: the fused merge materializes both
        // sides before combining, so a sum clamped at `u32::MAX`
        // stores exactly `u32::MAX`. Drive a filter there with a huge
        // initial counter and check against the eager expectation.
        let big = u32::MAX - 2;
        let mut f = Tcbf::new(64, 2, big);
        f.insert("k").unwrap();
        f.decay(5);
        // Materialized value: MAX - 7. A-merging another `big` filter
        // saturates the sum at MAX, which cannot be stored as
        // `MAX + 5`.
        f.a_merge(&Tcbf::from_keys(64, 2, big, ["k"])).unwrap();
        assert_eq!(f.min_counter("k"), u32::MAX);
        // Later decays still subtract exactly.
        f.decay(7);
        assert_eq!(f.min_counter("k"), u32::MAX - 7);
    }

    #[test]
    fn insert_after_decay_uses_materialized_state() {
        // A decayed-to-zero counter counts as unset again, and the new
        // insertion lands exactly at C — the epoch must not eat it.
        let mut f = tcbf();
        f.insert("gone").unwrap();
        f.decay(10);
        assert!(!f.contains("gone"));
        f.insert("gone").unwrap();
        assert_eq!(f.min_counter("gone"), 10);
    }

    #[test]
    fn m_merge_keeps_common_epoch_lazy() {
        // Max commutes with a shared saturating offset, so an M-merge
        // only equalizes the two epochs: min(e, f) must survive the
        // merge as pending decay, with materialized values identical
        // to the eager computation.
        let mut a = Tcbf::new(256, 4, 10);
        a.a_merge(&Tcbf::from_keys(256, 4, 10, ["ka", "shared"]))
            .unwrap();
        a.decay(4);
        let mut b = Tcbf::new(256, 4, 10);
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["kb", "shared"]))
            .unwrap();
        b.a_merge(&Tcbf::from_keys(256, 4, 10, ["shared"])).unwrap();
        b.decay(7);

        // Eager expectation on materialized values.
        let eager: Vec<u32> = a
            .iter_counters()
            .zip(b.iter_counters())
            .map(|(x, y)| x.max(y))
            .collect();
        let mut m = a.clone();
        m.m_merge(&b).unwrap();
        assert_eq!(m.epoch, 4, "common epoch part must stay pending");
        assert_eq!(m.counter_values(), eager);
        // And the mirror direction, with the larger epoch on self.
        let mut m2 = b.clone();
        m2.m_merge(&a).unwrap();
        assert_eq!(m2.epoch, 4);
        assert_eq!(m2.counter_values(), eager);
    }

    #[test]
    fn profiling_counts_tcbf_hot_paths() {
        bsub_obs::start();
        let mut a = Tcbf::from_keys(256, 4, 10, ["x", "y"]);
        let b = Tcbf::from_keys(256, 4, 10, ["x"]);
        a.a_merge(&b).unwrap();
        let mut m = Tcbf::new(256, 4, 10);
        m.m_merge(&b).unwrap();
        a.decay(1);
        a.decay(0); // zero decay is a no-op and must not be counted
        let _ = a.contains("x");
        let _ = a.preference(&b, "x").unwrap();
        let report = bsub_obs::finish();
        assert_eq!(report.counter(Counter::TcbfInsert), 3);
        assert_eq!(report.counter(Counter::TcbfAMerge), 1);
        assert_eq!(report.counter(Counter::TcbfMMerge), 1);
        assert_eq!(report.counter(Counter::TcbfDecay), 1);
        // contains → 1 query; preference → 2 more via min_counter.
        assert_eq!(report.counter(Counter::TcbfQuery), 3);
        assert_eq!(report.counter(Counter::TcbfPreference), 1);
        assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 2);
    }
}
