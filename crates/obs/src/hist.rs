//! Log₂-bucketed histogram with exact count/sum/min/max.

use crate::codec::{Reader, Writer};

/// Number of buckets: one per possible bit length of a `u64` value,
/// plus one for zero (bucket 0 holds only the value 0).
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` samples.
///
/// Bucket `i > 0` covers values in `[2^(i-1), 2^i)`; bucket 0 holds
/// zeros. Quantiles are answered from bucket boundaries, so a reported
/// p99 is an upper bound within a factor of two of the true value —
/// plenty for spotting order-of-magnitude regressions while staying
/// allocation-free. Exact `count`, `sum`, `min`, and `max` are kept
/// alongside the buckets.
///
/// All arithmetic saturates: a histogram fed `u64::MAX` samples
/// forever pegs at the ceiling instead of wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket covering `value`.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`0` for the zero bucket).
    fn bucket_ceiling(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; zero when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample; zero when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples; zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the ceiling
    /// of the first bucket whose cumulative count reaches `q · count`,
    /// clamped to the exact observed `max`. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return Self::bucket_ceiling(i).min(self.max);
            }
        }
        self.max
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges `other` into `self`. Commutative and associative, so
    /// per-run histograms can be combined in any order with the same
    /// result — the property the worker-count-invariance test leans on.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Appends this histogram's wire encoding to `w`: `count`,
    /// `sum`, `min`, `max` as u64 LE, then a sparse bucket list — a
    /// `u8` entry count followed by (`u8` bucket index, u64 LE bucket
    /// count) pairs in strictly ascending index order, zero buckets
    /// omitted. Part of the `ProfReport` wire layout (DESIGN.md §15).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.min);
        w.u64(self.max);
        let nonzero = self.buckets.iter().filter(|&&b| b != 0).count();
        w.u8(nonzero as u8);
        for (i, &b) in self.buckets.iter().enumerate() {
            if b != 0 {
                w.u8(i as u8);
                w.u64(b);
            }
        }
    }

    /// Decodes one histogram record at the reader's cursor. `None` on
    /// truncation, an out-of-range or non-ascending bucket index, an
    /// explicit zero bucket (the encoder never emits one), or an empty
    /// histogram whose scalars disagree with [`Histogram::new`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Option<Self> {
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let entries = r.u8()? as usize;
        if entries > BUCKETS {
            return None;
        }
        let mut buckets = [0u64; BUCKETS];
        let mut last: Option<usize> = None;
        for _ in 0..entries {
            let index = r.u8()? as usize;
            if index >= BUCKETS || last.is_some_and(|l| index <= l) {
                return None;
            }
            let value = r.u64()?;
            if value == 0 {
                return None;
            }
            buckets[index] = value;
            last = Some(index);
        }
        if count == 0 && (sum != 0 || min != u64::MAX || max != 0 || entries != 0) {
            return None;
        }
        Some(Self {
            buckets,
            count,
            sum,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(h: &Histogram) -> Vec<u8> {
        let mut w = Writer::new();
        h.encode_into(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Histogram> {
        Histogram::decode_from(&mut Reader::new(bytes))
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn records_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [3, 1000, 7, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn quantiles_bound_true_values_within_a_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True p50 is 50; the covering bucket [32,64) reports 63.
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 100);
        let p99 = h.quantile(0.99);
        assert!((99..=100).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let mut h = Histogram::new();
        for v in [0, 1, 7, 300, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let bytes = encode(&h);
        let mut r = Reader::new(&bytes);
        let back = Histogram::decode_from(&mut r).expect("decodes");
        assert_eq!(r.finish(), Some(()), "decoder consumes the whole record");
        assert_eq!(back, h);

        let empty = Histogram::new();
        let bytes = encode(&empty);
        assert_eq!(bytes.len(), 33, "4 scalars + entry count, no entries");
        assert_eq!(decode(&bytes), Some(empty));
    }

    #[test]
    fn wire_decode_rejects_malformed_records() {
        let mut h = Histogram::new();
        h.record(9);
        let bytes = encode(&h);
        // Truncation anywhere in the record.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // A bucket index past the table.
        let mut bad = bytes.clone();
        bad[33] = BUCKETS as u8;
        assert!(decode(&bad).is_none());
        // An empty histogram whose scalars claim samples.
        let mut lying = encode(&Histogram::new());
        lying[8] = 1; // sum = 1 with count = 0
        assert!(decode(&lying).is_none());
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 5, 9, 1 << 40] {
            a.record(v);
        }
        for v in [0, 2, 1 << 20] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 7);
        assert_eq!(ab.min(), 0);
        assert_eq!(ab.max(), 1 << 40);
    }
}
