//! A fixed-length bit vector backed by `u64` words.
//!
//! The standard library has no bit vector and the paper's claims are
//! about the cost of exactly these operations, so we own the
//! implementation rather than pulling in a crate.

/// A fixed-length vector of bits.
///
/// Bits are indexed from `0` to `len() - 1`. All out-of-range accesses
/// panic; the filter types in this crate guarantee in-range indices by
/// construction.
///
/// # Examples
///
/// ```
/// use bsub_bloom::BitVec;
///
/// let mut bits = BitVec::new(256);
/// bits.set(7);
/// assert!(bits.get(7));
/// assert_eq!(bits.count_ones(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl BitVec {
    /// Creates a bit vector of `len` bits, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits of capacity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `idx` to one. Returns whether the bit was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn set(&mut self, idx: usize) -> bool {
        self.check(idx);
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        was
    }

    /// Clears bit `idx`. Returns whether the bit was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn clear(&mut self, idx: usize) -> bool {
        self.check(idx);
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        self.check(idx);
        let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bitwise OR of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; the filter types validate this with
    /// a proper error before calling.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bit-vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether every set bit of `self` is also set in `other`.
    #[cfg(test)]
    fn is_subset_of(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a & !b == 0)
    }

    /// Resets all bits to zero.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bits: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn check(&self, idx: usize) {
        assert!(
            idx < self.len,
            "bit index {idx} out of range for BitVec of length {}",
            self.len
        );
    }
}

/// Iterator over set-bit indices, produced by [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    bits: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bits.words.len() {
                return None;
            }
            self.current = self.bits.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = BitVec::new(100);
        assert_eq!(b.len(), 100);
        assert!(b.all_zero());
        assert_eq!(b.count_ones(), 0);
        assert!(!b.is_empty());
    }

    #[test]
    fn zero_length_is_empty() {
        let b = BitVec::new(0);
        assert!(b.is_empty());
        assert!(b.all_zero());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitVec::new(130);
        for idx in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(idx));
            assert!(!b.set(idx), "first set reports previously-unset");
            assert!(b.get(idx));
            assert!(b.set(idx), "second set reports previously-set");
            assert!(b.clear(idx));
            assert!(!b.get(idx));
            assert!(!b.clear(idx));
        }
    }

    #[test]
    fn count_ones_across_words() {
        let mut b = BitVec::new(256);
        for idx in (0..256).step_by(3) {
            b.set(idx);
        }
        assert_eq!(b.count_ones(), (0..256).step_by(3).count());
    }

    #[test]
    fn or_assign_unions() {
        let mut a = BitVec::new(128);
        let mut b = BitVec::new(128);
        a.set(1);
        a.set(70);
        b.set(2);
        b.set(70);
        a.or_assign(&b);
        let ones: Vec<_> = a.iter_ones().collect();
        assert_eq!(ones, vec![1, 2, 70]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_assign_length_mismatch_panics() {
        let mut a = BitVec::new(128);
        let b = BitVec::new(64);
        a.or_assign(&b);
    }

    #[test]
    fn subset_relation() {
        let mut a = BitVec::new(64);
        let mut b = BitVec::new(64);
        a.set(3);
        b.set(3);
        b.set(9);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn subset_requires_equal_length() {
        let a = BitVec::new(64);
        let b = BitVec::new(128);
        assert!(!a.is_subset_of(&b));
    }

    #[test]
    fn iter_ones_order_and_bounds() {
        let mut b = BitVec::new(200);
        let idxs = [0usize, 5, 63, 64, 128, 199];
        for &i in &idxs {
            b.set(i);
        }
        let got: Vec<_> = b.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = BitVec::new(70);
        b.set(0);
        b.set(69);
        b.reset();
        assert!(b.all_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = BitVec::new(64);
        let _ = b.get(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = BitVec::new(10);
        b.set(10);
    }

    #[test]
    fn non_word_aligned_length() {
        let mut b = BitVec::new(65);
        b.set(64);
        assert_eq!(b.count_ones(), 1);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![64]);
    }
}
