//! The workspace's one byte codec (conventions in DESIGN.md §12.7):
//! an append-only little-endian [`Writer`] and a cursor [`Reader`]
//! whose accessors return `None` on truncation or malformed content.
//! Decoded counts go through [`Reader::count`], which accepts a count
//! only if that many minimal items fit in the bytes left.
//!
//! ```
//! use bsub_obs::codec::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.str("news");
//! w.u32(2); // two u16 items follow
//! w.u16(1);
//! w.u16(2);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.str(), Some("news"));
//! let items: Option<Vec<u16>> = (0..r.count(2).unwrap()).map(|_| r.u16()).collect();
//! assert_eq!(items, Some(vec![1, 2]));
//! assert_eq!(r.finish(), Some(()));
//! ```

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes and returns the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (1 = true).
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor over little-endian bytes; every accessor returns `None` on
/// truncation or malformed content.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `Some(())` once every byte has been consumed: decoders end with
    /// `r.finish()?` to reject trailing garbage.
    #[must_use]
    pub fn finish(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a flag; any byte other than 0 or 1 is malformed.
    pub fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// Reads a `u32` count, accepted only if that many items of at
    /// least `min_item_len` bytes each fit in the bytes left, so it is
    /// safe to hand to `Vec::with_capacity`.
    pub fn count(&mut self, min_item_len: usize) -> Option<usize> {
        let count = self.u32()?;
        self.bounded(u64::from(count), min_item_len)
    }

    /// [`Reader::count`] for a `u64` count prefix.
    pub fn count_u64(&mut self, min_item_len: usize) -> Option<usize> {
        let count = self.u64()?;
        self.bounded(count, min_item_len)
    }

    fn bounded(&self, count: u64, min_item_len: usize) -> Option<usize> {
        debug_assert!(min_item_len > 0, "every item encodes to at least a byte");
        let count = usize::try_from(count).ok()?;
        (count.checked_mul(min_item_len)? <= self.remaining()).then_some(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.flag(true);
        w.flag(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.1 + 0.2); // not representable exactly in decimal
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.u16(0x0909);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.flag(), Some(true));
        assert_eq!(r.flag(), Some(false));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((0.1f64 + 0.2).to_bits()));
        assert_eq!(r.str(), Some("héllo"));
        assert_eq!(r.bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.finish(), None);
        assert_eq!(r.take(2), Some(&[9u8, 9][..]));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn layout_is_little_endian() {
        let mut w = Writer::new();
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(0x0708_090A_0B0C_0D0E);
        w.str("ab");
        assert_eq!(
            w.into_bytes(),
            [2, 1, 6, 5, 4, 3, 14, 13, 12, 11, 10, 9, 8, 7, 2, 0, 0, 0, b'a', b'b']
        );
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes[..5]).u64(), None);
        assert_eq!(Reader::new(&bytes[..1]).u16(), None);
        let mut r = Reader::new(&[]);
        assert_eq!(r.u8(), None);
        assert_eq!(r.bytes(), None);
        assert_eq!(r.take(usize::MAX), None);
    }

    #[test]
    fn bad_flag_and_bad_utf8_rejected() {
        assert_eq!(Reader::new(&[2]).flag(), None);
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).str(), None);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX); // claims a 4 GiB blob
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).bytes(), None);
    }

    #[test]
    fn counts_must_fit_the_bytes_left() {
        let mut w = Writer::new();
        w.u32(3);
        w.u32(0);
        w.u64(0);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).count(4), Some(3), "exact fit");
        assert_eq!(Reader::new(&bytes).count(5), None, "15 > 12 bytes left");
        assert_eq!(Reader::new(&bytes[..15]).count(4), None);

        let mut w = Writer::new();
        w.u64(u64::MAX);
        assert_eq!(Reader::new(&w.into_bytes()).count_u64(1), None);
        let mut w = Writer::new();
        w.u64(1 << 62);
        w.u64(0);
        assert_eq!(
            Reader::new(&w.into_bytes()).count_u64(8),
            None,
            "count × size overflow is a reject, not a wrap"
        );
        let mut w = Writer::new();
        w.u32(0);
        assert_eq!(Reader::new(&w.into_bytes()).count(64), Some(0));
    }
}
