//! Compressed wire encoding of TCBFs (Section VI-C of the paper).
//!
//! Because the fill ratio is low in B-SUB's operating regime, a filter
//! is cheaper to ship as a *list of set-bit locations* than as a raw
//! bit vector: each location costs ⌈log₂ m⌉ bits, so `n` set bits cost
//! `n·⌈log₂ m⌉` bits instead of `m`. Counters add one byte per set bit,
//! with two paper-described optimizations:
//!
//! - **shared counter** — if all counters are identical (always true
//!   for a freshly built genuine filter), a single byte is stored;
//! - **ripped counters** — when a broker requests messages from a
//!   producer, counters are not needed at all and are omitted,
//!   yielding a plain Bloom filter on the other side.
//!
//! A fourth, non-paper mode ([`CounterMode::Wide`]) stores each
//! counter as a full `u32` — lossless where `Full` saturates at 255.
//! The networked runtime uses it to ship relay-filter state between
//! processes, where exactness matters more than radio bytes.
//!
//! The encoding is self-describing: [`decode`] returns either a
//! [`Tcbf`] or a [`BloomFilter`] depending on what was sent. Hasher
//! seeds are *not* encoded — B-SUB assumes a network-wide hash
//! configuration, so the decoder uses [`KeyHasher::default`].
//!
//! # Framing and integrity
//!
//! The fixed 8-byte header is `tag (1) | m: u16 LE (2) | k (1) |
//! n: u16 LE (2) | crc: u16 LE (2)`, where `crc` is CRC-16/CCITT-FALSE
//! over the first six header bytes and the whole body. Control filters
//! travel over lossy radio links, so [`decode`] must *reject* any
//! truncated or bit-flipped encoding rather than reconstruct a
//! plausible-but-wrong filter: truncation is caught by the exact-length
//! check (the header fully determines the payload length) and any
//! single-bit error is caught by the checksum — both are exercised
//! exhaustively by the property tests in `tests/properties.rs`.

use crate::bitvec::BitVec;
use crate::bloom::BloomFilter;
use crate::error::Error;
use crate::hash::KeyHasher;
use crate::tcbf::Tcbf;
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};

/// How counters are represented on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterMode {
    /// One byte per set bit (values saturate at 255).
    Full,
    /// A single shared byte; valid only when all non-zero counters are
    /// identical (e.g. a never-merged genuine filter).
    Shared,
    /// No counters: the receiver reconstructs a plain [`BloomFilter`].
    Ripped,
    /// Four bytes (`u32` LE) per set bit — lossless at any counter
    /// magnitude, unlike [`CounterMode::Full`]'s 255 saturation. Used
    /// for state snapshots (the networked runtime ships relay filters
    /// between processes), never for the paper's radio cost model.
    Wide,
}

/// A decoded wire payload.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePayload {
    /// A filter that carried counters ([`CounterMode::Full`] or
    /// [`CounterMode::Shared`]). Decoded filters are marked merged, so
    /// they reject direct insertion, matching their role as
    /// merge sources.
    Tcbf(Tcbf),
    /// A counter-less filter ([`CounterMode::Ripped`]).
    Bloom(BloomFilter),
}

impl WirePayload {
    /// Extracts the TCBF, if the payload carried counters.
    #[must_use]
    pub fn into_tcbf(self) -> Option<Tcbf> {
        match self {
            WirePayload::Tcbf(t) => Some(t),
            WirePayload::Bloom(_) => None,
        }
    }
}

const TAG_FULL: u8 = 0;
const TAG_SHARED: u8 = 1;
const TAG_RIPPED: u8 = 2;
const TAG_WIDE: u8 = 3;

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over the
/// concatenation of `parts`. A degree-16 polynomial with more than one
/// term detects every single-bit error, which is the guarantee the
/// fault model leans on.
///
/// Public because the networked runtime (`bsub-net`) frames every
/// socket message with the same checksum — see DESIGN.md §12 for the
/// normative frame layout.
#[must_use]
pub fn crc16(parts: [&[u8]; 2]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for part in parts {
        for &byte in part {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
    }
    crc
}

/// Bits needed to address one of `m` locations: ⌈log₂ m⌉ (minimum 1).
#[must_use]
pub fn location_bits(m: usize) -> usize {
    assert!(m > 0, "m must be positive");
    usize::BITS as usize - (m - 1).leading_zeros() as usize + usize::from(m == 1)
}

/// Size in bytes of an encoded filter with `n_set` set bits out of `m`,
/// under the given counter mode. This is the crate's instantiation of
/// the paper's Eq. 8 memory model (plus a fixed 8-byte header).
#[must_use]
pub fn encoded_len(n_set: usize, m: usize, mode: CounterMode) -> usize {
    let header = 8;
    let locations = (n_set * location_bits(m)).div_ceil(8);
    let counters = match mode {
        CounterMode::Full => n_set,
        CounterMode::Shared => 1,
        CounterMode::Ripped => 0,
        CounterMode::Wide => 4 * n_set,
    };
    header + locations + counters
}

/// Serialized size of representing `keys` as raw strings instead of a
/// filter, for the Section VI-C comparison: per key, a 2-byte length
/// prefix, the UTF-8 bytes, and a 1-byte counter (the "associated
/// control information").
#[must_use]
pub fn raw_strings_len<I, K>(keys: I) -> usize
where
    I: IntoIterator<Item = K>,
    K: AsRef<str>,
{
    keys.into_iter().map(|k| 2 + k.as_ref().len() + 1).sum()
}

/// Encodes a TCBF.
///
/// # Errors
///
/// Returns [`Error::InvalidParams`] if:
/// - `mode` is [`CounterMode::Shared`] but the non-zero counters are
///   not all identical, or
/// - the filter has more than `u16::MAX` set bits or more than
///   `u16::MAX` locations (outside any HUNET operating range).
pub fn encode(filter: &Tcbf, mode: CounterMode) -> Result<Vec<u8>, Error> {
    let _span = obs::span(TimeHist::EncodeNs);
    let m = filter.bit_len();
    if m > u16::MAX as usize {
        return Err(Error::InvalidParams {
            reason: "bit-vector too long for wire format",
        });
    }
    // Materialized counters: the lazy decay epoch is folded in here,
    // so the bytes on the wire are exactly what an eagerly decayed
    // filter would produce.
    let set: Vec<(usize, u32)> = filter
        .iter_counters()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    if set.len() > u16::MAX as usize {
        return Err(Error::InvalidParams {
            reason: "too many set bits for wire format",
        });
    }
    let shared_value = match mode {
        CounterMode::Shared => {
            let first = set.first().map_or(0, |&(_, c)| c);
            if set.iter().any(|&(_, c)| c != first) {
                return Err(Error::InvalidParams {
                    reason: "shared-counter mode requires identical counters",
                });
            }
            Some(first)
        }
        _ => None,
    };

    let mut out = Vec::with_capacity(encoded_len(set.len(), m, mode));
    out.push(match mode {
        CounterMode::Full => TAG_FULL,
        CounterMode::Shared => TAG_SHARED,
        CounterMode::Ripped => TAG_RIPPED,
        CounterMode::Wide => TAG_WIDE,
    });
    out.extend_from_slice(&(m as u16).to_le_bytes());
    out.push(
        filter
            .hash_count()
            .try_into()
            .map_err(|_| Error::InvalidParams {
                reason: "hash count exceeds 255",
            })?,
    );
    out.extend_from_slice(&(set.len() as u16).to_le_bytes());
    out.extend_from_slice(&[0, 0]); // checksum backfilled below

    // Bit-packed locations, MSB-first.
    let width = location_bits(m);
    let mut acc: u64 = 0;
    let mut acc_bits = 0usize;
    for &(loc, _) in &set {
        acc = (acc << width) | loc as u64;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push(((acc >> (acc_bits - 8)) & 0xff) as u8);
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push(((acc << (8 - acc_bits)) & 0xff) as u8);
    }

    match mode {
        CounterMode::Full => {
            out.extend(set.iter().map(|&(_, c)| saturate(c)));
        }
        CounterMode::Shared => {
            out.push(saturate(shared_value.unwrap_or(0)));
        }
        CounterMode::Ripped => {}
        CounterMode::Wide => {
            for &(_, c) in &set {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    let crc = crc16([&out[..6], &out[8..]]);
    out[6..8].copy_from_slice(&crc.to_le_bytes());
    obs::count(Counter::WireEncode, 1);
    obs::count(Counter::WireBytes, out.len() as u64);
    obs::observe(SizeHist::EncodedFilterBytes, out.len() as u64);
    Ok(out)
}

fn saturate(c: u32) -> u8 {
    c.min(u32::from(u8::MAX)) as u8
}

/// Decodes a wire payload produced by [`encode`].
///
/// # Errors
///
/// Returns [`Error::Decode`] on truncated or corrupt input.
pub fn decode(bytes: &[u8]) -> Result<WirePayload, Error> {
    let _span = obs::span(TimeHist::DecodeNs);
    let result = decode_inner(bytes);
    obs::count(
        if result.is_ok() {
            Counter::WireDecodeOk
        } else {
            Counter::WireDecodeReject
        },
        1,
    );
    result
}

fn decode_inner(bytes: &[u8]) -> Result<WirePayload, Error> {
    let err = |reason| Error::Decode { reason };
    if bytes.len() < 8 {
        return Err(err("truncated header"));
    }
    let tag = bytes[0];
    let m = u16::from_le_bytes(bytes[1..3].try_into().expect("2 bytes")) as usize;
    let k = bytes[3] as usize;
    let n = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")) as usize;
    let crc = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if m == 0 {
        return Err(err("zero-length bit vector"));
    }
    if k == 0 {
        return Err(err("zero hash count"));
    }
    let width = location_bits(m);
    let loc_bytes = (n * width).div_ceil(8);
    let counters_len = match tag {
        TAG_FULL => n,
        TAG_SHARED => 1,
        TAG_RIPPED => 0,
        TAG_WIDE => 4 * n,
        _ => return Err(err("unknown format tag")),
    };
    if bytes.len() != 8 + loc_bytes + counters_len {
        return Err(err("payload length mismatch"));
    }
    if crc16([&bytes[..6], &bytes[8..]]) != crc {
        return Err(err("checksum mismatch"));
    }

    // Unpack locations.
    let mut locations = Vec::with_capacity(n);
    let mut acc: u64 = 0;
    let mut acc_bits = 0usize;
    let mut cursor = 8;
    for _ in 0..n {
        while acc_bits < width {
            acc = (acc << 8) | u64::from(bytes[cursor]);
            cursor += 1;
            acc_bits += 8;
        }
        let loc = (acc >> (acc_bits - width)) & ((1u64 << width) - 1);
        acc_bits -= width;
        let loc = loc as usize;
        if loc >= m {
            return Err(err("bit location out of range"));
        }
        locations.push(loc);
    }

    let hasher = KeyHasher::default();
    match tag {
        TAG_RIPPED => {
            let mut bits = BitVec::new(m);
            for &loc in &locations {
                bits.set(loc);
            }
            Ok(WirePayload::Bloom(BloomFilter::from_parts(bits, k, hasher)))
        }
        TAG_FULL | TAG_SHARED | TAG_WIDE => {
            let mut counters = vec![0u32; m];
            let payload = &bytes[8 + loc_bytes..];
            for (i, &loc) in locations.iter().enumerate() {
                let c = match tag {
                    TAG_FULL => u32::from(payload[i]),
                    TAG_SHARED => u32::from(payload[0]),
                    _ => u32::from_le_bytes(payload[4 * i..4 * i + 4].try_into().expect("4 bytes")),
                };
                if c == 0 {
                    return Err(err("zero counter for a set bit"));
                }
                counters[loc] = c;
            }
            // Decoded filters are merge sources; mark them merged so
            // they reject direct insertion (initial value 1 is a
            // placeholder that insertion can never use).
            Ok(WirePayload::Tcbf(Tcbf::from_parts(
                counters, k, 1, hasher, true,
            )))
        }
        _ => unreachable!("tag validated above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tcbf() -> Tcbf {
        Tcbf::from_keys(256, 4, 50, ["NewMoon", "Phillies", "Thanksgiving"])
    }

    #[test]
    fn full_roundtrip_preserves_counters() {
        let mut f = sample_tcbf();
        // Make counters non-uniform via a-merge.
        let extra = Tcbf::from_keys(256, 4, 50, ["NewMoon"]);
        f.a_merge(&extra).unwrap();
        let bytes = encode(&f, CounterMode::Full).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.counter_values(), f.counter_values());
        assert_eq!(decoded.bit_len(), 256);
        assert_eq!(decoded.hash_count(), 4);
        assert!(decoded.is_merged());
    }

    #[test]
    fn shared_roundtrip() {
        let f = sample_tcbf();
        let bytes = encode(&f, CounterMode::Shared).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.counter_values(), f.counter_values());
    }

    #[test]
    fn shared_rejects_non_uniform() {
        let mut f = sample_tcbf();
        f.a_merge(&Tcbf::from_keys(256, 4, 50, ["NewMoon"]))
            .unwrap();
        assert!(matches!(
            encode(&f, CounterMode::Shared),
            Err(Error::InvalidParams { .. })
        ));
    }

    #[test]
    fn ripped_roundtrip_yields_bloom() {
        let f = sample_tcbf();
        let bytes = encode(&f, CounterMode::Ripped).unwrap();
        let bloom = match decode(&bytes).unwrap() {
            WirePayload::Bloom(b) => b,
            other => panic!("expected bloom, got {other:?}"),
        };
        for key in ["NewMoon", "Phillies", "Thanksgiving"] {
            assert!(bloom.contains(key));
        }
        assert_eq!(bloom.set_bits(), f.set_bits());
    }

    #[test]
    fn counters_saturate_at_255_on_wire() {
        let mut f = Tcbf::new(256, 4, 300);
        f.a_merge(&Tcbf::from_keys(256, 4, 300, ["big"])).unwrap();
        let bytes = encode(&f, CounterMode::Full).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.min_counter("big"), 255);
    }

    #[test]
    fn sizes_match_encoded_len() {
        let f = sample_tcbf();
        let n = f.set_bits();
        for mode in [
            CounterMode::Full,
            CounterMode::Shared,
            CounterMode::Ripped,
            CounterMode::Wide,
        ] {
            let bytes = encode(&f, mode).unwrap();
            assert_eq!(bytes.len(), encoded_len(n, 256, mode), "{mode:?}");
        }
    }

    #[test]
    fn wide_roundtrip_is_lossless_above_255() {
        // Where Full saturates (see counters_saturate_at_255_on_wire),
        // Wide must reproduce the exact counters — it is the snapshot
        // format for relay filters whose A-merged counters exceed 255.
        let mut f = Tcbf::new(256, 4, 300);
        let src = Tcbf::from_keys(256, 4, 300, ["big"]);
        f.a_merge(&src).unwrap();
        f.a_merge(&src).unwrap();
        let bytes = encode(&f, CounterMode::Wide).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.min_counter("big"), 600);
        assert_eq!(decoded.counter_values(), f.counter_values());
    }

    #[test]
    fn empty_filter_roundtrip() {
        let f = Tcbf::new(256, 4, 10);
        let bytes = encode(&f, CounterMode::Full).unwrap();
        assert_eq!(bytes.len(), 8);
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn location_bits_values() {
        assert_eq!(location_bits(1), 1);
        assert_eq!(location_bits(2), 1);
        assert_eq!(location_bits(3), 2);
        assert_eq!(location_bits(256), 8);
        assert_eq!(location_bits(257), 9);
        assert_eq!(location_bits(1024), 10);
    }

    #[test]
    fn paper_size_claim_single_key() {
        // Section VII-A: with m=256, k=4, "at most 5 bytes are used to
        // encode a single key" — 4 locations × 8 bits = 4 bytes plus a
        // shared counter byte. Our header adds fixed framing on top.
        let n = 4; // at most 4 set bits for one key
        let body = encoded_len(n, 256, CounterMode::Shared) - 8;
        assert_eq!(body, 5);
    }

    #[test]
    fn tcbf_beats_raw_strings_for_paper_workload() {
        // Section VI-C claims the TCBF uses about half the space of raw
        // strings. 38 keys of average length 11.5 bytes vs a 256-bit
        // filter.
        let keys: Vec<String> = (0..38).map(|i| format!("trendkey-{i:03}")).collect();
        let raw = raw_strings_len(keys.iter().map(String::as_str));
        let f = Tcbf::from_keys(256, 4, 50, keys.iter().map(String::as_bytes));
        let wire = encode(&f, CounterMode::Shared).unwrap().len();
        assert!(
            (wire as f64) < raw as f64 * 0.6,
            "wire {wire} should be well under raw {raw}"
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = sample_tcbf();
        let bytes = encode(&f, CounterMode::Full).unwrap();
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(Error::Decode { .. })),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let f = sample_tcbf();
        let mut bytes = encode(&f, CounterMode::Full).unwrap();
        bytes.push(0xff);
        assert!(matches!(decode(&bytes), Err(Error::Decode { .. })));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let f = sample_tcbf();
        let mut bytes = encode(&f, CounterMode::Full).unwrap();
        bytes[0] = 42;
        assert!(matches!(decode(&bytes), Err(Error::Decode { .. })));
    }

    #[test]
    fn decode_rejects_zero_params() {
        let f = sample_tcbf();
        let mut bytes = encode(&f, CounterMode::Ripped).unwrap();
        bytes[3] = 0; // k = 0
        assert!(matches!(decode(&bytes), Err(Error::Decode { .. })));
    }

    #[test]
    fn decode_rejects_every_single_bit_flip() {
        let f = sample_tcbf();
        for mode in [
            CounterMode::Full,
            CounterMode::Shared,
            CounterMode::Ripped,
            CounterMode::Wide,
        ] {
            let bytes = encode(&f, mode).unwrap();
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(decode(&flipped), Err(Error::Decode { .. })),
                    "{mode:?}: flip of bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn decode_reports_checksum_mismatch_for_body_damage() {
        let f = sample_tcbf();
        let mut bytes = encode(&f, CounterMode::Full).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        match decode(&bytes) {
            Err(Error::Decode { reason }) => assert_eq!(reason, "checksum mismatch"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn non_power_of_two_m_roundtrip() {
        let f = Tcbf::from_keys(300, 3, 7, ["a", "b", "c", "d"]);
        let bytes = encode(&f, CounterMode::Full).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.counter_values(), f.counter_values());
    }

    #[test]
    fn large_filter_roundtrip() {
        let keys: Vec<String> = (0..200).map(|i| format!("k{i}")).collect();
        let f = Tcbf::from_keys(4096, 6, 99, keys.iter().map(String::as_bytes));
        let bytes = encode(&f, CounterMode::Full).unwrap();
        let decoded = decode(&bytes).unwrap().into_tcbf().unwrap();
        for k in &keys {
            assert!(decoded.contains(k));
        }
        assert_eq!(decoded.counter_values(), f.counter_values());
    }

    #[test]
    fn profiling_counts_encodes_decodes_and_rejects() {
        bsub_obs::start();
        let f = sample_tcbf();
        let bytes = encode(&f, CounterMode::Full).unwrap();
        decode(&bytes).unwrap();
        assert!(decode(&bytes[..4]).is_err());
        let report = bsub_obs::finish();
        assert_eq!(report.counter(Counter::WireEncode), 1);
        assert_eq!(report.counter(Counter::WireDecodeOk), 1);
        assert_eq!(report.counter(Counter::WireDecodeReject), 1);
        assert_eq!(report.counter(Counter::WireBytes), bytes.len() as u64);
        assert_eq!(
            report.size_hist(SizeHist::EncodedFilterBytes).max(),
            bytes.len() as u64
        );
    }

    #[test]
    fn raw_strings_len_model() {
        assert_eq!(raw_strings_len(["ab", "cde"]), (2 + 2 + 1) + (2 + 3 + 1));
        assert_eq!(raw_strings_len(Vec::<&str>::new()), 0);
    }
}
