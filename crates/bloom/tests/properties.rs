//! Property-style tests for the filter family's invariants.
//!
//! The workspace builds offline with no external dev-dependencies, so
//! instead of `proptest` these drive each invariant over a few hundred
//! seeded random cases from the in-tree [`SplitMix64`] generator. Every
//! case is fully determined by its index, so failures reproduce
//! exactly.

use bsub_bloom::rng::SplitMix64;
use bsub_bloom::wire::{self, CounterMode};
use bsub_bloom::{math, BloomFilter, Tcbf};

const CASES: u64 = 128;

const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";

/// A random key matching the old `[a-zA-Z0-9 ]{0,24}` strategy.
fn rand_key(rng: &mut SplitMix64) -> String {
    let len = rng.below_usize(25);
    (0..len)
        .map(|_| ALPHABET[rng.below_usize(ALPHABET.len())] as char)
        .collect()
}

/// Between `lo` and `hi - 1` random keys.
fn rand_keys(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<String> {
    let n = lo + rng.below_usize(hi - lo);
    (0..n).map(|_| rand_key(rng)).collect()
}

/// Runs `body` over `CASES` independent seeded cases.
fn cases(mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::mix(0xb50b_0000, case));
        body(&mut rng);
    }
}

/// A Bloom filter never produces a false negative.
#[test]
fn bloom_no_false_negatives() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 60);
        let mut f = BloomFilter::new(512, 4);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            assert!(f.contains(k));
        }
    });
}

/// Merging is a set union: the merge contains everything either filter
/// contained (the superset direction is exact; the other direction is
/// only probabilistic).
#[test]
fn bloom_merge_is_superset() {
    cases(|rng| {
        let left = rand_keys(rng, 0, 30);
        let right = rand_keys(rng, 0, 30);
        let a = BloomFilter::from_keys(512, 4, left.iter());
        let b = BloomFilter::from_keys(512, 4, right.iter());
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        assert!(a.bits().is_subset_of(merged.bits()));
        assert!(b.bits().is_subset_of(merged.bits()));
        for k in left.iter().chain(&right) {
            assert!(merged.contains(k));
        }
    });
}

/// Bloom merge is commutative.
#[test]
fn bloom_merge_commutes() {
    cases(|rng| {
        let left = rand_keys(rng, 0, 30);
        let right = rand_keys(rng, 0, 30);
        let a = BloomFilter::from_keys(512, 4, left.iter());
        let b = BloomFilter::from_keys(512, 4, right.iter());
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);
    });
}

/// TCBF: a never-merged filter has all counters in {0, C}.
#[test]
fn tcbf_fresh_counters_uniform() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 40);
        let initial = 1 + rng.below(199) as u32;
        let f = Tcbf::from_keys(512, 4, initial, keys.iter());
        for c in f.counter_values() {
            assert!(c == 0 || c == initial);
        }
    });
}

/// TCBF M-merge is idempotent: merging a filter into itself (a copy)
/// changes nothing.
#[test]
fn tcbf_m_merge_idempotent() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 40);
        let f = Tcbf::from_keys(512, 4, 10, keys.iter());
        let mut m = f.clone();
        m.m_merge(&f).unwrap();
        assert_eq!(m.counter_values(), f.counter_values());
    });
}

/// TCBF M-merge is commutative and counter-wise max.
#[test]
fn tcbf_m_merge_commutes() {
    cases(|rng| {
        let left = rand_keys(rng, 0, 25);
        let right = rand_keys(rng, 0, 25);
        let a = Tcbf::from_keys(512, 4, 10, left.iter());
        let b = Tcbf::from_keys(512, 4, 20, right.iter());
        let mut ab = a.clone();
        ab.m_merge(&b).unwrap();
        let mut ba = b.clone();
        ba.m_merge(&a).unwrap();
        assert_eq!(ab.counter_values(), ba.counter_values());
        for (i, &c) in ab.counter_values().iter().enumerate() {
            assert_eq!(c, a.counter_values()[i].max(b.counter_values()[i]));
        }
    });
}

/// TCBF A-merge adds counters exactly (below saturation).
#[test]
fn tcbf_a_merge_adds() {
    cases(|rng| {
        let left = rand_keys(rng, 0, 25);
        let right = rand_keys(rng, 0, 25);
        let a = Tcbf::from_keys(512, 4, 10, left.iter());
        let b = Tcbf::from_keys(512, 4, 20, right.iter());
        let mut ab = a.clone();
        ab.a_merge(&b).unwrap();
        for (i, &c) in ab.counter_values().iter().enumerate() {
            assert_eq!(c, a.counter_values()[i] + b.counter_values()[i]);
        }
    });
}

/// Decay then decay equals one combined decay (additivity), and decay
/// never resurrects a key.
#[test]
fn tcbf_decay_additive() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 30);
        let d1 = rng.below(40) as u32;
        let d2 = rng.below(40) as u32;
        let base = Tcbf::from_keys(512, 4, 50, keys.iter());
        let mut split = base.clone();
        split.decay(d1);
        split.decay(d2);
        let mut whole = base.clone();
        whole.decay(d1 + d2);
        assert_eq!(split.counter_values(), whole.counter_values());
        // Monotone: everything absent in base stays absent.
        for k in &keys {
            if !base.contains(k) {
                assert!(!split.contains(k));
            }
        }
    });
}

/// Decay commutes with M-merge: max(a - d, b - d) == max(a, b) - d.
#[test]
fn tcbf_decay_commutes_with_m_merge() {
    cases(|rng| {
        let left = rand_keys(rng, 0, 20);
        let right = rand_keys(rng, 0, 20);
        let d = rng.below(60) as u32;
        let a = Tcbf::from_keys(512, 4, 50, left.iter());
        let b = Tcbf::from_keys(512, 4, 30, right.iter());

        let mut merge_then_decay = a.clone();
        merge_then_decay.m_merge(&b).unwrap();
        merge_then_decay.decay(d);

        let mut da = a.clone();
        da.decay(d);
        let mut db = b.clone();
        db.decay(d);
        let mut decay_then_merge = da;
        decay_then_merge.m_merge(&db).unwrap();

        assert_eq!(
            merge_then_decay.counter_values(),
            decay_then_merge.counter_values()
        );
    });
}

/// Wire round-trip (full counters) is lossless for counters <= 255.
#[test]
fn wire_full_roundtrip() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 50);
        let initial = 1 + rng.below(255) as u32;
        let f = Tcbf::from_keys(512, 4, initial, keys.iter());
        let bytes = wire::encode(&f, CounterMode::Full).unwrap();
        let decoded = wire::decode(&bytes).unwrap().into_tcbf().unwrap();
        assert_eq!(decoded.counter_values(), f.counter_values());
    });
}

/// Ripped wire round-trip preserves exact bit membership.
#[test]
fn wire_ripped_roundtrip() {
    cases(|rng| {
        let keys = rand_keys(rng, 0, 50);
        let f = Tcbf::from_keys(512, 4, 10, keys.iter());
        let bytes = wire::encode(&f, CounterMode::Ripped).unwrap();
        let bloom = wire::decode(&bytes).unwrap().into_bloom();
        assert_eq!(bloom.set_bits(), f.set_bits());
        for k in &keys {
            assert!(bloom.contains(k));
        }
    });
}

/// Decoding arbitrary bytes never panics.
#[test]
fn wire_decode_never_panics() {
    cases(|rng| {
        let len = rng.below_usize(200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = wire::decode(&bytes);
    });
}

/// A random valid encoding in a random counter mode.
fn rand_encoding(rng: &mut SplitMix64) -> Vec<u8> {
    let keys = rand_keys(rng, 0, 50);
    let initial = 1 + rng.below(255) as u32;
    let f = Tcbf::from_keys(512, 4, initial, keys.iter());
    let mode = match rng.below(3) {
        0 => CounterMode::Full,
        1 => CounterMode::Shared,
        _ => CounterMode::Ripped,
    };
    wire::encode(&f, mode).unwrap()
}

/// Every strict prefix of a valid encoding is rejected, never decoded
/// into a filter and never a panic (the fault model truncates filter
/// transmissions mid-flight).
#[test]
fn wire_decode_rejects_every_truncated_prefix() {
    cases(|rng| {
        let bytes = rand_encoding(rng);
        for cut in 0..bytes.len() {
            assert!(
                wire::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must be rejected",
                bytes.len()
            );
        }
    });
}

/// Every single-bit flip of a valid encoding is rejected (the CRC-16
/// in the header detects all single-bit errors).
#[test]
fn wire_decode_rejects_every_single_bit_flip() {
    cases(|rng| {
        let bytes = rand_encoding(rng);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                wire::decode(&flipped).is_err(),
                "flip of bit {bit} must be rejected"
            );
        }
    });
}

/// Encode → corrupt → decode never yields a filter: damage of the kind
/// the fault model injects (random truncation or a random bit flip)
/// cannot produce an `Ok` payload.
#[test]
fn wire_corrupted_encoding_never_validates() {
    cases(|rng| {
        let bytes = rand_encoding(rng);
        for _ in 0..16 {
            let mut damaged = bytes.clone();
            if rng.next_bool() {
                let keep = rng.below_usize(damaged.len());
                damaged.truncate(keep);
            } else {
                let bit = rng.below_usize(damaged.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(
                wire::decode(&damaged).is_err(),
                "corrupted encoding must never decode"
            );
        }
    });
}

/// The min-counter of a contained key is bounded by the largest counter
/// in the filter.
#[test]
fn tcbf_min_counter_bounded() {
    cases(|rng| {
        let keys = rand_keys(rng, 1, 30);
        let f = Tcbf::from_keys(512, 4, 37, keys.iter());
        for k in &keys {
            let c = f.min_counter(k);
            assert!(c > 0);
            assert!(c <= f.max_counter_value());
        }
    });
}

/// Eq. 1 / Eq. 3 relationship: FPR == FR^k for any parameters.
#[test]
fn math_fpr_is_fr_pow_k() {
    cases(|rng| {
        let m = 8 + rng.below_usize(2040);
        let k = 1 + rng.below_usize(7);
        let n = rng.below(500) as u32;
        let fr = math::fill_ratio(m, k, f64::from(n));
        let fpr = math::false_positive_rate(m, k, f64::from(n));
        assert!((fpr - fr.powi(k as i32)).abs() < 1e-12);
    });
}
