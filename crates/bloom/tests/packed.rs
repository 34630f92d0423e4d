//! Property tests for the word-packed TCBF: the SWAR kernels against
//! the scalar reference kernels, the packed filter against the `u32`
//! [`Tcbf`] in the no-saturation regime, saturation-at-15 edges, and
//! lazy-vs-eager decay equivalence over interleaved schedules.
//!
//! Seeded-case style, like `tests/properties.rs`: every case derives
//! its randomness from `SplitMix64::mix(TAG, case)`, so failures
//! reproduce exactly.

use bsub_bloom::packed::{word_max, word_nonzero_nibbles, word_sat_add, word_sat_sub, NIBBLE_MAX};
use bsub_bloom::rng::SplitMix64;
use bsub_bloom::{PackedTcbf, Tcbf};

const CASES: u64 = 128;
const TAG: u64 = 0xb50b_4b17;

fn rng_for(case: u64) -> SplitMix64 {
    SplitMix64::new(SplitMix64::mix(TAG, case))
}

fn random_keys(rng: &mut SplitMix64, max: usize) -> Vec<String> {
    let n = rng.below_usize(max) + 1;
    (0..n).map(|_| format!("key-{}", rng.next_u64())).collect()
}

/// Scalar per-nibble reference kernels: the executable specification
/// the SWAR kernels are tested against. Deliberately written as the
/// obvious loop over unpacked nibbles.
mod reference {
    use bsub_bloom::packed::{NIBBLES_PER_WORD, NIBBLE_MAX};

    /// Unpacks a word into its 16 nibble values.
    #[must_use]
    pub fn unpack(word: u64) -> [u8; NIBBLES_PER_WORD] {
        std::array::from_fn(|i| ((word >> (i * 4)) & 0xF) as u8)
    }

    /// Packs 16 nibble values (each ≤ 15) into a word.
    #[must_use]
    pub fn pack(nibbles: [u8; NIBBLES_PER_WORD]) -> u64 {
        nibbles
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, &v)| w | (u64::from(v & 0xF) << (i * 4)))
    }

    /// Per-nibble saturating add.
    #[must_use]
    pub fn sat_add(a: u64, b: u64) -> u64 {
        let (a, b) = (unpack(a), unpack(b));
        pack(std::array::from_fn(|i| (a[i] + b[i]).min(NIBBLE_MAX)))
    }

    /// Per-nibble maximum.
    #[must_use]
    pub fn max(a: u64, b: u64) -> u64 {
        let (a, b) = (unpack(a), unpack(b));
        pack(std::array::from_fn(|i| a[i].max(b[i])))
    }

    /// Per-nibble saturating subtract of a constant.
    #[must_use]
    pub fn sat_sub(a: u64, d: u8) -> u64 {
        let a = unpack(a);
        pack(std::array::from_fn(|i| a[i].saturating_sub(d)))
    }
}

// ---- SWAR kernel edge cases ----

#[test]
fn sat_add_saturates_at_15() {
    let a = reference::pack([15; 16]);
    let b = reference::pack([1; 16]);
    assert_eq!(word_sat_add(a, b), a);
    assert_eq!(word_sat_add(a, a), a);
}

#[test]
fn sat_sub_floors_at_zero() {
    let a = reference::pack(std::array::from_fn(|i| i as u8));
    assert_eq!(word_sat_sub(a, 15), 0);
    assert_eq!(word_sat_sub(a, 0), a);
}

#[test]
fn nonzero_nibbles_counts() {
    let w = reference::pack([0, 1, 0, 15, 0, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0, 9]);
    assert_eq!(word_nonzero_nibbles(w).count_ones(), 5);
    assert_eq!(word_nonzero_nibbles(0), 0);
}

// ---- SWAR kernels vs the scalar reference, on random words ----

#[test]
fn kernel_sat_add_matches_reference() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        assert_eq!(
            word_sat_add(a, b),
            reference::sat_add(a, b),
            "case {case}: a={a:#x} b={b:#x}"
        );
    }
}

#[test]
fn kernel_max_matches_reference() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        assert_eq!(
            word_max(a, b),
            reference::max(a, b),
            "case {case}: a={a:#x} b={b:#x}"
        );
    }
}

#[test]
fn kernel_sat_sub_matches_reference() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let a = rng.next_u64();
        for d in 0..=NIBBLE_MAX {
            assert_eq!(
                word_sat_sub(a, d),
                reference::sat_sub(a, d),
                "case {case}: a={a:#x} d={d}"
            );
        }
    }
}

#[test]
fn kernel_nonzero_count_matches_reference() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let a = rng.next_u64();
        let expected = reference::unpack(a).iter().filter(|&&v| v > 0).count() as u32;
        assert_eq!(word_nonzero_nibbles(a).count_ones(), expected);
    }
}

/// Exhaustive at the lane level: every (a, b) nibble pair in every
/// lane position is covered by two words enumerating 16x16 pairs.
#[test]
fn kernels_exhaustive_over_nibble_pairs() {
    for hi in 0..16u64 {
        let mut a = 0u64;
        let mut b = 0u64;
        for lane in 0..16u64 {
            a |= hi << (lane * 4);
            b |= lane << (lane * 4);
        }
        assert_eq!(word_sat_add(a, b), reference::sat_add(a, b));
        assert_eq!(word_max(a, b), reference::max(a, b));
        assert_eq!(word_max(b, a), reference::max(b, a));
        for d in 0..=NIBBLE_MAX {
            assert_eq!(word_sat_sub(a, d), reference::sat_sub(a, d));
        }
    }
}

// ---- Packed filter vs the u32 Tcbf, below the saturation point ----

/// With few enough reinforcements that no counter reaches 15, the
/// packed filter and the u32 TCBF must agree on every observable:
/// counter values, queries, preferences, set bits.
#[test]
fn differential_packed_vs_tcbf_no_saturation() {
    for case in 0..CASES {
        let mut rng = rng_for(1000 + case);
        let keys = random_keys(&mut rng, 12);
        let initial = (rng.below(3) + 1) as u8; // 1..=3
        let packed_src = PackedTcbf::from_keys(256, 4, initial, keys.iter().map(String::as_bytes));
        let tcbf_src = Tcbf::from_keys(
            256,
            4,
            u32::from(initial),
            keys.iter().map(String::as_bytes),
        );

        let mut packed = PackedTcbf::new(256, 4, initial);
        let mut tcbf = Tcbf::new(256, 4, u32::from(initial));
        // ≤ 4 A-merges of C ≤ 3 keeps every counter ≤ 12 < 15.
        let merges = rng.below(4) + 1;
        for _ in 0..merges {
            packed.a_merge(&packed_src).unwrap();
            tcbf.a_merge(&tcbf_src).unwrap();
        }
        let decay = (rng.below(4)) as u32;
        packed.decay(decay);
        tcbf.decay(decay);

        let packed_vals: Vec<u32> = packed
            .counter_values()
            .iter()
            .map(|&v| u32::from(v))
            .collect();
        assert_eq!(packed_vals, tcbf.counter_values(), "case {case}");
        assert_eq!(packed.set_bits(), tcbf.set_bits(), "case {case}");
        for k in &keys {
            assert_eq!(packed.min_counter(k), tcbf.min_counter(k), "case {case}");
            assert_eq!(packed.contains(k), tcbf.contains(k), "case {case}");
        }
        // Preference against the one-merge source filter.
        let mut packed_one = PackedTcbf::new(256, 4, initial);
        packed_one.a_merge(&packed_src).unwrap();
        let mut tcbf_one = Tcbf::new(256, 4, u32::from(initial));
        tcbf_one.a_merge(&tcbf_src).unwrap();
        for k in &keys {
            assert_eq!(
                packed.preference(&packed_one, k).unwrap(),
                tcbf.preference(&tcbf_one, k).unwrap(),
                "case {case} key {k}"
            );
        }
    }
}

/// M-merge differential: maximum of two independently built filters.
#[test]
fn differential_m_merge_matches_tcbf() {
    for case in 0..CASES {
        let mut rng = rng_for(2000 + case);
        let keys_a = random_keys(&mut rng, 10);
        let keys_b = random_keys(&mut rng, 10);
        let mut packed = PackedTcbf::new(256, 4, 9);
        packed
            .a_merge(&PackedTcbf::from_keys(
                256,
                4,
                9,
                keys_a.iter().map(String::as_bytes),
            ))
            .unwrap();
        let mut tcbf = Tcbf::new(256, 4, 9);
        tcbf.a_merge(&Tcbf::from_keys(
            256,
            4,
            9,
            keys_a.iter().map(String::as_bytes),
        ))
        .unwrap();
        packed.decay(3);
        tcbf.decay(3);
        packed
            .m_merge(&PackedTcbf::from_keys(
                256,
                4,
                9,
                keys_b.iter().map(String::as_bytes),
            ))
            .unwrap();
        tcbf.m_merge(&Tcbf::from_keys(
            256,
            4,
            9,
            keys_b.iter().map(String::as_bytes),
        ))
        .unwrap();
        let packed_vals: Vec<u32> = packed
            .counter_values()
            .iter()
            .map(|&v| u32::from(v))
            .collect();
        assert_eq!(packed_vals, tcbf.counter_values(), "case {case}");
    }
}

// ---- Saturation-at-15 edges ----

#[test]
fn a_merge_saturates_at_15_and_stays_there() {
    let src = PackedTcbf::from_keys(256, 4, 8, ["sat"]);
    let mut relay = PackedTcbf::new(256, 4, 8);
    relay.a_merge(&src).unwrap(); // 8
    relay.a_merge(&src).unwrap(); // 15 (8 + 8 clamps)
    assert_eq!(relay.min_counter("sat"), 15);
    relay.a_merge(&src).unwrap(); // still 15
    assert_eq!(relay.min_counter("sat"), 15);
    // Saturated counters decay like any other.
    relay.decay(7);
    assert_eq!(relay.min_counter("sat"), 8);
}

#[test]
fn saturation_commutes_with_m_merge() {
    // max(15, x) == 15 for any nibble, including another 15.
    let full = PackedTcbf::from_keys(256, 4, 15, ["k"]);
    let mut a = PackedTcbf::new(256, 4, 15);
    a.a_merge(&full).unwrap();
    a.a_merge(&full).unwrap(); // saturated
    let mut b = PackedTcbf::new(256, 4, 15);
    b.m_merge(&full).unwrap();
    let mut ab = a.clone();
    ab.m_merge(&b).unwrap();
    let mut ba = b.clone();
    ba.m_merge(&a).unwrap();
    assert_eq!(ab, ba);
    assert_eq!(ab.min_counter("k"), 15);
}

#[test]
fn decay_at_or_past_15_empties_any_filter() {
    for case in 0..8 {
        let mut rng = rng_for(3000 + case);
        let keys = random_keys(&mut rng, 20);
        let mut f = PackedTcbf::new(512, 4, 15);
        f.a_merge(&PackedTcbf::from_keys(
            512,
            4,
            15,
            keys.iter().map(String::as_bytes),
        ))
        .unwrap();
        f.decay(15 + (rng.below(100)) as u32);
        assert!(f.is_empty());
        assert_eq!(f.set_bits(), 0);
    }
}

// ---- Lazy-vs-eager decay equivalence over interleaved schedules ----

/// An eager model of the packed filter: applies decay immediately via
/// the reference kernel. Interleaving merges, decays, and queries in a
/// random schedule must leave both representations observably equal.
#[test]
fn lazy_decay_equals_eager_over_interleaved_schedules() {
    for case in 0..CASES {
        let mut rng = rng_for(4000 + case);
        let keys = random_keys(&mut rng, 8);
        let sources: Vec<PackedTcbf> = (0..3)
            .map(|i| {
                let ks: Vec<&String> = keys.iter().skip(i).step_by(2).collect();
                let mut f = PackedTcbf::new(256, 4, 6);
                if ks.is_empty() {
                    return f;
                }
                f.a_merge(&PackedTcbf::from_keys(
                    256,
                    4,
                    6,
                    ks.iter().map(|k| k.as_bytes()),
                ))
                .unwrap();
                f
            })
            .collect();

        let mut lazy = PackedTcbf::new(256, 4, 6);
        // Eager model: counters as plain bytes, decayed immediately.
        let mut eager = vec![0u8; 256];
        let apply_merge = |eager: &mut Vec<u8>, src: &PackedTcbf, additive: bool| {
            for (i, v) in src.counter_values().into_iter().enumerate() {
                eager[i] = if additive {
                    (eager[i] + v).min(NIBBLE_MAX)
                } else {
                    eager[i].max(v)
                };
            }
        };

        for _step in 0..24 {
            match rng.below(4) {
                0 => {
                    let src = &sources[rng.below_usize(sources.len())];
                    lazy.a_merge(src).unwrap();
                    apply_merge(&mut eager, src, true);
                }
                1 => {
                    let src = &sources[rng.below_usize(sources.len())];
                    lazy.m_merge(src).unwrap();
                    apply_merge(&mut eager, src, false);
                }
                2 => {
                    let d = (rng.below(5)) as u32;
                    lazy.decay(d);
                    for c in &mut eager {
                        *c = c.saturating_sub(d as u8);
                    }
                }
                _ => {
                    // Queries must see through the pending epoch and
                    // never exceed the nibble range.
                    for k in &keys {
                        let got = lazy.min_counter(k);
                        assert!(got <= u32::from(NIBBLE_MAX), "case {case}: {got}");
                    }
                }
            }
            assert_eq!(
                lazy.counter_values(),
                *eager,
                "case {case} diverged mid-schedule"
            );
            assert_eq!(
                lazy.set_bits(),
                eager.iter().filter(|&&c| c > 0).count(),
                "case {case}"
            );
        }
        for k in &keys {
            let min_eager = {
                // Recompute from the eager array via a fresh packed
                // filter sharing the hasher's positions.
                let probe = PackedTcbf::from_keys(256, 4, 1, [k.as_bytes()]);
                probe
                    .counter_values()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v > 0)
                    .map(|(i, _)| u32::from(eager[i]))
                    .min()
                    .unwrap_or(0)
            };
            assert_eq!(lazy.min_counter(k), min_eager, "case {case} key {k}");
        }
    }
}

/// Decay additivity: split decays equal one big decay, across the
/// epoch-normalization boundary at 15.
#[test]
fn split_decay_equals_total_decay() {
    for case in 0..CASES {
        let mut rng = rng_for(5000 + case);
        let keys = random_keys(&mut rng, 10);
        let build = || {
            let mut f = PackedTcbf::new(256, 4, 7);
            f.a_merge(&PackedTcbf::from_keys(
                256,
                4,
                7,
                keys.iter().map(String::as_bytes),
            ))
            .unwrap();
            f.a_merge(&PackedTcbf::from_keys(
                256,
                4,
                7,
                keys.iter().map(String::as_bytes),
            ))
            .unwrap();
            f
        };
        let total = (rng.below(20)) as u32;
        let split = (rng.below(u64::from(total) + 1)) as u32;
        let mut one = build();
        one.decay(total);
        let mut two = build();
        two.decay(split);
        two.decay(total - split);
        assert_eq!(
            one,
            two,
            "case {case}: {split}+{} vs {total}",
            total - split
        );
    }
}

/// Sparse A-merge ≡ dense A-merge under randomized epoch skew: the
/// receiver and the source each carry independent random lazy-decay
/// epochs, and folding `other` in dense form must leave the same
/// materialized state as folding `other.sparse_words()` — the sparse
/// path both materializes the source (sparse entries are epoch-free)
/// and flushes the receiver's pending epoch before adding.
#[test]
fn sparse_a_merge_matches_dense_under_epoch_skew() {
    for case in 0..CASES {
        let mut rng = rng_for(7000 + case);

        let build = |rng: &mut SplitMix64| {
            let mut f = PackedTcbf::new(256, 4, (rng.below(14) + 1) as u8);
            for key in random_keys(rng, 12) {
                let _ = f.insert(key);
            }
            f
        };
        let mut receiver = build(&mut rng);
        // Pile on extra merges so some nibbles sit near saturation.
        for _ in 0..rng.below_usize(3) {
            let extra = build(&mut rng);
            receiver.a_merge(&extra).unwrap();
        }
        let mut source = build(&mut rng);

        // Independent random epoch skew on both sides (decay keeps the
        // epochs lazy below the clear-at-15 shortcut).
        receiver.decay(rng.below(8) as u32);
        source.decay(rng.below(8) as u32);

        let mut dense = receiver.clone();
        dense.a_merge(&source).unwrap();

        let mut sparse = receiver.clone();
        sparse.a_merge_sparse(&source.sparse_words());

        assert_eq!(
            dense.counter_values(),
            sparse.counter_values(),
            "case {case}: dense and sparse A-merge diverged"
        );
        // Subsequent uniform decay keeps them in agreement too.
        let d = rng.below(6) as u32;
        dense.decay(d);
        sparse.decay(d);
        assert_eq!(
            dense.counter_values(),
            sparse.counter_values(),
            "case {case}: divergence after post-merge decay"
        );
    }
}
