//! Property suite for deadline-driven expiry — the broker-facing
//! index surface added with the live serving plane (PR 10).
//!
//! Four claims:
//!
//! 1. **Deadline ≡ decay on aligned clocks.** A subscription given the
//!    deadline `born + C` and *never decayed* expires on exactly the
//!    step a decay-driven twin's uniform counter reaches zero, and the
//!    two indexes produce identical match sets (false positives
//!    included) on every step in between.
//! 2. **`unsubscribe` and `purge` drop a member's postings at once** —
//!    its former keys stop producing candidates immediately, and the
//!    surviving members still match.
//! 3. **`expire_candidates` is resubscribe-safe**: a stale wheel entry
//!    (the old deadline of a replaced subscription) never evicts the
//!    replacement.
//! 4. **`expire_candidates` over all ids ≡ `expire`** under random
//!    interleavings, and the whole deadline surface stays differential
//!    against [`ReferenceMatcher`].

use bsub_bloom::SplitMix64;
use bsub_match::{Event, MatchIndex, MatchParams, ReferenceMatcher};

const KEY_POOL: u64 = 24;

fn key(i: u64) -> String {
    format!("key-{}", i % KEY_POOL)
}

fn probe_batch() -> Vec<Event> {
    (0..KEY_POOL).map(|i| Event::new(key(i))).collect()
}

fn params() -> MatchParams {
    MatchParams {
        member_bits: 512,
        member_hashes: 3,
        initial: 6,
    }
}

fn random_keys(rng: &mut SplitMix64) -> Vec<String> {
    let n = 1 + rng.below_usize(3);
    (0..n).map(|_| key(rng.next_u64())).collect()
}

/// Claim 1. Clock alignment: step `t` means the decay twin has seen
/// `t` decay epochs and the deadline twin's wall clock reads `t`. A
/// subscription born at step `b` gets deadline `b + C` on the deadline
/// side and plain `subscribe` on the decay side; both must vanish on
/// step `b + C` and match identically on every earlier step.
#[test]
fn deadline_expiry_equals_epoch_decay_on_aligned_clocks() {
    let p = params();
    let horizon = 3 * u64::from(p.initial) + 4;
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(SplitMix64::mix(0xDEAD, seed));
        let mut by_deadline = MatchIndex::new(p);
        let mut by_decay = MatchIndex::new(p);
        let probes = probe_batch();

        for t in 0..horizon {
            if t > 0 {
                // Advance the aligned clocks: one decay epoch on one
                // side, one wall-clock unit on the other.
                by_decay.decay(1);
                by_decay.expire(0);
                by_deadline.expire(t);
            }

            // A couple of arrivals (and the odd departure) per step,
            // mirrored into both indexes.
            for _ in 0..rng.below_usize(3) {
                let id = rng.below(12);
                if rng.below(5) == 0 {
                    by_deadline.unsubscribe(id);
                    by_decay.unsubscribe(id);
                } else {
                    let keys = random_keys(&mut rng);
                    by_deadline.subscribe_until(id, &keys, t + u64::from(p.initial));
                    by_decay.subscribe(id, &keys);
                }
            }

            assert_eq!(
                by_deadline.live_count(),
                by_decay.live_count(),
                "seed {seed} step {t}: live sets diverged"
            );
            for id in 0..12u64 {
                assert_eq!(
                    by_deadline.strength(id).is_some(),
                    by_decay.strength(id).is_some(),
                    "seed {seed} step {t}: membership of {id} diverged"
                );
            }
            assert_eq!(
                by_deadline.match_events(&probes).matches,
                by_decay.match_events(&probes).matches,
                "seed {seed} step {t}: match sets diverged"
            );
        }

        // Quiescence: once the clocks pass every deadline, both drain.
        by_decay.decay(p.initial);
        by_decay.expire(0);
        by_deadline.expire(horizon + u64::from(p.initial));
        assert_eq!(by_deadline.live_count(), 0, "seed {seed}");
        assert_eq!(by_decay.live_count(), 0, "seed {seed}");
    }
}

/// Claim 2. Wide geometry so the four members' disjoint keys share no
/// posting list.
#[test]
fn unsubscribe_and_purge_drop_postings_immediately() {
    let p = MatchParams {
        member_bits: 8192,
        member_hashes: 4,
        initial: 8,
    };

    let build = || {
        let mut idx = MatchIndex::new(p);
        for id in 1..=4u64 {
            idx.subscribe(id, &[format!("unique-topic-{id}")]);
        }
        idx
    };

    let set = build().match_events(&[Event::new("unique-topic-2")]);
    assert_eq!(set.matches[0], vec![2]);
    assert_eq!(set.stats.candidates, 1);

    // Both removal paths take the member out of its posting lists at
    // once: its former key produces no candidate confirmations.
    let mut unsubscribed = build();
    assert!(unsubscribed.unsubscribe(2));
    let mut purged = build();
    assert!(purged.purge(2));
    for idx in [&unsubscribed, &purged] {
        let set = idx.match_events(&[Event::new("unique-topic-2")]);
        assert!(set.matches[0].is_empty());
        assert_eq!(set.stats.tier_hits, 0, "a position of the key is now empty");
        assert_eq!(set.stats.candidates, 0, "removal drops the postings");

        // Survivors are untouched.
        for id in [1u64, 3, 4] {
            let set = idx.match_events(&[Event::new(format!("unique-topic-{id}"))]);
            assert_eq!(set.matches[0], vec![id], "survivor {id}");
        }
    }
    assert!(!purged.purge(99), "purging a stranger is a no-op");
}

/// Claim 3. The wheel hands over ids from buckets that came due; a
/// resubscribe moved the deadline, so the stale entry must not evict.
#[test]
fn expire_candidates_is_resubscribe_safe() {
    let mut idx = MatchIndex::new(params());
    idx.subscribe_until(7, &["alpha"], 10);
    assert_eq!(idx.expire_candidates(&[7], 5), 0, "not yet due");
    assert!(idx.strength(7).is_some());

    // Replace the subscription: deadline moves to 100.
    idx.subscribe_until(7, &["alpha", "beta"], 100);
    assert_eq!(
        idx.expire_candidates(&[7], 10),
        0,
        "stale wheel entry for the old deadline must not evict"
    );
    assert!(idx.strength(7).is_some());
    assert_eq!(idx.deadline(7), Some(100));

    // A replacement *without* a deadline is immortal to the wheel.
    idx.subscribe(7, &["alpha"]);
    assert_eq!(idx.expire_candidates(&[7], u64::MAX), 0);
    assert!(idx.strength(7).is_some());

    idx.subscribe_until(7, &["alpha"], 40);
    assert_eq!(idx.expire_candidates(&[7], 40), 1, "due at the deadline");
    assert!(idx.strength(7).is_none());
    assert_eq!(idx.expire_candidates(&[7], 40), 0, "already gone");
    assert_eq!(idx.expire_candidates(&[99], u64::MAX), 0, "unknown id");
}

/// Claim 4a. Feeding *every* live id to `expire_candidates` removes
/// exactly what a full `expire` scan removes, at every point of a
/// random interleaving.
#[test]
fn expire_candidates_over_all_ids_equals_full_expire() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(SplitMix64::mix(0xFEED, seed));
        let p = params();
        let mut scanned = MatchIndex::new(p);
        let mut targeted = MatchIndex::new(p);
        let probes = probe_batch();
        let ids: Vec<u64> = (0..16).collect();

        for step in 0..120u64 {
            match rng.below(10) {
                0..=4 => {
                    let id = rng.below(16);
                    let keys = random_keys(&mut rng);
                    let deadline = step + 1 + rng.below(20);
                    if rng.below(3) == 0 {
                        scanned.subscribe(id, &keys);
                        targeted.subscribe(id, &keys);
                    } else {
                        scanned.subscribe_until(id, &keys, deadline);
                        targeted.subscribe_until(id, &keys, deadline);
                    }
                }
                5 => {
                    let id = rng.below(16);
                    assert_eq!(scanned.unsubscribe(id), targeted.purge(id));
                }
                6 => {
                    let amount = 1 + rng.below(2) as u32;
                    scanned.decay(amount);
                    targeted.decay(amount);
                }
                _ => {
                    let removed_scan = scanned.expire(step);
                    let removed_targeted = targeted.expire_candidates(&ids, step);
                    assert_eq!(
                        removed_scan, removed_targeted,
                        "seed {seed} step {step}: removal counts diverged"
                    );
                }
            }
            assert_eq!(
                scanned.match_events(&probes).matches,
                targeted.match_events(&probes).matches,
                "seed {seed} step {step}: match sets diverged"
            );
        }
    }
}

/// Claim 4b. The broker-facing surface (`subscribe_until` + `purge` +
/// `expire_candidates`) stays differential against the naive scan
/// under random interleavings — false positives and all. The geometry
/// is collision-heavy on purpose so FP agreement is actually tested.
#[test]
fn broker_surface_stays_differential_against_reference() {
    let p = MatchParams {
        member_bits: 96,
        member_hashes: 2,
        initial: 5,
    };
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(SplitMix64::mix(0xB10C, seed));
        let mut idx = MatchIndex::new(p);
        let mut reference = ReferenceMatcher::from_params(&p);
        let mut now = 0u64;
        let probes = probe_batch();

        for step in 0..150u64 {
            match rng.below(10) {
                0..=3 => {
                    let id = rng.below(10);
                    let keys = random_keys(&mut rng);
                    if rng.below(2) == 0 {
                        let deadline = now + 1 + rng.below(8);
                        idx.subscribe_until(id, &keys, deadline);
                        reference.subscribe_until(id, &keys, deadline);
                    } else {
                        idx.subscribe(id, &keys);
                        reference.subscribe(id, &keys);
                    }
                }
                4..=5 => {
                    let id = rng.below(12);
                    assert_eq!(
                        idx.purge(id),
                        reference.unsubscribe(id),
                        "seed {seed} step {step}: membership diverged on purge({id})"
                    );
                }
                6 => {
                    now += 1 + rng.below(3);
                    let ids: Vec<u64> = (0..10).collect();
                    assert_eq!(
                        idx.expire_candidates(&ids, now),
                        reference.expire(now),
                        "seed {seed} step {step}: expiry at now={now} diverged"
                    );
                }
                _ => {
                    assert_eq!(
                        idx.match_events(&probes).matches,
                        reference.match_events(&probes).matches,
                        "seed {seed} step {step}: match sets diverged"
                    );
                }
            }
        }
        assert_eq!(idx.live_count(), reference.live_count(), "seed {seed}");
    }
}
