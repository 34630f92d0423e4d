//! Property-style tests for trace construction, parsing, windowing,
//! and the synthetic generator's invariants.
//!
//! Driven by seeded random cases from the in-tree [`SplitMix64`]
//! generator instead of `proptest`, so the suite builds offline and
//! every failure reproduces from its case index.

use bsub_bloom::rng::SplitMix64;
use bsub_traces::stats;
use bsub_traces::synthetic::SyntheticTrace;
use bsub_traces::{parser, ContactEvent, ContactTrace, NodeId, SimDuration, SimTime};
use std::collections::HashMap;

const CASES: u64 = 128;

/// Runs `body` over `CASES` independent seeded cases.
fn cases(mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(SplitMix64::mix(0x7ace_0000, case));
        body(&mut rng);
    }
}

/// A random valid event over `nodes` nodes and a time horizon — the
/// old `event_strategy`.
fn rand_event(rng: &mut SplitMix64, nodes: u32, horizon: u64) -> ContactEvent {
    let a = rng.below(u64::from(nodes)) as u32;
    let b = loop {
        let b = rng.below(u64::from(nodes)) as u32;
        if b != a {
            break b;
        }
    };
    let start = rng.below(horizon);
    let dur = rng.below(3_600);
    ContactEvent::new(
        NodeId::new(a),
        NodeId::new(b),
        SimTime::from_secs(start),
        SimTime::from_secs(start + dur),
    )
}

fn rand_events(
    rng: &mut SplitMix64,
    nodes: u32,
    horizon: u64,
    lo: usize,
    hi: usize,
) -> Vec<ContactEvent> {
    let n = lo + rng.below_usize(hi - lo);
    (0..n).map(|_| rand_event(rng, nodes, horizon)).collect()
}

/// Traces always end up sorted, regardless of input order.
#[test]
fn trace_events_sorted() {
    cases(|rng| {
        let events = rand_events(rng, 12, 100_000, 0, 80);
        let trace = ContactTrace::new("p", 12, events).expect("valid ids");
        assert!(trace.events().windows(2).all(|w| w[0].start <= w[1].start));
    });
}

/// Windowing never invents events, and re-windowing the full span keeps
/// every event.
#[test]
fn window_is_conservative() {
    cases(|rng| {
        let events = rand_events(rng, 10, 50_000, 1, 60);
        let from = rng.below(60_000);
        let len = 1 + rng.below(59_999);
        let trace = ContactTrace::new("w", 10, events).expect("valid ids");
        let window = trace.window(SimTime::from_secs(from), SimDuration::from_secs(len));
        assert!(window.len() <= trace.len());
        let full = trace.window(SimTime::ZERO, SimDuration::from_secs(u64::MAX / 4));
        assert_eq!(full.len(), trace.len());
    });
}

/// Degrees are bounded by n-1 and consistent with centrality: the node
/// with the most contact participations has centrality 1.
#[test]
fn degree_and_centrality_bounds() {
    cases(|rng| {
        let events = rand_events(rng, 9, 10_000, 1, 60);
        let trace = ContactTrace::new("d", 9, events).expect("valid ids");
        let degrees = stats::degrees(&trace);
        assert!(degrees.iter().all(|&d| d <= 8));
        let centrality = stats::centrality(&trace);
        assert!(centrality.iter().all(|&c| (0.0..=1.0).contains(&c)));
        assert!(centrality.iter().any(|&c| (c - 1.0).abs() < 1e-12));
    });
}

/// The Haggle text round-trip preserves every event for arbitrary
/// traces.
#[test]
fn haggle_text_roundtrip() {
    cases(|rng| {
        let events = rand_events(rng, 8, 20_000, 1, 50);
        let trace = ContactTrace::new("rt", 8, events).expect("valid ids");
        let mut text = String::new();
        // Shift by the earliest start so re-zeroing is the identity.
        let t0 = trace.events()[0].start.as_secs();
        for e in &trace {
            text.push_str(&format!(
                "{} {} {} {}\n",
                e.a.index() + 1,
                e.b.index() + 1,
                e.start.as_secs() - t0,
                e.end.as_secs() - t0,
            ));
        }
        let parsed = parser::parse_haggle("rt", &text).expect("parses");
        assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.iter().zip(parsed.iter()) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.duration(), b.duration());
        }
    });
}

/// Parsing arbitrary text never panics.
#[test]
fn parsers_never_panic() {
    cases(|rng| {
        let len = rng.below_usize(400);
        let text: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newline, like the old "[ -~\n]"
                // fuzz strategy.
                let c = rng.below(96) as u8;
                if c == 95 {
                    '\n'
                } else {
                    (b' ' + c) as char
                }
            })
            .collect();
        let _ = parser::parse_haggle("fuzz", &text);
        let _ = parser::parse_reality("fuzz", &text);
    });
}

/// The synthetic generator respects its declared envelope for any
/// parameters.
#[test]
fn generator_envelope() {
    cases(|rng| {
        let nodes = 2 + rng.below(23) as u32;
        let hours = 1 + rng.below(47);
        let target = 1 + rng.below_usize(1_999);
        let seed = rng.below(1_000);
        let communities = 1 + rng.below_usize(4);
        let duration = SimDuration::from_hours(hours);
        let trace = SyntheticTrace::new("g", nodes, duration, target)
            .communities(communities)
            .seed(seed)
            .build();
        assert_eq!(trace.node_count(), nodes);
        let horizon = SimTime::ZERO + duration;
        for e in &trace {
            assert!(e.end <= horizon);
            assert!(e.a != e.b);
            assert!(e.a.index() < nodes as usize);
            assert!(e.b.index() < nodes as usize);
        }
        // Poisson totals concentrate near the target (loose 5-sigma
        // band plus slack for tiny targets).
        let got = trace.len() as f64;
        let t = target as f64;
        assert!(
            (got - t).abs() <= 5.0 * t.sqrt() + 10.0,
            "target {t}, got {got}"
        );
    });
}

/// Same seed, same trace — across any parameter combination.
#[test]
fn generator_deterministic() {
    cases(|rng| {
        let seed = rng.below(500);
        let nodes = 2 + rng.below(13) as u32;
        let build = || {
            SyntheticTrace::new("det", nodes, SimDuration::from_hours(4), 200)
                .seed(seed)
                .build()
        };
        assert_eq!(build(), build());
    });
}

/// All pairwise inter-contact times in seconds: for each node pair
/// that met more than once, the gaps between the end of one contact
/// and the start of the next.
fn inter_contact_times(trace: &ContactTrace) -> Vec<u64> {
    let mut last_end: HashMap<(NodeId, NodeId), SimTime> = HashMap::new();
    let mut gaps = Vec::new();
    for e in trace {
        let pair = (e.a, e.b);
        if let Some(&prev) = last_end.get(&pair) {
            if e.start > prev {
                gaps.push((e.start - prev).as_secs());
            }
        }
        let entry = last_end.entry(pair).or_insert(e.end);
        *entry = (*entry).max(e.end);
    }
    gaps
}

fn ev(a: u32, b: u32, start: u64, end: u64) -> ContactEvent {
    ContactEvent::new(
        NodeId::new(a),
        NodeId::new(b),
        SimTime::from_secs(start),
        SimTime::from_secs(end),
    )
}

#[test]
fn inter_contact_gaps() {
    let trace = ContactTrace::new(
        "s",
        4,
        vec![
            ev(0, 1, 0, 60),
            ev(0, 2, 100, 160),
            ev(0, 1, 400, 430),
            ev(2, 3, 500, 620),
        ],
    )
    .unwrap();
    // Only pair (0,1) met twice: gap = 400 - 60 = 340.
    assert_eq!(inter_contact_times(&trace), vec![340]);
}

#[test]
fn inter_contact_overlapping_contacts_no_negative_gap() {
    let t = ContactTrace::new("o", 2, vec![ev(0, 1, 0, 100), ev(0, 1, 50, 80)]).unwrap();
    assert!(inter_contact_times(&t).is_empty());
}

/// Inter-contact gaps are non-negative by construction and bounded by
/// the trace duration.
#[test]
fn inter_contact_gaps_bounded() {
    cases(|rng| {
        let events = rand_events(rng, 6, 30_000, 1, 60);
        let trace = ContactTrace::new("icg", 6, events).expect("valid ids");
        let horizon = trace.duration().as_secs();
        for gap in inter_contact_times(&trace) {
            assert!(gap <= horizon);
        }
    });
}
