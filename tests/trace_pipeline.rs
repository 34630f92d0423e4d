//! Trace-layer integration: export a synthetic trace to the CRAWDAD
//! text formats, parse it back, and run a simulation over the parsed
//! copy — proving the real datasets can drop in unchanged.

use bsub::baselines::Push;
use bsub::sim::{GeneratedMessage, SimConfig, Simulation, SubscriptionTable};
use bsub::traces::synthetic::SyntheticTrace;
use bsub::traces::{parser, stats, ContactEvent, ContactTrace, NodeId, SimDuration, SimTime};
use std::fmt::Write as _;

fn sample_trace(seed: u64) -> ContactTrace {
    SyntheticTrace::new("pipeline", 15, SimDuration::from_hours(8), 900)
        .seed(seed)
        .build()
}

/// Renders a trace in the Haggle processed-contacts shape (1-based
/// ids, whitespace separated).
fn to_haggle_text(trace: &ContactTrace) -> String {
    let mut out = String::from("# exported for round-trip test\n");
    for e in trace {
        let _ = writeln!(
            out,
            "{} {} {} {}",
            e.a.index() + 1,
            e.b.index() + 1,
            e.start.as_secs(),
            e.end.as_secs()
        );
    }
    out
}

/// Renders a trace in the Reality CSV shape (0-based ids, absolute
/// times).
fn to_reality_csv(trace: &ContactTrace) -> String {
    let mut out = String::from("person_a,person_b,starttime,endtime\n");
    let epoch = 1_157_000_000u64;
    for e in trace {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            e.a.index(),
            e.b.index(),
            epoch + e.start.as_secs(),
            epoch + e.end.as_secs()
        );
    }
    out
}

#[test]
fn haggle_roundtrip_preserves_events() {
    let original = sample_trace(1);
    let parsed = parser::parse_haggle("roundtrip", &to_haggle_text(&original)).expect("parses");
    assert_eq!(parsed.len(), original.len());
    assert_eq!(parsed.node_count(), original.node_count());
    for (a, b) in original.iter().zip(parsed.iter()) {
        assert_eq!(a.a, b.a);
        assert_eq!(a.b, b.b);
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }
}

#[test]
fn reality_roundtrip_preserves_events() {
    let original = sample_trace(2);
    let parsed = parser::parse_reality("roundtrip", &to_reality_csv(&original)).expect("parses");
    assert_eq!(parsed.len(), original.len());
    // Times are re-zeroed against the earliest contact, which the
    // generator already guarantees starts near zero.
    let offset = original.events()[0].start.as_secs();
    for (a, b) in original.iter().zip(parsed.iter()) {
        assert_eq!(a.start.as_secs() - offset, b.start.as_secs());
        assert_eq!(a.duration(), b.duration());
    }
}

#[test]
fn parsed_trace_drives_a_simulation() {
    let original = sample_trace(3);
    let parsed = parser::parse_haggle("sim-input", &to_haggle_text(&original)).expect("parses");

    let mut subs = SubscriptionTable::new(parsed.node_count());
    subs.subscribe(NodeId::new(1), "news");
    let schedule = vec![GeneratedMessage {
        at: SimTime::from_secs(60),
        producer: NodeId::new(0),
        key: "news".into(),
        size: 100,
    }];
    let sim = Simulation::new(
        parsed.clone(),
        subs.clone(),
        schedule.clone(),
        SimConfig::default(),
    );
    let report = sim.run(&mut Push::new(parsed.node_count()));
    assert_eq!(report.generated, 1);
    // A dense 15-node trace floods one message through easily.
    assert_eq!(report.delivered, 1);
}

#[test]
fn stats_agree_across_roundtrip() {
    let original = sample_trace(4);
    let parsed = parser::parse_haggle("stats", &to_haggle_text(&original)).expect("parses");
    let a = stats::TraceStats::compute(&original);
    let b = stats::TraceStats::compute(&parsed);
    assert_eq!(a.contacts, b.contacts);
    assert_eq!(a.mean_degree, b.mean_degree);
    assert_eq!(a.median_contact_secs, b.median_contact_secs);
    assert_eq!(stats::degrees(&original), stats::degrees(&parsed));
    assert_eq!(stats::centrality(&original), stats::centrality(&parsed));
}

/// Finds the start of the contiguous window of length `len` with the
/// most contact *starts*, scanning candidate offsets at `step`
/// granularity. Returns [`SimTime::ZERO`] for an empty trace.
///
/// # Panics
///
/// Panics if `len` or `step` is zero.
fn busiest_window(trace: &ContactTrace, len: SimDuration, step: SimDuration) -> SimTime {
    assert!(!len.is_zero(), "window length must be positive");
    assert!(!step.is_zero(), "scan step must be positive");
    let end = trace.duration().as_secs();
    if trace.is_empty() || end <= len.as_secs() {
        return SimTime::ZERO;
    }
    let starts: Vec<u64> = trace.iter().map(|e| e.start.as_secs()).collect();
    // `starts` is sorted because trace events are sorted.
    let mut best = (0u64, 0usize);
    let mut offset = 0u64;
    while offset + len.as_secs() <= end {
        let lo = starts.partition_point(|&s| s < offset);
        let hi = starts.partition_point(|&s| s < offset + len.as_secs());
        let count = hi - lo;
        if count > best.1 {
            best = (offset, count);
        }
        offset += step.as_secs();
    }
    SimTime::from_secs(best.0)
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
fn busiest_window_finds_dense_region() {
    // Contacts clustered around t=1000..1100.
    let mut events = vec![ev(0, 1, 0, 10)];
    for i in 0..20 {
        events.push(ev(0, 1, 1000 + i * 5, 1000 + i * 5 + 2));
    }
    events.push(ev(0, 1, 5000, 5010));
    let t = ContactTrace::new("b", 2, events).unwrap();
    let w = busiest_window(&t, SimDuration::from_secs(200), SimDuration::from_secs(100));
    assert!(w.as_secs() >= 900 && w.as_secs() <= 1100, "got {w:?}");
}

#[test]
fn busiest_window_short_trace_is_zero() {
    let t = ContactTrace::new("s", 2, vec![ev(0, 1, 0, 60), ev(0, 1, 400, 430)]).unwrap();
    let w = busiest_window(&t, SimDuration::from_hours(1), SimDuration::from_secs(60));
    assert_eq!(w, SimTime::ZERO);
}

#[test]
#[should_panic(expected = "positive")]
fn busiest_window_zero_len_panics() {
    let t = ContactTrace::new("s", 2, vec![ev(0, 1, 0, 60)]).unwrap();
    let _ = busiest_window(&t, SimDuration::ZERO, SimDuration::from_secs(1));
}

#[test]
fn window_slicing_composes_with_stats() {
    let trace = sample_trace(5);
    let busiest = busiest_window(
        &trace,
        SimDuration::from_hours(2),
        SimDuration::from_mins(30),
    );
    let slice = trace.window(busiest, SimDuration::from_hours(2));
    assert!(!slice.is_empty(), "busiest window holds contacts");
    assert!(slice.len() <= trace.len());
    assert!(slice.duration() <= SimTime::from_hours(2));
    // Density in the busiest window is at least the trace average.
    let avg_rate = trace.len() as f64 / trace.duration().as_secs() as f64;
    let win_rate = slice.len() as f64 / SimDuration::from_hours(2).as_secs() as f64;
    assert!(
        win_rate >= avg_rate * 0.9,
        "busiest window {win_rate} vs average {avg_rate}"
    );
}
