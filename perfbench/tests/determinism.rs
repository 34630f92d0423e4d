//! The traced run's deterministic counts repeat exactly at one seed,
//! and a second seed changes the inputs but not the workload's shape.
//! Each workload runs at a reduced shape so the suite stays quick.

use bsub_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use bsub_perfbench::{broker, matching, sim, RunArgs};
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-layer metrics that depend on timing or scheduling, not only on
/// the inputs: service-loop batching and queue stalls.
const TIMING_DEPENDENT: [&str; 3] = ["broker.batches", "net.send_stalls", "trace.overhead_ratio"];

fn traced(seed: u64) -> RunArgs {
    RunArgs {
        seed,
        seconds: Duration::from_millis(200),
        trace: true,
    }
}

/// The per-layer counts, bytes and ratios of a traced run.
fn counts(out: &Outcome) -> BTreeMap<&'static str, f64> {
    assert!(out.correct(), "output checks failed: {:?}", out.problems);
    PER_LAYER
        .iter()
        .filter(|(name, unit)| {
            matches!(*unit, "count" | "bytes" | "ratio") && !TIMING_DEPENDENT.contains(name)
        })
        .map(|(name, _)| (*name, out.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn assert_repeats(run: impl Fn(&RunArgs) -> Outcome, varied: &[&str], fixed: &[&str]) {
    let first = counts(&run(&traced(7)));
    let again = counts(&run(&traced(7)));
    assert_eq!(first, again, "counts differ between two runs at one seed");
    let other = counts(&run(&traced(8)));
    for name in varied {
        assert_ne!(first[name], other[name], "{name} ignores the seed");
    }
    for name in fixed {
        assert_eq!(first[name], other[name], "{name} changed with the seed");
    }
}

const SIM: sim::SimShape = sim::SimShape { ttl_mins: 20 };

const MATCH: matching::MatchShape = matching::MatchShape {
    subscribers: 1_024,
    topics: 4_096,
    traced_batches: 120,
    id_space: 2_048,
    warmup_ops: 1_024,
    traced_ops: 4_096,
};

const BROKER: broker::BrokerShape = broker::BrokerShape {
    rate_per_s: 5_000,
    topics: 8,
    window: 16,
    warmup: Duration::from_millis(50),
    rate_share: 0.5,
    traced_rate_publishes: 1_000,
    traced_closed_publishes: 2_000,
};

#[test]
fn sim_counts_repeat_and_follow_the_seed() {
    assert_repeats(
        |a| sim::run_shaped(a, SIM),
        &["sim.messages", "core.forwardings", "bloom.queries"],
        &["sim.contacts"],
    );
}

#[test]
fn match_counts_repeat_and_follow_the_seed() {
    assert_repeats(
        |a| matching::run_zipf(a, MATCH),
        &["match.candidates", "match.matched", "match.compactions"],
        &[
            "match.events",
            "match.tier_probes",
            "match.live",
            "match.tiers",
            "match.write_ops",
        ],
    );
}

#[test]
fn broker_counts_repeat_and_follow_the_seed() {
    let run = |a: &RunArgs| broker::run(a, BROKER);
    let first = counts(&run(&traced(7)));
    assert_eq!(first, counts(&run(&traced(7))));
    // Every publish of the traced passes is matched and delivered once:
    // one PUBLISH and one DELIVER frame per closed-loop publish.
    assert_eq!(first["match.events"], 1_000.0);
    assert_eq!(first["match.matched"], 1_000.0);
    assert_eq!(first["net.frames_sent"], 4_000.0);
    // Topic names come from the seed; their length does not.
    assert_eq!(first, counts(&run(&traced(8))));
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let args = RunArgs {
        seed: 3,
        seconds: Duration::from_secs(1),
        trace: false,
    };
    for out in [matching::run_zipf(&args, MATCH), broker::run(&args, BROKER)] {
        assert!(out.correct(), "{:?}", out.problems);
        assert!(out.attempted > 0);
        for (name, _) in END_TO_END {
            let v = out.end_to_end[name];
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
        assert!(out.json(false).is_ok());
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at =
                        entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                    entry[at..entry[at..].find('"').expect("string closes") + at].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let listed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), listed(&END_TO_END));
    assert_eq!(section("per_layer"), listed(&PER_LAYER));
}

#[test]
fn zipf_exponent_fits_the_table_ii_head() {
    // ln(0.132 / 0.0739) / ln 4 ≈ 0.42; the least-squares fit over all
    // four published weights is about 0.40.
    let s = matching::zipf_exponent();
    assert!((0.38..0.42).contains(&s), "s = {s}");
}
