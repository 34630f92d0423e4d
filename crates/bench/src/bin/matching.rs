//! The broker-side matching sweep: aggregated-index batch matching
//! ([`bsub_match::MatchIndex`]) against the naive per-filter reference
//! scan ([`bsub_match::ReferenceMatcher`]) as subscription counts grow
//! to a million.
//!
//! Unlike the figure sweeps, which replay Table-I-sized traces through
//! the full contact protocol, this harness isolates the *matching
//! plane* of a large broker: a deterministic population of subscribers
//! (1–4 topics each, drawn from a shared topic space) is loaded into
//! both matchers, decayed a few epochs, churned (every 20th subscriber
//! unsubscribes, taking its id out of its posting lists), and then a
//! deterministic event batch is matched through both paths.
//!
//! Every cell **proves** the index before timing it: the two matchers
//! must return identical per-event subscriber lists on the comparison
//! batch — the same equivalence the differential suite in
//! `crates/match/tests/differential.rs` establishes over randomized
//! interleavings, re-checked here at bench scale. At the largest cell,
//! the reference scan is timed on a truncated batch (the naive path is
//! O(subscribers) *per event*) and rates are compared per event. The
//! reference is built and scanned in id-range shards of `REF_SHARD`
//! subscribers, so its dense filters never need more than ~0.7 GB.
//!
//! Flags (combinable):
//!
//! - `--smoke` — the CI-sized sweep (2k–10k subscribers,
//!   `matching_smoke.csv`, deterministic columns only, golden-diffed
//!   by CI) instead of the full 10k–1M sweep (`matching.csv`, which
//!   additionally records the measured per-event rates and speedup —
//!   see EXPERIMENTS.md);
//! - `--prof` — profile with `bsub-obs` and print the `match_*`
//!   counter/histogram tables per cell;
//! - `--check` — after measuring, gate the host-normalized CPU time
//!   against the committed `BENCH_perf.json` baseline, exactly like
//!   `scale --check`.
//!
//! Deterministic work counters (live subscribers, posting-table probes
//! and hits, candidates, matches) go into the CSV in both modes;
//! wall-clock rates go to stdout, the full CSV, and the perf-gate
//! entry in `BENCH_perf.json`.

use bsub_bench::output::{render_table, write_csv};
use bsub_bench::perf::{self, PerfEntry};
use bsub_bloom::rng::SplitMix64;
use bsub_match::{Event, MatchIndex, MatchParams, ReferenceMatcher};
use bsub_obs::{self as obs, MetricsReport, ProfReport};
use std::time::Instant;

/// Master seed for subscriber interests and the event batch.
const MATCH_SEED: u64 = 0x00b5_0b0a_7c41;
/// Stream salts separating the independent deterministic draws.
const SUB_STREAM: u64 = 1;
const EVENT_STREAM: u64 = 2;
/// Events per matched batch.
const BATCH_EVENTS: usize = 512;
/// Decay epochs applied after loading (both matchers, lock-step).
const DECAY: u32 = 4;
/// Every CHURN-th subscriber unsubscribes before matching.
const CHURN: u64 = 20;
/// One in this many event draws is a key nobody subscribed to.
const ABSENT_EVERY: u64 = 10;
/// Subscribers per reference shard. The dense reference needs 32 KiB
/// per subscriber, about 33 GB at the 1M cell; built and scanned one
/// id range at a time it stays near 0.7 GB, and every (subscriber,
/// event) pair is still probed exactly once.
const REF_SHARD: u64 = 20_000;

/// One cell of the sweep.
struct Cell {
    subs: u64,
    topics: u64,
    /// Events the reference scan is timed on (the naive path is
    /// O(subs) per event; at 1M subscribers a full batch would
    /// dominate the sweep). Equality is asserted on this prefix too.
    ref_events: usize,
}

struct CellOutcome {
    subs: u64,
    topics: u64,
    events: usize,
    live: usize,
    tier_probes: u64,
    tier_hits: u64,
    candidates: u64,
    matched: u64,
    ref_events: usize,
    ref_candidates: u64,
    index_ns_per_event: f64,
    ref_ns_per_event: f64,
    speedup: f64,
    wall_ms: f64,
    prof: Option<ProfReport>,
}

fn smoke_cells() -> Vec<Cell> {
    vec![
        Cell {
            subs: 2_000,
            topics: 500,
            ref_events: BATCH_EVENTS,
        },
        Cell {
            subs: 10_000,
            topics: 1_000,
            ref_events: BATCH_EVENTS,
        },
    ]
}

fn full_cells() -> Vec<Cell> {
    vec![
        Cell {
            subs: 10_000,
            topics: 1_000,
            ref_events: BATCH_EVENTS,
        },
        Cell {
            subs: 100_000,
            topics: 4_000,
            ref_events: 128,
        },
        Cell {
            subs: 1_000_000,
            topics: 10_000,
            ref_events: 32,
        },
    ]
}

fn params() -> MatchParams {
    MatchParams::default()
}

fn topic(t: u64) -> String {
    format!("topic-{t}")
}

/// The 1–4 topics subscriber `id` registers, a stateless draw.
fn interests_of(id: u64, topics: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(SplitMix64::mix(SplitMix64::mix(MATCH_SEED, SUB_STREAM), id));
    let n = 1 + (rng.next_u64() % 4) as usize;
    (0..n).map(|_| topic(rng.next_u64() % topics)).collect()
}

/// The deterministic event batch: mostly live topics, salted with
/// keys nobody subscribed to (the pruning path's bread and butter).
fn event_batch(topics: u64) -> Vec<Event> {
    let mut rng = SplitMix64::new(SplitMix64::mix(MATCH_SEED, EVENT_STREAM));
    (0..BATCH_EVENTS)
        .map(|_| {
            if rng.next_u64().is_multiple_of(ABSENT_EVERY) {
                Event::new(format!("unsubscribed-{}", rng.next_u64() % 4096))
            } else {
                Event::new(topic(rng.next_u64() % topics))
            }
        })
        .collect()
}

fn run_cell(cell: &Cell, prof: bool) -> CellOutcome {
    let wall_start = Instant::now();
    let p = params();
    let mut index = MatchIndex::new(p);
    for id in 0..cell.subs {
        index.subscribe(id, &interests_of(id, cell.topics));
    }
    index.decay(DECAY);
    for id in (0..cell.subs).step_by(CHURN as usize) {
        index.unsubscribe(id);
    }

    let batch = event_batch(cell.topics);
    let ref_batch = &batch[..cell.ref_events.min(batch.len())];

    // The reference scan, one id range at a time: each shard gets the
    // same subscribe/decay/churn stream as the index, and its ascending
    // per-event lists concatenate in shard order.
    let mut oracle: Vec<Vec<u64>> = vec![Vec::new(); ref_batch.len()];
    let (mut ref_ns, mut ref_candidates) = (0.0, 0);
    for lo in (0..cell.subs).step_by(REF_SHARD as usize) {
        let shard = lo..(lo + REF_SHARD).min(cell.subs);
        let mut reference = ReferenceMatcher::from_params(&p);
        for id in shard.clone() {
            reference.subscribe(id, &interests_of(id, cell.topics));
        }
        reference.decay(DECAY);
        for id in shard.filter(|id| id.is_multiple_of(CHURN)) {
            reference.unsubscribe(id);
        }
        let start = Instant::now();
        let set = reference.match_events(ref_batch);
        ref_ns += start.elapsed().as_nanos() as f64;
        ref_candidates += set.stats.candidates;
        for (all, part) in oracle.iter_mut().zip(set.matches) {
            all.extend(part);
        }
    }

    // Prove before measuring: index ≡ reference on the comparison
    // prefix, per-event subscriber lists byte-identical.
    let checked = index.match_events(ref_batch);
    assert_eq!(
        checked.matches, oracle,
        "index diverged from the reference scan at {} subscribers",
        cell.subs
    );

    if prof {
        obs::start();
    }
    let start = Instant::now();
    let set = index.match_events(&batch);
    let index_ns = start.elapsed().as_nanos() as f64;
    let prof_report = prof.then(obs::finish);

    let index_ns_per_event = index_ns / batch.len() as f64;
    let ref_ns_per_event = ref_ns / ref_batch.len().max(1) as f64;

    CellOutcome {
        subs: cell.subs,
        topics: cell.topics,
        events: batch.len(),
        live: index.live_count(),
        tier_probes: set.stats.tier_probes,
        tier_hits: set.stats.tier_hits,
        candidates: set.stats.candidates,
        matched: set.stats.matched,
        ref_events: ref_batch.len(),
        ref_candidates,
        index_ns_per_event,
        ref_ns_per_event,
        speedup: ref_ns_per_event / index_ns_per_event.max(f64::MIN_POSITIVE),
        wall_ms: wall_start.elapsed().as_secs_f64() * 1e3,
        prof: prof_report,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let started = perf::CpuTimes::now();
    let prof = args.iter().any(|a| a == "--prof");

    let (name, cells) = if smoke {
        ("matching-smoke", smoke_cells())
    } else {
        ("matching", full_cells())
    };

    let sweep_start = Instant::now();
    let outcomes: Vec<CellOutcome> = cells.iter().map(|c| run_cell(c, prof)).collect();
    let total_ms = sweep_start.elapsed().as_secs_f64() * 1e3;

    // Deterministic columns: identical on every host, so the smoke CSV
    // can be golden-diffed by CI. The full CSV additionally records
    // the measured per-event rates — it is the committed record of the
    // sweep, not a byte-stability gate.
    let det_headers = [
        "subs",
        "topics",
        "events",
        "live",
        "tier_probes",
        "tier_hits",
        "candidates",
        "matches",
        "ref_events",
        "ref_candidates",
    ];
    let det_row = |o: &CellOutcome| {
        vec![
            o.subs.to_string(),
            o.topics.to_string(),
            o.events.to_string(),
            o.live.to_string(),
            o.tier_probes.to_string(),
            o.tier_hits.to_string(),
            o.candidates.to_string(),
            o.matched.to_string(),
            o.ref_events.to_string(),
            o.ref_candidates.to_string(),
        ]
    };
    if smoke {
        let rows: Vec<Vec<String>> = outcomes.iter().map(det_row).collect();
        write_csv("matching_smoke", &det_headers, &rows);
    } else {
        let headers: Vec<&str> = det_headers
            .iter()
            .copied()
            .chain(["index_ns_per_event", "ref_ns_per_event", "speedup"])
            .collect();
        let rows: Vec<Vec<String>> = outcomes
            .iter()
            .map(|o| {
                let mut row = det_row(o);
                row.push(format!("{:.0}", o.index_ns_per_event));
                row.push(format!("{:.0}", o.ref_ns_per_event));
                row.push(format!("{:.1}", o.speedup));
                row
            })
            .collect();
        write_csv("matching", &headers, &rows);
    }

    let table_rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.subs.to_string(),
                o.live.to_string(),
                format!("{:.1}", o.index_ns_per_event / 1e3),
                format!("{:.1}", o.ref_ns_per_event / 1e3),
                format!("{:.1}", o.speedup),
                format!(
                    "{:.1}",
                    o.candidates as f64 / (o.live.max(1) as f64 * o.events as f64) * 100.0
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{name} — batched index vs per-filter scan"),
            &[
                "subs",
                "live",
                "index_us/ev",
                "ref_us/ev",
                "speedup",
                "scan%"
            ],
            &table_rows,
        )
    );

    if prof {
        let mut metrics = MetricsReport::new();
        for o in &outcomes {
            if let Some(report) = &o.prof {
                metrics.add(&format!("matching-{}s", o.subs), report);
            }
        }
        print!("{}", metrics.render_table());
    }

    let largest = outcomes.last().expect("sweep has cells");
    if !smoke {
        assert!(
            largest.speedup >= 5.0,
            "batched matching must be ≥5x the reference scan at {} subscribers (got {:.1}x)",
            largest.subs,
            largest.speedup
        );
    }

    let entry = PerfEntry {
        experiment: name.to_string(),
        workers: 1,
        runs: outcomes.len() as u64,
        total_ms,
        cpu_ms: outcomes.iter().map(|o| o.wall_ms).sum(),
        speedup: largest.speedup,
        calib_ns: bsub_obs::calibrate_ns(),
        bytes: outcomes.iter().map(|o| o.candidates).sum(),
        forwardings: outcomes.iter().map(|o| o.tier_probes).sum(),
        delivered: outcomes.iter().map(|o| o.matched).sum(),
    };
    perf::record(&[entry], check, started);
}
