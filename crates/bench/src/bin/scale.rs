//! The 10M-node scale harness: streams a synthetic contact schedule
//! through the packed TCBF kernels on a sharded, deterministic
//! parallel engine and reports sustained event throughput, resident
//! filter memory, and peak process RSS.
//!
//! Unlike the figure sweeps, which replay Table-I-sized traces through
//! the full protocol, this harness isolates the *filter plane*: every
//! contact event folds the consumer's interest profile into the
//! meeting broker's relay with one sparse A-merge
//! ([`bsub_bloom::PackedTcbf::a_merge_sparse`]), relays decay lazily
//! once per epoch (O(1) per filter via the epoch offset), and a
//! sampled subset of events runs existential plus preferential queries
//! against the merged state. The contact schedule is a
//! [`bsub_traces::synthetic::ContactStream`] — events derive from
//! their index on demand, so a ten-million-node sweep holds no event
//! vector and memory stays constant in the schedule length.
//!
//! # Sharded execution (DESIGN.md §11)
//!
//! Brokers partition across `S` shards by residue (`broker % S`), and
//! the schedule is processed in epochs of [`EPOCH_EVENTS`] events.
//! Each epoch runs four barrier-separated phases on `S` persistent
//! workers:
//!
//! 1. **Derive** — worker `w` derives the endpoints of every event
//!    with `index % S == w` ([`ContactStream::endpoints_at`], which
//!    skips the unused duration draw) and buckets the resulting merge
//!    job by the owning broker shard;
//! 2. **Merge** — worker `w` applies every job destined for its own
//!    brokers. Saturating nibble addition is commutative and
//!    associative, so the final relay state is independent of
//!    application order — the root of shard-count invariance;
//! 3. **Query** — sampled events query *end-of-epoch, pre-decay*
//!    state, read-only across all shards. Anchoring queries to the
//!    epoch boundary (rather than a mid-epoch interleaving) is what
//!    makes hit counts identical for every `S`, including `S = 1`;
//! 4. **Decay** — worker `w` decays its own relays by 1 (full epochs
//!    only, preserving the serial cadence).
//!
//! Query key draws are stateless (`mix(seed, index)`), so no RNG
//! stream crosses a shard boundary. The result: every deterministic
//! CSV column is byte-identical for any shard count, which the full
//! sweep demonstrates by running the 10M-node cell at several `S`.
//!
//! Flags (combinable):
//!
//! - `--smoke` — the CI-sized sweep (25k–100k nodes, `scale_smoke.csv`)
//!   instead of the full 250k–10M sweep (`scale.csv`, see
//!   EXPERIMENTS.md);
//! - `--shards N` — shard count for the sweep (default from
//!   `BSUB_SHARDS`, else 1);
//! - `--prof` — profile each worker with `bsub-obs`, merge the
//!   per-shard reports in deterministic shard order
//!   ([`ProfReport::merge`]), cross-check the merge counter against the
//!   engine's own sums, and print the per-cell metric tables;
//! - `--check` — after measuring, gate the host-normalized CPU time
//!   against the committed `BENCH_perf.json` baseline, exactly like
//!   `perf --check`.
//!
//! Deterministic work counters (events, merges, merged bytes, query
//! hits) go into the CSV; wall-clock throughput, peak RSS, and the
//! perf-gate entry go to stdout and `BENCH_perf.json`, keeping the CSV
//! byte-stable across hosts — and across shard counts — like every
//! other results artifact.
//!
//! Each barrier phase is additionally timed on every run (cheap: two
//! clock reads per phase per epoch per worker, never any allocation),
//! and the summed work time lands in four `<sweep>-phase-{derive,
//! merge,query,decay}` trajectory entries (`scale-phase-*` for the full
//! sweep, `scale-smoke-phase-*` for `--smoke`) gated alongside the
//! sweep's own —
//! so a regression in, say, the merge kernel is attributed to its
//! phase instead of disappearing into the total. Under `--prof` the
//! same spans also feed the `scale_*_ns` histograms (one sample per
//! epoch per worker), giving tail latencies per phase.

use bsub_bench::output::{render_table, write_csv};
use bsub_bench::perf::{self, PerfEntry};
use bsub_bloom::rng::SplitMix64;
use bsub_bloom::PackedTcbf;
use bsub_obs::{self as obs, Counter, MetricsReport, ProfReport, TimeHist};
use bsub_traces::synthetic::ContactStream;
use bsub_traces::SimDuration;
use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

/// Relay / interest filter width in bits (multiple of 64 so every
/// word is fully used).
const FILTER_BITS: usize = 8192;
/// Hash functions per key.
const HASHES: usize = 4;
/// Initial counter value `C` — well under the nibble cap so a few
/// A-merges accumulate before saturating at 15.
const INITIAL: u8 = 8;
/// Brokers per deployment; nodes map to brokers by id residue.
const BROKERS: usize = 256;
/// Distinct interest profiles in the arena; nodes map by id residue.
/// Bounds memory regardless of node count.
const PROFILES: usize = 512;
/// Contact events per node in the schedule.
const EVENTS_PER_NODE: u64 = 4;
/// Events per epoch: every relay decays by 1 at each full epoch
/// boundary, and queries observe end-of-epoch pre-decay state.
const EPOCH_EVENTS: u64 = 4096;
/// One in this many events also runs the query pair.
const QUERY_EVERY: u64 = 64;
/// Seed for the schedule and the interest arena.
const SCALE_SEED: u64 = 0x000b_50b5_ca1e;
/// Stream salt separating the stateless query-key draws from every
/// other consumer of [`SCALE_SEED`].
const QUERY_STREAM: u64 = 0x00c0_ffee_9e37;
/// Shard counts the full sweep measures on the largest cell.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// The four barrier-separated phase names, in execution order. Each
/// phase's summed work time becomes a `<sweep>-phase-*` entry in the
/// perf trajectory, gated like every other experiment.
const PHASES: [&str; 4] = ["derive", "merge", "query", "decay"];
/// The profiler histogram behind each phase (DESIGN.md §15): one
/// sample per epoch per worker when `--prof` is set.
const PHASE_HISTS: [TimeHist; 4] = [
    TimeHist::ScaleDeriveNs,
    TimeHist::ScaleMergeNs,
    TimeHist::ScaleQueryNs,
    TimeHist::ScaleDecayNs,
];

/// One (nodes × interest-cardinality) cell of the sweep.
struct Cell {
    nodes: u64,
    interests: usize,
}

/// Deterministic work sums plus the measured wall clock for one cell.
struct CellOutcome {
    nodes: u64,
    interests: usize,
    shards: usize,
    events: u64,
    merges: u64,
    decays: u64,
    queries: u64,
    hits: u64,
    merged_bytes: u64,
    resident_bytes: u64,
    wall_ms: f64,
    peak_rss_kb: u64,
    /// Summed per-worker work time inside each barrier phase
    /// ([`PHASES`] order), excluding barrier waits.
    phase_ns: [u64; 4],
    prof: Option<ProfReport>,
}

fn smoke_cells() -> Vec<Cell> {
    vec![
        Cell {
            nodes: 25_000,
            interests: 4,
        },
        Cell {
            nodes: 50_000,
            interests: 8,
        },
        Cell {
            nodes: 100_000,
            interests: 16,
        },
    ]
}

fn full_cells() -> Vec<Cell> {
    vec![
        Cell {
            nodes: 250_000,
            interests: 4,
        },
        Cell {
            nodes: 500_000,
            interests: 8,
        },
        Cell {
            nodes: 1_000_000,
            interests: 16,
        },
    ]
}

/// The full sweep's tentpole cell, run once per [`SHARD_SWEEP`] entry.
fn tentpole_cell() -> Cell {
    Cell {
        nodes: 10_000_000,
        interests: 16,
    }
}

/// Builds the interest-profile arena in the sparse `(word, packed)`
/// form [`PackedTcbf::a_merge_sparse`] consumes: `PROFILES` filters,
/// each holding `interests` keys. At B-SUB's sizing most words are
/// zero, so the sparse form carries ~8× fewer words per merge than
/// the dense arena the harness previously streamed.
fn build_arena(interests: usize) -> Vec<Vec<(u32, u64)>> {
    (0..PROFILES)
        .map(|p| {
            let mut filter = PackedTcbf::new(FILTER_BITS, HASHES, INITIAL);
            for j in 0..interests {
                filter
                    .insert(profile_key(p, j))
                    .expect("fresh filter accepts inserts");
            }
            filter.sparse_words()
        })
        .collect()
}

fn profile_key(profile: usize, j: usize) -> String {
    format!("topic-{profile}-{j}")
}

/// One derived merge: fold `arena[profile]` into relay `slot` of the
/// owning shard.
struct MergeJob {
    slot: u32,
    profile: u32,
}

/// Everything the workers share for one cell. Relays are grouped by
/// owning shard (`broker % S` → group, `broker / S` → slot); buckets
/// are a producer × destination mailbox matrix so phase A writes are
/// uncontended.
struct Engine<'a> {
    stream: &'a ContactStream,
    arena: &'a [Vec<(u32, u64)>],
    profile_keys: &'a [Vec<String>],
    interests: usize,
    total: u64,
    shards: usize,
    groups: Vec<RwLock<Vec<PackedTcbf>>>,
    buckets: Vec<Vec<Mutex<Vec<MergeJob>>>>,
    barrier: Barrier,
}

/// One worker's deterministic sums; totals are their shard-order sum.
#[derive(Default)]
struct WorkerOutcome {
    merges: u64,
    decays: u64,
    queries: u64,
    hits: u64,
    merged_words: u64,
    /// Wall-clock nanoseconds this worker spent *working* inside each
    /// phase ([`PHASES`] order). Barrier waits are excluded, so the
    /// cell-level sum is pure work time, not `shards ×` idle time.
    phase_ns: [u64; 4],
    prof: Option<ProfReport>,
}

impl WorkerOutcome {
    /// Closes phase `i`'s span: accumulates the always-on wall total
    /// and, when profiled, records one epoch sample into the matching
    /// `scale_*_ns` histogram.
    fn end_phase(&mut self, i: usize, started: Instant, prof: bool) {
        let ns = started.elapsed().as_nanos() as u64;
        self.phase_ns[i] += ns;
        if prof {
            obs::observe_ns(PHASE_HISTS[i], ns);
        }
    }
}

/// The per-shard worker loop: all epochs, four barrier-separated
/// phases each. Worker `0` runs on the orchestrating thread.
fn worker(engine: &Engine, w: usize, prof: bool) -> WorkerOutcome {
    if prof {
        obs::start();
    }
    let s = engine.shards;
    let mut out = WorkerOutcome::default();
    let mut pending: Vec<Vec<MergeJob>> = (0..s).map(|_| Vec::new()).collect();

    let mut epoch_start = 0u64;
    while epoch_start < engine.total {
        let epoch_end = (epoch_start + EPOCH_EVENTS).min(engine.total);

        // Phase A — derive this worker's slice of the epoch and bucket
        // each merge by the owning broker shard. Only the endpoints
        // are needed to route, so the duration draw is skipped.
        let phase = Instant::now();
        let mut index = epoch_start + w as u64;
        while index < epoch_end {
            let (a, b) = engine.stream.endpoints_at(index);
            let broker = b as usize % BROKERS;
            pending[broker % s].push(MergeJob {
                slot: (broker / s) as u32,
                profile: (a as usize % PROFILES) as u32,
            });
            index += s as u64;
        }
        for (dest, jobs) in pending.iter_mut().enumerate() {
            engine.buckets[w][dest]
                .lock()
                .expect("bucket lock")
                .append(jobs);
        }
        out.end_phase(0, phase, prof);
        engine.barrier.wait();

        // Phase B — apply every job destined for this shard's relays.
        // Saturating adds commute, so arrival order cannot matter.
        let phase = Instant::now();
        {
            let mut relays = engine.groups[w].write().expect("relay lock");
            for producer in 0..s {
                let jobs =
                    std::mem::take(&mut *engine.buckets[producer][w].lock().expect("bucket lock"));
                for job in &jobs {
                    let entries = &engine.arena[job.profile as usize];
                    relays[job.slot as usize].a_merge_sparse(entries);
                    out.merged_words += entries.len() as u64;
                }
                out.merges += jobs.len() as u64;
            }
        }
        out.end_phase(1, phase, prof);
        engine.barrier.wait();

        // Phase C — sampled queries, read-only against the epoch's
        // fully merged, not-yet-decayed state; round-robin across
        // workers by query ordinal. Key choice is a stateless draw
        // from the event index, so nothing here depends on S.
        let phase = Instant::now();
        {
            let guards: Vec<_> = engine
                .groups
                .iter()
                .map(|g| g.read().expect("relay lock"))
                .collect();
            let mut q = epoch_start + (QUERY_EVERY - 1);
            while q < epoch_end {
                if (q / QUERY_EVERY) as usize % s == w {
                    let (a, b) = engine.stream.endpoints_at(q);
                    let broker = b as usize % BROKERS;
                    let profile = a as usize % PROFILES;
                    let draw = SplitMix64::mix(SplitMix64::mix(SCALE_SEED, QUERY_STREAM), q);
                    let key = &engine.profile_keys[profile][draw as usize % engine.interests];
                    let relay = &guards[broker % s][broker / s];
                    if relay.contains(key) {
                        out.hits += 1;
                    }
                    let other = a as usize % BROKERS;
                    if other != broker {
                        let against = &guards[other % s][other / s];
                        let pref = relay.preference(against, key).expect("same geometry");
                        if pref.is_positive() {
                            out.hits += 1;
                        }
                    }
                    out.queries += 1;
                }
                q += QUERY_EVERY;
            }
        }
        out.end_phase(2, phase, prof);
        engine.barrier.wait();

        // Phase D — decay own relays at full epoch boundaries only
        // (the tail of a schedule that is not an epoch multiple does
        // not decay, matching the serial cadence).
        let phase = Instant::now();
        if epoch_end - epoch_start == EPOCH_EVENTS {
            let mut relays = engine.groups[w].write().expect("relay lock");
            for relay in relays.iter_mut() {
                relay.decay(1);
            }
            out.decays += relays.len() as u64;
        }
        out.end_phase(3, phase, prof);
        engine.barrier.wait();

        epoch_start = epoch_end;
    }

    if prof {
        out.prof = Some(obs::finish());
    }
    out
}

fn run_cell(cell: &Cell, shards: usize, prof: bool) -> CellOutcome {
    let duration = SimDuration::from_hours(24);
    let total = cell.nodes * EVENTS_PER_NODE;
    let stream = ContactStream::new(cell.nodes, duration, total, SCALE_SEED);
    let arena = build_arena(cell.interests);
    let profile_keys: Vec<Vec<String>> = (0..PROFILES)
        .map(|p| (0..cell.interests).map(|j| profile_key(p, j)).collect())
        .collect();

    let word_bytes = PackedTcbf::new(FILTER_BITS, HASHES, INITIAL).word_bytes();
    let arena_entries: usize = arena.iter().map(Vec::len).sum();
    let resident_bytes =
        (BROKERS * word_bytes + arena_entries * std::mem::size_of::<(u32, u64)>()) as u64;

    let engine = Engine {
        stream: &stream,
        arena: &arena,
        profile_keys: &profile_keys,
        interests: cell.interests,
        total,
        shards,
        groups: (0..shards)
            .map(|w| {
                RwLock::new(
                    (0..BROKERS)
                        .filter(|b| b % shards == w)
                        .map(|_| PackedTcbf::new(FILTER_BITS, HASHES, INITIAL))
                        .collect(),
                )
            })
            .collect(),
        buckets: (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        barrier: Barrier::new(shards),
    };

    let start = Instant::now();
    // Worker 0 is the orchestrating thread; shards 1..S run on scoped
    // threads that live for the whole cell (persistent workers, no
    // per-epoch spawn cost).
    let outcomes: Vec<WorkerOutcome> = if shards == 1 {
        vec![worker(&engine, 0, prof)]
    } else {
        std::thread::scope(|scope| {
            let engine = &engine;
            let handles: Vec<_> = (1..shards)
                .map(|w| scope.spawn(move || worker(engine, w, prof)))
                .collect();
            let mut outcomes = vec![worker(engine, 0, prof)];
            for handle in handles {
                outcomes.push(handle.join().expect("scale worker panicked"));
            }
            outcomes
        })
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let merges: u64 = outcomes.iter().map(|o| o.merges).sum();
    let merged_words: u64 = outcomes.iter().map(|o| o.merged_words).sum();
    let mut phase_ns = [0u64; 4];
    for o in &outcomes {
        for (total, ns) in phase_ns.iter_mut().zip(o.phase_ns) {
            *total += ns;
        }
    }
    let combined = prof.then(|| {
        // Re-aggregate the per-shard profiles in deterministic shard
        // order.
        let mut combined = ProfReport::default();
        for o in &outcomes {
            combined.merge(o.prof.as_ref().expect("profiled worker returns a report"));
        }
        assert_eq!(
            combined.counter(Counter::TcbfAMerge),
            merges,
            "profiler merge counter must agree with the engine's own sums"
        );
        combined
    });

    CellOutcome {
        nodes: cell.nodes,
        interests: cell.interests,
        shards,
        events: total,
        merges,
        decays: outcomes.iter().map(|o| o.decays).sum(),
        queries: outcomes.iter().map(|o| o.queries).sum(),
        hits: outcomes.iter().map(|o| o.hits).sum(),
        merged_bytes: merged_words * 8,
        resident_bytes,
        wall_ms,
        peak_rss_kb: peak_rss_kb(),
        phase_ns,
        prof: combined,
    }
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` (`VmHWM`). Monotone over the process lifetime,
/// so a per-row reading is "peak so far". Zero where unsupported.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn parse_shards(args: &[String]) -> usize {
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(v) if v >= 1 => return v,
            _ => {
                eprintln!("--shards requires a positive integer");
                std::process::exit(2);
            }
        }
    }
    std::env::var("BSUB_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

fn perf_entry(experiment: &str, outcomes: &[&CellOutcome], total_ms: f64) -> PerfEntry {
    let cpu_ms: f64 = outcomes.iter().map(|o| o.wall_ms).sum();
    let shards = outcomes.iter().map(|o| o.shards).max().unwrap_or(1);
    PerfEntry {
        experiment: experiment.to_string(),
        workers: shards as u64,
        runs: outcomes.len() as u64,
        total_ms,
        cpu_ms,
        speedup: cpu_ms / total_ms.max(f64::MIN_POSITIVE),
        calib_ns: bsub_obs::calibrate_ns(),
        bytes: outcomes.iter().map(|o| o.merged_bytes).sum(),
        forwardings: outcomes.iter().map(|o| o.merges).sum(),
        delivered: outcomes.iter().map(|o| o.hits).sum(),
    }
}

/// One `<sweep>-phase-*` perf entry: the sweep-wide work time spent
/// inside a single barrier phase, paired with that phase's own
/// deterministic work sums so the byte gate tracks what the time pays
/// for (derive routes events, merge folds words, query samples, decay
/// touches relays).
fn phase_entry(sweep: &str, i: usize, outcomes: &[CellOutcome], total_ms: f64) -> PerfEntry {
    let cpu_ms: f64 = outcomes.iter().map(|o| o.phase_ns[i] as f64 / 1e6).sum();
    let shards = outcomes.iter().map(|o| o.shards).max().unwrap_or(1);
    let sum = |f: fn(&CellOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let (bytes, forwardings, delivered) = match i {
        0 => (0, sum(|o| o.events), 0),
        1 => (sum(|o| o.merged_bytes), sum(|o| o.merges), 0),
        2 => (0, sum(|o| o.queries), sum(|o| o.hits)),
        _ => (0, sum(|o| o.decays), 0),
    };
    PerfEntry {
        experiment: format!("{sweep}-phase-{}", PHASES[i]),
        workers: shards as u64,
        runs: outcomes.len() as u64,
        total_ms,
        cpu_ms,
        speedup: cpu_ms / total_ms.max(f64::MIN_POSITIVE),
        calib_ns: bsub_obs::calibrate_ns(),
        bytes,
        forwardings,
        delivered,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let started = perf::CpuTimes::now();
    let prof = args.iter().any(|a| a == "--prof");
    let shards = parse_shards(&args);

    let (name, cells) = if smoke {
        ("scale-smoke", smoke_cells())
    } else {
        ("scale", full_cells())
    };

    let sweep_start = Instant::now();
    let mut outcomes: Vec<CellOutcome> = cells.iter().map(|c| run_cell(c, shards, prof)).collect();

    // The full sweep runs the 10M-node tentpole cell once per shard
    // count: same cell, same seed, so every deterministic column must
    // come out byte-identical across the sweep — the shard-invariance
    // contract, visible in the artifact itself.
    let mut sweep_entries: Vec<PerfEntry> = Vec::new();
    if !smoke {
        let cell = tentpole_cell();
        let mut sweep_shards: Vec<usize> = SHARD_SWEEP.to_vec();
        if !sweep_shards.contains(&shards) {
            sweep_shards.push(shards);
            sweep_shards.sort_unstable();
        }
        for s in sweep_shards {
            let cell_start = Instant::now();
            let outcome = run_cell(&cell, s, prof);
            let cell_ms = cell_start.elapsed().as_secs_f64() * 1e3;
            sweep_entries.push(perf_entry(&format!("scale-10m-s{s}"), &[&outcome], cell_ms));
            outcomes.push(outcome);
        }
    }
    let total_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    let phase_entries: Vec<PerfEntry> = (0..PHASES.len())
        .map(|i| phase_entry(name, i, &outcomes, total_ms))
        .collect();

    let headers = [
        "nodes",
        "interests",
        "shards",
        "events",
        "merges",
        "decays",
        "queries",
        "hits",
        "merged_bytes",
        "resident_bytes",
    ];
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.nodes.to_string(),
                o.interests.to_string(),
                o.shards.to_string(),
                o.events.to_string(),
                o.merges.to_string(),
                o.decays.to_string(),
                o.queries.to_string(),
                o.hits.to_string(),
                o.merged_bytes.to_string(),
                o.resident_bytes.to_string(),
            ]
        })
        .collect();
    write_csv(&name.replace('-', "_"), &headers, &rows);

    let table_rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.nodes.to_string(),
                o.interests.to_string(),
                o.shards.to_string(),
                format!("{:.1}", o.wall_ms),
                format!("{:.2}", o.events as f64 / o.wall_ms * 1e3 / 1e6),
                format!("{:.1}", o.resident_bytes as f64 / 1024.0 / 1024.0),
                format!("{:.1}", o.peak_rss_kb as f64 / 1024.0),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{name} — packed-kernel throughput"),
            &[
                "nodes",
                "interests",
                "shards",
                "wall_ms",
                "Mevents/s",
                "MiB",
                "peak_rss_MiB"
            ],
            &table_rows,
        )
    );

    let phase_total_ms: f64 = phase_entries.iter().map(|e| e.cpu_ms).sum();
    let phase_rows: Vec<Vec<String>> = phase_entries
        .iter()
        .zip(PHASES)
        .map(|(e, phase)| {
            vec![
                phase.to_string(),
                format!("{:.1}", e.cpu_ms),
                format!(
                    "{:.1}",
                    e.cpu_ms / phase_total_ms.max(f64::MIN_POSITIVE) * 100.0
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{name} — per-phase work time (summed across shards)"),
            &["phase", "cpu_ms", "share_%"],
            &phase_rows,
        )
    );

    if prof {
        let mut metrics = MetricsReport::new();
        for o in &outcomes {
            if let Some(report) = &o.prof {
                metrics.add(&format!("scale-{}n-s{}", o.nodes, o.shards), report);
            }
        }
        print!("{}", metrics.render_table());
    }

    let entry = perf_entry(name, &outcomes.iter().collect::<Vec<_>>(), total_ms);
    let entries: Vec<PerfEntry> = std::iter::once(entry)
        .chain(sweep_entries)
        .chain(phase_entries)
        .collect();
    perf::record(&entries, check, started);
}
