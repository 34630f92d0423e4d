//! `match-zipf`: an in-process `bsub_match::MatchIndex` under a
//! read-heavy stream; its traced run adds a write-heavy churn stream for
//! the write-path layer metrics.
//!
//! Subscription keys and event keys follow one Zipf topic popularity
//! over a topic space much larger than the keys a tier holds, so tier
//! pruning has work to do; one event in ten carries a key nobody
//! subscribed to. The Zipf exponent is fitted to the only measured
//! popularity the paper gives, the Table II head of its Twitter Trend
//! keys (see [`zipf_exponent`]). Topic names are drawn from the seed, so a second seed
//! changes every key (and every Bloom false positive) but not the
//! popularity curve.
//!
//! Both streams check their output outside the timed region: sampled
//! match batches must equal what `ReferenceMatcher` — the naive
//! per-filter scan — returns over the same operation history, Bloom
//! false positives included.

use crate::report::{pct, ratio, Outcome};
use crate::stats::{median, mix, Samples, Windows};
use crate::{RunArgs, Until};
use bsub_bloom::SplitMix64;
use bsub_match::{Event, MatchIndex, MatchParams, MatchStats, ReferenceMatcher};
use bsub_obs::{self as obs, Counter};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 26;
/// One event in this many carries a key nobody subscribed to.
const ABSENT_EVERY: u64 = 10;
/// Events per `match_events` call.
const BATCH: usize = 16;
/// Decay epochs applied after set-up in `match-zipf`.
const DECAY_EPOCHS: u32 = 3;

/// Zipf exponent of topic popularity: the least-squares slope of
/// ln(weight) against ln(rank) over the four trend weights the paper
/// publishes in Table II (0.132, 0.103, 0.0887, 0.0739 —
/// `bsub_workload::keys::trend_keys`), about 0.40.
#[must_use]
pub fn zipf_exponent() -> f64 {
    let head: Vec<(f64, f64)> = bsub_workload::keys::trend_keys()
        .iter()
        .take(4)
        .enumerate()
        .map(|(r, k)| (((r + 1) as f64).ln(), k.weight.ln()))
        .collect();
    let n = head.len() as f64;
    let mx = head.iter().map(|p| p.0).sum::<f64>() / n;
    let my = head.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = head.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = head.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    -cov / var
}

/// Sizes of the matching workloads. The benchmark runs
/// [`MatchShape::BENCH`]; tests run a smaller one.
#[derive(Debug, Clone, Copy)]
pub struct MatchShape {
    /// Subscribers loaded with `subscribe_bulk` during set-up.
    pub subscribers: usize,
    /// Distinct topics in the popularity curve.
    pub topics: usize,
    /// Batches per pass in a traced run.
    pub traced_batches: usize,
    /// Churn stream: subscriber id space. Set-up fills the lower
    /// `subscribers` ids, and the stream holds the live count there.
    pub id_space: u64,
    /// Churn stream: untimed write ops before the traced pass.
    pub warmup_ops: u64,
    /// Churn stream: write ops in the traced pass.
    pub traced_ops: u64,
}

impl MatchShape {
    /// The benchmark's shape.
    pub const BENCH: Self = Self {
        subscribers: 4_096,
        topics: 65_536,
        traced_batches: 600,
        id_space: 32_768,
        warmup_ops: 4_096,
        traced_ops: 16_384,
    };
}

/// Zipf topic popularity with seed-drawn topic names.
struct Topics {
    cdf: Vec<f64>,
    names: Vec<String>,
    absent_salt: u64,
}

impl Topics {
    fn new(seed: u64, count: usize) -> Self {
        let s = zipf_exponent();
        let mut cdf = Vec::with_capacity(count);
        let mut total = 0.0;
        for rank in 0..count {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let salt = mix(seed, 0x7071);
        let names = (0..count as u64)
            .map(|r| format!("t{:016x}", mix(salt, r)))
            .collect();
        Self {
            cdf,
            names,
            absent_salt: mix(seed, 0xab5e),
        }
    }

    fn draw(&self, rng: &mut SplitMix64) -> &str {
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.names.len() - 1);
        &self.names[rank]
    }

    /// 1–4 popularity-weighted keys.
    fn keys(&self, rng: &mut SplitMix64) -> Vec<String> {
        let n = 1 + rng.below(4) as usize;
        (0..n).map(|_| self.draw(rng).to_string()).collect()
    }

    /// One event: a popular key, or (one in [`ABSENT_EVERY`]) a key
    /// nobody subscribed to.
    fn event(&self, rng: &mut SplitMix64) -> Event {
        if rng.below(ABSENT_EVERY) == 0 {
            Event::new(format!(
                "absent-{:016x}",
                mix(self.absent_salt, rng.next_u64())
            ))
        } else {
            Event::new(self.draw(rng))
        }
    }

    fn batch(&self, rng: &mut SplitMix64, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.event(rng)).collect()
    }
}

fn population(topics: &Topics, seed: u64, n: usize) -> Vec<(u64, Vec<String>)> {
    let mut rng = SplitMix64::new(mix(seed, 0x9091));
    (0..n as u64)
        .map(|id| (id, topics.keys(&mut rng)))
        .collect()
}

/// Builds the index `reps` times, adding each build time to `times`;
/// returns the last index.
fn build_index(pop: &[(u64, Vec<String>)], reps: usize, times: &mut Vec<f64>) -> MatchIndex {
    let mut index = None;
    for _ in 0..reps {
        drop(index.take());
        let t = Instant::now();
        let mut idx = MatchIndex::new(MatchParams::default());
        idx.subscribe_bulk(pop);
        times.push(t.elapsed().as_secs_f64());
        index = Some(idx);
    }
    index.expect("at least one set-up")
}

/// Total busy time over every window, in seconds.
fn busy_s(windows: &Windows) -> f64 {
    windows.list.iter().map(|w| w.busy.as_secs_f64()).sum()
}

/// Batches in one cycle of the untraced loop, which matches the same
/// batches cycle after cycle (about half a second a cycle on the host
/// described in `perfbench/README.md`).
const CYCLE_BATCHES: usize = 2_048;

/// Sampled batches and their results, for the reference check.
type Sampled = Vec<(Vec<Event>, Vec<Vec<u64>>)>;

/// Times of repeated cycles of `match_events` over one set of batches.
struct Cycles {
    /// Each batch's fastest `match_events` time over the cycles.
    fastest: Samples,
    /// Each cycle's total `match_events` time, in seconds.
    busy_s: Vec<f64>,
    /// Work counts of one cycle; every cycle repeats them.
    stats: MatchStats,
    /// Wall time of the whole loop.
    wall: Duration,
}

/// Matches `batches` in order, cycle after cycle: one cycle when
/// `seconds` is `None`, otherwise at least two and until `seconds` have
/// gone by. Keeps every 64th batch of the first cycle and its result (at
/// most 8) in `samples` for the reference check; a cycle whose work
/// counts differ from the first's is a failed check.
fn cycle_batches(
    index: &MatchIndex,
    batches: &[Vec<Event>],
    seconds: Option<Duration>,
    out: &mut Outcome,
    samples: &mut Sampled,
) -> Cycles {
    let started = Instant::now();
    let mut fastest: Option<Samples> = None;
    let mut busy_s = Vec::new();
    let mut first = MatchStats::default();
    loop {
        let mut times = Samples::with_capacity(batches.len());
        let mut stats = MatchStats::default();
        for (k, events) in batches.iter().enumerate() {
            let t = Instant::now();
            let set = index.match_events(events);
            times.push_duration(t.elapsed());
            add_stats(&mut stats, &set.stats);
            if busy_s.is_empty() && k % 64 == 0 && samples.len() < 8 {
                samples.push((events.clone(), set.matches));
            }
        }
        busy_s.push(times.sum_s());
        out.attempted += stats.events;
        match &mut fastest {
            None => {
                first = stats;
                fastest = Some(times);
            }
            Some(f) => {
                if stats != first {
                    out.failed += stats.events;
                    out.problem(format!(
                        "cycle {} did other work than the first: {stats:?} vs {first:?}",
                        busy_s.len()
                    ));
                }
                f.keep_fastest(&times);
            }
        }
        let done = seconds.is_none_or(|d| busy_s.len() >= 2 && started.elapsed() >= d);
        if done {
            break;
        }
    }
    Cycles {
        fastest: fastest.expect("at least one cycle"),
        busy_s,
        stats: first,
        wall: started.elapsed(),
    }
}

fn add_stats(total: &mut MatchStats, s: &MatchStats) {
    total.events += s.events;
    total.tier_probes += s.tier_probes;
    total.tier_hits += s.tier_hits;
    total.candidates += s.candidates;
    total.matched += s.matched;
}

fn read_layers(out: &mut Outcome, stats: &MatchStats, busy_s: f64, index: &MatchIndex) {
    out.layer("match.events", stats.events as f64);
    out.layer("match.tier_probes", stats.tier_probes as f64);
    out.layer("match.tier_hits", stats.tier_hits as f64);
    out.layer("match.candidates", stats.candidates as f64);
    out.layer("match.matched", stats.matched as f64);
    out.layer(
        "match.prune_hit_ratio",
        ratio(stats.tier_hits as f64, stats.tier_probes as f64),
    );
    out.layer(
        "match.confirm_ratio",
        ratio(stats.matched as f64, stats.candidates as f64),
    );
    out.layer("match.batch_busy_s", busy_s);
    out.layer("match.tiers", index.tier_count() as f64);
    out.layer("match.pool_filters", index.pool_filter_count() as f64);
    out.layer("match.live", index.live_count() as f64);
}

/// Compares one sampled batch against the reference; counts every
/// event whose subscriber list differs as failed.
fn check_batch(
    out: &mut Outcome,
    reference: &ReferenceMatcher,
    events: &[Event],
    got: &[Vec<u64>],
) {
    let want = reference.match_events(events).matches;
    let wrong = want.iter().zip(got).filter(|(w, g)| w != g).count();
    if wrong > 0 {
        out.failed += wrong as u64;
        out.problem(format!(
            "{wrong} of {} sampled events matched differently from ReferenceMatcher",
            events.len()
        ));
    }
}

/// `match-zipf`: fixed-size event batches against a static population.
#[must_use]
pub fn run_zipf(args: &RunArgs, shape: MatchShape) -> Outcome {
    let mut out = Outcome::default();
    let topics = Topics::new(args.seed, shape.topics);
    let pop = population(&topics, args.seed, shape.subscribers);
    // Half the set-ups run before the measured loop and half after it,
    // so their median spans the run.
    let mut setups = Vec::new();
    let mut index = build_index(&pop, SETUP_REPS / 2, &mut setups);
    for _ in 0..DECAY_EPOCHS {
        index.decay(1);
    }

    let mut rng = SplitMix64::new(mix(args.seed, 0xe7e7));
    let count = if args.trace {
        shape.traced_batches
    } else {
        CYCLE_BATCHES
    };
    let batches: Vec<Vec<Event>> = (0..count).map(|_| topics.batch(&mut rng, BATCH)).collect();
    for events in batches.iter().take(16) {
        black_box(index.match_events(events));
    }
    out.peak_rss();

    // The same batches, matched cycle after cycle (a traced run makes
    // one untraced and one traced cycle, so its counts are fixed and the
    // overhead compares like work). Each batch's time is its fastest
    // over the cycles: host noise comes in bursts that slow a batch in
    // some cycles, a program change slows it in all of them.
    // `throughput_per_s` counts events per second of a cycle made of
    // these times; the percentiles are over the batches.
    let mut samples = Vec::new();
    let Cycles {
        mut fastest,
        busy_s: cycle_busy,
        stats,
        wall,
    } = cycle_batches(
        &index,
        &batches,
        (!args.trace).then_some(args.seconds),
        &mut out,
        &mut samples,
    );
    drop(build_index(&pop, SETUP_REPS - SETUP_REPS / 2, &mut setups));
    out.e2e("setup_s", median(&setups));
    let n = fastest.len();
    let rate = stats.events as f64 / fastest.sum_s();
    out.e2e("throughput_per_s", rate);
    match (fastest.quantile_us(0.5), fastest.quantile_us(0.9)) {
        (Some(p50), Some(p90)) => {
            out.e2e("p50_us", p50);
            out.p90_us = Some(p90);
            out.line(format!(
                "  match_events batch, fastest of {} cycles per batch: p50 {p50:.2} us, \
                 p90 {p90:.2} us (n = {n})",
                cycle_busy.len()
            ));
        }
        _ => out.problem(format!("match_events: too few batches for p90: {n}")),
    }
    let cycle_rates: Vec<f64> = cycle_busy
        .iter()
        .map(|b| stats.events as f64 / b)
        .collect();
    out.line(format!(
        "  events matched: {rate:.1}/s from per-batch fastest times \
         (per cycle: median {:.1}/s, range {:.1}..{:.1}/s)",
        median(&cycle_rates),
        cycle_rates.iter().copied().fold(f64::INFINITY, f64::min),
        cycle_rates.iter().copied().fold(0.0, f64::max),
    ));
    out.line(format!(
        "match-zipf: {} subscribers, {} tiers, batches of {} events; \
         per event {:.1} tier probes, {:.1} candidates, {:.2} matches",
        index.live_count(),
        index.tier_count(),
        BATCH,
        ratio(stats.tier_probes as f64, stats.events as f64),
        ratio(stats.candidates as f64, stats.events as f64),
        ratio(stats.matched as f64, stats.events as f64),
    ));

    if args.trace {
        let busy_plain = cycle_busy[0];
        obs::start();
        let traced = cycle_batches(&index, &batches, None, &mut out, &mut Vec::new());
        let prof = obs::finish();
        let busy = traced.busy_s[0];
        read_layers(&mut out, &traced.stats, busy, &index);
        if traced.stats != stats {
            out.problem("traced cycle did other work than the untraced one");
        }
        if prof.counter(Counter::MatchCandidates) != traced.stats.candidates {
            out.problem("profiler and MatchStats disagree on candidates");
        }
        out.layer("trace.overhead_ratio", busy / busy_plain - 1.0);
        let wall_s = wall.as_secs_f64();
        out.line(format!(
            "layer accounting, untraced loop wall {wall_s:.3} s:"
        ));
        out.line(format!(
            "  match_events busy {:>9.3} s {:>6.1}%",
            busy_plain,
            pct(busy_plain, wall_s)
        ));
        out.line(format!(
            "  residual (loop, clock reads) {:>9.3} s {:>6.1}%",
            wall_s - busy_plain,
            pct(wall_s - busy_plain, wall_s)
        ));
        write_layers(&mut out, args.seed, shape, &topics, &pop);
    }

    // Output check, outside every timed region.
    let check_started = Instant::now();
    let mut reference = ReferenceMatcher::from_params(&MatchParams::default());
    for (id, keys) in &pop {
        reference.subscribe(*id, keys);
    }
    reference.decay(DECAY_EPOCHS);
    for (events, got) in &samples {
        check_batch(&mut out, &reference, events, got);
    }
    out.line(format!(
        "  checked {} sampled batches against ReferenceMatcher in {:.1} s",
        samples.len(),
        check_started.elapsed().as_secs_f64()
    ));
    out
}

/// One operation of the churn stream.
enum Op {
    Subscribe {
        id: u64,
        keys: Vec<String>,
        deadline: u64,
    },
    Purge {
        id: u64,
    },
    /// `removed` is what the stream's model says the call must remove.
    Expire {
        ids: Vec<u64>,
        now: u64,
        removed: Vec<u64>,
    },
    Decay,
    Match(Vec<Event>),
}

/// Write ops between expiry calls.
const EXPIRE_EVERY: u64 = 32;
/// Write ops between decay epochs.
const DECAY_EVERY: u64 = 2_048;
/// Write ops between match batches (of [`BATCH`] events).
const MATCH_EVERY: u64 = 256;
/// Subscription lifetime range, in write ops.
const TTL_OPS: (u64, u64) = (8_192, 24_576);
/// Share of non-expiry write ops that (re)subscribe; the rest purge.
/// A subscribe takes a departed id while the live count is below the
/// set-up population and refreshes a live one otherwise, so the live
/// count (which sets tier occupancy and compaction cost) holds steady.
const SUBSCRIBE_SHARE: u64 = 75;

/// The deterministic churn stream. It keeps its own model of
/// which subscriptions are live, so it knows what each write op must
/// do: `purge` must find its id, and `expire_candidates` must remove
/// exactly the ids the model says are due.
struct Churn<'a> {
    topics: &'a Topics,
    rng: SplitMix64,
    initial: u64,
    /// Write ops issued so far: the clock deadlines are measured on.
    now: u64,
    epoch: u64,
    live: Vec<u64>,
    pos: Vec<usize>,
    deadline: Vec<u64>,
    born: Vec<u64>,
    wheel: BinaryHeap<Reverse<(u64, u64)>>,
    born_at: BTreeMap<u64, Vec<u64>>,
    faded: Vec<u64>,
    queued: Vec<Op>,
    target: usize,
}

impl<'a> Churn<'a> {
    fn new(topics: &'a Topics, seed: u64, shape: MatchShape, initial: u32) -> Self {
        let n = shape.id_space as usize;
        let mut churn = Self {
            topics,
            rng: SplitMix64::new(mix(seed, 0xc4c4)),
            initial: u64::from(initial),
            now: 0,
            epoch: 0,
            live: Vec::new(),
            pos: vec![usize::MAX; n],
            deadline: vec![u64::MAX; n],
            born: vec![0; n],
            wheel: BinaryHeap::new(),
            born_at: BTreeMap::new(),
            faded: Vec::new(),
            queued: Vec::new(),
            target: shape.subscribers,
        };
        for id in 0..shape.subscribers as u64 {
            churn.insert(id, u64::MAX);
        }
        churn
    }

    fn insert(&mut self, id: u64, deadline: u64) {
        let i = id as usize;
        if self.pos[i] == usize::MAX {
            self.pos[i] = self.live.len();
            self.live.push(id);
        }
        self.deadline[i] = deadline;
        self.born[i] = self.epoch;
        self.born_at.entry(self.epoch).or_default().push(id);
        if deadline != u64::MAX {
            self.wheel.push(Reverse((deadline, id)));
        }
    }

    fn remove(&mut self, id: u64) {
        let i = id as usize;
        let at = self.pos[i];
        let last = self.live.pop().expect("removing a live id");
        if last != id {
            self.live[at] = last;
            self.pos[last as usize] = at;
        }
        self.pos[i] = usize::MAX;
    }

    fn is_due(&self, id: u64) -> bool {
        let i = id as usize;
        self.pos[i] != usize::MAX
            && (self.now >= self.deadline[i] || self.epoch - self.born[i] >= self.initial)
    }

    /// The next operation and the count its call must return (purge:
    /// 1 when found; expiry: ids removed; others: 0).
    fn next(&mut self) -> (Op, usize) {
        if let Some(op) = self.queued.pop() {
            return (op, 0);
        }
        self.now += 1;
        if self.now.is_multiple_of(DECAY_EVERY) {
            self.queued.push(Op::Decay);
        }
        if self.now.is_multiple_of(MATCH_EVERY) {
            let events = self.topics.batch(&mut self.rng, BATCH);
            self.queued.push(Op::Match(events));
        }
        if self.now.is_multiple_of(EXPIRE_EVERY) {
            let mut ids = Vec::new();
            while let Some(&Reverse((d, id))) = self.wheel.peek() {
                if d > self.now {
                    break;
                }
                self.wheel.pop();
                ids.push(id);
            }
            ids.append(&mut self.faded);
            let mut removed = Vec::new();
            for &id in &ids {
                if self.is_due(id) {
                    self.remove(id);
                    removed.push(id);
                }
            }
            let count = removed.len();
            let op = Op::Expire {
                ids,
                now: self.now,
                removed,
            };
            return (op, count);
        }
        if self.rng.below(100) < SUBSCRIBE_SHARE || self.live.is_empty() {
            let id = if self.live.len() < self.target {
                loop {
                    let id = self.rng.below(self.pos.len() as u64);
                    if self.pos[id as usize] == usize::MAX {
                        break id;
                    }
                }
            } else {
                self.live[self.rng.below(self.live.len() as u64) as usize]
            };
            let keys = self.topics.keys(&mut self.rng);
            let deadline = self.now + self.rng.range_u64(TTL_OPS.0, TTL_OPS.1);
            self.insert(id, deadline);
            (Op::Subscribe { id, keys, deadline }, 0)
        } else {
            let id = self.live[self.rng.below(self.live.len() as u64) as usize];
            self.remove(id);
            (Op::Purge { id }, 1)
        }
    }

    /// Applies a decay epoch to the model: subscriptions born
    /// `initial` epochs ago have faded to strength 0 and are handed to
    /// the next expiry call.
    fn decayed(&mut self) {
        self.epoch += 1;
        if let Some(cut) = self.epoch.checked_sub(self.initial) {
            while let Some((&born, _)) = self.born_at.first_key_value() {
                if born > cut {
                    break;
                }
                let ids = self.born_at.pop_first().expect("peeked").1;
                self.faded.extend(ids.into_iter().filter(|&id| {
                    self.pos[id as usize] != usize::MAX && self.born[id as usize] == born
                }));
            }
        }
    }
}

/// Per-kind timings of the churn stream.
struct ChurnTimes {
    /// Every write op, by time window.
    writes: Windows,
    subscribe: Samples,
    purge: Samples,
    expire: Samples,
    decay: Duration,
    batches: Samples,
    stats: MatchStats,
    ops: u64,
}

impl ChurnTimes {
    fn new(writes: Windows) -> Self {
        Self {
            writes,
            subscribe: Samples::default(),
            purge: Samples::default(),
            expire: Samples::default(),
            decay: Duration::ZERO,
            batches: Samples::default(),
            stats: MatchStats::default(),
            ops: 0,
        }
    }

    fn write(&mut self, took: Duration) {
        self.writes.current().record(1, took);
        self.ops += 1;
    }
}

/// Applies ops to the index until `until` (counted in write ops);
/// checks every returned count against the stream's model.
fn churn_pass(
    out: &mut Outcome,
    index: &mut MatchIndex,
    churn: &mut Churn<'_>,
    times: &mut ChurnTimes,
    samples: &mut Vec<(u64, Vec<Vec<u64>>)>,
    until: Until,
) {
    let started = Instant::now();
    loop {
        let (op, expect) = churn.next();
        match op {
            Op::Subscribe { id, keys, deadline } => {
                let t = Instant::now();
                index.subscribe_until(id, &keys, deadline);
                let d = t.elapsed();
                times.write(d);
                times.subscribe.push_duration(d);
            }
            Op::Purge { id } => {
                let t = Instant::now();
                let found = index.purge(id);
                let d = t.elapsed();
                times.write(d);
                times.purge.push_duration(d);
                if !found {
                    out.failed += 1;
                    out.problem(format!("purge of live subscriber {id} found nothing"));
                }
            }
            Op::Expire { ids, now, .. } => {
                let t = Instant::now();
                let removed = index.expire_candidates(&ids, now);
                let d = t.elapsed();
                times.write(d);
                times.expire.push_duration(d);
                if removed != expect {
                    out.failed += 1;
                    out.problem(format!(
                        "expiry at {now} removed {removed}, expected {expect}"
                    ));
                }
            }
            Op::Decay => {
                let t = Instant::now();
                index.decay(1);
                times.decay += t.elapsed();
                churn.decayed();
            }
            Op::Match(events) => {
                let t = Instant::now();
                let set = index.match_events(&events);
                times.batches.push_duration(t.elapsed());
                add_stats(&mut times.stats, &set.stats);
                if churn.now.is_multiple_of(MATCH_EVERY * 8) && samples.len() < 64 {
                    samples.push((churn.now, set.matches));
                }
            }
        }
        if churn.queued.is_empty() && until.reached(started, times.ops) {
            return;
        }
    }
}

/// The write-path layer metrics of a traced `match-zipf` run: a fresh
/// index over the same population takes `warmup_ops` then `traced_ops`
/// write ops of the churn stream with the profiler on, and sampled
/// batches are checked against a `ReferenceMatcher` replay of the same
/// history. The churn stream is no end-to-end workload of its own: its
/// run-to-run spread on the host exceeds every bound the benchmark may
/// set (see the README).
fn write_layers(
    out: &mut Outcome,
    seed: u64,
    shape: MatchShape,
    topics: &Topics,
    pop: &[(u64, Vec<String>)],
) {
    let mut index = MatchIndex::new(MatchParams::default());
    index.subscribe_bulk(pop);
    let initial = index.params().initial;
    let mut churn = Churn::new(topics, seed, shape, initial);
    let mut samples = Vec::new();
    let mut warm = ChurnTimes::new(Windows::single());
    churn_pass(
        out,
        &mut index,
        &mut churn,
        &mut warm,
        &mut samples,
        Until::Count(shape.warmup_ops),
    );
    let mut traced = ChurnTimes::new(Windows::single());
    let compactions = index.compactions();
    obs::start();
    churn_pass(
        out,
        &mut index,
        &mut churn,
        &mut traced,
        &mut samples,
        Until::Count(shape.traced_ops),
    );
    let prof = obs::finish();
    let compactions = index.compactions() - compactions;
    if prof.counter(Counter::MatchCompact) != compactions {
        out.problem("profiler and MatchIndex disagree on compactions");
    }
    out.layer("match.write_ops", traced.ops as f64);
    out.layer("match.subscribe_busy_s", traced.subscribe.sum_s());
    out.layer(
        "match.subscribe_p50_us",
        traced.subscribe.quantile_us(0.5).unwrap_or(0.0),
    );
    out.layer("match.purge_busy_s", traced.purge.sum_s());
    out.layer(
        "match.purge_p50_us",
        traced.purge.quantile_us(0.5).unwrap_or(0.0),
    );
    out.layer("match.expire_busy_s", traced.expire.sum_s());
    out.layer("match.decay_busy_s", traced.decay.as_secs_f64());
    out.layer("match.compactions", compactions as f64);

    let busy = busy_s(&traced.writes);
    let mut writes = Samples::default();
    for w in &traced.writes.list {
        writes.extend(&w.samples);
    }
    out.line(format!(
        "write path, traced pass of {} write ops ({} subscribe_until, {} purge, {} expire_candidates), \
         busy {busy:.3} s, p50 {:.2} us, p90 {:.2} us, {compactions} compactions:",
        traced.ops,
        traced.subscribe.len(),
        traced.purge.len(),
        traced.expire.len(),
        writes.quantile_us(0.5).unwrap_or(0.0),
        writes.quantile_us(0.9).unwrap_or(0.0),
    ));
    for (name, s) in [
        ("subscribe_until", traced.subscribe.sum_s()),
        ("purge (with compaction)", traced.purge.sum_s()),
        ("expire_candidates", traced.expire.sum_s()),
    ] {
        out.line(format!("  {name:<26} {s:>9.3} s {:>6.1}%", pct(s, busy)));
    }
    out.line(format!(
        "  not write ops: decay {:.3} s, match batches {:.3} s",
        traced.decay.as_secs_f64(),
        traced.batches.sum_s()
    ));
    check_churn(out, seed, shape, topics, pop, initial, &samples);
}

/// Replays the churn stream through the reference matcher up to the
/// last sampled batch, outside every timed region.
fn check_churn(
    out: &mut Outcome,
    seed: u64,
    shape: MatchShape,
    topics: &Topics,
    pop: &[(u64, Vec<String>)],
    initial: u32,
    samples: &[(u64, Vec<Vec<u64>>)],
) {
    let last = samples.last().map_or(0, |(at, _)| *at);
    let mut reference = ReferenceMatcher::from_params(&MatchParams::default());
    for (id, keys) in pop {
        reference.subscribe(*id, keys);
    }
    let mut replay = Churn::new(topics, seed, shape, initial);
    let mut next_sample = samples.iter().peekable();
    while replay.now <= last && next_sample.peek().is_some() {
        let (op, _) = replay.next();
        match op {
            Op::Subscribe { id, keys, deadline } => reference.subscribe_until(id, &keys, deadline),
            Op::Purge { id } => {
                if !reference.unsubscribe(id) {
                    out.problem(format!("reference had no subscriber {id} to purge"));
                }
            }
            // The index's expiry counts were checked against the model
            // during the run; the reference drops the same ids (its own
            // full-scan `expire` reads every counter of every filter).
            Op::Expire { removed, .. } => {
                for id in removed {
                    if !reference.unsubscribe(id) {
                        out.problem(format!("reference had no subscriber {id} to expire"));
                    }
                }
            }
            Op::Decay => {
                reference.decay(1);
                replay.decayed();
            }
            Op::Match(events) => {
                if let Some((_, got)) = next_sample.next_if(|(at, _)| *at == replay.now) {
                    check_batch(out, &reference, &events, got);
                }
            }
        }
    }
    out.line(format!(
        "  checked {} sampled write-path batches against ReferenceMatcher",
        samples.len()
    ));
}
