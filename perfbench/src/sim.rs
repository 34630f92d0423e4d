//! `sim-haggle`: B-SUB with the fixed Eq. 5 decay factor over the
//! Haggle-like trace at TTL 500 min — the Fig. 7 grid point — on the
//! serial simulator.
//!
//! The trace and the interest assignment are the paper's evaluation
//! inputs at `MASTER_SEED`; the benchmark seed draws the message
//! schedule, so a second seed changes which messages exist while the
//! run keeps its shape (≈67k contacts, ≈53k messages).
//!
//! Two output checks: every timed pass must reproduce the report of a
//! bare `BsubProtocol` pass over the same inputs (which guards the
//! timing wrapper and determinism), and one untimed pass over the
//! Fig. 7 inputs themselves must reproduce the B-SUB row the repository
//! commits in `results/fig7.csv` (which guards the protocol's output
//! against an answer fixed outside the run).
//!
//! Every layer is timed from outside: `bsub-core` through [`Timed`], a
//! `bsub_sim::Protocol` wrapper around `BsubProtocol`; `bsub-bloom`
//! through the existing `bsub-obs` profiler (traced run only); the
//! runner as run wall time minus the time inside protocol calls.

use crate::report::{join, pct, ratio, Outcome};
use crate::stats::{median, mix, Samples};
use crate::RunArgs;
use bsub_bench::output::{f1, f3};
use bsub_bench::{Experiment, ProtocolKind, MASTER_SEED};
use bsub_core::{BsubConfig, BsubProtocol, DfMode};
use bsub_obs::{self as obs, Counter, ProfReport, TimeHist};
use bsub_sim::{Link, Message, Protocol, SimCtx, SimReport, Simulation, SubscriptionTable};
use bsub_traces::{ContactEvent, ContactTrace, NodeId, SimDuration};
use bsub_workload::{interests, keys, WorkloadBuilder};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The Fig. 7 grid point the workload runs.
pub const TTL_MINS: u64 = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 26;
/// Threads running timed passes side by side in an untraced run, one
/// per vCPU of the host the benchmark was sized on: each contact gets
/// twice the repetitions in the same time.
const PASS_THREADS: usize = 2;

/// Size of the simulated world. The benchmark runs
/// [`SimShape::FIG7`]; tests run a shorter TTL.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    /// Message TTL and B-SUB delay limit, in minutes.
    pub ttl_mins: u64,
}

impl SimShape {
    /// The benchmark's shape.
    pub const FIG7: Self = Self { ttl_mins: TTL_MINS };
}

/// A `bsub_sim::Protocol` that forwards to `BsubProtocol` and times
/// every call into it.
#[derive(Debug)]
struct Timed {
    inner: BsubProtocol,
    /// One sample per `on_contact` call.
    contact: Samples,
    /// Total time inside `on_message` calls.
    message: Duration,
}

impl Timed {
    fn new(inner: BsubProtocol, contacts: usize) -> Self {
        Self {
            inner,
            contact: Samples::with_capacity(contacts),
            message: Duration::ZERO,
        }
    }
}

impl Protocol for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
        let t = Instant::now();
        self.inner.on_message(ctx, msg);
        self.message += t.elapsed();
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
        let t = Instant::now();
        self.inner.on_contact(ctx, contact, link);
        self.contact.push_duration(t.elapsed());
    }

    fn on_node_reset(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.inner.on_node_reset(ctx, node);
    }
}

/// The inputs of one run, with the time each layer took to build them.
struct World {
    experiment: Experiment,
    config: BsubConfig,
    trace_s: f64,
    workload_s: f64,
    protocol_s: f64,
}

fn build_world(seed: u64, shape: SimShape) -> World {
    let t = Instant::now();
    let trace: ContactTrace = bsub_traces::synthetic::haggle_like(MASTER_SEED);
    let trace_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let subscriptions =
        interests::assign_interests(trace.node_count(), keys::trend_keys(), MASTER_SEED ^ 0x1111);
    let schedule = WorkloadBuilder::new(&trace).seed(mix(seed, 1)).build();
    let experiment = Experiment {
        trace: Arc::new(trace),
        subscriptions: Arc::new(subscriptions),
        schedule: schedule.into(),
    };
    let workload_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ttl = SimDuration::from_mins(shape.ttl_mins);
    let df = experiment.df_for_ttl(ttl);
    let config = BsubConfig::builder()
        .df(DfMode::Fixed(df))
        .delay_limit(ttl)
        .build();
    std::hint::black_box(BsubProtocol::new(config.clone(), &experiment.subscriptions));
    let protocol_s = t.elapsed().as_secs_f64();
    World {
        experiment,
        config,
        trace_s,
        workload_s,
        protocol_s,
    }
}

/// Build times of every set-up in a run, in seconds.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    trace: Vec<f64>,
    workload: Vec<f64>,
}

impl SetupTimes {
    fn build(&mut self, seed: u64, shape: SimShape) -> World {
        let w = build_world(seed, shape);
        self.total.push(w.trace_s + w.workload_s + w.protocol_s);
        self.trace.push(w.trace_s);
        self.workload.push(w.workload_s);
        w
    }
}

/// One timed pass of the simulator through the [`Timed`] wrapper.
struct Pass {
    report: SimReport,
    wall: Duration,
    contact: Samples,
    message: Duration,
    prof: Option<ProfReport>,
}

fn pass(sim: &Simulation, config: &BsubConfig, subs: &SubscriptionTable, traced: bool) -> Pass {
    let mut protocol = Timed::new(BsubProtocol::new(config.clone(), subs), sim.trace().len());
    if traced {
        obs::start();
    }
    let t = Instant::now();
    let report = sim.run(&mut protocol);
    let wall = t.elapsed();
    let prof = traced.then(obs::finish);
    Pass {
        report,
        wall,
        contact: protocol.contact,
        message: protocol.message,
        prof,
    }
}

/// Runs the workload over `shape`.
#[must_use]
pub fn run_shaped(args: &RunArgs, shape: SimShape) -> Outcome {
    let mut out = Outcome::default();

    // Half the set-ups run before the timed passes and half after
    // them, so their median spans the run.
    let mut setups = SetupTimes::default();
    let mut world = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(world.take());
        world = Some(setups.build(args.seed, shape));
    }
    let world = world.expect("at least one set-up");
    let exp = &world.experiment;
    let sim = exp.sim(SimDuration::from_mins(shape.ttl_mins));

    // The serial simulator with the bare protocol gives the reference
    // report every wrapped pass must reproduce. The resident set peaks
    // inside a pass; read it here, while one simulation runs.
    let reference = sim.run(&mut BsubProtocol::new(
        world.config.clone(),
        &exp.subscriptions,
    ));
    out.attempted += reference.contacts;
    out.peak_rss();

    // An untraced run fills its time with wrapped passes, on
    // `PASS_THREADS` threads side by side; a traced run makes one
    // untraced and one traced pass.
    let run_pass = |traced| pass(&sim, &world.config, &exp.subscriptions, traced);
    let (mut plain, traced) = if args.trace {
        (vec![run_pass(false)], vec![run_pass(true)])
    } else {
        let started = Instant::now();
        let plain = thread::scope(|scope| {
            let workers: Vec<_> = (0..PASS_THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut passes = vec![run_pass(false)];
                        while started.elapsed() < args.seconds {
                            passes.push(run_pass(false));
                        }
                        passes
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("pass thread panicked"))
                .collect::<Vec<_>>()
        });
        (plain, Vec::new())
    };
    for p in plain.iter().chain(&traced) {
        out.attempted += p.report.contacts;
        if p.report != reference {
            out.failed += p.report.contacts;
            out.problem(format!(
                "timed pass report differs from the serial simulator's: {:?} vs {:?}",
                p.report, reference
            ));
        }
    }
    for _ in SETUP_REPS / 2..SETUP_REPS {
        drop(setups.build(args.seed, shape));
    }

    // Every pass simulates the same contacts in the same order, so each
    // contact's time is its fastest over the untraced passes: host noise
    // comes in bursts that slow a contact in some passes, a program
    // change slows it in all of them. `p50_us` is the median of these
    // times; `throughput_per_s` counts contacts per second of a pass
    // made of them, plus the least time any pass spent outside
    // `on_contact` (the runner and `on_message`).
    let mut fastest = plain[0].contact.clone();
    for p in &plain[1..] {
        fastest.keep_fastest(&p.contact);
    }
    let outside_s = plain
        .iter()
        .map(|p| (p.wall.as_secs_f64() - p.contact.sum_s()).max(0.0))
        .fold(f64::INFINITY, f64::min);
    let pass_rates: Vec<f64> = plain
        .iter()
        .map(|p| p.report.contacts as f64 / p.wall.as_secs_f64())
        .collect();
    let mut pass_p50s = Vec::new();
    for p in &mut plain {
        pass_p50s.push(p.contact.quantile_us(0.5).unwrap_or(0.0));
    }
    let n = fastest.len();
    let rate = n as f64 / (fastest.sum_s() + outside_s);
    out.e2e("setup_s", median(&setups.total));
    out.e2e("throughput_per_s", rate);
    match (fastest.quantile_us(0.5), fastest.quantile_us(0.9)) {
        (Some(p50), Some(p90)) => {
            out.e2e("p50_us", p50);
            out.p90_us = Some(p90);
            out.line(format!(
                "  on_contact, fastest of {} passes per contact: p50 {p50:.2} us, \
                 p90 {p90:.2} us (n = {n}); per-pass p50 {} us",
                plain.len(),
                join(&pass_p50s)
            ));
        }
        _ => out.problem(format!("on_contact: too few samples for p90: {n}")),
    }
    out.line(format!(
        "  contacts simulated: {rate:.1}/s from per-contact fastest times \
         (per-pass {}/s)",
        join(&pass_rates)
    ));
    out.line(format!(
        "sim-haggle: {} untraced passes (plus one bare) of {} contacts / {} messages",
        plain.len(),
        reference.contacts,
        reference.generated,
    ));

    if args.trace {
        out.layer("traces.build_s", median(&setups.trace));
        out.layer("workload.build_s", median(&setups.workload));
        layers(&mut out, &reference, &plain, &traced);
    }
    drop((plain, traced, world));
    check_fig7(&mut out, shape.ttl_mins);
    out
}

/// The committed Fig. 7 table the untimed check pass must reproduce.
const FIG7_CSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig7.csv");

/// Runs B-SUB over the Fig. 7 inputs at `ttl_mins`, exactly as the
/// Fig. 7 sweep does, and compares delivery ratio, mean delay and
/// forwardings per delivery with the `results/fig7.csv` row, at the
/// precision the table is written in.
fn check_fig7(out: &mut Outcome, ttl_mins: u64) {
    let started = Instant::now();
    let row = match fig7_row(ttl_mins) {
        Ok(row) => row,
        Err(e) => return out.problem(e),
    };
    let exp = Experiment::haggle(MASTER_SEED);
    let ttl = SimDuration::from_mins(ttl_mins);
    let df = DfMode::Fixed(exp.df_for_ttl(ttl));
    let report = exp.run(ProtocolKind::Bsub { df }, ttl);
    out.attempted += report.contacts;
    let got = [
        f3(report.delivery_ratio()),
        f1(report.mean_delay_mins()),
        f1(report.forwardings_per_delivered()),
    ];
    if got != row {
        out.failed += report.contacts;
        out.problem(format!(
            "Fig. 7 inputs at TTL {ttl_mins} min: B-SUB delivery/delay/forwardings {got:?}, \
             results/fig7.csv has {row:?}"
        ));
    }
    out.line(format!(
        "  checked B-SUB over the Fig. 7 inputs against results/fig7.csv ({}) in {:.1} s",
        got.join(" / "),
        started.elapsed().as_secs_f64()
    ));
}

/// The `bsub_delivery`, `bsub_delay_min` and `bsub_fwd` cells of the
/// `results/fig7.csv` row for `ttl_mins`.
fn fig7_row(ttl_mins: u64) -> Result<[String; 3], String> {
    let text = std::fs::read_to_string(FIG7_CSV).map_err(|e| format!("{FIG7_CSV}: {e}"))?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("{FIG7_CSV}: no column {name}"))
    };
    let cols = [
        col("bsub_delivery")?,
        col("bsub_delay_min")?,
        col("bsub_fwd")?,
    ];
    let key = ttl_mins.to_string();
    let cells: Vec<&str> = lines
        .map(|l| l.split(',').collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&key.as_str()))
        .ok_or_else(|| format!("{FIG7_CSV}: no row for TTL {ttl_mins} min"))?;
    Ok(cols.map(|c| cells.get(c).copied().unwrap_or_default().to_string()))
}

fn layers(out: &mut Outcome, reference: &SimReport, plain: &[Pass], traced: &[Pass]) {
    let runs = traced.len() as f64;
    let per_run = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>() / runs;
    let wall = per_run(&|p| p.wall.as_secs_f64());
    let contact_busy = per_run(&|p| p.contact.sum_s());
    let message_busy = per_run(&|p| p.message.as_secs_f64());
    let runner_self = wall - contact_busy - message_busy;
    let mut contact = Samples::default();
    for p in traced {
        contact.extend(&p.contact);
    }
    let n = contact.len();
    let p50 = contact.quantile_us(0.5).unwrap_or(0.0);
    let p90 = contact.quantile_us(0.9).unwrap_or(0.0);

    out.layer("sim.contacts", reference.contacts as f64);
    out.layer("sim.messages", reference.generated as f64);
    out.layer("sim.runner_self_s", runner_self);
    out.layer("core.on_contact_busy_s", contact_busy);
    out.layer("core.on_contact_p50_us", p50);
    out.layer("core.on_contact_p90_us", p90);
    out.layer("core.on_message_busy_s", message_busy);
    out.layer("core.forwardings", reference.forwardings as f64);
    out.layer("core.control_bytes", reference.control_bytes as f64);
    out.layer("core.data_bytes", reference.data_bytes as f64);
    out.layer("core.delivered", reference.delivered as f64);
    out.layer("core.false_injections", reference.false_injections as f64);
    out.layer(
        "core.delivered_per_forwarding",
        ratio(reference.delivered as f64, reference.forwardings as f64),
    );

    // Profiler counts are deterministic; timing sums are per pass.
    let prof = traced[0].prof.as_ref().expect("traced pass has a profile");
    let busy = |h: TimeHist| {
        traced
            .iter()
            .map(|p| p.prof.as_ref().map_or(0, |r| r.time_hist(h).sum()) as f64 / 1e9)
            .sum::<f64>()
            / runs
    };
    let merge_busy = busy(TimeHist::MergeNs);
    let decay_busy = busy(TimeHist::DecayNs);
    let pref_busy = busy(TimeHist::PreferenceNs);
    out.layer(
        "bloom.merges",
        (prof.counter(Counter::TcbfAMerge) + prof.counter(Counter::TcbfMMerge)) as f64,
    );
    out.layer("bloom.merge_busy_s", merge_busy);
    out.layer("bloom.decays", prof.counter(Counter::TcbfDecay) as f64);
    out.layer("bloom.decay_busy_s", decay_busy);
    out.layer(
        "bloom.queries",
        (prof.counter(Counter::TcbfQuery) + prof.counter(Counter::TcbfPreference)) as f64,
    );
    out.layer("bloom.preference_busy_s", pref_busy);

    let plain_wall = plain.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>() / plain.len() as f64;
    let overhead = wall / plain_wall - 1.0;
    out.layer("trace.overhead_ratio", overhead);

    let bloom = merge_busy + decay_busy + pref_busy;
    let rows = [
        ("sim runner self = residual", runner_self),
        ("core on_contact", contact_busy),
        ("  bloom merge", merge_busy),
        ("  bloom decay", decay_busy),
        ("  bloom preference", pref_busy),
        ("  core self (on_contact - bloom)", contact_busy - bloom),
        ("core on_message", message_busy),
    ];
    out.line(format!(
        "layer accounting, traced pass wall {wall:.3} s (untraced {plain_wall:.3} s, overhead {:.1}%):",
        100.0 * overhead
    ));
    for (name, s) in rows {
        out.line(format!("  {name:<34} {s:>9.3} s {:>6.1}%", pct(s, wall)));
    }
    out.line(format!(
        "  traced on_contact: p50 {p50:.2} us, p90 {p90:.2} us (n = {n})"
    ));
}
