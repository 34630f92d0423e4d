//! `broker-rate`: a live `bsub_net::BrokerNode` over Unix-domain
//! sockets in the benchmark process, one publisher connection and one
//! subscriber connection.
//!
//! Two phases follow a short warm-up:
//!
//! 1. **Fixed rate** (open loop). The publisher sleeps until each send
//!    is due and stamps `PublishBody::sent_ns` with the *intended* send
//!    time, so a stall that delays later sends shows as latency instead
//!    of hiding behind a late generator (coordinated omission).
//!    `p50_us` is the publish→deliver latency of this phase (its p90
//!    is printed, not gated).
//! 2. **Closed loop** with a fixed in-flight window; `throughput_per_s`
//!    is deliveries per second of this phase.
//!
//! The subscriber holds every topic the publisher uses, so each publish
//! must be delivered exactly once, with its own key and sequence id.

use crate::report::{pct, Outcome};
use crate::stats::{median, mix, Samples, Window, Windows, WINDOWS};
use crate::{RunArgs, Until};
use bsub_net::{
    frame_time_hist, unix_ns, BrokerClient, BrokerConfig, BrokerNode, EndpointAddr, Frame,
    FrameKind, NetMetrics, PeerConfig, PeerId, PublishBody,
};
use bsub_obs::{Counter, ProfReport, SizeHist, TimeHist};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const BROKER: PeerId = PeerId(100);
const SUBSCRIBER: PeerId = PeerId(1);
const PUBLISHER: PeerId = PeerId(2);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 64;
/// How long to wait for set-up steps and for the last deliveries.
const PATIENCE: Duration = Duration::from_secs(10);

/// Load shape of the workload. The benchmark runs
/// [`BrokerShape::BENCH`]; tests run a shorter one.
#[derive(Debug, Clone, Copy)]
pub struct BrokerShape {
    /// Offered publish rate of the fixed-rate phase.
    pub rate_per_s: u64,
    /// Topics the subscriber holds and the publisher draws from.
    pub topics: u64,
    /// Publishes in flight during the closed-loop phase.
    pub window: u64,
    /// Untimed fixed-rate warm-up.
    pub warmup: Duration,
    /// Share of the run spent in the fixed-rate phase.
    pub rate_share: f64,
    /// Traced run: publishes per fixed-rate pass.
    pub traced_rate_publishes: u64,
    /// Traced run: publishes per closed-loop pass.
    pub traced_closed_publishes: u64,
}

impl BrokerShape {
    /// The benchmark's shape: 10k publishes/s sits inside the band
    /// where the host's latency repeats, far below saturation.
    pub const BENCH: Self = Self {
        rate_per_s: 10_000,
        topics: 16,
        window: 32,
        warmup: Duration::from_millis(500),
        rate_share: 0.6,
        traced_rate_publishes: 40_000,
        traced_closed_publishes: 100_000,
    };
}

fn topic_name(seed: u64, t: u64) -> String {
    format!("rate-{:012x}", mix(seed, 0x5a5a + t) >> 16)
}

fn topic_of(seed: u64, seq: u64, topics: u64) -> u64 {
    mix(seed, seq) % topics
}

/// A broker with its two client connections.
struct Rig {
    broker: BrokerNode,
    subscriber: BrokerClient,
    publisher: BrokerClient,
}

impl Rig {
    fn shutdown(mut self) {
        self.subscriber.manager().shutdown();
        self.publisher.manager().shutdown();
        self.broker.shutdown();
    }
}

fn unix(dir: &Path, name: String) -> EndpointAddr {
    EndpointAddr::Unix(dir.join(name))
}

/// Bind, connect, and subscribe; returns once the broker has applied
/// the subscription.
fn set_up(dir: &Path, rep: usize, seed: u64, topics: &[String]) -> Result<(Rig, f64), String> {
    let started = Instant::now();
    let addr = unix(dir, format!("b{rep}"));
    let broker = BrokerNode::serve(BrokerConfig::new(BROKER, addr.clone(), seed))
        .map_err(|e| format!("broker bind: {e}"))?;
    let connect = |id: PeerId, name: String| {
        BrokerClient::connect(PeerConfig::new(id, unix(dir, name), seed), BROKER, &addr)
            .map_err(|e| format!("client {id} connect: {e}"))
    };
    let subscriber = connect(SUBSCRIBER, format!("s{rep}"))?;
    let publisher = connect(PUBLISHER, format!("p{rep}"))?;
    subscriber
        .subscribe(topics, None)
        .map_err(|e| format!("subscribe: {e}"))?;
    while broker.live_count() < 1 {
        if started.elapsed() > PATIENCE {
            return Err("broker never applied the subscription".into());
        }
        thread::sleep(Duration::from_micros(20));
    }
    let secs = started.elapsed().as_secs_f64();
    Ok((
        Rig {
            broker,
            subscriber,
            publisher,
        },
        secs,
    ))
}

/// What the subscriber thread saw. One publisher and one subscriber
/// over FIFO queues: deliveries must arrive in sequence-id order.
#[derive(Default)]
struct Seen {
    /// The sequence id the next delivery must carry.
    next: u64,
    /// Deliveries that repeated an id, plus ids skipped over.
    misordered: u64,
    wrong_key: u64,
    received: u64,
    /// publish→deliver latency from the intended send, per delivery
    /// while `recording`.
    latency_ns: Vec<u64>,
    recording: bool,
}

struct Shared {
    seen: Mutex<Seen>,
    delivered: Condvar,
    stop: AtomicBool,
}

fn subscriber_loop(client: &BrokerClient, shared: &Shared, seed: u64, topics: &[String]) {
    let n = topics.len() as u64;
    while !shared.stop.load(Ordering::SeqCst) {
        let Some(d) = client.recv_delivery(Duration::from_millis(20)) else {
            continue;
        };
        let seq = d.body.seq;
        let mut seen = shared.seen.lock().expect("seen lock");
        if seq >= seen.next {
            seen.misordered += seq - seen.next;
            seen.next = seq + 1;
        } else {
            seen.misordered += 1;
        }
        if seen.recording {
            seen.latency_ns.push(d.latency_ns());
        }
        if d.body.key != topics[topic_of(seed, seq, n) as usize] {
            seen.wrong_key += 1;
        }
        seen.received += 1;
        drop(seen);
        shared.delivered.notify_one();
    }
}

/// The publisher side: sequence ids, pacing, and its own samples.
struct Publisher<'a> {
    client: &'a BrokerClient,
    seed: u64,
    topics: &'a [String],
    next_seq: u64,
}

impl Publisher<'_> {
    fn send(&mut self, sent_ns: u64) -> Result<Duration, String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = &self.topics[topic_of(self.seed, seq, self.topics.len() as u64) as usize];
        let body = PublishBody {
            seq,
            sent_ns,
            key: key.clone(),
        };
        let frame = Frame::new(FrameKind::Publish, body.encode());
        let t = Instant::now();
        self.client
            .manager()
            .send(BROKER, frame)
            .map_err(|e| format!("publish {seq}: {e}"))?;
        Ok(t.elapsed())
    }

    /// Fixed-rate phase: publishes each sent when due, until `until`.
    /// Returns publish→deliver latencies cut into windows, generator
    /// lateness samples, and client send-call samples.
    fn paced(
        &mut self,
        shared: &Shared,
        rate: u64,
        until: Until,
    ) -> Result<(Vec<Window>, Samples, Samples), String> {
        wait_received(shared, self.next_seq)?;
        shared.seen.lock().expect("seen lock").recording = true;
        let period = Duration::from_nanos(1_000_000_000 / rate);
        let t0 = Instant::now();
        let t0_unix = unix_ns();
        let mut late = Samples::default();
        let mut send = Samples::default();
        for i in 0u64.. {
            let offset = period * u32::try_from(i).map_err(|_| "rate phase too long")?;
            let due = t0 + offset;
            let done = match until {
                Until::Count(n) => i >= n,
                Until::Elapsed(d) => offset >= d,
            };
            if done {
                break;
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            late.push_duration(Instant::now().saturating_duration_since(due));
            let sent_ns = t0_unix + u64::try_from(offset.as_nanos()).unwrap_or(u64::MAX);
            send.push_duration(self.send(sent_ns)?);
        }
        wait_received(shared, self.next_seq)?;
        let latency = {
            let mut seen = shared.seen.lock().expect("seen lock");
            seen.recording = false;
            std::mem::take(&mut seen.latency_ns)
        };
        // Sends are paced, so equal shares of the phase's deliveries
        // are equal shares of its time.
        let chunk = latency.len().div_ceil(WINDOWS as usize).max(1);
        let windows = latency
            .chunks(chunk)
            .map(|c| {
                let mut samples = Samples::with_capacity(c.len());
                for &ns in c {
                    samples.push(ns);
                }
                Window {
                    ops: c.len() as u64,
                    busy: period * c.len() as u32,
                    samples,
                }
            })
            .collect();
        Ok((windows, late, send))
    }

    /// Closed-loop phase with `window` publishes in flight, until
    /// `until`. Returns the publishes sent per time window.
    fn closed(&mut self, shared: &Shared, window: u64, until: Until) -> Result<Windows, String> {
        let first = self.next_seq;
        let base = shared.seen.lock().expect("seen lock").received;
        let mut windows = until.windows();
        let started = Instant::now();
        while !until.reached(started, self.next_seq - first) {
            let sent = self.next_seq - first;
            let mut seen = shared.seen.lock().expect("seen lock");
            while sent >= window + (seen.received - base) {
                let (guard, timeout) = shared
                    .delivered
                    .wait_timeout(seen, PATIENCE)
                    .expect("seen lock");
                seen = guard;
                if timeout.timed_out() {
                    return Err("closed loop stalled: no delivery within 10 s".into());
                }
            }
            drop(seen);
            self.send(unix_ns())?;
            windows.current().ops += 1;
        }
        windows.close();
        wait_received(shared, self.next_seq)?;
        Ok(windows)
    }
}

fn wait_received(shared: &Shared, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    let mut seen = shared.seen.lock().expect("seen lock");
    while seen.received < target {
        let now = Instant::now();
        if now >= deadline {
            return Err(format!(
                "only {} of {target} deliveries arrived",
                seen.received
            ));
        }
        seen = shared
            .delivered
            .wait_timeout(seen, deadline - now)
            .expect("seen lock")
            .0;
    }
    Ok(())
}

/// Waits until the sinks have recorded a phase's last frames: a
/// delivery can reach the subscriber before the broker's writer counts
/// its frame or the service loop folds in its batch profile.
fn settle(sinks: &[&NetMetrics; 3], publishes: u64) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let broker = sinks[0].snapshot();
        let frames: u64 = sinks
            .iter()
            .map(|s| s.snapshot().counter(Counter::NetFramesSent))
            .sum();
        let published = broker.counter(Counter::BrokerPublishes);
        if frames >= 2 * publishes && published >= publishes {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "metrics never settled: {frames} frames, {published} publishes matched"
            ));
        }
        thread::sleep(Duration::from_millis(1));
    }
}

fn hist_p50_us(r: &ProfReport, h: TimeHist) -> f64 {
    r.time_hist(h).quantile(0.5) as f64 / 1e3
}

/// A scratch directory for the sockets, relative to the working
/// directory so paths stay short.
fn socket_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_run").join(format!("broker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs, shape: BrokerShape) -> Outcome {
    let mut out = Outcome::default();
    let dir = match socket_dir() {
        Ok(d) => d,
        Err(e) => {
            out.problem(e);
            return out;
        }
    };
    if let Err(e) = run_in(args, shape, &dir, &mut out) {
        out.problem(e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    out
}

fn run_in(args: &RunArgs, shape: BrokerShape, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let topics: Vec<String> = (0..shape.topics)
        .map(|t| topic_name(args.seed, t))
        .collect();
    // Half the set-ups run before the phases and half after them, so
    // their median spans the run.
    let mut setups = Vec::new();
    let mut rig = None;
    for rep in 0..SETUP_REPS / 2 {
        if let Some(old) = rig.take() {
            Rig::shutdown(old);
        }
        let (r, secs) = set_up(dir, rep, args.seed, &topics)?;
        setups.push(secs);
        rig = Some(r);
    }
    let rig = rig.expect("at least one set-up");

    let shared = Shared {
        seen: Mutex::new(Seen::default()),
        delivered: Condvar::new(),
        stop: AtomicBool::new(false),
    };
    let mut publisher = Publisher {
        client: &rig.publisher,
        seed: args.seed,
        topics: &topics,
        next_seq: 0,
    };
    let result = thread::scope(|scope| {
        let sub = scope.spawn(|| subscriber_loop(&rig.subscriber, &shared, args.seed, &topics));
        let r = phases(args, shape, &rig, &shared, &mut publisher, out);
        shared.stop.store(true, Ordering::SeqCst);
        sub.join()
            .map_err(|_| "subscriber thread panicked".to_string())?;
        r
    });
    let sent = publisher.next_seq;
    out.peak_rss();
    Rig::shutdown(rig);
    result?;
    for rep in SETUP_REPS / 2..SETUP_REPS {
        let (r, secs) = set_up(dir, rep, args.seed, &topics)?;
        setups.push(secs);
        Rig::shutdown(r);
    }
    out.e2e("setup_s", median(&setups));

    // Every publish exactly once, in order, with its own key.
    let seen = shared.seen.lock().expect("seen lock");
    out.attempted = sent;
    let missing = sent.saturating_sub(seen.next);
    out.failed = missing + seen.misordered + seen.wrong_key;
    if out.failed > 0 {
        out.problem(format!(
            "{missing} publishes undelivered, {} delivered out of order or twice, {} with a wrong key",
            seen.misordered, seen.wrong_key
        ));
    }
    Ok(())
}

fn phases(
    args: &RunArgs,
    shape: BrokerShape,
    rig: &Rig,
    shared: &Shared,
    publisher: &mut Publisher<'_>,
    out: &mut Outcome,
) -> Result<(), String> {
    let rate = shape.rate_per_s;
    publisher.paced(shared, rate, Until::Elapsed(shape.warmup))?;
    let rate_time = args.seconds.mul_f64(shape.rate_share);
    let closed_time = args.seconds.saturating_sub(rate_time);
    let (rate_until, closed_until) = if args.trace {
        (
            Until::Count(shape.traced_rate_publishes),
            Until::Count(shape.traced_closed_publishes),
        )
    } else {
        (Until::Elapsed(rate_time), Until::Elapsed(closed_time))
    };

    let (mut latency, mut late, _) = publisher.paced(shared, rate, rate_until)?;
    let closed = publisher.closed(shared, shape.window, closed_until)?;
    out.line(format!(
        "broker-rate: {} publishes at {rate}/s; generator late p50 {:.2} us, p90 {:.2} us (n = {})",
        late.len(),
        late.quantile_us(0.5).unwrap_or(0.0),
        late.quantile_us(0.9).unwrap_or(0.0),
        late.len(),
    ));
    out.window_percentiles(&mut latency, "publish->deliver");
    out.window_throughput(
        &closed.list,
        &format!("closed loop, window {}", shape.window),
    );
    let p50 = out.end_to_end.get("p50_us").copied().unwrap_or(0.0);
    if args.trace {
        traced_phases(shape, rig, shared, publisher, out, p50, &closed)?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced_phases(
    shape: BrokerShape,
    rig: &Rig,
    shared: &Shared,
    publisher: &mut Publisher<'_>,
    out: &mut Outcome,
    plain_p50: f64,
    plain_closed: &Windows,
) -> Result<(), String> {
    let sinks = [
        rig.broker.manager().metrics(),
        rig.publisher.manager().metrics(),
        rig.subscriber.manager().metrics(),
    ];
    for sink in sinks {
        sink.enable();
        drop(sink.take_delta());
    }
    let n_rate = shape.traced_rate_publishes;
    let (windows, mut late, mut send) =
        publisher.paced(shared, shape.rate_per_s, Until::Count(n_rate))?;
    settle(&sinks, n_rate)?;
    let broker_rate = rig.broker.manager().metrics().take_delta();
    let publisher_rate = rig.publisher.manager().metrics().take_delta();
    drop(rig.subscriber.manager().metrics().take_delta());
    let mut lat = Samples::default();
    for w in &windows {
        lat.extend(&w.samples);
    }
    let e2e_p50 = lat.quantile_us(0.5).unwrap_or(0.0);

    let n_closed = shape.traced_closed_publishes;
    let closed = publisher.closed(shared, shape.window, Until::Count(n_closed))?;
    settle(&sinks, n_closed)?;
    let mut closed_report = ProfReport::default();
    for sink in sinks {
        closed_report.merge(&sink.take_delta());
    }

    let client_send = send.quantile_us(0.5).unwrap_or(0.0);
    let frame_publish = hist_p50_us(&publisher_rate, frame_time_hist(FrameKind::Publish));
    let frame_deliver = hist_p50_us(&broker_rate, frame_time_hist(FrameKind::Deliver));
    let batch = broker_rate.time_hist(TimeHist::BrokerBatchNs);
    let batch_p50 = batch.quantile(0.5) as f64 / 1e3;
    let residual = e2e_p50 - client_send - frame_publish - batch_p50 - frame_deliver;
    out.layer("net.client_send_p50_us", client_send);
    out.layer("net.frame_publish_p50_us", frame_publish);
    out.layer("net.frame_deliver_p50_us", frame_deliver);
    out.layer("broker.batch_p50_us", batch_p50);
    out.layer("broker.batch_busy_s", batch.sum() as f64 / 1e9);
    out.layer(
        "broker.batch_ops_mean",
        broker_rate.size_hist(SizeHist::BrokerBatchOps).mean(),
    );
    out.layer(
        "broker.batches",
        broker_rate.counter(Counter::BrokerBatches) as f64,
    );
    out.layer("broker.residual_p50_us", residual);
    out.layer("gen.late_p50_us", late.quantile_us(0.5).unwrap_or(0.0));
    out.layer("gen.late_p90_us", late.quantile_us(0.9).unwrap_or(0.0));
    out.layer(
        "net.send_stalls",
        closed_report.counter(Counter::NetSendStalls) as f64,
    );
    out.layer(
        "net.frames_sent",
        closed_report.counter(Counter::NetFramesSent) as f64,
    );
    out.layer(
        "net.bytes_sent",
        closed_report.counter(Counter::NetBytesSent) as f64,
    );
    // The broker's index serves every publish of the traced fixed-rate
    // pass; its read-path counts come through the same sink.
    out.layer(
        "match.events",
        broker_rate.counter(Counter::MatchEvents) as f64,
    );
    out.layer(
        "match.matched",
        broker_rate.counter(Counter::MatchMatched) as f64,
    );
    out.layer(
        "match.batch_busy_s",
        broker_rate.time_hist(TimeHist::MatchBatchNs).sum() as f64 / 1e9,
    );
    out.layer("match.live", rig.broker.live_count() as f64);
    let per_publish = |w: &Windows| {
        let busy: f64 = w.list.iter().map(|w| w.busy.as_secs_f64()).sum();
        let ops: u64 = w.list.iter().map(|w| w.ops).sum();
        busy / ops as f64
    };
    let per_plain = per_publish(plain_closed);
    let per_traced = per_publish(&closed);
    out.layer("trace.overhead_ratio", per_traced / per_plain - 1.0);

    let n = lat.len();
    out.line(format!(
        "layer accounting, traced fixed-rate pass: publish->deliver p50 {e2e_p50:.2} us (n = {n}, untraced {plain_p50:.2} us)"
    ));
    for (name, us, count) in [
        ("client send call", client_send, send.len() as u64),
        (
            "publisher socket write (PUBLISH)",
            frame_publish,
            publisher_rate
                .time_hist(frame_time_hist(FrameKind::Publish))
                .count(),
        ),
        ("broker service batch", batch_p50, batch.count()),
        (
            "broker socket write (DELIVER)",
            frame_deliver,
            broker_rate
                .time_hist(frame_time_hist(FrameKind::Deliver))
                .count(),
        ),
    ] {
        out.line(format!(
            "  {name:<34} p50 {us:>9.2} us {:>6.1}%  (n = {count})",
            pct(us, e2e_p50)
        ));
    }
    out.line(format!(
        "  residual (queue waits, socket reads, wake-ups) {residual:>9.2} us {:>6.1}%",
        pct(residual, e2e_p50)
    ));
    out.line(
        "  stage p50s from bsub-obs histograms are log2 bucket ceilings; the residual inherits their error",
    );
    out.line(format!(
        "  closed-loop overhead: traced {:.3} us/publish vs untraced {:.3} us/publish",
        per_traced * 1e6,
        per_plain * 1e6
    ));
    Ok(())
}
