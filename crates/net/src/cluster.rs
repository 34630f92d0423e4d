//! The loopback cluster runtime: the serial simulator's event loop,
//! re-run across OS processes with the state on sockets.
//!
//! One **coordinator** (peer 0) walks the contact trace in order, and
//! `W` **workers** (peers 1..=W) each host a full instance of the
//! protocol under test, built by the same factory and seed. Node `n`
//! is *owned* by worker `1 + (n mod W)`: the owner's copy of `n`'s
//! state is authoritative between contacts.
//!
//! A contact between nodes `a` and `b` is dispatched to the owner of
//! `a` (the *executor*). The executor pulls a snapshot of any
//! endpoint it does not own (`STATE_REQ` → `STATE_GRANT`, via
//! [`Protocol::export_node`]/[`Protocol::import_node`]), runs the
//! protocol's `on_contact` against its own instance, returns the
//! post-exchange snapshots to their owners (`STATE_RET`, acknowledged
//! toward the coordinator as `NODE_FREE`), and reports the exchange's
//! costs and deliveries (`RESULT`). The coordinator keeps per-node
//! busy flags so no node is in two exchanges at once, and replays
//! results **in contact-index order** into one master
//! [`MetricsCollector`] — which is why the final [`SimReport`] is not
//! merely close to the serial simulator's, but equal to it (the
//! `net-cluster` harness and CI diff the CSVs byte for byte).
//!
//! Publications use a **publish barrier**: before the first contact
//! at or after a scheduled publication, the coordinator drains every
//! in-flight exchange, broadcasts `ADVANCE`, and waits for
//! `PUBLISH_OK` from every worker. Every worker applies every
//! publication to its own instance (cheap, and it keeps globally
//! registered state such as PUSH's message registry dense), so a
//! producer's authoritative owner always has the publication applied
//! before the next exchange can touch it. Publication has no metric
//! side effects on the workers; the coordinator accounts generated
//! messages itself, exactly like the serial runner.
//!
//! Lock discipline (the reason the distributed exchange cannot
//! deadlock): a worker's executor thread acquires its protocol
//! instance **only after** all remote snapshots have arrived, and
//! never blocks on the network while holding it; the main thread
//! serves `STATE_REQ` for any node not currently in an exchange
//! (guaranteed by the coordinator's busy flags). Every wait chain
//! therefore ends at an executor that is simply computing.

use crate::frame::{Frame, FrameKind};
use crate::peer::{PeerConfig, PeerId, PeerManager};
use crate::transport::EndpointAddr;
use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{self as obs, Counter, ProfReport, SharedReport, TimeHist};
use bsub_sim::{
    GeneratedMessage, Link, Message, MessageId, MetricsCollector, NullRecorder, Protocol,
    ProtocolFactory, Recorder, SimConfig, SimCtx, SimReport, Simulation, SubscriptionTable,
    TraceEvent,
};
use bsub_traces::{ContactTrace, NodeId, SimDuration};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The coordinator's peer id. Workers are `1..=workers`.
pub const COORDINATOR: PeerId = PeerId(0);

/// How long either side waits for the next frame before rechecking
/// liveness.
const POLL: Duration = Duration::from_millis(200);

/// How long a run may make no progress before it is declared wedged
/// (a worker died, a socket path is wrong, ...).
const STALL: Duration = Duration::from_secs(120);

/// How long the coordinator waits for all workers to dial in.
const ASSEMBLY: Duration = Duration::from_secs(60);

/// The Unix-socket address of `peer` inside the cluster's rendezvous
/// directory — the only thing processes must agree on besides the
/// [`ClusterSpec`] itself.
#[must_use]
pub fn peer_addr(dir: &Path, peer: PeerId) -> EndpointAddr {
    EndpointAddr::Unix(dir.join(format!("peer-{}.sock", peer.0)))
}

/// Everything a cluster run shares: the same inputs a [`Simulation`]
/// holds, plus the seed and worker count. Every process derives its
/// copy deterministically (same trace generator, same seeds), so
/// nothing but protocol frames crosses the sockets.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The contact trace driving the run.
    pub trace: Arc<ContactTrace>,
    /// Ground-truth subscriptions.
    pub subscriptions: Arc<SubscriptionTable>,
    /// The publication schedule (sorted by time).
    pub schedule: Arc<[GeneratedMessage]>,
    /// Link rate and TTL.
    pub config: SimConfig,
    /// Seed handed to the protocol factory on every peer.
    pub seed: u64,
    /// Number of worker processes (≥ 1).
    pub workers: u32,
    /// Observability plane (DESIGN.md §15): when set, every worker
    /// arms its socket-thread metrics sink, profiles each executed
    /// contact, and ships delta `ProfReport`s to the coordinator in
    /// `STATS` frames on this cadence (plus a final delta at drain).
    /// `None` (the default) keeps the plane fully off.
    pub stats_cadence: Option<Duration>,
}

impl ClusterSpec {
    /// Builds a spec over the same inputs a [`Simulation`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, the subscription table does not
    /// match the trace, or the schedule is unsorted — the same
    /// contracts [`Simulation::new`] enforces.
    #[must_use]
    pub fn new(
        trace: impl Into<Arc<ContactTrace>>,
        subscriptions: impl Into<Arc<SubscriptionTable>>,
        schedule: impl Into<Arc<[GeneratedMessage]>>,
        config: SimConfig,
        seed: u64,
        workers: u32,
    ) -> Self {
        let trace = trace.into();
        let subscriptions = subscriptions.into();
        let schedule = schedule.into();
        assert!(workers >= 1, "a cluster needs at least one worker");
        assert_eq!(
            subscriptions.node_count(),
            trace.node_count(),
            "subscription table does not match trace"
        );
        assert!(
            schedule.windows(2).all(|w| w[0].at <= w[1].at),
            "message schedule must be sorted by time"
        );
        Self {
            trace,
            subscriptions,
            schedule,
            config,
            seed,
            workers,
            stats_cadence: None,
        }
    }

    /// Enables the live observability plane with the given delta
    /// cadence. Shipping is piggybacked on the worker main loop, so
    /// the effective granularity is bounded below by the loop's poll
    /// interval (200 ms).
    #[must_use]
    pub fn with_stats_cadence(mut self, cadence: Duration) -> Self {
        self.stats_cadence = Some(cadence);
        self
    }

    /// The equivalent serial simulation (the ground truth the cluster
    /// must reproduce exactly).
    #[must_use]
    pub fn simulation(&self) -> Simulation {
        Simulation::new(
            Arc::clone(&self.trace),
            Arc::clone(&self.subscriptions),
            Arc::clone(&self.schedule),
            self.config.clone(),
        )
    }

    /// The worker that owns `node`'s authoritative state.
    #[must_use]
    pub fn node_owner(&self, node: NodeId) -> PeerId {
        PeerId(1 + (node.index() as u32 % self.workers))
    }

    /// Materializes schedule entry `index` exactly like the serial
    /// runner: the message id *is* the schedule index.
    fn message(&self, index: usize) -> Arc<Message> {
        let spec = &self.schedule[index];
        Arc::new(Message {
            id: MessageId::new(index as u64),
            key: Arc::clone(&spec.key),
            size: spec.size,
            created: spec.at,
            ttl: self.config.ttl,
            producer: spec.producer,
        })
    }
}

/// What a finished cluster run hands back.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The master metrics — equal to the serial simulator's report
    /// for the same spec and factory.
    pub report: SimReport,
    /// Wall-clock nanoseconds per exchange (dispatch to result, as
    /// seen by the coordinator), in contact-index order.
    pub exchange_ns: Vec<u64>,
    /// Total wall clock of the run.
    pub wall: Duration,
    /// The cluster-wide merged live report (worker deltas plus the
    /// coordinator's own socket metrics); `None` when the
    /// observability plane was off.
    pub cluster_metrics: Option<ProfReport>,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn timed_out(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, message.into())
}

// ---- frame body codecs ------------------------------------------------

/// Decodes a whole frame body with `read`; truncation, a malformed
/// field, or trailing bytes is an `InvalidData` error naming `what`.
fn decode_body<'a, T>(
    body: &'a [u8],
    what: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> io::Result<T> {
    let mut r = Reader::new(body);
    read(&mut r)
        .filter(|_| r.finish().is_some())
        .ok_or_else(|| bad(format!("malformed {what} body")))
}

fn body_u32(v: u32) -> Vec<u8> {
    let mut w = Writer::with_capacity(4);
    w.u32(v);
    w.into_bytes()
}

fn body_u64(v: u64) -> Vec<u8> {
    let mut w = Writer::with_capacity(8);
    w.u64(v);
    w.into_bytes()
}

fn read_u32(body: &[u8]) -> io::Result<u32> {
    decode_body(body, "u32", Reader::u32)
}

fn read_u64(body: &[u8]) -> io::Result<u64> {
    decode_body(body, "u64", Reader::u64)
}

fn body_node_bytes(node: u32, bytes: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + bytes.len());
    w.u32(node);
    w.bytes(bytes);
    w.into_bytes()
}

fn read_node_bytes(body: &[u8]) -> io::Result<(u32, Vec<u8>)> {
    decode_body(body, "node snapshot", |r| {
        Some((r.u32()?, r.bytes()?.to_vec()))
    })
}

// ---- STATS sub-protocol (DESIGN.md §15) -------------------------------
//
// body[0] is the stats op; a report payload (the `bsub_obs` wire
// codec) follows for the two delta-carrying ops. Same reset semantics
// as every other frame: a malformed body kills the connection.

/// Coordinator → worker: send your final delta now (no payload).
const STATS_REQUEST: u8 = 0;
/// Worker → coordinator: an unsolicited cadence delta.
const STATS_DELTA: u8 = 1;
/// Worker → coordinator: the final delta, in reply to a request.
const STATS_FINAL: u8 = 2;

fn body_stats(op: u8, report: Option<&ProfReport>) -> Vec<u8> {
    let mut body = vec![op];
    if let Some(report) = report {
        body.extend_from_slice(&report.encode());
    }
    body
}

fn read_stats(body: &[u8]) -> io::Result<(u8, Option<ProfReport>)> {
    let (&op, rest) = body.split_first().ok_or_else(|| bad("empty STATS body"))?;
    match op {
        STATS_REQUEST => {
            if !rest.is_empty() {
                return Err(bad("STATS request carries a payload"));
            }
            Ok((op, None))
        }
        STATS_DELTA | STATS_FINAL => {
            let report = ProfReport::decode(rest).ok_or_else(|| bad("malformed STATS report"))?;
            Ok((op, Some(report)))
        }
        other => Err(bad(format!("unknown STATS op {other}"))),
    }
}

/// One executed contact, as shipped in a `RESULT` frame: the
/// exchange's scalar costs plus its delivery events.
#[derive(Debug, PartialEq, Eq)]
struct ExchangeOutcome {
    index: u64,
    forwardings: u64,
    control_bytes: u64,
    data_bytes: u64,
    injections: u64,
    false_injections: u64,
    /// `(message id, consumer, genuine)` in execution order.
    deliveries: Vec<(u64, u32, bool)>,
}

impl ExchangeOutcome {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(56 + 13 * self.deliveries.len());
        w.u64(self.index);
        w.u64(self.forwardings);
        w.u64(self.control_bytes);
        w.u64(self.data_bytes);
        w.u64(self.injections);
        w.u64(self.false_injections);
        w.u64(self.deliveries.len() as u64);
        for &(msg, node, genuine) in &self.deliveries {
            w.u64(msg);
            w.u32(node);
            w.flag(genuine);
        }
        w.into_bytes()
    }

    fn decode(body: &[u8]) -> io::Result<Self> {
        decode_body(body, "result", |r| {
            Some(Self {
                index: r.u64()?,
                forwardings: r.u64()?,
                control_bytes: r.u64()?,
                data_bytes: r.u64()?,
                injections: r.u64()?,
                false_injections: r.u64()?,
                deliveries: (0..r.count_u64(8 + 4 + 1)?)
                    .map(|_| Some((r.u64()?, r.u32()?, r.flag()?)))
                    .collect::<Option<_>>()?,
            })
        })
    }

    /// The scalar costs as a [`SimReport`] shell, for
    /// [`MetricsCollector::absorb_costs`].
    fn as_costs(&self) -> SimReport {
        SimReport {
            protocol: String::new(),
            generated: 0,
            target_pairs: 0,
            delivered: 0,
            false_delivered: 0,
            delay_total: SimDuration::from_millis(0),
            forwardings: self.forwardings,
            control_bytes: self.control_bytes,
            data_bytes: self.data_bytes,
            contacts: 0,
            injections: self.injections,
            false_injections: self.false_injections,
        }
    }
}

/// A recorder that keeps only `Delivered` events — the one event
/// class the coordinator must replay into the master ledger.
#[derive(Debug, Default)]
struct DeliveryTap {
    deliveries: Vec<(u64, u32, bool)>,
}

impl Recorder for DeliveryTap {
    fn is_active(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Delivered {
            msg, node, genuine, ..
        } = event
        {
            self.deliveries
                .push((msg.raw(), node.index() as u32, *genuine));
        }
    }
}

/// Applies schedule entries `[from, to)` to `protocol` — the worker
/// side of a publish barrier. Publication has no metric side effects
/// (a publication's only possible delivery is a self-delivery, which
/// the ledger classifies and drops identically on every instance), so
/// a throwaway collector absorbs the context.
fn apply_publishes(spec: &ClusterSpec, protocol: &mut dyn Protocol, from: usize, to: usize) {
    for index in from..to {
        let msg = spec.message(index);
        let mut metrics = MetricsCollector::new();
        let mut recorder = NullRecorder;
        let mut ctx = SimCtx::for_exchange(
            msg.created,
            &spec.subscriptions,
            &mut metrics,
            &mut recorder,
        );
        protocol.on_message(&mut ctx, &msg);
    }
}

// ---- worker -----------------------------------------------------------

/// Runs worker `worker` (1-based, ≤ `spec.workers`) until the
/// coordinator sends `DONE`. Blocks for the whole run.
///
/// # Errors
///
/// Connection failures, malformed frames, a protocol that cannot
/// export/import state, or a coordinator that goes silent for longer
/// than the stall timeout.
///
/// # Panics
///
/// Panics if `worker` is out of range.
pub fn run_worker(
    spec: &ClusterSpec,
    factory: &dyn ProtocolFactory,
    dir: &Path,
    worker: u32,
) -> io::Result<()> {
    assert!(
        (1..=spec.workers).contains(&worker),
        "worker id {worker} out of range 1..={}",
        spec.workers
    );
    let local = PeerId(worker);
    let pm = PeerManager::bind(PeerConfig::new(local, peer_addr(dir, local), spec.seed))?;
    if spec.stats_cadence.is_some() {
        pm.metrics().enable();
    }
    // Deterministic assembly: every peer dials the peers below it, so
    // exactly one side of each link dials in production runs.
    for lower in 0..worker {
        pm.connect(PeerId(lower), &peer_addr(dir, PeerId(lower)))?;
    }
    // Then wait for the peers above to dial in: coordinator plus every
    // other worker = `spec.workers` connections. Without this gate the
    // coordinator (which only counts its own links) can dispatch a
    // contact whose executor immediately needs a worker-worker link
    // that has not assembled yet — the StateReq send then fails
    // NotConnected and the cluster wedges until the stall timeout.
    pm.await_connections(spec.workers as usize, ASSEMBLY)?;

    let protocol: Arc<Mutex<Box<dyn Protocol>>> = Arc::new(Mutex::new(factory.build(spec.seed)));
    let (exec_tx, exec_rx) = mpsc::channel::<u64>();
    let (grant_tx, grant_rx) = mpsc::channel::<(u32, Vec<u8>)>();
    let executor = {
        let pm = Arc::clone(&pm);
        let protocol = Arc::clone(&protocol);
        let spec = spec.clone();
        thread::spawn(move || -> io::Result<()> {
            while let Ok(index) = exec_rx.recv() {
                // With the plane on, the contact runs under a profiler
                // (the protocol's `obs::` instrumentation lights up as in
                // the serial profiled runner) recorded into the sink
                // BEFORE the result goes out: once the coordinator holds
                // every result, the drain-time STATS collection misses
                // no contact's profile.
                let outcome = pm
                    .metrics()
                    .profile(|| execute_contact(&spec, &pm, &protocol, &grant_rx, index))?;
                pm.send(
                    COORDINATOR,
                    Frame::new(FrameKind::ExchangeResult, outcome.encode()),
                )?;
            }
            Ok(())
        })
    };

    let mut applied = 0usize;
    let mut last_frame = Instant::now();
    let mut last_stats = Instant::now();
    let mut stats_done = false;
    let main = (|| -> io::Result<()> {
        loop {
            // Cadence shipping: piggybacked on the main loop, so the
            // effective granularity is bounded by POLL. Stops once the
            // final delta has been surrendered, keeping the
            // coordinator's merged total stable from then on.
            if let Some(cadence) = spec.stats_cadence {
                if !stats_done && last_stats.elapsed() >= cadence {
                    last_stats = Instant::now();
                    let delta = pm.metrics().take_delta();
                    if !delta.is_empty() {
                        pm.send(
                            COORDINATOR,
                            Frame::new(FrameKind::Stats, body_stats(STATS_DELTA, Some(&delta))),
                        )?;
                    }
                }
            }
            let Some((from, frame)) = pm.recv_timeout(POLL) else {
                if last_frame.elapsed() > STALL {
                    return Err(timed_out(format!(
                        "coordinator went silent (worker {}, applied={applied}, \
                         stats_done={stats_done})",
                        local.0
                    )));
                }
                continue;
            };
            last_frame = Instant::now();
            match frame.kind {
                FrameKind::Dispatch => {
                    let index = read_u64(&frame.body)?;
                    exec_tx
                        .send(index)
                        .map_err(|_| bad("executor thread is gone"))?;
                }
                FrameKind::StateReq => {
                    let node = read_u32(&frame.body)?;
                    let snapshot = {
                        let guard = protocol.lock().expect("protocol lock");
                        guard
                            .export_node(NodeId::new(node))
                            .ok_or_else(|| bad("protocol cannot export node state"))?
                    };
                    pm.send(
                        from,
                        Frame::new(FrameKind::StateGrant, body_node_bytes(node, &snapshot)),
                    )?;
                }
                FrameKind::StateGrant => {
                    let granted = read_node_bytes(&frame.body)?;
                    // The executor may already have given up on a
                    // wedged run; a dropped receiver is not an error.
                    let _ = grant_tx.send(granted);
                }
                FrameKind::StateRet => {
                    let (node, bytes) = read_node_bytes(&frame.body)?;
                    {
                        let mut guard = protocol.lock().expect("protocol lock");
                        if !guard.import_node(NodeId::new(node), &bytes) {
                            return Err(bad("returned node snapshot rejected"));
                        }
                    }
                    pm.send(COORDINATOR, Frame::new(FrameKind::NodeFree, body_u32(node)))?;
                }
                FrameKind::Advance => {
                    let count = read_u64(&frame.body)? as usize;
                    if count > spec.schedule.len() || count < applied {
                        return Err(bad("ADVANCE outside the schedule"));
                    }
                    {
                        let mut guard = protocol.lock().expect("protocol lock");
                        apply_publishes(spec, &mut **guard, applied, count);
                    }
                    applied = count;
                    pm.send(
                        COORDINATOR,
                        Frame::new(FrameKind::PublishOk, body_u64(count as u64)),
                    )?;
                }
                FrameKind::Stats => {
                    let (op, _) = read_stats(&frame.body)?;
                    if op != STATS_REQUEST {
                        return Err(bad("worker got a non-request STATS frame"));
                    }
                    // Surrender the final delta — even an empty one,
                    // since the coordinator counts replies. Receipt by
                    // the coordinator is the flush guarantee: once it
                    // holds all W finals, nothing is still in flight.
                    let delta = pm.metrics().take_delta();
                    stats_done = true;
                    pm.send(
                        COORDINATOR,
                        Frame::new(FrameKind::Stats, body_stats(STATS_FINAL, Some(&delta))),
                    )?;
                }
                FrameKind::Done => return Ok(()),
                other => return Err(bad(format!("worker got unexpected {other:?} frame"))),
            }
        }
    })();
    drop(exec_tx);
    let exec = executor
        .join()
        .map_err(|_| bad("executor thread panicked"))?;
    pm.shutdown();
    // Surface both failures: the executor's error is usually the root
    // cause (e.g. a dead link), the main loop's stall the symptom.
    match (main, exec) {
        (Err(main), Err(exec)) => Err(io::Error::new(
            main.kind(),
            format!("{main}; executor: {exec}"),
        )),
        (main, exec) => main.and(exec),
    }
}

/// Runs one dispatched contact's exchange on the executor worker and
/// returns its outcome. See the module docs for the lock discipline
/// this function upholds.
fn execute_contact(
    spec: &ClusterSpec,
    pm: &PeerManager,
    protocol: &Mutex<Box<dyn Protocol>>,
    grants: &mpsc::Receiver<(u32, Vec<u8>)>,
    index: u64,
) -> io::Result<ExchangeOutcome> {
    let contact = *spec
        .trace
        .events()
        .get(index as usize)
        .ok_or_else(|| bad("dispatch index outside the trace"))?;
    let local = pm.local();
    let mut remotes: Vec<NodeId> = Vec::new();
    for node in [contact.a, contact.b] {
        if spec.node_owner(node) != local && !remotes.contains(&node) {
            remotes.push(node);
        }
    }
    // Gather every remote snapshot BEFORE touching the local
    // instance: the main thread must stay free to serve STATE_REQs
    // from other executors meanwhile.
    for &node in &remotes {
        pm.send(
            spec.node_owner(node),
            Frame::new(FrameKind::StateReq, body_u32(node.index() as u32)),
        )?;
    }
    let mut snapshots: HashMap<u32, Vec<u8>> = HashMap::new();
    let deadline = Instant::now() + STALL;
    while snapshots.len() < remotes.len() {
        match grants.recv_timeout(POLL) {
            Ok((node, bytes)) => {
                snapshots.insert(node, bytes);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(timed_out(format!(
                        "state grant never arrived (worker {} executing contact {index}, \
                         got {} of {} snapshots)",
                        pm.local().0,
                        snapshots.len(),
                        remotes.len(),
                    )));
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(bad("worker main loop is gone"));
            }
        }
    }

    let (report, deliveries, returns) = {
        let mut guard = protocol.lock().expect("protocol lock");
        let instance = &mut **guard;
        for (&node, bytes) in &snapshots {
            if !instance.import_node(NodeId::new(node), bytes) {
                return Err(bad("remote node snapshot rejected"));
            }
        }
        let mut metrics = MetricsCollector::new();
        let mut tap = DeliveryTap::default();
        let mut link = Link::for_contact(contact.duration(), spec.config.bytes_per_sec);
        {
            let mut ctx =
                SimCtx::for_exchange(contact.start, &spec.subscriptions, &mut metrics, &mut tap);
            instance.on_contact(&mut ctx, &contact, &mut link);
        }
        let mut returns = Vec::with_capacity(remotes.len());
        for &node in &remotes {
            let bytes = instance
                .export_node(node)
                .ok_or_else(|| bad("protocol cannot export node state"))?;
            returns.push((node, bytes));
        }
        (metrics.finish("exchange"), tap.deliveries, returns)
    };
    for (node, bytes) in returns {
        pm.send(
            spec.node_owner(node),
            Frame::new(
                FrameKind::StateRet,
                body_node_bytes(node.index() as u32, &bytes),
            ),
        )?;
    }
    Ok(ExchangeOutcome {
        index,
        forwardings: report.forwardings,
        control_bytes: report.control_bytes,
        data_bytes: report.data_bytes,
        injections: report.injections,
        false_injections: report.false_injections,
        deliveries,
    })
}

// ---- coordinator ------------------------------------------------------

struct PendingContact {
    executor: PeerId,
    at: Instant,
}

struct Coordinator<'a> {
    spec: &'a ClusterSpec,
    pm: Arc<PeerManager>,
    metrics: MetricsCollector,
    /// Materialized messages, indexed by message id (= schedule index).
    messages: Vec<Arc<Message>>,
    /// Schedule entries applied (and accounted) so far.
    applied: usize,
    busy: Vec<bool>,
    busy_nodes: usize,
    /// Dispatched contacts whose RESULT has not arrived yet.
    pending: HashMap<u64, PendingContact>,
    /// Results arrived out of order, waiting for their turn.
    buffered: BTreeMap<u64, ExchangeOutcome>,
    /// Next contact index to replay into the master ledger.
    next_replay: u64,
    exchange_ns: Vec<u64>,
    acks: u32,
    barrier_target: Option<u64>,
    last_progress: Instant,
    /// The live merged cluster report; `None` = plane off.
    stats: Option<Arc<SharedReport>>,
    /// Workers whose final STATS delta has arrived.
    stats_finals: u32,
    /// Last time the coordinator folded its own sink into `stats`.
    last_stats: Instant,
}

impl Coordinator<'_> {
    /// Folds the coordinator's own socket-thread metrics into the live
    /// report on the configured cadence.
    fn merge_own_stats(&mut self) {
        let Some(stats) = &self.stats else { return };
        let cadence = self.spec.stats_cadence.unwrap_or(POLL);
        if self.last_stats.elapsed() >= cadence {
            self.last_stats = Instant::now();
            let delta = self.pm.metrics().take_delta();
            stats.record(|r| r.merge(&delta));
        }
    }

    /// Handles one inbound frame (or a liveness check on timeout).
    fn pump(&mut self) -> io::Result<()> {
        self.merge_own_stats();
        let Some((from, frame)) = self.pm.recv_timeout(POLL) else {
            if self.last_progress.elapsed() > STALL {
                // The bookkeeping snapshot names what the coordinator
                // was still owed — usually enough to tell a dead
                // worker from a protocol-level wedge.
                return Err(timed_out(format!(
                    "cluster made no progress — worker dead? \
                     (pending={:?}, busy_nodes={}, buffered={}, next_replay={}, \
                      acks={}/{:?}, stats_finals={})",
                    self.pending.keys().collect::<Vec<_>>(),
                    self.busy_nodes,
                    self.buffered.len(),
                    self.next_replay,
                    self.acks,
                    self.barrier_target,
                    self.stats_finals,
                )));
            }
            return Ok(());
        };
        self.last_progress = Instant::now();
        match frame.kind {
            FrameKind::ExchangeResult => {
                let outcome = ExchangeOutcome::decode(&frame.body)?;
                let pending = self
                    .pending
                    .remove(&outcome.index)
                    .ok_or_else(|| bad("result for a contact that was never dispatched"))?;
                if pending.executor != from {
                    return Err(bad("result arrived from the wrong worker"));
                }
                let ns = pending.at.elapsed().as_nanos() as u64;
                obs::observe_ns(TimeHist::NetExchangeNs, ns);
                self.pm
                    .metrics()
                    .record(|r| r.record_time(TimeHist::NetExchangeNs, ns));
                self.exchange_ns[outcome.index as usize] = ns;
                // Endpoints the executor itself owns are free now;
                // remotely owned ones stay busy until NODE_FREE.
                let contact = self.spec.trace.events()[outcome.index as usize];
                for node in [contact.a, contact.b] {
                    if self.spec.node_owner(node) == from {
                        self.free(node);
                    }
                }
                self.buffered.insert(outcome.index, outcome);
                self.replay_ready()
            }
            FrameKind::NodeFree => {
                let node = read_u32(&frame.body)?;
                self.free(NodeId::new(node));
                Ok(())
            }
            FrameKind::PublishOk => {
                let count = read_u64(&frame.body)?;
                if Some(count) != self.barrier_target {
                    return Err(bad("PUBLISH_OK outside a publish barrier"));
                }
                self.acks += 1;
                Ok(())
            }
            FrameKind::Stats => {
                let (op, report) = read_stats(&frame.body)?;
                let Some(stats) = &self.stats else {
                    return Err(bad("STATS frame but the stats plane is off"));
                };
                let report =
                    report.ok_or_else(|| bad("coordinator got a STATS request, not a delta"))?;
                stats.record(|r| r.merge(&report));
                self.pm
                    .metrics()
                    .record(|r| r.add_counter(Counter::NetStatsFrames, 1));
                if op == STATS_FINAL {
                    self.stats_finals += 1;
                }
                Ok(())
            }
            other => Err(bad(format!("coordinator got unexpected {other:?} frame"))),
        }
    }

    fn free(&mut self, node: NodeId) {
        let slot = &mut self.busy[node.index()];
        if *slot {
            *slot = false;
            self.busy_nodes -= 1;
        }
    }

    /// Replays every contiguous buffered result into the master
    /// ledger, in contact-index order — the step that makes the
    /// distributed run's report equal the serial one.
    fn replay_ready(&mut self) -> io::Result<()> {
        while let Some(outcome) = self.buffered.remove(&self.next_replay) {
            let contact = self.spec.trace.events()[self.next_replay as usize];
            self.metrics.on_contact();
            self.metrics.absorb_costs(&outcome.as_costs());
            for &(msg, node, genuine) in &outcome.deliveries {
                let msg = self
                    .messages
                    .get(msg as usize)
                    .ok_or_else(|| bad("delivery references an unpublished message"))?;
                let _ = self
                    .metrics
                    .on_delivery(msg, NodeId::new(node), contact.start, genuine);
            }
            self.next_replay += 1;
        }
        Ok(())
    }

    /// Waits until no exchange is in flight anywhere in the cluster.
    fn drain_inflight(&mut self) -> io::Result<()> {
        while !self.pending.is_empty() || self.busy_nodes > 0 || !self.buffered.is_empty() {
            self.pump()?;
        }
        Ok(())
    }

    /// The publish barrier: drain, broadcast `ADVANCE(target)`, await
    /// every worker's `PUBLISH_OK`, then account the publications in
    /// the master ledger exactly like the serial runner.
    fn barrier(&mut self, target: usize) -> io::Result<()> {
        self.drain_inflight()?;
        self.acks = 0;
        self.barrier_target = Some(target as u64);
        for worker in 1..=self.spec.workers {
            self.pm.send(
                PeerId(worker),
                Frame::new(FrameKind::Advance, body_u64(target as u64)),
            )?;
        }
        while self.acks < self.spec.workers {
            self.pump()?;
        }
        self.barrier_target = None;
        for index in self.applied..target {
            let entry = &self.spec.schedule[index];
            let targets = self
                .spec
                .subscriptions
                .subscribers_of(&entry.key)
                .filter(|&n| n != entry.producer)
                .count() as u64;
            self.metrics.on_generated(targets);
            let msg = self.spec.message(index);
            self.messages.push(msg);
        }
        self.applied = target;
        Ok(())
    }
}

/// Runs the coordinator over `spec.workers` already-spawned workers
/// rendezvousing in `dir`. Blocks until the run completes and every
/// worker has been told `DONE`.
///
/// The `factory` is used only to name the protocol in the report; the
/// workers build the instances that actually run.
///
/// # Errors
///
/// Assembly timeouts, malformed frames, protocol violations by a
/// worker, or a stall (e.g. a worker process died mid-run).
pub fn run_coordinator(
    spec: &ClusterSpec,
    factory: &dyn ProtocolFactory,
    dir: &Path,
) -> io::Result<ClusterOutcome> {
    let stats = spec.stats_cadence.is_some().then(Arc::default);
    run_coordinator_with(spec, factory, dir, stats)
}

/// [`run_coordinator`] with an externally owned sink: pass
/// `Some(sink)` to watch the merged cluster report *while the run is
/// live* — e.g. by serving the sink from a
/// [`StatsServer`](crate::stats::StatsServer), which is exactly what
/// the `net-cluster` binary's `--stats-addr` flag does. The run arms
/// the sink and merges into it; the caller's earlier contents stay.
///
/// # Errors
///
/// Same as [`run_coordinator`].
pub fn run_coordinator_with(
    spec: &ClusterSpec,
    factory: &dyn ProtocolFactory,
    dir: &Path,
    stats: Option<Arc<SharedReport>>,
) -> io::Result<ClusterOutcome> {
    let started = Instant::now();
    let name = factory.build(spec.seed).name().to_string();
    let pm = PeerManager::bind(PeerConfig::new(
        COORDINATOR,
        peer_addr(dir, COORDINATOR),
        spec.seed,
    ))?;
    if let Some(stats) = &stats {
        stats.enable();
        pm.metrics().enable();
    }
    pm.await_connections(spec.workers as usize, ASSEMBLY)?;

    let contacts = spec.trace.len();
    let mut coord = Coordinator {
        spec,
        pm: Arc::clone(&pm),
        metrics: MetricsCollector::new(),
        messages: Vec::with_capacity(spec.schedule.len()),
        applied: 0,
        busy: vec![false; spec.trace.node_count() as usize],
        busy_nodes: 0,
        pending: HashMap::new(),
        buffered: BTreeMap::new(),
        next_replay: 0,
        exchange_ns: vec![0; contacts],
        acks: 0,
        barrier_target: None,
        last_progress: Instant::now(),
        stats,
        stats_finals: 0,
        last_stats: Instant::now(),
    };

    for index in 0..contacts {
        let contact = spec.trace.events()[index];
        // Publications scheduled at or before this contact's start go
        // first (inclusive boundary, same as the serial runner).
        let mut due = coord.applied;
        while due < spec.schedule.len() && spec.schedule[due].at <= contact.start {
            due += 1;
        }
        if due > coord.applied {
            coord.barrier(due)?;
        }
        while coord.busy[contact.a.index()] || coord.busy[contact.b.index()] {
            coord.pump()?;
        }
        for node in [contact.a, contact.b] {
            if !coord.busy[node.index()] {
                coord.busy[node.index()] = true;
                coord.busy_nodes += 1;
            }
        }
        let executor = spec.node_owner(contact.a);
        coord.pending.insert(
            index as u64,
            PendingContact {
                executor,
                at: Instant::now(),
            },
        );
        coord.last_progress = Instant::now();
        pm.send(
            executor,
            Frame::new(FrameKind::Dispatch, body_u64(index as u64)),
        )?;
    }
    coord.drain_inflight()?;
    // Trailing publications after the last contact (the serial
    // runner's final inclusive flush).
    if coord.applied < spec.schedule.len() {
        coord.barrier(spec.schedule.len())?;
    }
    debug_assert_eq!(coord.next_replay as usize, contacts);

    // Final STATS collection, before DONE goes out: ask every worker
    // for its final delta and pump until all have replied. Receipt is
    // the flush guarantee — once the last final is in, the merged
    // report covers every contact and every cadence delta.
    if coord.stats.is_some() {
        for worker in 1..=spec.workers {
            pm.send(
                PeerId(worker),
                Frame::new(FrameKind::Stats, body_stats(STATS_REQUEST, None)),
            )?;
        }
        while coord.stats_finals < spec.workers {
            coord.pump()?;
        }
        if let Some(stats) = &coord.stats {
            let delta = pm.metrics().take_delta();
            stats.record(|r| r.merge(&delta));
        }
    }

    for worker in 1..=spec.workers {
        pm.send(PeerId(worker), Frame::new(FrameKind::Done, Vec::new()))?;
        // Flush the queue and half-close so DONE is guaranteed out
        // before the manager shuts down.
        pm.drain(PeerId(worker));
    }
    let report = coord.metrics.finish(&name);
    let exchange_ns = coord.exchange_ns;
    let cluster_metrics = coord.stats.as_ref().map(|stats| stats.snapshot());
    Ok(ClusterOutcome {
        report,
        exchange_ns,
        wall: started.elapsed(),
        cluster_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_outcome_round_trips() {
        let outcome = ExchangeOutcome {
            index: 42,
            forwardings: 3,
            control_bytes: 128,
            data_bytes: 4096,
            injections: 2,
            false_injections: 1,
            deliveries: vec![(7, 11, true), (9, 0, false)],
        };
        assert_eq!(ExchangeOutcome::decode(&outcome.encode()).unwrap(), outcome);
    }

    /// Golden bytes captured before the rewrite onto the shared codec:
    /// six u64 LE scalars, a u64 LE delivery count, then per delivery
    /// a u64 LE message id, a u32 LE node, and a flag byte.
    #[test]
    fn exchange_outcome_bytes_are_pinned() {
        let outcome = ExchangeOutcome {
            index: 0x0102,
            forwardings: 3,
            control_bytes: 128,
            data_bytes: 4096,
            injections: 2,
            false_injections: 1,
            deliveries: vec![(7, 11, true), (9, 0, false)],
        };
        assert_eq!(
            outcome.encode(),
            [
                2, 1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0, 16, 0,
                0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0,
                0, 7, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ]
        );
        // A delivery count past the bytes left is refused up front.
        let mut lying = outcome.encode();
        lying[48..56].copy_from_slice(&[0xFF; 8]);
        assert!(ExchangeOutcome::decode(&lying).is_err());
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let outcome = ExchangeOutcome {
            index: 1,
            forwardings: 0,
            control_bytes: 0,
            data_bytes: 0,
            injections: 0,
            false_injections: 0,
            deliveries: vec![(1, 2, true)],
        };
        let mut body = outcome.encode();
        body.truncate(body.len() - 1);
        assert!(ExchangeOutcome::decode(&body).is_err());
        assert!(read_u64(&[1, 2, 3]).is_err());
        assert!(read_u32(&[1, 2, 3, 4, 5]).is_err(), "trailing bytes");
        let nb = body_node_bytes(9, b"snapshot");
        assert_eq!(read_node_bytes(&nb).unwrap(), (9, b"snapshot".to_vec()));
    }

    #[test]
    fn stats_bodies_round_trip_pinned_to_the_wire_spec() {
        // DESIGN.md §15: body[0] is the stats op; a report payload in
        // the bsub_obs wire codec follows for delta-carrying ops.
        let request = body_stats(STATS_REQUEST, None);
        assert_eq!(request, vec![0], "request is the op byte alone");
        assert_eq!(read_stats(&request).unwrap(), (STATS_REQUEST, None));

        let mut report = ProfReport::default();
        report.add_counter(Counter::NetFramesSent, 5);
        report.record_time(TimeHist::NetExchangeNs, 777);
        for op in [STATS_DELTA, STATS_FINAL] {
            let body = body_stats(op, Some(&report));
            assert_eq!(body[0], op);
            assert_eq!(body[1], ProfReport::WIRE_VERSION, "payload starts at 1");
            let (got_op, got) = read_stats(&body).unwrap();
            assert_eq!(got_op, op);
            assert_eq!(got, Some(report.clone()));
        }

        // And the full frame wraps it under kind byte 11 with the
        // usual header/CRC (reset semantics on any mismatch).
        let frame = Frame::new(FrameKind::Stats, body_stats(STATS_FINAL, Some(&report)));
        let mut wire = Vec::new();
        frame.write_to(&mut wire).unwrap();
        assert_eq!(wire[0], 11, "kind byte");
        assert_eq!(wire[crate::frame::HEADER_LEN], STATS_FINAL, "op byte");
        assert_eq!(Frame::read_from(&mut wire.as_slice()).unwrap(), frame);
    }

    #[test]
    fn malformed_stats_bodies_are_rejected() {
        assert!(read_stats(&[]).is_err(), "empty body");
        assert!(read_stats(&[9]).is_err(), "unknown op");
        assert!(
            read_stats(&[STATS_REQUEST, 1]).is_err(),
            "request with payload"
        );
        assert!(read_stats(&[STATS_DELTA]).is_err(), "delta without report");
        let mut body = body_stats(STATS_FINAL, Some(&ProfReport::default()));
        body.truncate(body.len() - 1);
        assert!(read_stats(&body).is_err(), "truncated report");
    }

    #[test]
    fn node_ownership_partitions_all_nodes() {
        use bsub_traces::synthetic::SyntheticTrace;
        let trace = SyntheticTrace::new("own", 9, SimDuration::from_mins(30), 20)
            .seed(3)
            .build();
        let nodes = trace.node_count();
        let subs = SubscriptionTable::new(nodes);
        let spec = ClusterSpec::new(
            trace,
            subs,
            Vec::<GeneratedMessage>::new(),
            SimConfig::default(),
            7,
            3,
        );
        for n in 0..nodes {
            let owner = spec.node_owner(NodeId::new(n));
            assert!((1..=3).contains(&owner.0), "owner in worker range");
            assert_ne!(owner, COORDINATOR);
        }
        assert_eq!(spec.node_owner(NodeId::new(0)), PeerId(1));
        assert_eq!(spec.node_owner(NodeId::new(1)), PeerId(2));
        assert_eq!(spec.node_owner(NodeId::new(3)), PeerId(1));
    }
}
