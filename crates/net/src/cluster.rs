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
//! endpoint it does not own (`STATE_REQ` → `STATE_GRANT`), runs the
//! simulator's own contact step ([`Simulation::step_contact`]) against
//! its own instance, returns the post-exchange snapshots to their
//! owners (`STATE_RET`, acknowledged toward the coordinator as
//! `NODE_FREE`), and reports the exchange's costs and deliveries
//! (`RESULT`). Fault draws are stateless, so the executor repeats them
//! from the shared [`Simulation`]; the one stateful input, the churn
//! resets, rides in the `DISPATCH` body. Before the first contact at
//! or after a scheduled publication, a **publish barrier** drains every
//! exchange, and every worker applies the publications
//! ([`Simulation::step_publish`]) and answers `PUBLISH_OK`.
//!
//! Every coordinator decision lives in the socket-free `ClusterCore`
//! (`cluster_core.rs`): no node is in two exchanges at once, and results
//! are replayed **in contact order** into one master
//! [`MetricsCollector`](bsub_sim::MetricsCollector), so the final
//! [`SimReport`] equals the serial simulator's (the `net-cluster` harness
//! and CI diff the CSVs byte for byte). A worker's closed link ends the
//! run at once naming it; the coordinator's closed link ends every worker's.
//!
//! A worker is one loop over the socket-free `WorkerCore`, which runs
//! its dispatched contacts in arrival order. Why the distributed
//! exchange cannot deadlock: a worker blocks only in `recv_any`, never
//! while a contact awaits its grant, so it serves every `STATE_REQ` as
//! it arrives; and its sends cannot wedge, because every peer's reader
//! drains its socket into an unbounded inbound queue. Every wait chain
//! therefore ends at a worker that is computing or reading.

use crate::cluster_core::{Action, ClusterCore, WorkerCore};
use crate::frame::{Frame, FrameKind};
use crate::peer::{PeerConfig, PeerId, PeerManager};
use crate::transport::EndpointAddr;
use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{self as obs, Counter, ProfReport, SharedReport, TimeHist};
use bsub_sim::{ProtocolFactory, SimReport, Simulation};
use bsub_traces::NodeId;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coordinator's peer id. Workers are `1..=workers`.
pub const COORDINATOR: PeerId = PeerId(0);

/// How long either side waits for the next frame before rechecking
/// liveness.
const POLL: Duration = Duration::from_millis(200);

/// How long a run may make no progress before it is declared wedged:
/// the backstop for a peer that is alive but silent. A closed link
/// ends the run at once instead.
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

/// Everything a cluster run shares: the [`Simulation`] it reproduces
/// (trace, subscriptions, schedule, configuration and fault model),
/// plus the protocol seed and the worker count. Every process derives
/// its copy deterministically (same trace generator, same seeds), so
/// nothing but protocol frames crosses the sockets.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The run to reproduce; its serial report is the ground truth.
    pub sim: Simulation,
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
    /// Builds a spec that runs `sim` on `workers` worker processes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(sim: Simulation, seed: u64, workers: u32) -> Self {
        assert!(workers >= 1, "a cluster needs at least one worker");
        Self {
            sim,
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

    /// The worker that owns `node`'s authoritative state.
    #[must_use]
    pub fn node_owner(&self, node: NodeId) -> PeerId {
        owner(node, self.workers)
    }
}

/// The worker of `workers` that owns `node`: `1 + node mod workers`.
pub(crate) fn owner(node: NodeId, workers: u32) -> PeerId {
    PeerId(1 + (node.index() as u32 % workers))
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

pub(crate) fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
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

pub(crate) fn body_u32(v: u32) -> Vec<u8> {
    let mut w = Writer::with_capacity(4);
    w.u32(v);
    w.into_bytes()
}

pub(crate) fn body_u64(v: u64) -> Vec<u8> {
    let mut w = Writer::with_capacity(8);
    w.u64(v);
    w.into_bytes()
}

pub(crate) fn read_u32(body: &[u8]) -> io::Result<u32> {
    decode_body(body, "u32", Reader::u32)
}

pub(crate) fn read_u64(body: &[u8]) -> io::Result<u64> {
    decode_body(body, "u64", Reader::u64)
}

pub(crate) fn body_node_bytes(node: u32, bytes: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + bytes.len());
    w.u32(node);
    w.bytes(bytes);
    w.into_bytes()
}

pub(crate) fn read_node_bytes(body: &[u8]) -> io::Result<(u32, Vec<u8>)> {
    decode_body(body, "node snapshot", |r| {
        Some((r.u32()?, r.bytes()?.to_vec()))
    })
}

/// A `DISPATCH` body: the contact index, then one flags byte holding
/// the contact's resets (bit 0 endpoint `a`, bit 1 endpoint `b`).
pub(crate) fn body_dispatch(index: u64, [a, b]: [bool; 2]) -> Vec<u8> {
    let mut w = Writer::with_capacity(9);
    w.u64(index);
    w.u8(u8::from(a) | u8::from(b) << 1);
    w.into_bytes()
}

pub(crate) fn read_dispatch(body: &[u8]) -> io::Result<(u64, [bool; 2])> {
    decode_body(body, "dispatch", |r| {
        let (index, flags) = (r.u64()?, r.u8()?);
        (flags <= 0b11).then_some((index, [flags & 1 == 1, flags & 2 == 2]))
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
        STATS_REQUEST if rest.is_empty() => Ok((op, None)),
        STATS_REQUEST => Err(bad("STATS request carries a payload")),
        STATS_DELTA | STATS_FINAL => ProfReport::decode(rest)
            .map(|report| (op, Some(report)))
            .ok_or_else(|| bad("malformed STATS report")),
        other => Err(bad(format!("unknown STATS op {other}"))),
    }
}

/// One executed contact, as shipped in a `RESULT` frame: the
/// exchange's scalar costs plus its delivery events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ExchangeOutcome {
    pub index: u64,
    pub forwardings: u64,
    pub control_bytes: u64,
    pub data_bytes: u64,
    pub injections: u64,
    pub false_injections: u64,
    /// `(message id, consumer, genuine)` in execution order.
    pub deliveries: Vec<(u64, u32, bool)>,
}

impl ExchangeOutcome {
    pub fn encode(&self) -> Vec<u8> {
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

    pub fn decode(body: &[u8]) -> io::Result<Self> {
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
    pub fn as_costs(&self) -> SimReport {
        SimReport {
            forwardings: self.forwardings,
            control_bytes: self.control_bytes,
            data_bytes: self.data_bytes,
            injections: self.injections,
            false_injections: self.false_injections,
            ..SimReport::default()
        }
    }
}

// ---- worker -----------------------------------------------------------

/// Runs worker `worker` (1-based, ≤ `spec.workers`) until the
/// coordinator sends `DONE`. Blocks for the whole run, which is one
/// loop: read one frame, hand it to the worker's `WorkerCore`, and
/// send what the core returns.
///
/// # Errors
///
/// Connection failures, malformed frames, a frame the worker's
/// bookkeeping contradicts (a grant its head contact does not await, a
/// snapshot request or return for a node it does not own, a dispatch
/// whose endpoint `a` it does not own), a protocol that cannot
/// export/import state, a closed link to the coordinator, or no frame
/// for longer than the stall timeout (naming what the worker awaits).
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
    // Then wait for the peers above to dial in (coordinator plus every
    // other worker): an executor's first STATE_REQ needs its link.
    pm.await_connections(spec.workers as usize, ASSEMBLY)?;

    // With the plane on, the core profiles each exchange step into the
    // sink before its RESULT goes out: once the coordinator holds every
    // result, the drain-time STATS collection misses no contact.
    let protocol = factory.build(spec.seed);
    let mut core = WorkerCore::new(&spec.sim, local, spec.workers, protocol, pm.metrics());
    let to_coordinator = |kind, body| pm.send(COORDINATOR, Frame::new(kind, body));
    let (mut last_frame, mut last_stats) = (Instant::now(), Instant::now());
    let mut stats_done = false;
    // Returning drops the manager, which closes every link.
    loop {
        // Cadence shipping: piggybacked on the loop, so the effective
        // granularity is bounded by POLL. Stops once the final delta
        // has been surrendered, keeping the coordinator's merged total
        // stable from then on.
        let cadence = spec.stats_cadence.filter(|_| !stats_done);
        if cadence.is_some_and(|cadence| last_stats.elapsed() >= cadence) {
            last_stats = Instant::now();
            let delta = pm.metrics().take_delta();
            if !delta.is_empty() {
                to_coordinator(FrameKind::Stats, body_stats(STATS_DELTA, Some(&delta)))?;
            }
        }
        let Some((from, frame)) = pm.recv_any(POLL) else {
            if last_frame.elapsed() > STALL {
                let owed = format!("worker {worker}: {}, stats_done={stats_done}", core.owed());
                let message = format!("no frame for {STALL:?} ({owed})");
                return Err(io::Error::new(io::ErrorKind::TimedOut, message));
            }
            continue;
        };
        last_frame = Instant::now();
        // A worker's close is the coordinator's to name; the
        // coordinator's own close ends the run.
        let frame = match frame {
            Some(frame) => frame,
            None if from == COORDINATOR => {
                let message = format!("coordinator closed its link (worker {worker})");
                return Err(io::Error::new(io::ErrorKind::ConnectionAborted, message));
            }
            None => continue,
        };
        match frame.kind {
            // Surrender the final delta, even an empty one: the
            // coordinator counts replies, and once it holds all W
            // finals, nothing is still in flight.
            FrameKind::Stats if read_stats(&frame.body)?.0 == STATS_REQUEST => {
                let delta = pm.metrics().take_delta();
                stats_done = true;
                to_coordinator(FrameKind::Stats, body_stats(STATS_FINAL, Some(&delta)))?;
            }
            FrameKind::Done => return Ok(()),
            _ => {
                for (to, frame) in core.handle(from, &frame)? {
                    pm.send(to, frame)?;
                }
            }
        }
    }
}

// ---- coordinator ------------------------------------------------------

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
/// worker, a worker's closed link (the error names the worker and the
/// contacts pending on it), or a worker that stays connected but
/// silent for longer than the stall timeout.
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
/// The run is one loop: act on the `ClusterCore`'s next action, or
/// read one frame and feed it to the core. The loop itself keeps only
/// what needs a clock or a socket: exchange timing, the stats plane
/// and the stall check.
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
    let addr = peer_addr(dir, COORDINATOR);
    let pm = PeerManager::bind(PeerConfig::new(COORDINATOR, addr, spec.seed))?;
    if let Some(stats) = &stats {
        stats.enable();
        pm.metrics().enable();
    }
    pm.await_connections(spec.workers as usize, ASSEMBLY)?;

    let cadence = spec.stats_cadence.unwrap_or(POLL);
    let mut core = ClusterCore::new(&spec.sim, spec.workers);
    // Sends to one worker, or to all for `None`. A link that is gone is
    // that worker's close, which its notice would report a moment later.
    let send = |core: &ClusterCore<'_>, to: Option<PeerId>, frame: Frame| {
        let mut to = to.map_or(1..=spec.workers, |p| p.0..=p.0).map(PeerId);
        to.try_for_each(|peer| pm.send(peer, frame.clone()).map_err(|_| core.closed(peer)))
    };
    // A contact's dispatch time while it is out, its latency once back.
    let mut exchange_ns = vec![0; spec.sim.trace().len()];
    let (mut last_frame, mut last_stats) = (Instant::now(), Instant::now());
    // The final STATS collection: once the core has finished, ask every
    // worker for its final delta, and finish when all have replied.
    // Receipt is the flush guarantee — once the last final is in, the
    // merged report covers every contact and every cadence delta.
    let (mut finals_asked, mut finals) = (false, 0u32);
    loop {
        if let Some(stats) = stats.as_ref().filter(|_| last_stats.elapsed() >= cadence) {
            last_stats = Instant::now();
            let delta = pm.metrics().take_delta();
            stats.record(|r| r.merge(&delta));
        }
        let out = match core.next() {
            Action::Dispatch {
                index,
                executor,
                resets,
            } => {
                exchange_ns[index as usize] = started.elapsed().as_nanos() as u64;
                let body = body_dispatch(index, resets);
                Some((Some(executor), Frame::new(FrameKind::Dispatch, body)))
            }
            Action::Advance(count) => Some((None, Frame::new(FrameKind::Advance, body_u64(count)))),
            Action::Finished if stats.is_none() || finals == spec.workers => break,
            Action::Finished if !finals_asked => {
                finals_asked = true;
                let body = body_stats(STATS_REQUEST, None);
                Some((None, Frame::new(FrameKind::Stats, body)))
            }
            Action::Finished | Action::Wait => None,
        };
        if let Some((to, frame)) = out {
            send(&core, to, frame)?;
            continue;
        }
        let Some((from, frame)) = pm.recv_any(POLL) else {
            if last_frame.elapsed() > STALL {
                let owed = core.owed();
                let message = format!("no progress for {STALL:?} ({owed}, {finals} stats finals)");
                return Err(io::Error::new(io::ErrorKind::TimedOut, message));
            }
            continue;
        };
        last_frame = Instant::now();
        let frame = frame.ok_or_else(|| core.closed(from))?;
        match frame.kind {
            FrameKind::ExchangeResult => {
                let outcome = ExchangeOutcome::decode(&frame.body)?;
                let index = outcome.index as usize;
                core.result(from, outcome)?;
                let ns = started.elapsed().as_nanos() as u64 - exchange_ns[index];
                obs::observe_ns(TimeHist::NetExchangeNs, ns);
                pm.metrics()
                    .record(|r| r.record_time(TimeHist::NetExchangeNs, ns));
                exchange_ns[index] = ns;
            }
            FrameKind::NodeFree => core.node_free(from, read_u32(&frame.body)?)?,
            FrameKind::PublishOk => core.publish_ok(from, read_u64(&frame.body)?)?,
            FrameKind::Stats => {
                let (op, report) = read_stats(&frame.body)?;
                let (Some(stats), Some(report)) = (&stats, report) else {
                    return Err(bad("coordinator got a STATS request, or its plane is off"));
                };
                stats.record(|r| r.merge(&report));
                pm.metrics()
                    .record(|r| r.add_counter(Counter::NetStatsFrames, 1));
                finals += u32::from(op == STATS_FINAL);
            }
            other => return Err(bad(format!("coordinator got unexpected {other:?} frame"))),
        }
    }
    if let Some(stats) = &stats {
        let delta = pm.metrics().take_delta();
        stats.record(|r| r.merge(&delta));
    }
    send(&core, None, Frame::new(FrameKind::Done, Vec::new()))?;
    for worker in 1..=spec.workers {
        // Flush the queue and half-close so DONE is guaranteed out
        // before the manager shuts down.
        pm.drain(PeerId(worker));
    }
    Ok(ClusterOutcome {
        report: core.finish(&name),
        exchange_ns,
        wall: started.elapsed(),
        cluster_metrics: stats.map(|stats| stats.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_traces::SimDuration;

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

    /// DESIGN.md §12.3: the contact index as u64 LE, then one flags
    /// byte (bit 0 resets `contact.a`, bit 1 resets `contact.b`).
    #[test]
    fn dispatch_bytes_are_pinned() {
        let both = [true, true];
        assert_eq!(body_dispatch(0x0102, both), [2, 1, 0, 0, 0, 0, 0, 0, 0b11]);
        assert_eq!(body_dispatch(7, [false; 2]), [7, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(body_dispatch(7, [true, false]), [7, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(body_dispatch(7, [false, true]), [7, 0, 0, 0, 0, 0, 0, 0, 2]);
        for resets in [[false; 2], [true, false], [false, true], both] {
            assert_eq!(
                read_dispatch(&body_dispatch(u64::MAX, resets)).unwrap(),
                (u64::MAX, resets)
            );
        }
        let invalid = |body: &[u8]| {
            read_dispatch(body).map_err(|e| e.kind()).unwrap_err() == io::ErrorKind::InvalidData
        };
        assert!(invalid(&[2, 1, 0, 0, 0, 0, 0, 0, 0b11, 0]), "trailing byte");
        assert!(invalid(&[2, 1, 0, 0, 0, 0, 0, 0]), "no flags byte");
        assert!(invalid(&[2, 1, 0, 0]), "truncated index");
        assert!(invalid(&[]), "empty body");
        for bits in [0b100, 0b111, 0x80, 0xFF] {
            assert!(invalid(&[2, 1, 0, 0, 0, 0, 0, 0, bits]), "flags {bits:#b}");
        }
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
        let subs = bsub_sim::SubscriptionTable::new(nodes);
        let sim = Simulation::new(
            trace,
            subs,
            Vec::<bsub_sim::GeneratedMessage>::new(),
            bsub_sim::SimConfig::default(),
        );
        let spec = ClusterSpec::new(sim, 7, 3);
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
