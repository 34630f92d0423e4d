//! The live broker service: a `bsub_match::MatchIndex` served over
//! the peer state machine (DESIGN.md §16).
//!
//! The broker's decisions live in one pure type, [`BrokerCore`]: the
//! match index plus a coarse deadline wheel, with no sockets and no
//! clock of its own. [`BrokerCore::apply`] takes the broker time and a
//! batch of client inputs ([`BrokerOp`]) and returns the [`Effects`]:
//! the subscribers the wheel evicted and the recipients of each
//! publish. The same inputs always give the same effects, so serving,
//! journal replay and the socket-free tests share one apply path.
//!
//! A [`BrokerNode`] binds a [`PeerManager`] and runs one **service
//! thread** through read → apply → send:
//!
//! 1. **Read.** Inbound `SUBSCRIBE` / `UNSUBSCRIBE` / `PUBLISH` frames
//!    are decoded into one batch of ops (the first frame blocking up
//!    to the poll slice, the rest opportunistically, capped at 256).
//! 2. **Apply.** When ops arrived or a wheel bucket is due, the thread
//!    locks the core and calls [`BrokerCore::apply`]. It first evicts
//!    the subscribers whose wheel bucket came due, then applies the ops
//!    in arrival order. Consecutive publishes are matched through
//!    **one** [`MatchIndex::match_events`] call, flushed at every
//!    subscribe or unsubscribe, so batching never reorders ops.
//! 3. **Send.** With the lock released, each matched publish is
//!    encoded once and fanned out as `DELIVER` frames on the bounded
//!    outbound queues. A slow subscriber can block this send, but never
//!    while the core is locked.
//!
//! Subscriptions carry *real-clock* deadlines — the simulator's epoch
//! decay replaced by wall time. The wheel holds at most one entry per
//! subscriber: a TTL resubscribe moves it, and an unsubscribe or an
//! open-ended resubscribe removes it, so no client stream can grow it.
//!
//! Exactness is anchored by the **journal of inputs**: when
//! [`BrokerConfig::journal`] is set, the broker records each `apply`
//! call's `(now_ms, ops)` in order. Replaying that journal through a
//! fresh [`BrokerCore`] reproduces the broker's effects, which
//! `tests/broker.rs` checks against [`bsub_match::ReferenceMatcher`]
//! (Bloom false positives included) and against what every socket
//! client actually received.
//!
//! Everything here is `std`-only: blocking sockets, one service
//! thread, no async runtime.

use crate::frame::{Frame, FrameKind};
use crate::peer::{PeerConfig, PeerId, PeerManager};
use crate::transport::EndpointAddr;
use bsub_match::{Event, IndexState, MatchIndex, MatchParams};
use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// `SUBSCRIBE` body: a TTL and the key set (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  ttl_ms   — u64 LE; 0 = no deadline
///      8     4  keys     — key count, u32 LE
///     12     …  per key: len u32 LE, then len bytes (UTF-8)
/// ```
///
/// A client's new `SUBSCRIBE` *replaces* its previous one (same
/// semantics as [`MatchIndex::subscribe`] under one id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeBody {
    /// Time-to-live in milliseconds on the broker's clock; 0 keeps the
    /// subscription until unsubscribe or disconnect.
    pub ttl_ms: u64,
    /// The subscribed content keys.
    pub keys: Vec<String>,
}

impl SubscribeBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w =
            Writer::with_capacity(12 + self.keys.iter().map(|k| 4 + k.len()).sum::<usize>());
        w.u64(self.ttl_ms);
        w.u32(self.keys.len() as u32);
        for key in &self.keys {
            w.str(key);
        }
        w.into_bytes()
    }

    /// Decodes a body; `None` on truncation, trailing bytes,
    /// non-UTF-8 keys, or a key count the body is too short to hold.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let ttl_ms = r.u64()?;
        let keys = (0..r.count(4)?)
            .map(|_| r.str().map(str::to_owned))
            .collect::<Option<_>>()?;
        r.finish()?;
        Some(Self { ttl_ms, keys })
    }
}

/// `PUBLISH` body: one keyed event (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  seq      — publisher-chosen sequence id, u64 LE
///      8     8  sent_ns  — publisher's UNIX-epoch send time, u64 LE
///     16     4  len      — key length, u32 LE
///     20   len  key      — UTF-8 bytes
/// ```
///
/// `seq` and `sent_ns` are opaque to the broker and echoed verbatim in
/// every `DELIVER` the publish produces: `seq` lets a test key
/// deliveries to publishes, `sent_ns` lets a same-host subscriber
/// compute publish→deliver latency without clock exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishBody {
    /// Publisher-chosen sequence id, echoed in deliveries.
    pub seq: u64,
    /// Publisher's send timestamp (UNIX nanos), echoed in deliveries.
    pub sent_ns: u64,
    /// The event's content key.
    pub key: String,
}

impl PublishBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(20 + self.key.len());
        w.u64(self.seq);
        w.u64(self.sent_ns);
        w.str(&self.key);
        w.into_bytes()
    }

    /// Decodes a body; `None` on truncation, trailing bytes, or a
    /// non-UTF-8 key.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let seq = r.u64()?;
        let sent_ns = r.u64()?;
        let key = r.str()?.to_owned();
        r.finish()?;
        Some(Self { seq, sent_ns, key })
    }
}

/// `DELIVER` body: one matched publication (DESIGN.md §16.2).
///
/// ```text
/// offset  size  field
///      0     8  seq        — echoed from the PUBLISH, u64 LE
///      8     8  sent_ns    — echoed from the PUBLISH, u64 LE
///     16     4  publisher  — publishing peer id, u32 LE
///     20     4  len        — key length, u32 LE
///     24   len  key        — UTF-8 bytes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverBody {
    /// The publisher's sequence id.
    pub seq: u64,
    /// The publisher's send timestamp (UNIX nanos).
    pub sent_ns: u64,
    /// The publishing peer.
    pub publisher: u32,
    /// The event's content key.
    pub key: String,
}

impl DeliverBody {
    /// Encodes the body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(24 + self.key.len());
        w.u64(self.seq);
        w.u64(self.sent_ns);
        w.u32(self.publisher);
        w.str(&self.key);
        w.into_bytes()
    }

    /// Decodes a body; `None` on truncation, trailing bytes, or a
    /// non-UTF-8 key.
    #[must_use]
    pub fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let seq = r.u64()?;
        let sent_ns = r.u64()?;
        let publisher = r.u32()?;
        let key = r.str()?.to_owned();
        r.finish()?;
        Some(Self {
            seq,
            sent_ns,
            publisher,
            key,
        })
    }
}

/// A coarse monotonic timer wheel over subscription deadlines, holding
/// at most one pending entry per subscriber.
///
/// Deadlines (broker-monotonic milliseconds) are bucketed at `tick_ms`
/// granularity: bucket `b` holds every deadline in
/// `[b·tick, (b+1)·tick)`. [`ClockWheel::pop_due`] drains only buckets
/// **strictly below** `now / tick`, so every popped entry's deadline
/// is `< ⌊now/tick⌋·tick ≤ now` — definitely due.
#[derive(Debug)]
struct ClockWheel {
    tick_ms: u64,
    /// Pending `(bucket, id)` pairs, in pop order.
    pending: BTreeSet<(u64, u64)>,
    /// The bucket of each pending id.
    bucket_of: HashMap<u64, u64>,
}

impl ClockWheel {
    /// An empty wheel with `tick_ms` bucket granularity (minimum 1).
    fn new(tick_ms: u64) -> Self {
        Self {
            tick_ms: tick_ms.max(1),
            pending: BTreeSet::new(),
            bucket_of: HashMap::new(),
        }
    }

    /// Schedules `id` for expiry at `deadline_ms`, replacing its
    /// pending entry if it has one.
    fn schedule(&mut self, id: u64, deadline_ms: u64) {
        self.cancel(id);
        let bucket = deadline_ms / self.tick_ms;
        self.pending.insert((bucket, id));
        self.bucket_of.insert(id, bucket);
    }

    /// Drops `id`'s pending entry, if any.
    fn cancel(&mut self, id: u64) {
        if let Some(bucket) = self.bucket_of.remove(&id) {
            self.pending.remove(&(bucket, id));
        }
    }

    /// Whether some bucket lies strictly below the current tick.
    fn is_due(&self, now_ms: u64) -> bool {
        self.pending
            .first()
            .is_some_and(|&(bucket, _)| bucket < now_ms / self.tick_ms)
    }

    /// Drains every id whose bucket lies strictly below the current
    /// tick — all of them provably at or past their deadline.
    fn pop_due(&mut self, now_ms: u64) -> Vec<u64> {
        let mut due = Vec::new();
        while self.is_due(now_ms) {
            let (_, id) = self.pending.pop_first().expect("a due entry");
            self.bucket_of.remove(&id);
            due.push(id);
        }
        due
    }

    /// Pending entries: one per subscriber with a deadline.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.pending.len()
    }
}

/// One client input to the broker, in arrival order: what
/// [`BrokerCore::apply`] consumes and what the journal records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerOp {
    /// A `SUBSCRIBE` from the client with this peer id; it replaces
    /// the client's previous subscription.
    Subscribe(u32, SubscribeBody),
    /// An `UNSUBSCRIBE` from the client with this peer id.
    Unsubscribe(u32),
    /// A `PUBLISH` from the client with this peer id.
    Publish(u32, PublishBody),
}

/// What one [`BrokerCore::apply`] call decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// One entry per publish, in arrival order: the `DELIVER` body and
    /// the matched subscriber ids, ascending (empty when none matched).
    pub delivered: Vec<(DeliverBody, Vec<u64>)>,
    /// Subscribers the wheel evicted before the ops were applied, in
    /// eviction order.
    pub evicted: Vec<u64>,
}

/// The broker's state and its one apply path: the match index and the
/// deadline wheel, with no sockets and no clock of its own.
#[derive(Debug)]
pub struct BrokerCore {
    index: MatchIndex,
    wheel: ClockWheel,
}

impl BrokerCore {
    /// An empty core with index geometry `params` and a `tick_ms` wheel
    /// tick (minimum 1).
    #[must_use]
    pub fn new(params: MatchParams, tick_ms: u64) -> Self {
        Self {
            index: MatchIndex::new(params),
            wheel: ClockWheel::new(tick_ms),
        }
    }

    /// The match index, read-only.
    #[must_use]
    pub fn index(&self) -> &MatchIndex {
        &self.index
    }

    /// Whether an `apply` at `now_ms` would find a wheel bucket due.
    #[must_use]
    pub fn has_due(&self, now_ms: u64) -> bool {
        self.wheel.is_due(now_ms)
    }

    /// Applies `ops` at broker time `now_ms`.
    ///
    /// A subscription with `ttl_ms > 0` gets the deadline
    /// `now_ms + ttl_ms` and is evicted by the first `apply` whose
    /// `now_ms / tick` exceeds `deadline / tick`: after its deadline
    /// and at most one tick later. The evictions happen
    /// first; the ops then apply in arrival order, each run of
    /// consecutive publishes matched by one `match_events` call.
    pub fn apply(&mut self, now_ms: u64, ops: Vec<BrokerOp>) -> Effects {
        let started = Instant::now();
        let op_count = ops.len() as u64;
        let mut effects = Effects::default();
        for id in self.wheel.pop_due(now_ms) {
            if self.index.expire_candidates(&[id], now_ms) == 1 {
                effects.evicted.push(id);
            }
        }
        if !effects.evicted.is_empty() {
            obs::count(Counter::BrokerExpired, effects.evicted.len() as u64);
        }

        let mut ops = ops.into_iter().peekable();
        while let Some(op) = ops.next() {
            match op {
                BrokerOp::Publish(client, body) => {
                    // This publish starts a run that ends at the next
                    // subscribe or unsubscribe; one `match_events` call
                    // matches the whole run.
                    let mut run = vec![(client, body)];
                    while let Some(BrokerOp::Publish(client, body)) =
                        ops.next_if(|op| matches!(op, BrokerOp::Publish(..)))
                    {
                        run.push((client, body));
                    }
                    let events: Vec<Event> = run.iter().map(|(_, b)| Event::new(&*b.key)).collect();
                    let set = self.index.match_events(&events);
                    obs::count(Counter::BrokerPublishes, run.len() as u64);
                    for ((publisher, body), matched) in run.into_iter().zip(set.matches) {
                        obs::count(Counter::BrokerDeliveries, matched.len() as u64);
                        let deliver = DeliverBody {
                            seq: body.seq,
                            sent_ns: body.sent_ns,
                            publisher,
                            key: body.key,
                        };
                        effects.delivered.push((deliver, matched));
                    }
                }
                BrokerOp::Subscribe(client, body) => {
                    obs::count(Counter::BrokerSubscribes, 1);
                    let id = u64::from(client);
                    if body.ttl_ms == 0 {
                        self.index.subscribe(id, &body.keys);
                        self.wheel.cancel(id);
                    } else {
                        let deadline = now_ms.saturating_add(body.ttl_ms);
                        self.index.subscribe_until(id, &body.keys, deadline);
                        self.wheel.schedule(id, deadline);
                    }
                }
                BrokerOp::Unsubscribe(client) => {
                    let id = u64::from(client);
                    self.wheel.cancel(id);
                    if self.index.purge(id) {
                        obs::count(Counter::BrokerUnsubscribes, 1);
                    }
                }
            }
        }

        obs::count(Counter::BrokerBatches, 1);
        obs::observe(SizeHist::BrokerBatchOps, op_count);
        obs::observe_ns(TimeHist::BrokerBatchNs, started.elapsed().as_nanos() as u64);
        effects
    }
}

/// Most ops drained into one service-loop batch.
const BATCH_MAX: usize = 256;

/// How long the service loop blocks for the first frame of a batch
/// (also bounds shutdown latency).
const POLL: Duration = Duration::from_millis(5);

/// Configuration of a [`BrokerNode`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// The peer-layer configuration (identity, listen address, dial
    /// backoff seed).
    pub peer: PeerConfig,
    /// Geometry and policy of the owned [`MatchIndex`].
    pub params: MatchParams,
    /// Clock-wheel tick: expiry lags a deadline by at most one tick.
    pub tick: Duration,
    /// Record the journal of inputs for replay (tests only — the
    /// journal grows without bound).
    pub journal: bool,
}

impl BrokerConfig {
    /// Defaults: 100 ms wheel tick, no journal, default index
    /// geometry.
    #[must_use]
    pub fn new(local: PeerId, addr: EndpointAddr, seed: u64) -> Self {
        Self {
            peer: PeerConfig::new(local, addr, seed),
            params: MatchParams::default(),
            tick: Duration::from_millis(100),
            journal: false,
        }
    }
}

/// Every `apply` call's `(now_ms, ops)`, in order.
type Journal = Vec<(u64, Vec<BrokerOp>)>;

/// The core and its journal, behind the one mutex the service thread
/// applies under.
#[derive(Debug)]
struct Served {
    core: BrokerCore,
    /// `Some` when [`BrokerConfig::journal`] is set.
    journal: Option<Journal>,
}

/// A live broker: a bound [`PeerManager`] plus the service thread that
/// drives the [`BrokerCore`]. See the module docs for the service cycle.
#[derive(Debug)]
pub struct BrokerNode {
    peers: Arc<PeerManager>,
    served: Arc<Mutex<Served>>,
    stop: Arc<AtomicBool>,
    service: Option<JoinHandle<()>>,
}

impl BrokerNode {
    /// Binds the configured address and starts the service thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve(config: BrokerConfig) -> io::Result<Self> {
        let peers = PeerManager::bind(config.peer.clone())?;
        let served = Arc::new(Mutex::new(Served {
            core: BrokerCore::new(config.params, config.tick.as_millis() as u64),
            journal: config.journal.then(Vec::new),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let service = {
            let peers = Arc::clone(&peers);
            let served = Arc::clone(&served);
            let stop = Arc::clone(&stop);
            thread::spawn(move || service_loop(&peers, &served, &stop))
        };
        Ok(Self {
            peers,
            served,
            stop,
            service: Some(service),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Served> {
        self.served.lock().expect("core lock")
    }

    /// The broker's peer manager (for metrics, state, shutdown).
    #[must_use]
    pub fn manager(&self) -> &Arc<PeerManager> {
        &self.peers
    }

    /// Live subscriber count of the owned index.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.lock().core.index().live_count()
    }

    /// Exports the live index state (checkpointing — see
    /// `bsub_core::snapshot::encode_match_index` for the byte codec).
    #[must_use]
    pub fn export_index(&self) -> IndexState {
        self.lock().core.index().export_state()
    }

    /// The journal of inputs recorded so far: each `apply` call's
    /// `(now_ms, ops)`, in order (empty unless [`BrokerConfig::journal`]
    /// was set). Replaying it through a fresh [`BrokerCore`] with the
    /// same params and tick reproduces every effect.
    #[must_use]
    pub fn journal(&self) -> Journal {
        self.lock().journal.clone().unwrap_or_default()
    }

    /// Stops the service thread (after it finishes its current cycle)
    /// and tears down every connection.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.service.take() {
            let _ = handle.join();
        }
        self.peers.shutdown();
    }
}

impl Drop for BrokerNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn service_loop(peers: &PeerManager, served: &Mutex<Served>, stop: &AtomicBool) {
    // The clock subscription deadlines are measured against.
    let started = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        // Read one batch: block briefly for the first op, then sweep
        // whatever else is already queued.
        let mut ops: Vec<BrokerOp> = Vec::new();
        if let Some(op) = next_op(peers, POLL) {
            ops.push(op);
            while ops.len() < BATCH_MAX {
                match next_op(peers, Duration::ZERO) {
                    Some(op) => ops.push(op),
                    None => break,
                }
            }
        }

        let now_ms = started.elapsed().as_millis() as u64;
        let effects = {
            let mut served = served.lock().expect("core lock");
            if ops.is_empty() && !served.core.has_due(now_ms) {
                continue;
            }
            if let Some(journal) = &mut served.journal {
                journal.push((now_ms, ops.clone()));
            }
            // The index's own `match_*` instrumentation is thread-local:
            // while the peer plane's sink is armed, the apply runs under
            // a profiler whose report lands in that sink, so a stats
            // scrape sees broker and socket metrics in one report.
            peers.metrics().profile(|| served.core.apply(now_ms, ops))
        };

        for (deliver, matched) in effects.delivered {
            if matched.is_empty() {
                continue;
            }
            // Every subscriber receives the same bytes: encode once per
            // publish and clone the finished body per delivery.
            let bytes = deliver.encode();
            for subscriber in matched {
                // A subscriber that disconnected mid-flight is not an
                // error; its index entry outlives the socket until an
                // unsubscribe or deadline reaps it.
                let _ = peers.send(
                    PeerId(subscriber as u32),
                    Frame::new(FrameKind::Deliver, bytes.clone()),
                );
            }
        }
    }
}

/// Pulls the next *service-plane* frame; malformed bodies and
/// cluster-plane kinds are dropped (a broker serves clients, not a
/// simulation cluster).
fn next_op(peers: &PeerManager, timeout: Duration) -> Option<BrokerOp> {
    let (from, frame) = peers.recv_timeout(timeout)?;
    match frame.kind {
        FrameKind::Subscribe => {
            SubscribeBody::decode(&frame.body).map(|body| BrokerOp::Subscribe(from.0, body))
        }
        FrameKind::Unsubscribe if frame.body.is_empty() => Some(BrokerOp::Unsubscribe(from.0)),
        FrameKind::Publish => {
            PublishBody::decode(&frame.body).map(|body| BrokerOp::Publish(from.0, body))
        }
        _ => None,
    }
}

/// A delivery received by a [`BrokerClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The decoded `DELIVER` body.
    pub body: DeliverBody,
    /// Receive time (UNIX nanos) on the client's clock, for
    /// publish→deliver latency against [`DeliverBody::sent_ns`].
    pub received_ns: u64,
}

impl Delivery {
    /// Publish→deliver latency in nanoseconds (same-host clocks), 0 if
    /// the clocks disagree.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.received_ns.saturating_sub(self.body.sent_ns)
    }
}

/// A client of a [`BrokerNode`]: its own [`PeerManager`] plus the
/// subscribe/publish/receive conveniences the tests and `broker-bench`
/// share.
#[derive(Debug)]
pub struct BrokerClient {
    peers: Arc<PeerManager>,
    broker: PeerId,
}

impl BrokerClient {
    /// Binds `config`'s address and connects to the broker.
    ///
    /// # Errors
    ///
    /// Propagates bind and dial failures.
    pub fn connect(
        config: PeerConfig,
        broker: PeerId,
        broker_addr: &EndpointAddr,
    ) -> io::Result<Self> {
        let peers = PeerManager::bind(config)?;
        peers.connect(broker, broker_addr)?;
        Ok(Self { peers, broker })
    }

    /// This client's peer id (doubles as its subscriber id).
    #[must_use]
    pub fn local(&self) -> PeerId {
        self.peers.local()
    }

    /// The underlying peer manager.
    #[must_use]
    pub fn manager(&self) -> &Arc<PeerManager> {
        &self.peers
    }

    /// Sends a `SUBSCRIBE` for `keys`, expiring after `ttl` if given.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn subscribe<K: AsRef<str>>(&self, keys: &[K], ttl: Option<Duration>) -> io::Result<()> {
        let body = SubscribeBody {
            ttl_ms: ttl.map_or(0, |t| t.as_millis().max(1) as u64),
            keys: keys.iter().map(|k| k.as_ref().to_string()).collect(),
        };
        self.peers
            .send(self.broker, Frame::new(FrameKind::Subscribe, body.encode()))
    }

    /// Sends an `UNSUBSCRIBE` withdrawing every interest.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn unsubscribe(&self) -> io::Result<()> {
        self.peers
            .send(self.broker, Frame::new(FrameKind::Unsubscribe, Vec::new()))
    }

    /// Publishes `key` under sequence id `seq`, stamped with the
    /// current UNIX time.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn publish(&self, seq: u64, key: &str) -> io::Result<()> {
        let body = PublishBody {
            seq,
            sent_ns: unix_ns(),
            key: key.to_string(),
        };
        self.peers
            .send(self.broker, Frame::new(FrameKind::Publish, body.encode()))
    }

    /// Receives the next delivery, waiting at most `timeout`. Frames
    /// of any other kind are discarded.
    #[must_use]
    pub fn recv_delivery(&self, timeout: Duration) -> Option<Delivery> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (_, frame) = self.peers.recv_timeout(deadline - now)?;
            if frame.kind == FrameKind::Deliver {
                if let Some(body) = DeliverBody::decode(&frame.body) {
                    return Some(Delivery {
                        body,
                        received_ns: unix_ns(),
                    });
                }
            }
        }
    }
}

/// Current UNIX time in nanoseconds, saturating.
#[must_use]
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_round_trip() {
        let sub = SubscribeBody {
            ttl_ms: 1500,
            keys: vec!["news".into(), String::new(), "sports/⚽".into()],
        };
        assert_eq!(SubscribeBody::decode(&sub.encode()), Some(sub.clone()));
        let publ = PublishBody {
            seq: u64::MAX,
            sent_ns: 7,
            key: "news".into(),
        };
        assert_eq!(PublishBody::decode(&publ.encode()), Some(publ.clone()));
        let del = DeliverBody {
            seq: 3,
            sent_ns: 9,
            publisher: 42,
            key: "news".into(),
        };
        assert_eq!(DeliverBody::decode(&del.encode()), Some(del.clone()));
    }

    #[test]
    fn truncated_and_trailing_bodies_reject() {
        let good = SubscribeBody {
            ttl_ms: 10,
            keys: vec!["k".into()],
        }
        .encode();
        assert!(SubscribeBody::decode(&good[..good.len() - 1]).is_none());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(SubscribeBody::decode(&trailing).is_none());
        assert!(PublishBody::decode(&[]).is_none());
        assert!(DeliverBody::decode(&[1, 2, 3]).is_none());
        // A key length pointing past the buffer.
        let mut lying = PublishBody {
            seq: 1,
            sent_ns: 2,
            key: "abc".into(),
        }
        .encode();
        lying[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PublishBody::decode(&lying).is_none());
    }

    #[test]
    fn wheel_pops_only_past_deadlines() {
        let mut wheel = ClockWheel::new(100);
        wheel.schedule(1, 50); // bucket 0
        wheel.schedule(2, 150); // bucket 1
        wheel.schedule(3, 250); // bucket 2
        assert_eq!(wheel.len(), 3);
        assert!(wheel.pop_due(99).is_empty(), "bucket 0 not strictly past");
        assert_eq!(wheel.pop_due(100), vec![1]);
        // now=210 ⇒ current tick 2 ⇒ buckets 0 and 1 drain, 2 stays.
        assert_eq!(wheel.pop_due(210), vec![2]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop_due(10_000), vec![3]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn wheel_popped_entries_are_definitely_due() {
        let mut wheel = ClockWheel::new(64);
        for id in 0..1000u64 {
            wheel.schedule(id, id * 7 % 997);
        }
        let now = 500;
        for id in wheel.pop_due(now) {
            assert!(id * 7 % 997 < now, "popped {id} before its deadline");
        }
    }

    /// A hostile client resubscribing with a deadline that never comes
    /// due (`ttl_ms = u64::MAX` saturates) cannot grow the wheel: each
    /// resubscribe moves the client's one entry.
    #[test]
    fn wheel_holds_one_entry_per_subscriber() {
        let mut core = BrokerCore::new(MatchParams::default(), 100);
        let subscribe = |ttl_ms| {
            vec![BrokerOp::Subscribe(
                7,
                SubscribeBody {
                    ttl_ms,
                    keys: vec!["news".into()],
                },
            )]
        };
        for now in 0..10_000 {
            core.apply(now, subscribe(u64::MAX));
        }
        assert_eq!(core.wheel.len(), 1);
        assert_eq!(core.index().live_count(), 1);
        core.apply(10_000, subscribe(0));
        assert_eq!(core.wheel.len(), 0, "an open-ended resubscribe cancels");
        core.apply(10_001, subscribe(50));
        core.apply(10_002, vec![BrokerOp::Unsubscribe(7)]);
        assert_eq!(core.wheel.len(), 0, "an unsubscribe cancels");
    }
}
