//! The protocol abstraction: how forwarding schemes plug into the
//! simulator.

use crate::fault::{WireCorruption, PPM};
use crate::link::Link;
use crate::message::Message;
use crate::metrics::{DeliveryOutcome, MetricsCollector};
use crate::record::{Recorder, TraceEvent};
use crate::subscriptions::SubscriptionTable;
use bsub_bloom::SplitMix64;
use bsub_obs::{self as obs, Counter};
use bsub_traces::{ContactEvent, NodeId, SimTime};
use std::sync::Arc;

/// The per-contact corruption draw stream attached to a [`SimCtx`]
/// when fault injection is active.
struct CorruptionDraws {
    rng: SplitMix64,
    ppm: u32,
}

/// The simulation context handed to protocol hooks.
///
/// It is the only way a protocol can move bytes or deliver messages,
/// which keeps the accounting honest: every transfer debits the
/// contact's [`Link`] and is recorded by the metrics. It also carries
/// the run's [`Recorder`]; see [`SimCtx::emit`].
pub struct SimCtx<'a> {
    now: SimTime,
    subscriptions: &'a SubscriptionTable,
    metrics: &'a mut MetricsCollector,
    recorder: &'a mut dyn Recorder,
    corruption: Option<CorruptionDraws>,
}

impl std::fmt::Debug for SimCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCtx")
            .field("now", &self.now)
            .field("recording", &self.recorder.is_active())
            .finish_non_exhaustive()
    }
}

impl<'a> SimCtx<'a> {
    pub(crate) fn new(
        now: SimTime,
        subscriptions: &'a SubscriptionTable,
        metrics: &'a mut MetricsCollector,
        recorder: &'a mut dyn Recorder,
    ) -> Self {
        Self {
            now,
            subscriptions,
            metrics,
            recorder,
            corruption: None,
        }
    }

    /// Attaches the contact's corruption draw stream (fault injection
    /// only; without this, [`SimCtx::draw_corruption`] never corrupts).
    pub(crate) fn attach_corruption(&mut self, rng: SplitMix64, ppm: u32) {
        self.corruption = Some(CorruptionDraws { rng, ppm });
    }

    /// Draws the fate of one in-flight control-plane encoding:
    /// `Some(damage)` if fault injection corrupts this transmission.
    ///
    /// Each call consumes a fixed number of draws from the contact's
    /// corruption stream regardless of the verdict, so the stream stays
    /// aligned across corruption intensities (see the `fault` module on
    /// monotonicity). Without an attached stream this is free and
    /// always `None`.
    #[must_use]
    pub fn draw_corruption(&mut self) -> Option<WireCorruption> {
        let draws = self.corruption.as_mut()?;
        obs::count(Counter::FaultCorruptionDraw, 1);
        let verdict = draws.rng.below(u64::from(PPM)) < u64::from(draws.ppm);
        let flip = draws.rng.next_bool();
        let position = draws.rng.next_u64();
        if !verdict {
            return None;
        }
        Some(if flip {
            WireCorruption::BitFlip { bit: position }
        } else {
            WireCorruption::Truncate {
                keep_ppm: (position % u64::from(PPM)) as u32,
            }
        })
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ground-truth subscription table.
    ///
    /// Protocols may consult it only for a node's *own* interests (a
    /// consumer knows what it subscribed to); routing state must be
    /// carried in filters or other protocol messages. The borrow is the
    /// run's, not the context's, so a node's interests stay readable
    /// across the context's `&mut` calls.
    #[must_use]
    pub fn subscriptions(&self) -> &'a SubscriptionTable {
        self.subscriptions
    }

    /// Emits a trace event to the run's [`Recorder`].
    ///
    /// The event is built lazily: `make` runs only when the recorder is
    /// active, so with the default [`crate::NullRecorder`] an emission
    /// site costs a single branch and never constructs the event. Emit
    /// *after* applying the state change the event describes — a
    /// recorder must observe the run, never steer it.
    pub fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.recorder.is_active() {
            let event = make();
            self.recorder.record(&event);
        }
    }

    /// Sends `bytes` of control traffic (filters, beacons, requests)
    /// over the link. Returns whether it fit in the remaining budget.
    pub fn send_control(&mut self, link: &mut Link, bytes: u64) -> bool {
        if link.try_transfer(bytes) {
            self.metrics.on_control(bytes);
            obs::count(Counter::ControlBytes, bytes);
            true
        } else {
            false
        }
    }

    /// Transmits one message over the link (a *forwarding*). Returns
    /// whether it fit in the remaining budget. Emits
    /// [`TraceEvent::Forwarded`] on success.
    pub fn transfer_message(&mut self, link: &mut Link, msg: &Message) -> bool {
        if link.try_transfer(u64::from(msg.size)) {
            self.metrics.on_forwarding(u64::from(msg.size));
            obs::count(Counter::DataBytes, u64::from(msg.size));
            let (at, id, bytes) = (self.now, msg.id, u64::from(msg.size));
            self.emit(|| TraceEvent::Forwarded { at, msg: id, bytes });
            true
        } else {
            false
        }
    }

    /// Records a relay injection (a copy accepted by `broker` because a
    /// filter matched), with `false_positive` flagging pure Bloom-FP
    /// acceptances — see [`MetricsCollector::on_injection`]. Emits
    /// [`TraceEvent::Injected`].
    pub fn record_injection(&mut self, broker: NodeId, msg: &Message, false_positive: bool) {
        self.metrics.on_injection(false_positive);
        let (at, id) = (self.now, msg.id);
        self.emit(|| TraceEvent::Injected {
            at,
            msg: id,
            broker,
            false_positive,
        });
    }

    /// Hands `msg` to consumer `to` (the final step of forwarding; the
    /// transmission itself must have been paid for with
    /// [`SimCtx::transfer_message`] by the caller, except for a node
    /// consuming a message out of its own store).
    ///
    /// Ground truth decides whether the delivery is genuine or a false
    /// positive of the protocol's filter chain. First deliveries emit
    /// [`TraceEvent::Delivered`].
    pub fn deliver(&mut self, to: NodeId, msg: &Message) -> DeliveryOutcome {
        let genuine = self.subscriptions.is_interested(to, &msg.key);
        let outcome = self.metrics.on_delivery(msg, to, self.now, genuine);
        if matches!(
            outcome,
            DeliveryOutcome::Genuine | DeliveryOutcome::FalsePositive
        ) {
            let (at, id) = (self.now, msg.id);
            self.emit(|| TraceEvent::Delivered {
                at,
                msg: id,
                node: to,
                genuine,
            });
        }
        outcome
    }
}

/// A forwarding protocol under simulation.
///
/// One instance owns the state of *all* nodes (each run is
/// single-threaded and contact-driven); hooks receive the node ids
/// involved and must keep per-node state internally.
///
/// The `Any + Send` supertraits let the sweep executor move a boxed
/// protocol to a worker thread and let callers downcast the finished
/// instance (returned by [`crate::Simulation::run_factory`]) to read
/// protocol-specific statistics after a run.
pub trait Protocol: std::any::Any + Send {
    /// Short name used in reports (e.g. `"B-SUB"`, `"PUSH"`).
    fn name(&self) -> &str;

    /// A producer published `msg` at `ctx.now()`. The message is
    /// already accounted as generated; the protocol should store it
    /// for forwarding. Payloads are shared: keep the `Arc`, don't copy
    /// the message.
    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: &Arc<Message>);

    /// Nodes `contact.a` and `contact.b` are in range for the span of
    /// `contact`; `link` is the byte budget of the encounter.
    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link);

    /// Fault injection: `node` rejoined after downtime and must drop
    /// its buffered copies and volatile routing state (keeping only
    /// what would survive a device restart, e.g. its own
    /// subscriptions). The default is a no-op for stateless protocols.
    fn on_node_reset(&mut self, _ctx: &mut SimCtx<'_>, _node: NodeId) {}

    /// Networked-execution capability: serializes `node`'s complete
    /// per-node state to a portable byte snapshot that a *different
    /// process* running a sibling instance of the same concrete
    /// protocol can absorb via [`Protocol::import_node`].
    ///
    /// The snapshot must be self-contained bytes: the two instances
    /// share no heap. `None` means the protocol does not support
    /// networked state shipping; the default is `None`.
    ///
    /// The round-trip contract is exactness: importing an exported
    /// snapshot must leave the receiving instance's behavior (every
    /// future forwarding decision, filter bit, and counter) identical
    /// to the exporting instance's. `bsub-net` relies on this to
    /// reproduce simulator figure CSVs byte-for-byte over sockets.
    fn export_node(&self, _node: NodeId) -> Option<Vec<u8>> {
        None
    }

    /// Replaces `node`'s state with a snapshot previously produced by
    /// [`Protocol::export_node`] on a sibling instance (possibly in
    /// another process). Returns `false` when the protocol does not
    /// support networked state shipping or the snapshot is malformed.
    fn import_node(&mut self, _node: NodeId, _bytes: &[u8]) -> bool {
        false
    }
}

/// Builds fresh [`Protocol`] instances, one per run.
///
/// A [`crate::Simulation`] plus a factory fully describes an
/// independent run: the simulation owns the shared inputs, the factory
/// constructs the per-run mutable state. Factories are `Send + Sync`
/// so one factory can serve many worker threads; `seed` is the run's
/// explicitly derived seed (deterministic protocols may ignore it).
///
/// Any `Fn(u64) -> Box<dyn Protocol> + Send + Sync` closure is a
/// factory:
///
/// ```
/// use bsub_sim::{NullProtocol, Protocol, ProtocolFactory};
///
/// let factory = |_seed: u64| Box::new(NullProtocol) as Box<dyn Protocol>;
/// assert_eq!(factory.build(0).name(), "NULL");
/// ```
pub trait ProtocolFactory: Send + Sync {
    /// Builds a fresh protocol instance for one run.
    fn build(&self, seed: u64) -> Box<dyn Protocol>;
}

impl<F> ProtocolFactory for F
where
    F: Fn(u64) -> Box<dyn Protocol> + Send + Sync,
{
    fn build(&self, seed: u64) -> Box<dyn Protocol> {
        self(seed)
    }
}

/// A protocol that does nothing — the floor for every metric, useful
/// in tests and as the simplest [`Protocol`] example.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProtocol;

impl Protocol for NullProtocol {
    fn name(&self) -> &str {
        "NULL"
    }

    fn on_message(&mut self, _ctx: &mut SimCtx<'_>, _msg: &Arc<Message>) {}

    fn on_contact(&mut self, _ctx: &mut SimCtx<'_>, _contact: &ContactEvent, _link: &mut Link) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use bsub_traces::SimDuration;

    fn message() -> Message {
        Message {
            id: MessageId::new(1),
            key: "k".into(),
            size: 100,
            created: SimTime::ZERO,
            ttl: SimDuration::from_hours(1),
            producer: NodeId::new(0),
        }
    }

    #[test]
    fn send_control_debits_link_and_records() {
        let mut metrics = MetricsCollector::new();
        let subs = SubscriptionTable::new(2);
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::ZERO, &subs, &mut metrics, &mut rec);
        let mut link = Link::with_budget(50);
        assert!(ctx.send_control(&mut link, 30));
        assert!(!ctx.send_control(&mut link, 30), "budget exceeded");
        assert_eq!(link.remaining(), 20);
        assert_eq!(metrics.finish("t").control_bytes, 30);
    }

    #[test]
    fn transfer_message_records_forwarding() {
        let mut metrics = MetricsCollector::new();
        let subs = SubscriptionTable::new(2);
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::ZERO, &subs, &mut metrics, &mut rec);
        let mut link = Link::with_budget(150);
        assert!(ctx.transfer_message(&mut link, &message()));
        assert!(!ctx.transfer_message(&mut link, &message()));
        let r = metrics.finish("t");
        assert_eq!(r.forwardings, 1);
        assert_eq!(r.data_bytes, 100);
    }

    #[test]
    fn deliver_uses_ground_truth() {
        let mut metrics = MetricsCollector::new();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(1), "k");
        metrics.on_generated(1);
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::from_secs(60), &subs, &mut metrics, &mut rec);
        let msg = message();
        assert_eq!(ctx.deliver(NodeId::new(1), &msg), DeliveryOutcome::Genuine);
        assert_eq!(
            ctx.deliver(NodeId::new(2), &msg),
            DeliveryOutcome::FalsePositive
        );
        let r = metrics.finish("t");
        assert_eq!(r.delivered, 1);
        assert_eq!(r.false_delivered, 1);
    }

    #[test]
    fn corruption_draws_only_when_attached() {
        let mut metrics = MetricsCollector::new();
        let subs = SubscriptionTable::new(2);
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::ZERO, &subs, &mut metrics, &mut rec);
        assert_eq!(ctx.draw_corruption(), None, "no stream attached");

        ctx.attach_corruption(SplitMix64::new(42), PPM);
        for _ in 0..16 {
            assert!(ctx.draw_corruption().is_some(), "p = 1 always corrupts");
        }
        ctx.attach_corruption(SplitMix64::new(42), 0);
        for _ in 0..16 {
            assert_eq!(ctx.draw_corruption(), None, "p = 0 never corrupts");
        }
    }

    #[test]
    fn null_protocol_is_inert() {
        let mut metrics = MetricsCollector::new();
        let subs = SubscriptionTable::new(2);
        let mut rec = crate::record::NullRecorder;
        let mut ctx = SimCtx::new(SimTime::ZERO, &subs, &mut metrics, &mut rec);
        let mut link = Link::with_budget(1000);
        let mut p = NullProtocol;
        p.on_message(&mut ctx, &Arc::new(message()));
        let contact = ContactEvent::new(
            NodeId::new(0),
            NodeId::new(1),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        p.on_contact(&mut ctx, &contact, &mut link);
        assert_eq!(link.used(), 0);
        assert_eq!(p.name(), "NULL");
    }
}
