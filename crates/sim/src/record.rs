//! Structured event tracing: the observability layer of the stack.
//!
//! The paper's evaluation reports only end-of-run aggregates, but the
//! mechanisms behind them — broker election inside the window `W`,
//! TCBF decay and reinforcement, the bogus-counter feedback loop of
//! Fig. 6 — are temporal. A [`Recorder`] receives a typed
//! [`TraceEvent`] stream from the simulator core and from protocols as
//! a run unfolds, which makes those dynamics visible without touching
//! the metrics path.
//!
//! # Zero cost when disabled
//!
//! Every emission site goes through [`SimCtx::emit`], which takes a
//! *closure* constructing the event and calls it only when
//! [`Recorder::is_active`] returns `true`. The default recorder is
//! [`NullRecorder`], whose `is_active` is a constant `false`, so a
//! plain run pays one inlined boolean test per site and never builds an
//! event. Recorders are also strictly observers: events are emitted
//! *after* the state change they describe, so an attached recorder can
//! never perturb a run — reports are bit-identical with or without one
//! (enforced by `bench/tests/determinism.rs`).
//!
//! [`SimCtx::emit`]: crate::SimCtx::emit
//!
//! # Sinks
//!
//! Two concrete sinks cover the common needs:
//!
//! - [`EventLog`] keeps the raw stream and renders it as JSONL, one
//!   event object per line.
//! - [`TimeSeriesRecorder`] folds the stream into per-epoch rows
//!   ([`EpochRow`]): sampled gauges (active brokers, relay-filter fill
//!   and estimated FPR, buffered copies) plus cumulative counters
//!   (published / delivered / forwarded / injected / expired).
//!
//! [`RunRecorder`] bundles both behind one [`Recorder`] for the bench
//! engine.

use crate::message::MessageId;
use bsub_obs::json::Object;
use bsub_traces::{NodeId, SimDuration, SimTime};
use std::sync::Arc;

/// Which merge rule produced a [`TraceEvent::FilterMerge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// A node reinforced its *genuine* filter with its own interests
    /// (the per-contact A-merge of Section IV-B).
    Reinforce,
    /// A relay filter absorbed a peer's filter with the Additive rule
    /// (counters add — the rule behind the Fig. 6 pathology).
    RelayAdditive,
    /// A relay filter absorbed a peer's filter with the Maximum rule
    /// (counter-wise max — the fix the paper adopts).
    RelayMax,
}

impl MergeKind {
    /// Stable lower-case label used in JSONL output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MergeKind::Reinforce => "reinforce",
            MergeKind::RelayAdditive => "relay_add",
            MergeKind::RelayMax => "relay_max",
        }
    }
}

/// Why a [`TraceEvent::ContactLost`] contact carried no exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The radio exchange failed outright (fault-injected link loss).
    Radio,
    /// At least one endpoint was down (fault-injected node churn).
    Churn,
}

impl LossCause {
    /// Stable lower-case label used in JSONL output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LossCause::Radio => "radio",
            LossCause::Churn => "churn",
        }
    }
}

/// The preferential-query value that drove a forwarding decision
/// (Section V-D), decoupled from `bsub-bloom`'s `Preference` type so
/// the sim crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreferenceValue {
    /// `true` for an absolute preference (only the queried filter may
    /// hold the key), `false` for a relative `f − g` difference.
    pub absolute: bool,
    /// The counter value (absolute) or counter difference (relative).
    pub value: i64,
}

/// One structured event in the life of a run.
///
/// Every variant carries its simulation timestamp `at`; streams are
/// non-decreasing in `at` because the runner replays contacts in trace
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A producer published a message with `targets` subscribed
    /// consumers.
    Published {
        /// Publication time.
        at: SimTime,
        /// The new message.
        msg: MessageId,
        /// Publishing node.
        producer: NodeId,
        /// Content key.
        key: Arc<str>,
        /// Payload size in bytes.
        size: u32,
        /// Subscribed consumers at publication (excluding producer).
        targets: u64,
    },
    /// Two nodes came into range; `budget` is the contact's byte
    /// budget.
    ContactBegin {
        /// Contact start time.
        at: SimTime,
        /// Lower-id endpoint.
        a: NodeId,
        /// Higher-id endpoint.
        b: NodeId,
        /// Byte budget of the encounter.
        budget: u64,
    },
    /// The contact was fully processed; `used` is what the protocol
    /// actually moved.
    ContactEnd {
        /// Contact start time (contacts are processed atomically).
        at: SimTime,
        /// Lower-id endpoint.
        a: NodeId,
        /// Higher-id endpoint.
        b: NodeId,
        /// Bytes the protocol moved during the encounter.
        used: u64,
    },
    /// One message transmission (any hop).
    Forwarded {
        /// Transmission time.
        at: SimTime,
        /// The message moved.
        msg: MessageId,
        /// Payload bytes moved.
        bytes: u64,
    },
    /// A broker scored a peer's filter for one carried message and
    /// chose to hand it over (the preferential query of Section V-D).
    ForwardingDecision {
        /// Decision time.
        at: SimTime,
        /// The broker giving the copy away.
        from: NodeId,
        /// The better carrier receiving it.
        to: NodeId,
        /// The message handed over.
        msg: MessageId,
        /// The preferential-query value that drove the decision;
        /// `None` when the policy forwards on any match.
        preference: Option<PreferenceValue>,
    },
    /// A message reached a consumer for the first time.
    Delivered {
        /// Delivery time.
        at: SimTime,
        /// The delivered message.
        msg: MessageId,
        /// The consumer.
        node: NodeId,
        /// Whether the consumer truly subscribed to the key.
        genuine: bool,
    },
    /// A relay accepted a copy because a filter matched its key.
    Injected {
        /// Injection time.
        at: SimTime,
        /// The injected message.
        msg: MessageId,
        /// The accepting relay/broker.
        broker: NodeId,
        /// Whether the match was a pure Bloom false positive.
        false_positive: bool,
    },
    /// A node dropped `count` expired copies from its store.
    Expired {
        /// Cleanup time.
        at: SimTime,
        /// The node pruning its store.
        node: NodeId,
        /// Copies dropped.
        count: u64,
    },
    /// A filter merge (A- or M-rule) on `node`'s state.
    FilterMerge {
        /// Merge time.
        at: SimTime,
        /// The merging node.
        node: NodeId,
        /// Which rule ran.
        kind: MergeKind,
        /// Fill ratio of the merged filter afterwards.
        fill: f64,
    },
    /// A relay filter decayed (Section IV-C).
    FilterDecay {
        /// Decay time.
        at: SimTime,
        /// The decaying node.
        node: NodeId,
        /// Units subtracted from every counter.
        amount: u32,
        /// Fill ratio of the filter afterwards.
        fill: f64,
    },
    /// A node promoted itself to broker (Section V-B).
    Promoted {
        /// Election time.
        at: SimTime,
        /// The newly elected broker.
        node: NodeId,
        /// The peer whose encounter triggered the election.
        peer: NodeId,
    },
    /// A broker demoted itself back to user.
    Demoted {
        /// Election time.
        at: SimTime,
        /// The demoted node.
        node: NodeId,
        /// The peer whose encounter triggered the election.
        peer: NodeId,
    },
    /// A periodic gauge sample of network-wide protocol state,
    /// emitted by protocols at the end of each contact.
    Snapshot {
        /// Sample time.
        at: SimTime,
        /// Nodes currently in the broker role.
        brokers: u64,
        /// Message copies buffered across all stores.
        buffered: u64,
        /// Mean fill ratio over all relay filters.
        relay_fill: f64,
        /// Estimated Bloom FPR at that fill (`fill^k`).
        relay_fpr: f64,
        /// Largest counter value in any relay filter.
        max_counter: u32,
    },
    /// A fault-injected contact fired but no exchange happened.
    ContactLost {
        /// Contact start time.
        at: SimTime,
        /// Lower-id endpoint.
        a: NodeId,
        /// Higher-id endpoint.
        b: NodeId,
        /// Why the exchange was lost.
        cause: LossCause,
    },
    /// A fault-injected contact's byte budget was cut mid-exchange.
    ContactTruncated {
        /// Contact start time.
        at: SimTime,
        /// Lower-id endpoint.
        a: NodeId,
        /// Higher-id endpoint.
        b: NodeId,
        /// The truncated byte budget actually available.
        budget: u64,
        /// The radio budget the contact would have had.
        original: u64,
    },
    /// A node rejoined after fault-injected downtime and dropped its
    /// buffered copies and volatile routing state.
    NodeReset {
        /// Rejoin time (the node's first contact back up).
        at: SimTime,
        /// The node that lost its state.
        node: NodeId,
    },
    /// A received control-plane encoding was corrupted in flight and
    /// rejected by the receiver's wire decoder.
    ControlCorrupted {
        /// Receipt time.
        at: SimTime,
        /// The receiving node that rejected the filter.
        node: NodeId,
        /// Size of the transmission as paid on the link.
        bytes: u64,
    },
}

impl TraceEvent {
    /// The event's simulation timestamp.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.head().1
    }

    /// The event's `"ev"` label in the JSON event log, and its time.
    fn head(&self) -> (&'static str, SimTime) {
        match *self {
            TraceEvent::Published { at, .. } => ("published", at),
            TraceEvent::ContactBegin { at, .. } => ("contact_begin", at),
            TraceEvent::ContactEnd { at, .. } => ("contact_end", at),
            TraceEvent::Forwarded { at, .. } => ("forwarded", at),
            TraceEvent::ForwardingDecision { at, .. } => ("forwarding_decision", at),
            TraceEvent::Delivered { at, .. } => ("delivered", at),
            TraceEvent::Injected { at, .. } => ("injected", at),
            TraceEvent::Expired { at, .. } => ("expired", at),
            TraceEvent::FilterMerge { at, .. } => ("filter_merge", at),
            TraceEvent::FilterDecay { at, .. } => ("filter_decay", at),
            TraceEvent::Promoted { at, .. } => ("promoted", at),
            TraceEvent::Demoted { at, .. } => ("demoted", at),
            TraceEvent::Snapshot { at, .. } => ("snapshot", at),
            TraceEvent::ContactLost { at, .. } => ("contact_lost", at),
            TraceEvent::ContactTruncated { at, .. } => ("contact_truncated", at),
            TraceEvent::NodeReset { at, .. } => ("node_reset", at),
            TraceEvent::ControlCorrupted { at, .. } => ("control_corrupted", at),
        }
    }

    /// Renders the event as one JSON object (no trailing newline),
    /// written with [`bsub_obs::json::Object`]: the event's label, its
    /// time in milliseconds, then its fields in declaration order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (ev, at) = self.head();
        let mut o = Object::new();
        o.str("ev", ev).u64("t_ms", at.as_millis());
        match self {
            TraceEvent::Published {
                msg,
                producer,
                key,
                size,
                targets,
                ..
            } => {
                o.u64("msg", msg.raw())
                    .u64("producer", producer.index() as u64)
                    .str("key", key)
                    .u64("size", (*size).into())
                    .u64("targets", *targets);
            }
            TraceEvent::ContactBegin { a, b, budget, .. } => {
                o.u64("a", a.index() as u64)
                    .u64("b", b.index() as u64)
                    .u64("budget", *budget);
            }
            TraceEvent::ContactEnd { a, b, used, .. } => {
                o.u64("a", a.index() as u64)
                    .u64("b", b.index() as u64)
                    .u64("used", *used);
            }
            TraceEvent::Forwarded { msg, bytes, .. } => {
                o.u64("msg", msg.raw()).u64("bytes", *bytes);
            }
            TraceEvent::ForwardingDecision {
                from,
                to,
                msg,
                preference,
                ..
            } => {
                o.u64("from", from.index() as u64)
                    .u64("to", to.index() as u64)
                    .u64("msg", msg.raw());
                if let Some(p) = preference {
                    let kind = if p.absolute { "absolute" } else { "relative" };
                    o.i64("pref", p.value).str("pref_kind", kind);
                } else {
                    o.null("pref");
                }
            }
            TraceEvent::Delivered {
                msg, node, genuine, ..
            } => {
                o.u64("msg", msg.raw())
                    .u64("node", node.index() as u64)
                    .bool("genuine", *genuine);
            }
            TraceEvent::Injected {
                msg,
                broker,
                false_positive,
                ..
            } => {
                o.u64("msg", msg.raw())
                    .u64("broker", broker.index() as u64)
                    .bool("false_positive", *false_positive);
            }
            TraceEvent::Expired { node, count, .. } => {
                o.u64("node", node.index() as u64).u64("count", *count);
            }
            TraceEvent::FilterMerge {
                node, kind, fill, ..
            } => {
                o.u64("node", node.index() as u64)
                    .str("kind", kind.label())
                    .f64("fill", *fill);
            }
            TraceEvent::FilterDecay {
                node, amount, fill, ..
            } => {
                o.u64("node", node.index() as u64)
                    .u64("amount", (*amount).into())
                    .f64("fill", *fill);
            }
            TraceEvent::Promoted { node, peer, .. } | TraceEvent::Demoted { node, peer, .. } => {
                o.u64("node", node.index() as u64)
                    .u64("peer", peer.index() as u64);
            }
            TraceEvent::Snapshot {
                brokers,
                buffered,
                relay_fill,
                relay_fpr,
                max_counter,
                ..
            } => {
                o.u64("brokers", *brokers)
                    .u64("buffered", *buffered)
                    .f64("relay_fill", *relay_fill)
                    .f64("relay_fpr", *relay_fpr)
                    .u64("max_counter", (*max_counter).into());
            }
            TraceEvent::ContactLost { a, b, cause, .. } => {
                o.u64("a", a.index() as u64)
                    .u64("b", b.index() as u64)
                    .str("cause", cause.label());
            }
            TraceEvent::ContactTruncated {
                a,
                b,
                budget,
                original,
                ..
            } => {
                o.u64("a", a.index() as u64)
                    .u64("b", b.index() as u64)
                    .u64("budget", *budget)
                    .u64("original", *original);
            }
            TraceEvent::NodeReset { node, .. } => {
                o.u64("node", node.index() as u64);
            }
            TraceEvent::ControlCorrupted { node, bytes, .. } => {
                o.u64("node", node.index() as u64).u64("bytes", *bytes);
            }
        }
        o.finish()
    }
}

/// Receives the event stream of one run.
///
/// Implementations must be pure observers: a recorder sees state
/// *after* it changed and has no channel back into the simulation, so
/// attaching one cannot alter any metric (see the module docs).
pub trait Recorder {
    /// Whether events should be constructed at all. Emission sites
    /// skip building the event entirely when this is `false`.
    fn is_active(&self) -> bool;

    /// Consumes one event. Only called while [`Recorder::is_active`]
    /// is `true`.
    fn record(&mut self, event: &TraceEvent);
}

/// The default recorder: permanently inactive, records nothing.
///
/// With this recorder the tracing layer costs one branch per emission
/// site — event construction is skipped entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_active(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// A sink that keeps the raw event stream and renders it as JSONL.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the log as JSON Lines: one event object per line,
    /// trailing newline included (empty string for an empty log).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

impl Recorder for EventLog {
    fn is_active(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// One sealed epoch of a [`TimeSeriesRecorder`].
///
/// Gauges (`brokers` … `max_counter`) are sample-and-hold: the value of
/// the last [`TraceEvent::Snapshot`] seen before the epoch closed.
/// Counters (`published` … `expired`) are cumulative since the start of
/// the run, so plotting their first difference gives per-epoch rates.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// End of the epoch, in minutes since trace start.
    pub end_mins: f64,
    /// Nodes in the broker role at the last sample.
    pub brokers: u64,
    /// Buffered message copies at the last sample.
    pub buffered: u64,
    /// Mean relay-filter fill ratio at the last sample.
    pub relay_fill: f64,
    /// Estimated relay FPR at the last sample.
    pub relay_fpr: f64,
    /// Largest relay counter value at the last sample.
    pub max_counter: u32,
    /// Messages published so far.
    pub published: u64,
    /// Genuine deliveries so far.
    pub delivered: u64,
    /// False deliveries so far.
    pub false_delivered: u64,
    /// Message transmissions so far.
    pub forwarded: u64,
    /// Relay injections so far.
    pub injected: u64,
    /// Expired copies dropped so far.
    pub expired: u64,
}

/// Folds the event stream into fixed-width epochs.
///
/// Epoch `i` covers `[i·bucket, (i+1)·bucket)`; an epoch is sealed as
/// soon as an event at or past its end arrives (event streams are
/// non-decreasing in time), and [`TimeSeriesRecorder::into_rows`]
/// seals through the end of the run. Sealing depends only on the
/// per-run event stream, never on wall-clock or thread scheduling, so
/// bucket boundaries are deterministic at any worker count.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    bucket: SimDuration,
    rows: Vec<EpochRow>,
    current: u64,
    brokers: u64,
    buffered: u64,
    relay_fill: f64,
    relay_fpr: f64,
    max_counter: u32,
    published: u64,
    delivered: u64,
    false_delivered: u64,
    forwarded: u64,
    injected: u64,
    expired: u64,
}

impl TimeSeriesRecorder {
    /// Creates a recorder with the given epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    #[must_use]
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "epoch width must be non-zero");
        Self {
            bucket,
            rows: Vec::new(),
            current: 0,
            brokers: 0,
            buffered: 0,
            relay_fill: 0.0,
            relay_fpr: 0.0,
            max_counter: 0,
            published: 0,
            delivered: 0,
            false_delivered: 0,
            forwarded: 0,
            injected: 0,
            expired: 0,
        }
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        at.as_millis() / self.bucket.as_millis()
    }

    fn seal_until(&mut self, bucket: u64) {
        while self.current < bucket {
            let end_ms = (self.current + 1).saturating_mul(self.bucket.as_millis());
            self.rows.push(EpochRow {
                epoch: self.current,
                end_mins: SimTime::from_millis(end_ms).as_mins(),
                brokers: self.brokers,
                buffered: self.buffered,
                relay_fill: self.relay_fill,
                relay_fpr: self.relay_fpr,
                max_counter: self.max_counter,
                published: self.published,
                delivered: self.delivered,
                false_delivered: self.false_delivered,
                forwarded: self.forwarded,
                injected: self.injected,
                expired: self.expired,
            });
            self.current += 1;
        }
    }

    /// Seals every epoch up to and including the one containing `end`
    /// and returns the rows.
    #[must_use]
    pub fn into_rows(mut self, end: SimTime) -> Vec<EpochRow> {
        let last = self.bucket_of(end);
        self.seal_until(last + 1);
        self.rows
    }
}

impl Recorder for TimeSeriesRecorder {
    fn is_active(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.seal_until(self.bucket_of(event.at()));
        // Cumulative tallies saturate: a long dense event stream must
        // peg at the ceiling rather than wrap (see the overflow tests).
        match event {
            TraceEvent::Published { .. } => self.published = self.published.saturating_add(1),
            TraceEvent::Forwarded { .. } => self.forwarded = self.forwarded.saturating_add(1),
            TraceEvent::Delivered { genuine, .. } => {
                if *genuine {
                    self.delivered = self.delivered.saturating_add(1);
                } else {
                    self.false_delivered = self.false_delivered.saturating_add(1);
                }
            }
            TraceEvent::Injected { .. } => self.injected = self.injected.saturating_add(1),
            TraceEvent::Expired { count, .. } => self.expired = self.expired.saturating_add(*count),
            TraceEvent::Snapshot {
                brokers,
                buffered,
                relay_fill,
                relay_fpr,
                max_counter,
                ..
            } => {
                self.brokers = *brokers;
                self.buffered = *buffered;
                self.relay_fill = *relay_fill;
                self.relay_fpr = *relay_fpr;
                self.max_counter = *max_counter;
            }
            _ => {}
        }
    }
}

/// The bench engine's per-run recorder: an optional [`EventLog`] and an
/// optional [`TimeSeriesRecorder`] behind a single [`Recorder`].
#[derive(Debug, Default)]
pub struct RunRecorder {
    /// Raw event sink, if event capture was requested.
    pub events: Option<EventLog>,
    /// Epoch aggregator, if a time series was requested.
    pub series: Option<TimeSeriesRecorder>,
}

impl Recorder for RunRecorder {
    fn is_active(&self) -> bool {
        self.events.is_some() || self.series.is_some()
    }

    fn record(&mut self, event: &TraceEvent) {
        if let Some(log) = &mut self.events {
            log.record(event);
        }
        if let Some(series) = &mut self.series {
            series.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(at_secs: u64, genuine: bool) -> TraceEvent {
        TraceEvent::Delivered {
            at: SimTime::from_secs(at_secs),
            msg: MessageId::new(1),
            node: NodeId::new(2),
            genuine,
        }
    }

    #[test]
    fn null_recorder_is_inactive() {
        let mut r = NullRecorder;
        assert!(!r.is_active());
        r.record(&delivered(0, true)); // must be a no-op
    }

    #[test]
    fn event_log_renders_jsonl() {
        let mut log = EventLog::new();
        log.record(&TraceEvent::Published {
            at: SimTime::from_millis(1500),
            msg: MessageId::new(0),
            producer: NodeId::new(3),
            key: Arc::from("weather/\"severe\""),
            size: 140,
            targets: 2,
        });
        log.record(&delivered(60, true));
        assert_eq!(
            log.to_jsonl(),
            concat!(
                r#"{"ev":"published","t_ms":1500,"msg":0,"producer":3,"key":"weather/\"severe\"","size":140,"targets":2}"#,
                "\n",
                r#"{"ev":"delivered","t_ms":60000,"msg":1,"node":2,"genuine":true}"#,
                "\n",
            )
        );
        assert_eq!(log.events().len(), 2);
    }

    #[test]
    fn every_variant_renders_as_one_json_object() {
        let t = SimTime::from_secs(10);
        let n = NodeId::new(1);
        let m = MessageId::new(7);
        let events = [
            TraceEvent::Published {
                at: t,
                msg: m,
                producer: n,
                key: Arc::from("k"),
                size: 1,
                targets: 0,
            },
            TraceEvent::ContactBegin {
                at: t,
                a: n,
                b: NodeId::new(2),
                budget: 10,
            },
            TraceEvent::ContactEnd {
                at: t,
                a: n,
                b: NodeId::new(2),
                used: 5,
            },
            TraceEvent::Forwarded {
                at: t,
                msg: m,
                bytes: 100,
            },
            TraceEvent::ForwardingDecision {
                at: t,
                from: n,
                to: NodeId::new(2),
                msg: m,
                preference: Some(PreferenceValue {
                    absolute: true,
                    value: 3,
                }),
            },
            TraceEvent::ForwardingDecision {
                at: t,
                from: n,
                to: NodeId::new(2),
                msg: m,
                preference: None,
            },
            delivered(10, false),
            TraceEvent::Injected {
                at: t,
                msg: m,
                broker: n,
                false_positive: true,
            },
            TraceEvent::Expired {
                at: t,
                node: n,
                count: 4,
            },
            TraceEvent::FilterMerge {
                at: t,
                node: n,
                kind: MergeKind::RelayMax,
                fill: 0.25,
            },
            TraceEvent::FilterDecay {
                at: t,
                node: n,
                amount: 1,
                fill: 0.125,
            },
            TraceEvent::Promoted {
                at: t,
                node: n,
                peer: NodeId::new(2),
            },
            TraceEvent::Demoted {
                at: t,
                node: n,
                peer: NodeId::new(2),
            },
            TraceEvent::Snapshot {
                at: t,
                brokers: 2,
                buffered: 9,
                relay_fill: 1.0,
                relay_fpr: 0.0625,
                max_counter: 3,
            },
            TraceEvent::ContactLost {
                at: t,
                a: n,
                b: NodeId::new(2),
                cause: LossCause::Radio,
            },
            TraceEvent::ContactLost {
                at: t,
                a: n,
                b: NodeId::new(2),
                cause: LossCause::Churn,
            },
            TraceEvent::ContactTruncated {
                at: t,
                a: n,
                b: NodeId::new(2),
                budget: 12,
                original: 120,
            },
            TraceEvent::NodeReset { at: t, node: n },
            TraceEvent::ControlCorrupted {
                at: t,
                node: n,
                bytes: 40,
            },
        ];
        // The exact bytes of every line, as the event log writes them:
        // field order, separators and float formatting are all part of
        // the `events_*.jsonl` artifact.
        let expected = [
            r#"{"ev":"published","t_ms":10000,"msg":7,"producer":1,"key":"k","size":1,"targets":0}"#,
            r#"{"ev":"contact_begin","t_ms":10000,"a":1,"b":2,"budget":10}"#,
            r#"{"ev":"contact_end","t_ms":10000,"a":1,"b":2,"used":5}"#,
            r#"{"ev":"forwarded","t_ms":10000,"msg":7,"bytes":100}"#,
            r#"{"ev":"forwarding_decision","t_ms":10000,"from":1,"to":2,"msg":7,"pref":3,"pref_kind":"absolute"}"#,
            r#"{"ev":"forwarding_decision","t_ms":10000,"from":1,"to":2,"msg":7,"pref":null}"#,
            r#"{"ev":"delivered","t_ms":10000,"msg":1,"node":2,"genuine":false}"#,
            r#"{"ev":"injected","t_ms":10000,"msg":7,"broker":1,"false_positive":true}"#,
            r#"{"ev":"expired","t_ms":10000,"node":1,"count":4}"#,
            r#"{"ev":"filter_merge","t_ms":10000,"node":1,"kind":"relay_max","fill":0.25}"#,
            r#"{"ev":"filter_decay","t_ms":10000,"node":1,"amount":1,"fill":0.125}"#,
            r#"{"ev":"promoted","t_ms":10000,"node":1,"peer":2}"#,
            r#"{"ev":"demoted","t_ms":10000,"node":1,"peer":2}"#,
            r#"{"ev":"snapshot","t_ms":10000,"brokers":2,"buffered":9,"relay_fill":1.0,"relay_fpr":0.0625,"max_counter":3}"#,
            r#"{"ev":"contact_lost","t_ms":10000,"a":1,"b":2,"cause":"radio"}"#,
            r#"{"ev":"contact_lost","t_ms":10000,"a":1,"b":2,"cause":"churn"}"#,
            r#"{"ev":"contact_truncated","t_ms":10000,"a":1,"b":2,"budget":12,"original":120}"#,
            r#"{"ev":"node_reset","t_ms":10000,"node":1}"#,
            r#"{"ev":"control_corrupted","t_ms":10000,"node":1,"bytes":40}"#,
        ];
        assert_eq!(events.len(), expected.len());
        for (e, want) in events.iter().zip(expected) {
            assert_eq!(e.to_json(), want);
            assert_eq!(e.at(), t);
        }
    }

    #[test]
    fn json_floats_are_round_trip_formatted() {
        let decay = |fill| {
            TraceEvent::FilterDecay {
                at: SimTime::from_secs(0),
                node: NodeId::new(0),
                amount: 1,
                fill,
            }
            .to_json()
        };
        assert!(decay(0.5).ends_with(r#","fill":0.5}"#));
        assert!(decay(2.0).ends_with(r#","fill":2.0}"#));
        assert!(decay(f64::NAN).ends_with(r#","fill":null}"#));
    }

    #[test]
    fn time_series_buckets_and_counters() {
        // 1-minute epochs; events at 0:30, 1:10, 3:59.
        let mut ts = TimeSeriesRecorder::new(SimDuration::from_mins(1));
        ts.record(&delivered(30, true));
        ts.record(&TraceEvent::Snapshot {
            at: SimTime::from_secs(70),
            brokers: 3,
            buffered: 5,
            relay_fill: 0.5,
            relay_fpr: 0.25,
            max_counter: 2,
        });
        ts.record(&delivered(239, false));
        let rows = ts.into_rows(SimTime::from_secs(299));
        assert_eq!(rows.len(), 5);
        // Epoch 0 sealed before the snapshot: gauges still zero.
        assert_eq!(rows[0].delivered, 1);
        assert_eq!(rows[0].brokers, 0);
        assert!((rows[0].end_mins - 1.0).abs() < 1e-12);
        // Epoch 1 carries the snapshot's gauges; later epochs hold them.
        assert_eq!(rows[1].brokers, 3);
        assert_eq!(rows[4].brokers, 3);
        assert_eq!(rows[3].false_delivered, 1);
        assert_eq!(rows[2].false_delivered, 0, "not yet at epoch 2");
        assert_eq!(rows[4].epoch, 4);
    }

    #[test]
    fn time_series_event_on_boundary_goes_to_next_epoch() {
        let mut ts = TimeSeriesRecorder::new(SimDuration::from_secs(10));
        ts.record(&delivered(10, true)); // exactly at the boundary
        let rows = ts.into_rows(SimTime::from_secs(10));
        assert_eq!(rows[0].delivered, 0);
        assert_eq!(rows[1].delivered, 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_rejected() {
        let _ = TimeSeriesRecorder::new(SimDuration::ZERO);
    }

    /// Overflow discipline: epoch tallies saturate instead of wrapping.
    /// `Expired` carries an arbitrary count, so it is the cheapest way
    /// to drive a tally to the ceiling.
    #[test]
    fn time_series_tallies_saturate() {
        let mut ts = TimeSeriesRecorder::new(SimDuration::from_mins(1));
        let expired = |count| TraceEvent::Expired {
            at: SimTime::from_secs(1),
            node: NodeId::new(0),
            count,
        };
        ts.record(&expired(u64::MAX));
        ts.record(&expired(u64::MAX));
        let rows = ts.into_rows(SimTime::from_secs(1));
        assert_eq!(rows[0].expired, u64::MAX);
    }

    #[test]
    fn run_recorder_fans_out() {
        let mut r = RunRecorder::default();
        assert!(!r.is_active(), "empty RunRecorder records nothing");
        r.events = Some(EventLog::new());
        r.series = Some(TimeSeriesRecorder::new(SimDuration::from_mins(1)));
        assert!(r.is_active());
        r.record(&delivered(5, true));
        assert_eq!(r.events.as_ref().unwrap().events().len(), 1);
        let rows = r.series.unwrap().into_rows(SimTime::from_secs(5));
        assert_eq!(rows[0].delivered, 1);
    }
}
