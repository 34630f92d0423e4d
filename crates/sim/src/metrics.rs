//! Metrics: the four quantities of Figs. 7–9.
//!
//! - **delivery ratio** — delivered (message, subscriber) pairs over
//!   all such pairs that existed at generation time. The paper's plots
//!   use "delivery ratio" without further definition; pair-based
//!   counting is the standard DTN pub-sub reading and handles keys
//!   with several subscribers.
//! - **delay** — mean time from message creation to delivery, over
//!   delivered pairs only (Section VII-C: "We only consider the delay
//!   of delivered messages").
//! - **forwardings per delivered message** — total message
//!   transmissions divided by delivered pairs (Section VII-D: "the
//!   number of forwardings in the network by the number of messages
//!   that have been delivered").
//! - **false positive rate** — falsely delivered messages (handed to a
//!   consumer that never subscribed to the key) over all deliveries
//!   (Section VII-D: "the ratio of the number of falsely delivered
//!   messages to the total number of delivered messages").
//!
//! Byte overheads are split into control (filters, identity beacons)
//! and data (message payloads) so the TCBF's bandwidth claims are
//! measurable too.

use crate::message::{Message, MessageIdSet};
use bsub_traces::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// What happened when a protocol handed a message to a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// First delivery to a genuinely subscribed consumer — counts
    /// toward the delivery ratio.
    Genuine,
    /// First delivery to a consumer that never subscribed to the key —
    /// a false positive of the filter chain.
    FalsePositive,
    /// This (message, node) pair was already delivered; ignored.
    Duplicate,
    /// The message outlived its TTL before reaching the consumer;
    /// ignored (the paper counts only in-TTL deliveries).
    Expired,
    /// Delivery to the message's own producer; ignored.
    SelfDelivery,
}

/// Per-consumer delivery ledger: which messages this node has already
/// received, genuinely or falsely. The per-node sets together give the
/// run's (message, node) dedup.
#[derive(Debug, Default)]
struct NodeLedger {
    delivered: MessageIdSet,
    false_delivered: MessageIdSet,
}

/// Accumulates raw simulation events; finalized into a [`SimReport`].
#[derive(Debug, Default)]
pub struct MetricsCollector {
    generated: u64,
    target_pairs: u64,
    ledgers: HashMap<NodeId, NodeLedger>,
    delay_total: SimDuration,
    forwardings: u64,
    control_bytes: u64,
    data_bytes: u64,
    contacts: u64,
    injections: u64,
    false_injections: u64,
}

impl MetricsCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a generated message with `targets` subscribed consumers
    /// (excluding the producer itself).
    ///
    /// All tallies saturate rather than wrap: a million-user synthetic
    /// trace can push byte and pair counts far enough that a silent
    /// `u64` wraparound would corrupt every derived ratio.
    pub fn on_generated(&mut self, targets: u64) {
        self.generated = self.generated.saturating_add(1);
        self.target_pairs = self.target_pairs.saturating_add(targets);
    }

    /// Records one message transmission of `bytes` payload bytes.
    pub fn on_forwarding(&mut self, bytes: u64) {
        self.forwardings = self.forwardings.saturating_add(1);
        self.data_bytes = self.data_bytes.saturating_add(bytes);
    }

    /// Records `bytes` of control traffic (filters, beacons).
    pub fn on_control(&mut self, bytes: u64) {
        self.control_bytes = self.control_bytes.saturating_add(bytes);
    }

    /// Records a processed contact.
    pub fn on_contact(&mut self) {
        self.contacts = self.contacts.saturating_add(1);
    }

    /// Records a message *injection*: a copy accepted into the relay
    /// tier because a filter matched its key. `false_positive` marks
    /// injections caused purely by a Bloom false positive (the paper's
    /// "useless messages injected into the network", Section VI-B) —
    /// protocols detect this with ground-truth shadow state the real
    /// system would not have.
    pub fn on_injection(&mut self, false_positive: bool) {
        self.injections = self.injections.saturating_add(1);
        if false_positive {
            self.false_injections = self.false_injections.saturating_add(1);
        }
    }

    /// Records a delivery attempt of `msg` to `to` at `now`, with
    /// `genuine` telling whether `to` truly subscribed to the key.
    pub fn on_delivery(
        &mut self,
        msg: &Message,
        to: NodeId,
        now: SimTime,
        genuine: bool,
    ) -> DeliveryOutcome {
        if to == msg.producer {
            return DeliveryOutcome::SelfDelivery;
        }
        if msg.is_expired(now) {
            return DeliveryOutcome::Expired;
        }
        let ledger = self.ledgers.entry(to).or_default();
        if genuine {
            if !ledger.delivered.insert(msg.id) {
                return DeliveryOutcome::Duplicate;
            }
            self.delay_total += msg.age(now);
            DeliveryOutcome::Genuine
        } else {
            if !ledger.false_delivered.insert(msg.id) {
                return DeliveryOutcome::Duplicate;
            }
            DeliveryOutcome::FalsePositive
        }
    }

    /// Adds another run segment's *scalar cost tallies* (forwardings,
    /// control/data bytes, injections, false injections) into this
    /// collector, saturating like every other tally.
    ///
    /// This is the coordinator-side merge seam for `bsub-net`: a
    /// remote worker executes a contact with a throwaway collector,
    /// ships the finished [`SimReport`] home, and the coordinator
    /// folds the costs in here while replaying the *delivery* events
    /// through [`MetricsCollector::on_delivery`] so the master ledger
    /// keeps global (message, node) dedup. Generated/contact counts
    /// and delays are deliberately excluded — the coordinator already
    /// accounts those itself.
    pub fn absorb_costs(&mut self, report: &SimReport) {
        self.forwardings = self.forwardings.saturating_add(report.forwardings);
        self.control_bytes = self.control_bytes.saturating_add(report.control_bytes);
        self.data_bytes = self.data_bytes.saturating_add(report.data_bytes);
        self.injections = self.injections.saturating_add(report.injections);
        self.false_injections = self
            .false_injections
            .saturating_add(report.false_injections);
    }

    /// Finalizes into a report for the protocol named `protocol`.
    #[must_use]
    pub fn finish(self, protocol: &str) -> SimReport {
        let delivered = self
            .ledgers
            .values()
            .map(|l| l.delivered.len() as u64)
            .sum();
        let false_delivered = self
            .ledgers
            .values()
            .map(|l| l.false_delivered.len() as u64)
            .sum();
        SimReport {
            protocol: protocol.to_owned(),
            generated: self.generated,
            target_pairs: self.target_pairs,
            delivered,
            false_delivered,
            delay_total: self.delay_total,
            forwardings: self.forwardings,
            control_bytes: self.control_bytes,
            data_bytes: self.data_bytes,
            contacts: self.contacts,
            injections: self.injections,
            false_injections: self.false_injections,
        }
    }
}

/// Final metrics of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Name of the protocol that produced the run.
    pub protocol: String,
    /// Messages generated.
    pub generated: u64,
    /// (message, subscriber) pairs that existed at generation.
    pub target_pairs: u64,
    /// Genuine (message, subscriber) deliveries within TTL.
    pub delivered: u64,
    /// False deliveries (consumer never subscribed to the key).
    pub false_delivered: u64,
    /// Sum of delivery delays at the clock's native (millisecond)
    /// resolution, over genuine deliveries.
    pub delay_total: SimDuration,
    /// Total message transmissions.
    pub forwardings: u64,
    /// Control bytes moved (filters, beacons).
    pub control_bytes: u64,
    /// Data bytes moved (message payloads).
    pub data_bytes: u64,
    /// Contacts processed.
    pub contacts: u64,
    /// Copies accepted into the relay tier on a filter match.
    pub injections: u64,
    /// Injections caused purely by a Bloom false positive.
    pub false_injections: u64,
}

impl SimReport {
    /// Delivery ratio: genuine deliveries over target pairs
    /// (Fig. 7(a) / 8(a) / 9(a)). Zero when there were no targets.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.target_pairs == 0 {
            0.0
        } else {
            self.delivered as f64 / self.target_pairs as f64
        }
    }

    /// Mean delivery delay in minutes, over delivered pairs only
    /// (Fig. 7(b) / 8(b) / 9(b)). Zero when nothing was delivered.
    #[must_use]
    pub fn mean_delay_mins(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay_total.as_mins() / self.delivered as f64
        }
    }

    /// Forwardings per delivered message (Fig. 7(c) / 8(c) / 9(c)).
    /// Zero when nothing was delivered.
    #[must_use]
    pub fn forwardings_per_delivered(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.forwardings as f64 / self.delivered as f64
        }
    }

    /// False positive rate of deliveries (Fig. 9(d)): falsely delivered
    /// over all delivered. Zero when nothing was delivered.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        let total = self.delivered + self.false_delivered;
        if total == 0 {
            0.0
        } else {
            self.false_delivered as f64 / total as f64
        }
    }

    /// False positive rate of relay injections (the TCBF-level FPR the
    /// paper analyzes in Section VI-B and bounds at 0.04 for its
    /// settings): falsely injected copies over all injected copies.
    /// Zero when nothing was injected.
    #[must_use]
    pub fn injection_fpr(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.false_injections as f64 / self.injections as f64
        }
    }

    /// Total bytes moved (control + data), saturating at `u64::MAX`.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.control_bytes.saturating_add(self.data_bytes)
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: delivery={:.3} delay={:.1}min fwd/dlv={:.2} inj_fpr={:.4} \
             (gen={} dlv={}/{} fwd={} inj={} ctrl={}B data={}B)",
            self.protocol,
            self.delivery_ratio(),
            self.mean_delay_mins(),
            self.forwardings_per_delivered(),
            self.injection_fpr(),
            self.generated,
            self.delivered,
            self.target_pairs,
            self.forwardings,
            self.injections,
            self.control_bytes,
            self.data_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageId;
    use bsub_traces::SimDuration;
    use std::sync::Arc;

    fn msg(id: u64, created: u64, ttl: u64) -> Message {
        Message {
            id: MessageId::new(id),
            key: Arc::from("k"),
            size: 100,
            created: SimTime::from_secs(created),
            ttl: SimDuration::from_secs(ttl),
            producer: NodeId::new(0),
        }
    }

    #[test]
    fn genuine_delivery_counts_once() {
        let mut m = MetricsCollector::new();
        m.on_generated(2);
        let message = msg(1, 0, 1000);
        assert_eq!(
            m.on_delivery(&message, NodeId::new(1), SimTime::from_secs(60), true),
            DeliveryOutcome::Genuine
        );
        assert_eq!(
            m.on_delivery(&message, NodeId::new(1), SimTime::from_secs(90), true),
            DeliveryOutcome::Duplicate
        );
        let r = m.finish("t");
        assert_eq!(r.delivered, 1);
        assert!((r.delivery_ratio() - 0.5).abs() < 1e-12);
        assert!((r.mean_delay_mins() - 1.0).abs() < 1e-12);
    }

    /// Regression test: delays accumulate at the clock's native
    /// millisecond resolution. The old collector summed whole seconds
    /// (`age().as_secs()`), which truncated every sub-second delay to
    /// zero — on a sub-second contact trace the mean delay read 0.
    #[test]
    fn sub_second_delays_are_not_truncated() {
        let mut m = MetricsCollector::new();
        m.on_generated(2);
        let message = msg(1, 0, 1000);
        // Two deliveries at 400 ms and 700 ms.
        assert_eq!(
            m.on_delivery(&message, NodeId::new(1), SimTime::from_millis(400), true),
            DeliveryOutcome::Genuine
        );
        assert_eq!(
            m.on_delivery(&message, NodeId::new(2), SimTime::from_millis(700), true),
            DeliveryOutcome::Genuine
        );
        let r = m.finish("t");
        assert_eq!(r.delay_total, SimDuration::from_millis(1100));
        // Mean delay: 550 ms = 0.55 s.
        assert!((r.mean_delay_mins() - 0.55 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn expired_delivery_ignored() {
        let mut m = MetricsCollector::new();
        m.on_generated(1);
        let message = msg(1, 0, 100);
        assert_eq!(
            m.on_delivery(&message, NodeId::new(1), SimTime::from_secs(101), true),
            DeliveryOutcome::Expired
        );
        assert_eq!(m.finish("t").delivered, 0);
    }

    #[test]
    fn self_delivery_ignored() {
        let mut m = MetricsCollector::new();
        let message = msg(1, 0, 100);
        assert_eq!(
            m.on_delivery(&message, NodeId::new(0), SimTime::from_secs(1), true),
            DeliveryOutcome::SelfDelivery
        );
        assert_eq!(m.finish("t").delivered, 0);
    }

    #[test]
    fn false_positive_rate_computed() {
        let mut m = MetricsCollector::new();
        m.on_generated(1);
        let a = msg(1, 0, 1000);
        let b = msg(2, 0, 1000);
        assert_eq!(
            m.on_delivery(&a, NodeId::new(1), SimTime::from_secs(10), true),
            DeliveryOutcome::Genuine
        );
        assert_eq!(
            m.on_delivery(&b, NodeId::new(2), SimTime::from_secs(10), false),
            DeliveryOutcome::FalsePositive
        );
        let r = m.finish("t");
        assert_eq!(r.false_delivered, 1);
        assert!((r.false_positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn forwardings_and_bytes() {
        let mut m = MetricsCollector::new();
        m.on_generated(1);
        m.on_forwarding(140);
        m.on_forwarding(70);
        m.on_control(32);
        m.on_contact();
        let message = msg(1, 0, 1000);
        m.on_delivery(&message, NodeId::new(1), SimTime::from_secs(5), true);
        let r = m.finish("t");
        assert_eq!(r.forwardings, 2);
        assert!((r.forwardings_per_delivered() - 2.0).abs() < 1e-12);
        assert_eq!(r.data_bytes, 210);
        assert_eq!(r.control_bytes, 32);
        assert_eq!(r.total_bytes(), 242);
        assert_eq!(r.contacts, 1);
    }

    #[test]
    fn empty_run_has_zero_rates() {
        let r = MetricsCollector::new().finish("empty");
        assert_eq!(r.delivery_ratio(), 0.0);
        assert_eq!(r.mean_delay_mins(), 0.0);
        assert_eq!(r.forwardings_per_delivered(), 0.0);
        assert_eq!(r.false_positive_rate(), 0.0);
    }

    #[test]
    fn display_mentions_protocol() {
        let r = MetricsCollector::new().finish("b-sub");
        assert!(r.to_string().starts_with("b-sub:"));
    }

    #[test]
    fn injection_fpr_computed() {
        let mut m = MetricsCollector::new();
        m.on_injection(false);
        m.on_injection(false);
        m.on_injection(true);
        let r = m.finish("t");
        assert_eq!(r.injections, 3);
        assert_eq!(r.false_injections, 1);
        assert!((r.injection_fpr() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn injection_fpr_zero_when_no_injections() {
        assert_eq!(MetricsCollector::new().finish("t").injection_fpr(), 0.0);
    }

    // Saturation tests: one per tally site, proving a wrap-capable
    // counter pegs at the ceiling instead of wrapping on overflow.

    #[test]
    fn generated_and_target_pairs_saturate() {
        let mut m = MetricsCollector::new();
        m.on_generated(u64::MAX);
        m.on_generated(u64::MAX);
        let r = m.finish("t");
        assert_eq!(r.generated, 2);
        assert_eq!(r.target_pairs, u64::MAX);
    }

    #[test]
    fn forwardings_and_data_bytes_saturate() {
        let mut m = MetricsCollector::new();
        m.on_forwarding(u64::MAX);
        m.on_forwarding(u64::MAX);
        let r = m.finish("t");
        assert_eq!(r.forwardings, 2);
        assert_eq!(r.data_bytes, u64::MAX);
    }

    #[test]
    fn control_bytes_saturate() {
        let mut m = MetricsCollector::new();
        m.on_control(u64::MAX);
        m.on_control(1);
        assert_eq!(m.finish("t").control_bytes, u64::MAX);
    }

    #[test]
    fn injections_saturate() {
        let mut m = MetricsCollector::new();
        m.injections = u64::MAX;
        m.false_injections = u64::MAX;
        m.on_injection(true);
        let r = m.finish("t");
        assert_eq!(r.injections, u64::MAX);
        assert_eq!(r.false_injections, u64::MAX);
    }

    #[test]
    fn contacts_saturate() {
        let mut m = MetricsCollector::new();
        m.contacts = u64::MAX;
        m.on_contact();
        assert_eq!(m.finish("t").contacts, u64::MAX);
    }

    #[test]
    fn total_bytes_saturates() {
        let mut m = MetricsCollector::new();
        m.on_control(u64::MAX - 10);
        m.on_forwarding(100);
        assert_eq!(m.finish("t").total_bytes(), u64::MAX);
    }

    /// `absorb_costs` folds only the scalar cost tallies — deliveries,
    /// generation counts, contacts, and delays stay untouched so the
    /// coordinator's own accounting is not double-counted.
    #[test]
    fn absorb_costs_merges_only_scalar_costs() {
        let mut remote = MetricsCollector::new();
        remote.on_generated(5);
        remote.on_contact();
        remote.on_forwarding(100);
        remote.on_control(32);
        remote.on_injection(true);
        remote.on_injection(false);
        let _ = remote.on_delivery(
            &msg(1, 0, 1000),
            NodeId::new(1),
            SimTime::from_secs(10),
            true,
        );
        let report = remote.finish("remote");

        let mut home = MetricsCollector::new();
        home.on_forwarding(1);
        home.absorb_costs(&report);
        let r = home.finish("home");
        assert_eq!(r.forwardings, 2);
        assert_eq!(r.data_bytes, 101);
        assert_eq!(r.control_bytes, 32);
        assert_eq!(r.injections, 2);
        assert_eq!(r.false_injections, 1);
        // Excluded on purpose:
        assert_eq!(r.generated, 0);
        assert_eq!(r.contacts, 0);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.delay_total, SimDuration::from_secs(0));
    }

    #[test]
    fn duplicate_false_delivery_ignored() {
        let mut m = MetricsCollector::new();
        let a = msg(1, 0, 1000);
        assert_eq!(
            m.on_delivery(&a, NodeId::new(3), SimTime::from_secs(1), false),
            DeliveryOutcome::FalsePositive
        );
        assert_eq!(
            m.on_delivery(&a, NodeId::new(3), SimTime::from_secs(2), false),
            DeliveryOutcome::Duplicate
        );
        assert_eq!(m.finish("t").false_delivered, 1);
    }
}
