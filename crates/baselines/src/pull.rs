//! PULL: one-hop interest collection.

use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{self as obs, Gauge};
use bsub_sim::snapshot::{read_message, write_message, MESSAGE_MIN_LEN};
use bsub_sim::{Link, Message, MessageId, Protocol, SimCtx, TraceEvent};
use bsub_traces::{ContactEvent, NodeId, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// The PULL baseline: on a contact, each node announces its own
/// interests (as raw strings) and collects matching messages from the
/// peer's *own published* store. Nothing is ever relayed, so delivery
/// requires a direct producer–consumer meeting — the paper's most
/// conservative scheme, with near-optimal per-delivery overhead
/// (Fig. 7(c): "PULL actually has the best performance because it is
/// the most conservative") but the worst delivery ratio and delay.
#[derive(Debug)]
pub struct Pull {
    nodes: Vec<NodeState>,
    /// Contacts seen while profiling — schedules the sampled
    /// occupancy walk. Metrics-only state: never read by the
    /// protocol logic, untouched when profiling is off.
    occupancy_probe: u64,
}

#[derive(Debug, Default)]
struct NodeState {
    /// Messages this node itself published (nobody relays in PULL).
    /// Payloads are shared with the simulator's registry.
    published: Vec<Arc<Message>>,
    /// Message ids this node already pulled (suppresses re-transfer).
    collected: HashSet<MessageId>,
}

impl Pull {
    /// Creates PULL state for `nodes` nodes.
    #[must_use]
    pub fn new(nodes: u32) -> Self {
        Self {
            nodes: (0..nodes).map(|_| NodeState::default()).collect(),
            occupancy_probe: 0,
        }
    }

    fn prune(&mut self, ctx: &mut SimCtx<'_>, node: NodeId, now: SimTime) {
        let published = &mut self.nodes[node.index()].published;
        let before = published.len();
        published.retain(|m| !m.is_expired(now));
        let dropped = (before - published.len()) as u64;
        if dropped > 0 {
            ctx.emit(|| TraceEvent::Expired {
                at: now,
                node,
                count: dropped,
            });
        }
    }

    /// `consumer` pulls matching messages from `producer`'s published
    /// store.
    fn pull_from(
        &mut self,
        ctx: &mut SimCtx<'_>,
        link: &mut Link,
        consumer: NodeId,
        producer: NodeId,
    ) {
        // The consumer announces its interests as raw strings (plus
        // 2-byte length prefixes), the control cost PULL pays.
        let interests: Vec<_> = ctx.subscriptions().interests_of(consumer).to_vec();
        if interests.is_empty() {
            return;
        }
        let announce: u64 = interests.iter().map(|k| 2 + k.len() as u64).sum();
        if !ctx.send_control(link, announce) {
            return;
        }
        let now = ctx.now();
        let mut pulled = Vec::new();
        {
            let producer_state = &self.nodes[producer.index()];
            let consumer_state = &self.nodes[consumer.index()];
            for msg in &producer_state.published {
                if msg.is_expired(now)
                    || consumer_state.collected.contains(&msg.id)
                    || !interests.iter().any(|k| **k == *msg.key)
                {
                    continue;
                }
                if !ctx.transfer_message(link, msg) {
                    break;
                }
                pulled.push(Arc::clone(msg));
            }
        }
        for msg in pulled {
            self.nodes[consumer.index()].collected.insert(msg.id);
            let _ = ctx.deliver(consumer, &msg);
        }
    }
}

impl Protocol for Pull {
    fn name(&self) -> &str {
        "PULL"
    }

    fn on_message(&mut self, _ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
        self.nodes[msg.producer.index()]
            .published
            .push(Arc::clone(msg));
    }

    fn on_node_reset(&mut self, _ctx: &mut SimCtx<'_>, node: NodeId) {
        // A restart loses the published buffer and the pulled-id
        // history; already-delivered messages stay delivered (the
        // metrics layer owns that), but a re-encounter may re-transfer.
        self.nodes[node.index()] = NodeState::default();
    }

    /// PULL's per-node state: the published store (full message
    /// records, in Vec order — pull iteration order is behavioral) and
    /// the collected-id set (canonically sorted).
    fn export_node(&self, node: NodeId) -> Option<Vec<u8>> {
        let state = self.nodes.get(node.index())?;
        let mut w = Writer::new();
        w.u8(1); // version
        w.u32(state.published.len() as u32);
        for msg in &state.published {
            write_message(&mut w, msg);
        }
        let mut collected: Vec<u64> = state.collected.iter().map(|id| id.raw()).collect();
        collected.sort_unstable();
        w.u32(collected.len() as u32);
        for id in collected {
            w.u64(id);
        }
        Some(w.into_bytes())
    }

    fn import_node(&mut self, node: NodeId, bytes: &[u8]) -> bool {
        if node.index() >= self.nodes.len() {
            return false;
        }
        let mut r = Reader::new(bytes);
        let parsed = (|| {
            if r.u8()? != 1 {
                return None;
            }
            let published = (0..r.count(MESSAGE_MIN_LEN)?)
                .map(|_| read_message(&mut r).map(Arc::new))
                .collect::<Option<_>>()?;
            let collected = (0..r.count(8)?)
                .map(|_| r.u64().map(MessageId::new))
                .collect::<Option<_>>()?;
            r.finish()?;
            Some(NodeState {
                published,
                collected,
            })
        })();
        match parsed {
            Some(state) => {
                self.nodes[node.index()] = state;
                true
            }
            None => false,
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
        let now = ctx.now();
        self.prune(ctx, contact.a, now);
        self.prune(ctx, contact.b, now);
        self.pull_from(ctx, link, contact.a, contact.b);
        self.pull_from(ctx, link, contact.b, contact.a);
        // PULL never relays: the only buffered copies are the
        // producers' own published stores. Walked on a sampled
        // schedule while profiling (see `OCCUPANCY_SAMPLE_PERIOD`).
        if obs::is_active() {
            if self
                .occupancy_probe
                .is_multiple_of(obs::OCCUPANCY_SAMPLE_PERIOD)
            {
                let mut msgs: u64 = 0;
                let mut bytes: u64 = 0;
                for n in &self.nodes {
                    msgs = msgs.saturating_add(n.published.len() as u64);
                    for m in &n.published {
                        bytes = bytes.saturating_add(u64::from(m.size));
                    }
                }
                obs::gauge_set(Gauge::BufferMsgs, msgs);
                obs::gauge_set(Gauge::BufferBytes, bytes);
            }
            self.occupancy_probe = self.occupancy_probe.wrapping_add(1);
        }
        ctx.emit(|| TraceEvent::Snapshot {
            at: now,
            brokers: 0,
            buffered: self.nodes.iter().map(|n| n.published.len() as u64).sum(),
            relay_fill: 0.0,
            relay_fpr: 0.0,
            max_counter: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_sim::{GeneratedMessage, SimConfig, Simulation, SubscriptionTable};
    use bsub_traces::{ContactTrace, SimDuration};

    fn contact(a: u32, b: u32, start: u64, end: u64) -> ContactEvent {
        ContactEvent::new(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
    }

    fn message(at: u64, producer: u32, key: &str) -> GeneratedMessage {
        GeneratedMessage {
            at: SimTime::from_secs(at),
            producer: NodeId::new(producer),
            key: key.into(),
            size: 100,
        }
    }

    #[test]
    fn direct_meeting_delivers() {
        let trace = ContactTrace::new("d", 2, vec![contact(0, 1, 100, 200)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.delivered, 1);
        assert_eq!(report.forwardings, 1);
        assert!(
            report.control_bytes > 0,
            "interest announcement costs bytes"
        );
    }

    #[test]
    fn never_relays() {
        // 0 → 1 → 2 path exists, but PULL must not use node 1 as relay.
        let trace = ContactTrace::new(
            "line",
            3,
            vec![contact(0, 1, 100, 200), contact(1, 2, 300, 400)],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Pull::new(3));
        assert_eq!(report.delivered, 0, "no producer-consumer meeting");
        assert_eq!(report.forwardings, 0);
    }

    #[test]
    fn only_matching_keys_pulled() {
        let trace = ContactTrace::new("m", 2, vec![contact(0, 1, 50, 150)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "sports");
        let sched = vec![message(10, 0, "news"), message(11, 0, "sports")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.delivered, 1);
        assert_eq!(report.forwardings, 1, "only the matching message moves");
    }

    #[test]
    fn repeat_contacts_do_not_redeliver() {
        let trace = ContactTrace::new(
            "rep",
            2,
            vec![contact(0, 1, 50, 150), contact(0, 1, 500, 600)],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.forwardings, 1, "collected set suppresses re-pull");
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn ttl_respected() {
        let trace = ContactTrace::new("t", 2, vec![contact(0, 1, 500, 600)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let config = SimConfig {
            ttl: SimDuration::from_secs(100), // expires at 110 < 500
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace, subs, sched, config);
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.delivered, 0);
        assert_eq!(report.forwardings, 0);
    }

    /// Published and pulled copies share one allocation per message.
    #[test]
    fn pull_shares_payload_allocation() {
        let trace = ContactTrace::new("d", 2, vec![contact(0, 1, 100, 200)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let mut pull = Pull::new(2);
        let report = sim.run(&mut pull);
        assert_eq!(report.delivered, 1);
        let published = &pull.nodes[0].published;
        assert_eq!(published.len(), 1);
        assert_eq!(
            Arc::strong_count(&published[0]),
            1,
            "the producer's store owns the only copy after the run"
        );
    }

    #[test]
    fn churn_reset_clears_published_store() {
        use bsub_sim::FaultSpec;
        // The producer restarts between publishing (t=10s) and its only
        // consumer meeting (t=300s): the published store is empty, so a
        // contact that would have delivered pulls nothing.
        let period = SimDuration::from_secs(100);
        let n = NodeId::new;
        let spec = (0..10_000u64)
            .map(|seed| {
                FaultSpec::none()
                    .with_seed(seed)
                    .with_churn(300_000, period)
            })
            .find(|s| {
                (0..=2).any(|c| s.node_down(n(0), c))
                    && !s.node_down(n(0), 3)
                    && !s.node_down(n(1), 3)
            })
            .expect("some seed downs the producer before the meeting");
        let trace = ContactTrace::new("r", 2, vec![contact(0, 1, 300, 400)]).unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default()).with_faults(spec);
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.delivered, 0, "the restart dropped the publication");
        assert_eq!(report.forwardings, 0);
        assert!(report.control_bytes > 0, "the announcement was still paid");
    }

    /// export → import into a fresh sibling → re-export is
    /// byte-identical for both the published store and collected set.
    #[test]
    fn node_snapshot_round_trips() {
        let trace = ContactTrace::new(
            "rt",
            2,
            vec![contact(0, 1, 50, 150), contact(0, 1, 500, 600)],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = vec![message(10, 0, "news"), message(11, 0, "other")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let mut pull = Pull::new(2);
        let _ = sim.run(&mut pull);
        assert!(!pull.nodes[0].published.is_empty());
        assert!(!pull.nodes[1].collected.is_empty());

        let mut sibling = Pull::new(2);
        for i in 0..2 {
            let node = NodeId::new(i);
            let snap = pull.export_node(node).expect("PULL exports");
            assert!(sibling.import_node(node, &snap));
            assert_eq!(sibling.export_node(node).unwrap(), snap);
        }
        assert_eq!(
            sibling.nodes[0].published.len(),
            pull.nodes[0].published.len()
        );
        assert_eq!(sibling.nodes[1].collected, pull.nodes[1].collected);
        // Malformed inputs reject.
        let good = pull.export_node(NodeId::new(0)).unwrap();
        assert!(!sibling.import_node(NodeId::new(0), &good[..good.len() - 1]));
        assert!(!sibling.import_node(NodeId::new(99), &good));
        assert_eq!(pull.export_node(NodeId::new(99)), None);
    }

    #[test]
    fn uninterested_consumer_costs_nothing() {
        let trace = ContactTrace::new("u", 2, vec![contact(0, 1, 50, 150)]).unwrap();
        let subs = SubscriptionTable::new(2); // nobody subscribed
        let sched = vec![message(10, 0, "news")];
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Pull::new(2));
        assert_eq!(report.total_bytes(), 0);
    }
}
