//! PUSH: epidemic flooding.

use bsub_obs::codec::{Reader, Writer};
use bsub_obs::{self as obs, Gauge};
use bsub_sim::{Link, Message, Protocol, SimCtx, TraceEvent};
use bsub_traces::{ContactEvent, NodeId};
use std::sync::Arc;

/// The PUSH baseline: every node replicates every message it stores to
/// every encountered node that has not received a copy yet, within the
/// contact's bandwidth budget and the message's TTL.
///
/// PUSH floods, so (modulo bandwidth) its delivery ratio and delay are
/// the optimum any forwarding scheme can reach — the paper uses it as
/// the upper bound in Figs. 7–8.
///
/// Internally each node's holdings are a bit set over message ids
/// (the simulator assigns them densely from 0), so a contact is an
/// anti-entropy sweep: the candidate set is
/// `src.has & !dst.has & !expired`, computed word-wise — this is what
/// keeps full-trace PUSH runs fast despite millions of replications.
#[derive(Debug)]
pub struct Push {
    /// Registry of every generated message, indexed by raw id. Each
    /// entry shares the simulator's allocation — replication moves ids
    /// and bits, never payload copies.
    messages: Vec<Arc<Message>>,
    /// Per-node holdings.
    has: Vec<BitSet>,
    /// Globally expired messages (lazily discovered).
    expired: BitSet,
    /// Contacts seen while profiling — schedules the sampled
    /// occupancy walk. Metrics-only state: never read by the
    /// protocol logic, untouched when profiling is off.
    occupancy_probe: u64,
}

impl Push {
    /// Creates PUSH state for `nodes` nodes.
    #[must_use]
    pub fn new(nodes: u32) -> Self {
        Self {
            messages: Vec::new(),
            has: (0..nodes).map(|_| BitSet::default()).collect(),
            expired: BitSet::default(),
            occupancy_probe: 0,
        }
    }

    /// Number of live (unexpired-so-far-as-known) copies across nodes —
    /// diagnostics for tests.
    #[must_use]
    pub fn known_live_copies(&self) -> usize {
        self.has
            .iter()
            .map(|h| h.count_and_not(&self.expired))
            .sum()
    }

    /// Buffer occupancy across all nodes: (live copies, bytes those
    /// copies occupy). PUSH counts every replica — a message buffered
    /// on three nodes costs its size three times.
    fn buffer_occupancy(&self) -> (u64, u64) {
        let mut msgs: u64 = 0;
        let mut bytes: u64 = 0;
        for h in &self.has {
            for (w, &word) in h.words.iter().enumerate() {
                let mut live = word & !self.expired.word(w);
                while live != 0 {
                    let bit = live.trailing_zeros() as usize;
                    live &= live - 1;
                    msgs = msgs.saturating_add(1);
                    bytes = bytes.saturating_add(u64::from(self.messages[w * 64 + bit].size));
                }
            }
        }
        (msgs, bytes)
    }

    /// Replicates from `src` to `dst` until the link budget runs out.
    fn replicate(&mut self, ctx: &mut SimCtx<'_>, link: &mut Link, src: NodeId, dst: NodeId) {
        let now = ctx.now();
        let mut expired_now: u64 = 0;
        let words = self.has[src.index()].words.len();
        'sweep: for w in 0..words {
            let src_w = self.has[src.index()].word(w);
            let dst_w = self.has[dst.index()].word(w);
            let exp_w = self.expired.word(w);
            let mut candidates = src_w & !dst_w & !exp_w;
            while candidates != 0 {
                let bit = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let id = w * 64 + bit;
                let msg = &self.messages[id];
                if msg.is_expired(now) {
                    self.expired.set(id);
                    expired_now += 1;
                    continue;
                }
                if !ctx.transfer_message(link, msg) {
                    break 'sweep; // bandwidth exhausted for this direction
                }
                self.has[dst.index()].set(id);
                // A node hands a message to its application only when
                // the key matches its own interest (exact match — no
                // filters, hence no false deliveries in PUSH).
                if ctx.subscriptions().is_interested(dst, &msg.key) {
                    let _ = ctx.deliver(dst, msg);
                }
            }
        }
        if expired_now > 0 {
            ctx.emit(|| TraceEvent::Expired {
                at: now,
                node: src,
                count: expired_now,
            });
        }
    }
}

impl Protocol for Push {
    fn name(&self) -> &str {
        "PUSH"
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: &Arc<Message>) {
        let id = msg.id.raw() as usize;
        // The simulator assigns ids densely in generation order.
        debug_assert_eq!(id, self.messages.len(), "dense message ids expected");
        self.messages.push(Arc::clone(msg));
        self.has[msg.producer.index()].set(id);
        if ctx.subscriptions().is_interested(msg.producer, &msg.key) {
            let _ = ctx.deliver(msg.producer, msg);
        }
    }

    fn on_node_reset(&mut self, _ctx: &mut SimCtx<'_>, node: NodeId) {
        // A node rejoining after churn lost its buffer: the has-bits
        // ARE its store, so the restart clears them. (Flooding will
        // refill the buffer from any peer, including re-transfers of
        // copies held before the outage.)
        self.has[node.index()] = BitSet::default();
    }

    /// PUSH's per-node state is exactly its holdings bit set: the
    /// message registry is rebuilt identically by every process (all
    /// of them apply every publish in schedule order), and the global
    /// `expired` set is pure memoization of `is_expired` — forwarding
    /// decisions are identical whether or not it is warm.
    fn export_node(&self, node: NodeId) -> Option<Vec<u8>> {
        let has = self.has.get(node.index())?;
        let mut w = Writer::new();
        w.u8(1); // version
        w.u32(has.words.len() as u32);
        for &word in &has.words {
            w.u64(word);
        }
        Some(w.into_bytes())
    }

    fn import_node(&mut self, node: NodeId, bytes: &[u8]) -> bool {
        if node.index() >= self.has.len() {
            return false;
        }
        let mut r = Reader::new(bytes);
        let parsed = (|| {
            if r.u8()? != 1 {
                return None;
            }
            let words = (0..r.count(8)?).map(|_| r.u64()).collect();
            r.finish()?;
            words
        })();
        match parsed {
            Some(words) => {
                self.has[node.index()] = BitSet { words };
                true
            }
            None => false,
        }
    }

    fn on_contact(&mut self, ctx: &mut SimCtx<'_>, contact: &ContactEvent, link: &mut Link) {
        self.replicate(ctx, link, contact.a, contact.b);
        self.replicate(ctx, link, contact.b, contact.a);
        // PUSH has no brokers or filters; only the buffered-copy gauge
        // is meaningful. The walk is O(nodes × messages) — under
        // flooding that dwarfs the contact itself, so it runs on a
        // sampled schedule, and only while profiling.
        if obs::is_active() {
            if self
                .occupancy_probe
                .is_multiple_of(obs::OCCUPANCY_SAMPLE_PERIOD)
            {
                let (msgs, bytes) = self.buffer_occupancy();
                obs::gauge_set(Gauge::BufferMsgs, msgs);
                obs::gauge_set(Gauge::BufferBytes, bytes);
            }
            self.occupancy_probe = self.occupancy_probe.wrapping_add(1);
        }
        let now = ctx.now();
        ctx.emit(|| TraceEvent::Snapshot {
            at: now,
            brokers: 0,
            buffered: self.known_live_copies() as u64,
            relay_fill: 0.0,
            relay_fpr: 0.0,
            max_counter: 0,
        });
    }
}

/// A growable bit set over dense message ids.
#[derive(Debug, Default, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn set(&mut self, idx: usize) {
        let w = idx / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (idx % 64);
    }

    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    #[cfg(test)]
    fn get(&self, idx: usize) -> bool {
        self.word(idx / 64) & (1 << (idx % 64)) != 0
    }

    fn count_and_not(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(w, &bits)| (bits & !other.word(w)).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_sim::{GeneratedMessage, SimConfig, Simulation, SubscriptionTable};
    use bsub_traces::{ContactTrace, SimDuration, SimTime};

    fn line_trace() -> ContactTrace {
        // 0 meets 1, later 1 meets 2: a two-hop path.
        ContactTrace::new(
            "line",
            3,
            vec![
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(100),
                    SimTime::from_secs(200),
                ),
                ContactEvent::new(
                    NodeId::new(1),
                    NodeId::new(2),
                    SimTime::from_secs(300),
                    SimTime::from_secs(400),
                ),
            ],
        )
        .unwrap()
    }

    fn one_message(key: &str) -> Vec<GeneratedMessage> {
        vec![GeneratedMessage {
            at: SimTime::from_secs(10),
            producer: NodeId::new(0),
            key: key.into(),
            size: 100,
        }]
    }

    #[test]
    fn floods_across_multiple_hops() {
        let trace = line_trace();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sched = one_message("news");
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Push::new(3));
        assert_eq!(report.delivered, 1, "two-hop delivery via flooding");
        assert_eq!(report.forwardings, 2, "0→1 and 1→2");
        assert_eq!(report.false_delivered, 0, "PUSH never falsely delivers");
    }

    #[test]
    fn no_duplicate_replication() {
        // Two contacts between the same pair: the second must not
        // re-transfer.
        let trace = ContactTrace::new(
            "pair",
            2,
            vec![
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(100),
                    SimTime::from_secs(200),
                ),
                ContactEvent::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    SimTime::from_secs(300),
                    SimTime::from_secs(400),
                ),
            ],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        let sched = one_message("news");
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let report = sim.run(&mut Push::new(2));
        assert_eq!(report.forwardings, 1);
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn respects_ttl() {
        let trace = line_trace();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sched = one_message("news");
        let config = SimConfig {
            ttl: SimDuration::from_secs(150), // expires at t=160 < 300
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace, subs, sched, config);
        let mut push = Push::new(3);
        let report = sim.run(&mut push);
        // First hop may happen (contact at 100 < 160) but the second
        // cannot.
        assert_eq!(report.delivered, 0);
        assert!(report.forwardings <= 1);
        // The second contact lazily discovers the expiry.
        assert_eq!(push.known_live_copies(), 0);
    }

    #[test]
    fn respects_bandwidth() {
        let trace = ContactTrace::new(
            "tight",
            2,
            vec![ContactEvent::new(
                NodeId::new(0),
                NodeId::new(1),
                SimTime::from_secs(100),
                SimTime::from_secs(101), // 1 s contact
            )],
        )
        .unwrap();
        let mut subs = SubscriptionTable::new(2);
        subs.subscribe(NodeId::new(1), "news");
        // Three 100-byte messages, budget 150 bytes => at most 1 fits.
        let sched: Vec<GeneratedMessage> = (0..3)
            .map(|i| GeneratedMessage {
                at: SimTime::from_secs(10 + i),
                producer: NodeId::new(0),
                key: "news".into(),
                size: 100,
            })
            .collect();
        let config = SimConfig {
            bytes_per_sec: 150,
            ..SimConfig::default()
        };
        let sim = Simulation::new(trace, subs, sched, config);
        let report = sim.run(&mut Push::new(2));
        assert_eq!(report.forwardings, 1);
        assert_eq!(report.delivered, 1);
    }

    /// Replication shares the payload allocation: after a flooding run
    /// every copy in the network is a bit in `has`, and the registry
    /// holds the only strong reference to each message — storing and
    /// forwarding never clone the payload.
    #[test]
    fn replication_shares_payload_allocation() {
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sim = Simulation::new(
            line_trace(),
            subs,
            one_message("news"),
            SimConfig::default(),
        );
        let mut push = Push::new(3);
        let report = sim.run(&mut push);
        assert_eq!(report.delivered, 1);
        assert_eq!(push.messages.len(), 1);
        assert_eq!(
            Arc::strong_count(&push.messages[0]),
            1,
            "flooding to two peers must not copy the payload"
        );
    }

    #[test]
    fn churn_reset_clears_relay_buffer() {
        use bsub_sim::FaultSpec;
        // Two-hop line: node 1 picks up the copy at t=100s, goes down
        // for a churn cell, and rejoins for the t=300s contact with an
        // empty buffer — the flood dies at the relay.
        let period = SimDuration::from_secs(100);
        let n = NodeId::new;
        let spec = (0..10_000u64)
            .map(|seed| {
                FaultSpec::none()
                    .with_seed(seed)
                    .with_churn(300_000, period)
            })
            .find(|s| {
                (0..=1).all(|c| !s.node_down(n(0), c))
                    && !s.node_down(n(1), 1)
                    && s.node_down(n(1), 2)
                    && !s.node_down(n(1), 3)
                    && (0..=3).all(|c| !s.node_down(n(2), c))
            })
            .expect("some seed downs the relay between the hops");
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sim = Simulation::new(
            line_trace(),
            subs,
            one_message("news"),
            SimConfig::default(),
        )
        .with_faults(spec);
        let mut push = Push::new(3);
        let report = sim.run(&mut push);
        assert_eq!(report.forwardings, 1, "only the first hop happened");
        assert_eq!(report.delivered, 0, "the relay's buffer was wiped");
        assert_eq!(push.known_live_copies(), 1, "only the producer's copy");
    }

    /// export → import into a fresh sibling → re-export is
    /// byte-identical, and the imported holdings flood onward exactly
    /// like the originals.
    #[test]
    fn node_snapshot_round_trips() {
        let trace = line_trace();
        let mut subs = SubscriptionTable::new(3);
        subs.subscribe(NodeId::new(2), "news");
        let sched = one_message("news");
        let sim = Simulation::new(trace, subs, sched, SimConfig::default());
        let mut push = Push::new(3);
        let _ = sim.run(&mut push);

        let mut sibling = Push::new(3);
        for i in 0..3 {
            let node = NodeId::new(i);
            let snap = push.export_node(node).expect("PUSH exports");
            assert!(sibling.import_node(node, &snap));
            assert_eq!(sibling.export_node(node).unwrap(), snap);
        }
        for i in 0..3 {
            assert_eq!(
                sibling.has[i].words, push.has[i].words,
                "holdings of node {i} survive the round trip"
            );
        }
        // Malformed inputs reject.
        let good = push.export_node(NodeId::new(1)).unwrap();
        assert!(!sibling.import_node(NodeId::new(1), &good[..good.len() - 1]));
        assert!(!sibling.import_node(NodeId::new(99), &good));
        assert_eq!(push.export_node(NodeId::new(99)), None);
    }

    #[test]
    fn bitset_set_get_across_words() {
        let mut b = BitSet::default();
        for idx in [0usize, 63, 64, 127, 1000] {
            assert!(!b.get(idx));
            b.set(idx);
            assert!(b.get(idx));
        }
        assert!(!b.get(500));
        assert_eq!(b.word(100), 0, "unset high words read as zero");
    }

    #[test]
    fn bitset_count_and_not() {
        let mut a = BitSet::default();
        let mut b = BitSet::default();
        a.set(1);
        a.set(70);
        a.set(200);
        b.set(70);
        assert_eq!(a.count_and_not(&b), 2);
        assert_eq!(b.count_and_not(&a), 0);
    }
}
