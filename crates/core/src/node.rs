//! Per-node protocol state.

use crate::broker::ElectionLog;
use crate::config::{BsubConfig, DfMode};
use crate::df::AdaptiveDf;
use crate::keys::KeyId;
use bsub_bloom::{Decayer, KeyHasher, Tcbf};
use bsub_sim::{Message, MessageIdSet};
use bsub_traces::{NodeId, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// A node's current role in the two-tier B-SUB structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A normal user: produces and consumes, but does not relay.
    User,
    /// A broker: additionally collects subscriptions (relay filter)
    /// and carries messages.
    Broker,
}

/// The hash configuration every B-SUB filter shares (Section IV-A):
/// the one a message key's `Probe` is computed under.
pub(crate) const NETWORK_HASHER: KeyHasher = KeyHasher::new();

/// The expiry bound of empty stores: later than any message's expiry.
const NEVER: SimTime = SimTime::from_millis(u64::MAX);

/// The consumers one message copy was handed to: a sorted, duplicate-free
/// `Vec`. A copy reaches a handful of consumers, so a binary search
/// beats hashing, and the set costs one pointer triple in its entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct NodeSet(Vec<NodeId>);

impl NodeSet {
    /// The set of `ids`, given in any order and with repeats: one sort
    /// and one dedup, never an insertion per element.
    pub fn from_unsorted(mut ids: Vec<NodeId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Self(ids)
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        self.0.binary_search(&node).is_ok()
    }

    /// Adds `node`; returns whether it was absent.
    pub fn insert(&mut self, node: NodeId) -> bool {
        match self.0.binary_search(&node) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, node);
                true
            }
        }
    }

    /// The members in ascending order.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.0
    }
}

/// A message carried by a broker. The payload is shared (`Arc`) with
/// the producer's store and the simulator — moving a message between
/// stores never copies it.
#[derive(Debug, Clone)]
pub(crate) struct Carried {
    pub msg: Arc<Message>,
    /// The message key's id in the protocol's key table, assigned when
    /// the message was published and copied with every replica:
    /// matching a copy against a filter never re-hashes its key.
    /// Derived state — snapshot import re-interns the key.
    pub key: KeyId,
    /// Consumers this copy was already handed to (suppresses repeated
    /// transfers on later meetings; the metrics would dedup anyway,
    /// but re-sending would waste link budget and inflate the
    /// forwarding count).
    pub delivered_to: NodeSet,
}

/// A message in its producer's memory (payload shared, see
/// [`Carried`]).
#[derive(Debug, Clone)]
pub(crate) struct Produced {
    pub msg: Arc<Message>,
    /// The message key's id (see [`Carried::key`]).
    pub key: KeyId,
    /// Broker copies still allowed (starts at ℂ; Section V-D: "The
    /// message is removed from the producer's memory after its copy
    /// number reaches the limit").
    pub copies_left: u32,
    /// Consumers served directly (direct deliveries are not copies).
    pub delivered_to: NodeSet,
}

impl Carried {
    /// A fresh copy of `msg`, whose key has id `key`, handed to no
    /// consumer yet.
    pub fn new(msg: Arc<Message>, key: KeyId) -> Self {
        Self {
            msg,
            key,
            delivered_to: NodeSet::default(),
        }
    }
}

impl Produced {
    /// A new publication of `msg`, whose key has id `key`, with
    /// `copies_left` broker copies.
    pub fn new(msg: Arc<Message>, key: KeyId, copies_left: u32) -> Self {
        Self {
            msg,
            key,
            copies_left,
            delivered_to: NodeSet::default(),
        }
    }
}

/// The relay side of a broker.
#[derive(Debug)]
pub(crate) struct RelayState {
    /// The relay filter accumulating consumers' interests.
    pub filter: Tcbf,
    /// Fractional decay accumulator.
    pub decayer: Decayer,
    /// Last instant the filter was decayed to.
    pub last_decay: SimTime,
    /// Contact timestamps within the delay budget (ℕ for Auto DF).
    pub contact_log: VecDeque<SimTime>,
    /// Eq. 4/5 adaptation state (present in Auto mode).
    pub adaptive: Option<AdaptiveDf>,
    /// Ground-truth mirror of the relay filter: an exact counter per
    /// key id of the protocol's key table (0 means absent; ids past
    /// the end are absent too), maintained with the same A-merge /
    /// M-merge / decay semantics as the TCBF. A real node could not
    /// have this (it would defeat the point of the filter); it exists
    /// only so the metrics can label a relay injection as a pure Bloom
    /// false positive (Fig. 9(d)).
    pub shadow: Vec<u32>,
}

impl RelayState {
    pub fn new(config: &BsubConfig, now: SimTime) -> Self {
        let (rate, adaptive) = match config.df {
            DfMode::Disabled => (0.0, None),
            DfMode::Fixed(df) => (df, None),
            DfMode::Auto { delta } => {
                let a = AdaptiveDf::new(
                    config.initial_counter,
                    config.bits,
                    config.hashes,
                    config.delay_limit.as_mins(),
                    delta,
                );
                (a.current(), Some(a))
            }
        };
        Self {
            filter: Tcbf::new(config.bits, config.hashes, config.initial_counter),
            decayer: Decayer::new(rate),
            last_decay: now,
            contact_log: VecDeque::new(),
            adaptive,
            shadow: Vec::new(),
        }
    }

    /// Applies lazy decay up to `now` (filter and shadow identically).
    /// Returns the units subtracted from every counter (0 when the
    /// accumulated fraction has not reached a whole unit yet).
    pub fn decay_to(&mut self, now: SimTime) -> u32 {
        if now <= self.last_decay {
            return 0;
        }
        let minutes = (now - self.last_decay).as_mins();
        let amount = self.decayer.advance(minutes);
        if amount > 0 {
            self.filter.decay(amount);
            for c in &mut self.shadow {
                *c = c.saturating_sub(amount);
            }
        }
        self.last_decay = now;
        amount
    }

    /// A-merges a consumer's genuine filter (and mirrors it in the
    /// shadow: each interest key id gains the consumer's counter
    /// value).
    pub fn absorb_genuine(&mut self, genuine: &Tcbf, interests: &[KeyId], counter: u32) {
        self.filter
            .a_merge(genuine)
            .expect("network-wide filter parameters match");
        for &key in interests {
            let c = self.shadow_mut(key);
            *c = c.saturating_add(counter);
        }
    }

    /// The shadow counter of key `key`, grown to hold it.
    pub fn shadow_mut(&mut self, key: KeyId) -> &mut u32 {
        let at = key as usize;
        if at >= self.shadow.len() {
            self.shadow.resize(at + 1, 0);
        }
        &mut self.shadow[at]
    }

    /// Combines a peer broker's relay filter (and shadow snapshot)
    /// into this one, under the configured merge rule. The paper uses
    /// [`MergeRule::Maximum`]; [`MergeRule::Additive`] exists to
    /// demonstrate the bogus-counter loop of Fig. 6.
    pub fn absorb_relay(&mut self, filter: &Tcbf, shadow: &[u32], rule: crate::config::MergeRule) {
        if self.shadow.len() < shadow.len() {
            self.shadow.resize(shadow.len(), 0);
        }
        let mine = self.shadow.iter_mut().zip(shadow);
        match rule {
            crate::config::MergeRule::Maximum => {
                self.filter
                    .m_merge(filter)
                    .expect("network-wide filter parameters match");
                mine.for_each(|(m, &c)| *m = (*m).max(c));
            }
            crate::config::MergeRule::Additive => {
                self.filter
                    .a_merge(filter)
                    .expect("network-wide filter parameters match");
                mine.for_each(|(m, &c)| *m = m.saturating_add(c));
            }
        }
    }

    /// Whether the relay *truly* holds key `key` (ground truth — a
    /// filter-positive key absent here is a Bloom false positive).
    #[must_use]
    pub fn truly_holds(&self, key: KeyId) -> bool {
        self.shadow.get(key as usize).is_some_and(|&c| c > 0)
    }

    /// Records a consumer contact for ℕ tracking and, in Auto mode,
    /// re-derives the DF.
    pub fn on_consumer_contact(&mut self, now: SimTime, config: &BsubConfig) {
        self.contact_log.push_back(now);
        let cutoff = now.saturating_since(SimTime::ZERO + config.delay_limit);
        let cutoff = SimTime::ZERO + cutoff;
        while self.contact_log.front().is_some_and(|&t| t < cutoff) {
            self.contact_log.pop_front();
        }
        if let Some(adaptive) = &mut self.adaptive {
            let rate = adaptive.update(self.contact_log.len() as u64);
            self.decayer.set_rate_per_min(rate);
        }
    }
}

/// Everything B-SUB keeps for one node.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub role: Role,
    pub election: ElectionLog,
    /// The consumer's genuine filter (its own interests at counter C).
    pub genuine: Tcbf,
    /// Relay state while (or since last being) a broker; `None` for a
    /// node that was never promoted. Demotion drops it.
    pub relay: Option<RelayState>,
    /// Messages carried as a broker. Survives demotion: a demoted
    /// broker still hands its cargo to interested consumers it meets
    /// directly, it just stops accepting new interests and messages.
    /// Entries are added only through [`NodeState::carry`].
    pub store: Vec<Carried>,
    /// Messages this node produced and still replicates/serves.
    /// Entries are added only through [`NodeState::publish`].
    pub published: Vec<Produced>,
    /// A lower bound on the expiry of every entry in `store` and
    /// `published`: [`NodeState::prune`] walks the stores only once
    /// `now` passes it. Insertions lower it; removals only raise the
    /// true minimum, so they leave it as it is.
    pub next_expiry: SimTime,
    /// Every message id this node has held in any role (prevents
    /// copy ping-pong between brokers).
    pub seen: MessageIdSet,
}

impl NodeState {
    pub fn new(config: &BsubConfig, interests: &[std::sync::Arc<str>]) -> Self {
        let genuine = Tcbf::from_keys(
            config.bits,
            config.hashes,
            config.initial_counter,
            interests.iter().map(|k| k.as_bytes()),
        );
        Self {
            role: Role::User,
            election: ElectionLog::new(),
            genuine,
            relay: None,
            store: Vec::new(),
            published: Vec::new(),
            next_expiry: NEVER,
            seen: MessageIdSet::default(),
        }
    }

    pub fn is_broker(&self) -> bool {
        self.role == Role::Broker
    }

    /// Promotion: become a broker with a fresh relay filter.
    pub fn promote(&mut self, config: &BsubConfig, now: SimTime) {
        if self.role == Role::Broker {
            return;
        }
        self.role = Role::Broker;
        self.relay = Some(RelayState::new(config, now));
    }

    /// Demotion: back to a user; the relay filter is dropped, carried
    /// messages are kept (see [`NodeState::store`]).
    pub fn demote(&mut self) {
        self.role = Role::User;
        self.relay = None;
    }

    /// Fault injection: the node rejoined after downtime. Buffered
    /// copies and volatile routing state are gone; what survives is
    /// what a restarted device would still know — its role, its own
    /// subscriptions (the genuine filter), and its election history
    /// (social contacts it remembers). A broker restarts with an empty
    /// relay filter and re-learns interests from scratch.
    pub fn reset_volatile(&mut self, config: &BsubConfig, now: SimTime) {
        self.store.clear();
        self.published.clear();
        self.next_expiry = NEVER;
        self.seen.clear();
        self.relay = if self.role == Role::Broker {
            Some(RelayState::new(config, now))
        } else {
            None
        };
    }

    /// Adds a carried copy to the store.
    pub fn carry(&mut self, copy: Carried) {
        self.next_expiry = self.next_expiry.min(copy.msg.expiry());
        self.store.push(copy);
    }

    /// Adds a publication.
    pub fn publish(&mut self, produced: Produced) {
        self.next_expiry = self.next_expiry.min(produced.msg.expiry());
        self.published.push(produced);
    }

    /// Drops expired messages from both stores; returns how many
    /// copies were dropped. Nothing has expired while `now` is at or
    /// before [`NodeState::next_expiry`], so only a call past it walks
    /// the stores, and that walk recomputes the bound.
    pub fn prune(&mut self, now: SimTime) -> u64 {
        if now <= self.next_expiry {
            return 0;
        }
        let before = self.store.len() + self.published.len();
        let mut next = NEVER;
        let mut live = |msg: &Message| {
            let expiry = msg.expiry();
            if now <= expiry {
                next = next.min(expiry);
            }
            now <= expiry
        };
        self.store.retain(|c| live(&c.msg));
        self.published.retain(|p| live(&p.msg));
        self.next_expiry = next;
        (before - self.store.len() - self.published.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_bloom::SplitMix64;
    use bsub_sim::MessageId;
    use bsub_traces::SimDuration;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Seeded inserts, lookups and bulk builds against a `HashSet`
    /// model: same answers, and the members stay sorted and unique.
    #[test]
    fn node_set_matches_a_hash_set_model() {
        let mut rng = SplitMix64::new(0x6e6f_6465);
        for round in 0..200 {
            let universe = 1 + rng.below(64) as u32;
            let mut set = NodeSet::default();
            let mut model = HashSet::new();
            for _ in 0..rng.below(96) {
                let node = NodeId::new(rng.below(u64::from(universe)) as u32);
                assert_eq!(set.insert(node), model.insert(node), "round {round}");
            }
            for i in 0..universe + 2 {
                let node = NodeId::new(i);
                assert_eq!(set.contains(node), model.contains(&node), "round {round}");
            }
            let mut sorted: Vec<NodeId> = model.iter().copied().collect();
            sorted.sort_unstable();
            assert_eq!(set.as_slice(), sorted.as_slice(), "round {round}");

            // Any order, any repeats: the bulk build is the same set.
            let mut shuffled: Vec<NodeId> = sorted.iter().chain(&sorted).copied().collect();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            assert_eq!(NodeSet::from_unsorted(shuffled), set, "round {round}");
        }
    }

    #[test]
    fn store_entries_are_forty_bytes() {
        assert_eq!(std::mem::size_of::<Carried>(), 40);
        assert_eq!(std::mem::size_of::<Produced>(), 40);
    }

    fn config() -> BsubConfig {
        BsubConfig::builder().df(DfMode::Fixed(1.0)).build()
    }

    fn interests(keys: &[&str]) -> Vec<Arc<str>> {
        keys.iter().map(|&k| Arc::from(k)).collect()
    }

    #[test]
    fn new_node_is_user_with_genuine_filter() {
        let n = NodeState::new(&config(), &interests(&["news"]));
        assert_eq!(n.role, Role::User);
        assert!(!n.is_broker());
        assert!(n.genuine.contains("news"));
        assert!(!n.genuine.contains("sports"));
        assert!(n.relay.is_none());
    }

    #[test]
    fn promote_then_demote() {
        let cfg = config();
        let mut n = NodeState::new(&cfg, &interests(&["news"]));
        n.promote(&cfg, SimTime::ZERO);
        assert!(n.is_broker());
        assert!(n.relay.is_some());
        n.demote();
        assert!(!n.is_broker());
        assert!(n.relay.is_none());
    }

    #[test]
    fn promote_is_idempotent() {
        let cfg = config();
        let mut n = NodeState::new(&cfg, &interests(&["news"]));
        n.promote(&cfg, SimTime::ZERO);
        let genuine = Tcbf::from_keys(cfg.bits, cfg.hashes, cfg.initial_counter, ["x"]);
        n.relay.as_mut().unwrap().filter.a_merge(&genuine).unwrap();
        n.promote(&cfg, SimTime::from_secs(10));
        assert!(
            n.relay.as_ref().unwrap().filter.contains("x"),
            "re-promotion must not reset an active relay"
        );
    }

    #[test]
    fn relay_decays_lazily() {
        let cfg = config(); // DF = 1/min
        let mut r = RelayState::new(&cfg, SimTime::ZERO);
        let src = Tcbf::from_keys(cfg.bits, cfg.hashes, 50, ["topic"]);
        r.filter.a_merge(&src).unwrap();
        r.decay_to(SimTime::from_mins(10));
        assert_eq!(r.filter.min_counter("topic"), 40);
        r.decay_to(SimTime::from_mins(60));
        assert!(!r.filter.contains("topic"), "fully decayed after 50 min");
    }

    #[test]
    fn decay_to_is_monotone() {
        let cfg = config();
        let mut r = RelayState::new(&cfg, SimTime::from_mins(100));
        let src = Tcbf::from_keys(cfg.bits, cfg.hashes, 50, ["t"]);
        r.filter.a_merge(&src).unwrap();
        // Going "backwards" in time must be a no-op.
        r.decay_to(SimTime::from_mins(50));
        assert_eq!(r.filter.min_counter("t"), 50);
    }

    #[test]
    fn disabled_df_never_decays() {
        let cfg = BsubConfig::builder().df(DfMode::Disabled).build();
        let mut r = RelayState::new(&cfg, SimTime::ZERO);
        let src = Tcbf::from_keys(cfg.bits, cfg.hashes, 50, ["t"]);
        r.filter.a_merge(&src).unwrap();
        r.decay_to(SimTime::from_days(30));
        assert_eq!(r.filter.min_counter("t"), 50);
    }

    #[test]
    fn auto_df_tracks_contacts() {
        let cfg = BsubConfig::builder()
            .df(DfMode::Auto { delta: 0.0 })
            .delay_limit(SimDuration::from_hours(10))
            .build();
        let mut r = RelayState::new(&cfg, SimTime::ZERO);
        let quiet = r.decayer.rate_per_min();
        for i in 0..500 {
            r.on_consumer_contact(SimTime::from_secs(i * 30), &cfg);
        }
        let busy = r.decayer.rate_per_min();
        assert!(
            busy > quiet,
            "busy broker must decay faster: {busy} vs {quiet}"
        );
        assert_eq!(r.contact_log.len(), 500);
    }

    #[test]
    fn auto_df_contact_log_slides() {
        let cfg = BsubConfig::builder()
            .df(DfMode::Auto { delta: 0.0 })
            .delay_limit(SimDuration::from_mins(10))
            .build();
        let mut r = RelayState::new(&cfg, SimTime::ZERO);
        r.on_consumer_contact(SimTime::from_mins(0), &cfg);
        r.on_consumer_contact(SimTime::from_mins(5), &cfg);
        r.on_consumer_contact(SimTime::from_mins(30), &cfg);
        assert_eq!(r.contact_log.len(), 1, "old contacts outside D dropped");
    }

    #[test]
    fn reset_volatile_drops_cargo_keeps_identity() {
        let cfg = config();
        let mut n = NodeState::new(&cfg, &interests(&["news"]));
        n.promote(&cfg, SimTime::ZERO);
        let taught = Tcbf::from_keys(cfg.bits, cfg.hashes, cfg.initial_counter, ["news"]);
        n.relay.as_mut().unwrap().filter.a_merge(&taught).unwrap();
        let msg = Arc::new(Message {
            id: MessageId::new(1),
            key: "news".into(),
            size: 10,
            created: SimTime::ZERO,
            ttl: SimDuration::from_secs(100),
            producer: NodeId::new(0),
        });
        n.carry(Carried::new(msg.clone(), 0));
        n.publish(Produced::new(msg.clone(), 0, 3));
        n.seen.insert(msg.id);

        n.reset_volatile(&cfg, SimTime::from_secs(60));

        assert!(n.store.is_empty(), "buffered copies are gone");
        assert!(n.published.is_empty());
        assert!(n.seen.is_empty());
        assert!(n.is_broker(), "role survives the restart");
        let relay = n.relay.as_ref().unwrap();
        assert!(
            !relay.filter.contains("news"),
            "the relay filter restarts empty"
        );
        assert!(n.genuine.contains("news"), "own subscriptions survive");
    }

    #[test]
    fn reset_volatile_on_user_has_no_relay() {
        let cfg = config();
        let mut n = NodeState::new(&cfg, &interests(&["news"]));
        n.reset_volatile(&cfg, SimTime::from_secs(60));
        assert!(n.relay.is_none());
        assert_eq!(n.role, Role::User);
    }

    /// Seeded `carry` / `publish` / `swap_remove` / `prune` sequences:
    /// the watermarked prune drops exactly what an eager `retain` on a
    /// model of both stores drops, and the bound never passes the
    /// earliest live expiry.
    #[test]
    fn watermarked_prune_matches_eager_retain() {
        let cfg = config();
        let mut rng = SplitMix64::new(0x7072_756e);
        let ids = |v: &[Arc<Message>]| v.iter().map(|m| m.id).collect::<Vec<_>>();
        for round in 0..300 {
            let mut n = NodeState::new(&cfg, &interests(&["k"]));
            let (mut store, mut published): (Vec<Arc<Message>>, Vec<Arc<Message>>) =
                (vec![], vec![]);
            let mut now = 0u64;
            for step in 0..rng.below(200) {
                match rng.below(6) {
                    0 | 1 => {
                        let created = now.saturating_sub(rng.below(50));
                        let msg = Arc::new(Message {
                            id: MessageId::new(step),
                            key: "k".into(),
                            size: 10,
                            created: SimTime::from_secs(created),
                            ttl: SimDuration::from_secs(rng.below(100)),
                            producer: NodeId::new(0),
                        });
                        if rng.next_bool() {
                            n.carry(Carried::new(Arc::clone(&msg), 0));
                            store.push(msg);
                        } else {
                            n.publish(Produced::new(Arc::clone(&msg), 0, 3));
                            published.push(msg);
                        }
                    }
                    2 if !store.is_empty() => {
                        let at = rng.below(store.len() as u64) as usize;
                        n.store.swap_remove(at);
                        store.swap_remove(at);
                    }
                    3 if !published.is_empty() => {
                        let at = rng.below(published.len() as u64) as usize;
                        n.published.swap_remove(at);
                        published.swap_remove(at);
                    }
                    _ => {
                        // Mostly forward in time, sometimes back.
                        now = if rng.below(8) == 0 {
                            now.saturating_sub(rng.below(60))
                        } else {
                            now + rng.below(40)
                        };
                        let at = SimTime::from_secs(now);
                        let before = store.len() + published.len();
                        store.retain(|m| !m.is_expired(at));
                        published.retain(|m| !m.is_expired(at));
                        let dropped = (before - store.len() - published.len()) as u64;
                        assert_eq!(n.prune(at), dropped, "round {round} step {step}");
                    }
                }
                let stored: Vec<_> = n.store.iter().map(|c| Arc::clone(&c.msg)).collect();
                let produced: Vec<_> = n.published.iter().map(|p| Arc::clone(&p.msg)).collect();
                assert_eq!(ids(&stored), ids(&store), "round {round} step {step}");
                assert_eq!(ids(&produced), ids(&published), "round {round} step {step}");
                let earliest = store.iter().chain(&published).map(|m| m.expiry()).min();
                assert!(earliest.is_none_or(|e| n.next_expiry <= e), "round {round}");
            }
        }
    }

    #[test]
    fn prune_drops_expired() {
        let cfg = config();
        let mut n = NodeState::new(&cfg, &interests(&["k"]));
        let msg = Arc::new(Message {
            id: MessageId::new(1),
            key: "k".into(),
            size: 10,
            created: SimTime::ZERO,
            ttl: SimDuration::from_secs(100),
            producer: NodeId::new(0),
        });
        n.carry(Carried::new(msg.clone(), 0));
        n.publish(Produced::new(msg, 0, 3));
        n.prune(SimTime::from_secs(50));
        assert_eq!(n.store.len(), 1);
        n.prune(SimTime::from_secs(101));
        assert!(n.store.is_empty());
        assert!(n.published.is_empty());
    }
}
