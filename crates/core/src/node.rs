//! Per-node protocol state.

use crate::broker::ElectionLog;
use crate::config::{BsubConfig, DfMode};
use crate::df::AdaptiveDf;
use crate::keys::KeyId;
use bsub_bloom::{Decayer, KeyHasher, Tcbf};
use bsub_sim::{Message, MessageId};
use bsub_traces::{NodeId, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};
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
    pub delivered_to: HashSet<NodeId>,
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
    pub delivered_to: HashSet<NodeId>,
}

impl Carried {
    /// A fresh copy of `msg`, whose key has id `key`, handed to no
    /// consumer yet.
    pub fn new(msg: Arc<Message>, key: KeyId) -> Self {
        Self {
            msg,
            key,
            delivered_to: HashSet::new(),
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
            delivered_to: HashSet::new(),
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
    /// Ground-truth mirror of the relay filter: an exact key → counter
    /// map maintained with the same A-merge / M-merge / decay
    /// semantics as the TCBF. A real node could not have this (it
    /// would defeat the point of the filter); it exists only so the
    /// metrics can label a relay injection as a pure Bloom false
    /// positive (Fig. 9(d)).
    pub shadow: HashMap<Arc<str>, u32>,
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
            shadow: HashMap::new(),
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
            self.shadow.retain(|_, c| {
                *c = c.saturating_sub(amount);
                *c > 0
            });
        }
        self.last_decay = now;
        amount
    }

    /// A-merges a consumer's genuine filter (and mirrors it in the
    /// shadow: each interest key gains the consumer's counter value).
    pub fn absorb_genuine(&mut self, genuine: &Tcbf, interests: &[Arc<str>], counter: u32) {
        self.filter
            .a_merge(genuine)
            .expect("network-wide filter parameters match");
        for key in interests {
            let c = self.shadow.entry(Arc::clone(key)).or_insert(0);
            *c = c.saturating_add(counter);
        }
    }

    /// Combines a peer broker's relay filter (and shadow snapshot)
    /// into this one, under the configured merge rule. The paper uses
    /// [`MergeRule::Maximum`]; [`MergeRule::Additive`] exists to
    /// demonstrate the bogus-counter loop of Fig. 6.
    pub fn absorb_relay(
        &mut self,
        filter: &Tcbf,
        shadow: &HashMap<Arc<str>, u32>,
        rule: crate::config::MergeRule,
    ) {
        match rule {
            crate::config::MergeRule::Maximum => {
                self.filter
                    .m_merge(filter)
                    .expect("network-wide filter parameters match");
                for (key, &c) in shadow {
                    let mine = self.shadow.entry(Arc::clone(key)).or_insert(0);
                    *mine = (*mine).max(c);
                }
            }
            crate::config::MergeRule::Additive => {
                self.filter
                    .a_merge(filter)
                    .expect("network-wide filter parameters match");
                for (key, &c) in shadow {
                    let mine = self.shadow.entry(Arc::clone(key)).or_insert(0);
                    *mine = mine.saturating_add(c);
                }
            }
        }
    }

    /// Whether the relay *truly* holds `key` (ground truth — a
    /// filter-positive key absent here is a Bloom false positive).
    #[must_use]
    pub fn truly_holds(&self, key: &str) -> bool {
        self.shadow.contains_key(key)
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
    pub store: Vec<Carried>,
    /// Messages this node produced and still replicates/serves.
    pub published: Vec<Produced>,
    /// Every message id this node has held in any role (prevents
    /// copy ping-pong between brokers).
    pub seen: HashSet<MessageId>,
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
            seen: HashSet::new(),
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
        self.seen.clear();
        self.relay = if self.role == Role::Broker {
            Some(RelayState::new(config, now))
        } else {
            None
        };
    }

    /// Drops expired messages from both stores; returns how many
    /// copies were dropped.
    pub fn prune(&mut self, now: SimTime) -> u64 {
        let before = self.store.len() + self.published.len();
        self.store.retain(|c| !c.msg.is_expired(now));
        self.published.retain(|p| !p.msg.is_expired(now));
        (before - self.store.len() - self.published.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_traces::SimDuration;
    use std::sync::Arc;

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
        n.store.push(Carried::new(msg.clone(), 0));
        n.published.push(Produced::new(msg.clone(), 0, 3));
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
        n.store.push(Carried::new(msg.clone(), 0));
        n.published.push(Produced::new(msg, 0, 3));
        n.prune(SimTime::from_secs(50));
        assert_eq!(n.store.len(), 1);
        n.prune(SimTime::from_secs(101));
        assert!(n.store.is_empty());
        assert!(n.published.is_empty());
    }
}
