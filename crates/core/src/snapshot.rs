//! Cross-process serialization of one node's complete B-SUB state.
//!
//! The networked runtime (`bsub-net`) checks node state out to the
//! worker process that executes a contact and back afterwards; across
//! a socket the state must travel as self-contained bytes. This module
//! implements that codec on the
//! workspace byte codec ([`bsub_obs::codec`], DESIGN.md §12.7) and the
//! shared message record in [`bsub_sim::snapshot`].
//!
//! Exactness is the contract: importing an exported snapshot must make
//! the receiving node behave *identically* to the original — every
//! future filter bit, counter, election decision, and forwarding
//! choice. Consequences for the format:
//!
//! - The relay filter travels in the wire codec's lossless
//!   [`CounterMode::Wide`] form (full `u32` counters, CRC-checked) —
//!   the radio-facing modes saturate counters at 255, which would
//!   silently corrupt a heavily reinforced relay. The real insertion
//!   value `C` and merged flag are carried alongside, because decoded
//!   filters are otherwise marked as generic merge sources.
//! - The decayer's fractional residual and the adaptive DF's
//!   `(ℕ, DF)` cache travel as exact IEEE-754 bit patterns.
//! - The genuine filter is *not* shipped: it is a pure function of the
//!   node's subscriptions (which every process knows) and never
//!   changes, so the importer keeps its own copy.
//! - Neither is any key id: messages and the relay shadow travel by
//!   key name, and import interns each decoded key into the receiving
//!   protocol's key table, only once the whole snapshot has parsed, so
//!   a rejected snapshot adds no key.
//! - Unordered collections are canonically sorted on export, so equal
//!   states encode to equal bytes; the shadow decodes only in that
//!   form (keys strictly ascending, no zero counter).

use crate::broker::ElectionLog;
use crate::config::{BsubConfig, DfMode};
use crate::keys::{KeyId, KeyTable};
use crate::node::{Carried, NodeSet, NodeState, Produced, RelayState, Role};
use bsub_bloom::wire::{self, CounterMode};
use bsub_bloom::{Decayer, KeyHasher, Tcbf};
use bsub_match::{IndexState, MatchIndex, MatchParams, SubscriberState};
use bsub_obs::codec::{Reader, Writer};
use bsub_sim::snapshot::{read_message, write_message, MESSAGE_MIN_LEN};
use bsub_sim::{Message, MessageId, MessageIdSet};
use bsub_traces::{NodeId, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// Snapshot format version; bump on any layout change.
const VERSION: u8 = 1;

/// Match-index snapshot format version; bump on any layout change.
const INDEX_VERSION: u8 = 2;

/// Encodes a live [`MatchIndex`]'s state — geometry, decay epoch, and
/// every subscriber in ascending id order — into a self-contained byte
/// snapshot a restarted broker can [`decode_match_index`] from.
///
/// Exactness follows the [`bsub_match::IndexState`] contract: the
/// decoded index produces identical match results (members, positions,
/// strengths, deadlines and posting lists all preserved).
#[must_use]
pub fn encode_match_index(index: &MatchIndex) -> Vec<u8> {
    let state = index.export_state();
    let mut w = Writer::new();
    w.u8(INDEX_VERSION);
    w.u64(state.params.member_bits as u64);
    w.u64(state.params.member_hashes as u64);
    w.u32(state.params.initial);
    w.u64(state.epoch);
    w.u32(state.subs.len() as u32);
    for sub in &state.subs {
        w.u64(sub.id);
        w.u64(sub.born);
        match sub.deadline {
            None => w.flag(false),
            Some(d) => {
                w.flag(true);
                w.u64(d);
            }
        }
        w.u32(sub.digests.len() as u32);
        for &(a, b) in &sub.digests {
            w.u64(a);
            w.u64(b);
        }
    }
    w.into_bytes()
}

/// Rebuilds a [`MatchIndex`] from an [`encode_match_index`] snapshot.
/// Returns `None` on any malformed input: truncation, trailing bytes,
/// version mismatch (version 1 included), a geometry the TCBF wire
/// format cannot carry (`member_bits` over `u16::MAX`, `member_hashes`
/// over 255), a count larger than the bytes left, subscriber ids that
/// are not strictly ascending, or a state
/// [`MatchIndex::try_from_state`] rejects.
#[must_use]
pub fn decode_match_index(bytes: &[u8]) -> Option<MatchIndex> {
    let mut r = Reader::new(bytes);
    if r.u8()? != INDEX_VERSION {
        return None;
    }
    let params = MatchParams {
        member_bits: usize::try_from(r.u64()?).ok()?,
        member_hashes: usize::try_from(r.u64()?).ok()?,
        initial: r.u32()?,
    };
    if params.member_bits > usize::from(u16::MAX) || params.member_hashes > usize::from(u8::MAX) {
        return None;
    }
    let epoch = r.u64()?;
    let count = r.count(8 + 8 + 1 + 4)?; // id, born, flag, digests
    let mut subs: Vec<SubscriberState> = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u64()?;
        if subs.last().is_some_and(|last| id <= last.id) {
            return None; // `export_state` emits ids in ascending order
        }
        let born = r.u64()?;
        let deadline = if r.flag()? { Some(r.u64()?) } else { None };
        let digests = (0..r.count(16)?)
            .map(|_| Some((r.u64()?, r.u64()?)))
            .collect::<Option<_>>()?;
        subs.push(SubscriberState {
            id,
            digests,
            born,
            deadline,
        });
    }
    r.finish()?;
    MatchIndex::try_from_state(&IndexState {
        params,
        epoch,
        subs,
    })
}

/// Encodes `state` into a self-contained byte snapshot; `keys` names
/// the key ids of its relay shadow.
pub(crate) fn encode_node(state: &NodeState, keys: &KeyTable) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(VERSION);
    w.u8(match state.role {
        Role::User => 0,
        Role::Broker => 1,
    });

    // Election log, oldest meeting first (replay order).
    w.u32(state.election.len() as u32);
    for (at, peer, was_broker, degree) in state.election.meetings() {
        w.u64(at.as_millis());
        w.u32(peer.index() as u32);
        w.flag(was_broker);
        w.u64(degree as u64);
    }

    // Relay state (brokers, and demoted brokers keep none).
    match &state.relay {
        None => w.flag(false),
        Some(relay) => {
            w.flag(true);
            let encoded = wire::encode(&relay.filter, CounterMode::Wide)
                .expect("relay filter fits the wire envelope");
            w.bytes(&encoded);
            w.u32(relay.filter.initial_counter());
            w.flag(relay.filter.is_merged());
            w.f64(relay.decayer.rate_per_min());
            w.f64(relay.decayer.residual());
            w.u64(relay.last_decay.as_millis());
            w.u32(relay.contact_log.len() as u32);
            for &t in &relay.contact_log {
                w.u64(t.as_millis());
            }
            match &relay.adaptive {
                None => w.flag(false),
                Some(a) => {
                    w.flag(true);
                    w.u64(a.last_ncol());
                    w.f64(a.current());
                }
            }
            // The keys the relay truly holds, by name in ascending
            // order.
            let mut shadow: Vec<(&Arc<str>, u32)> = (relay.shadow.iter().enumerate())
                .filter(|&(_, &c)| c > 0)
                .map(|(id, &c)| (keys.name(id as KeyId), c))
                .collect();
            shadow.sort_by(|a, b| a.0.cmp(b.0));
            w.u32(shadow.len() as u32);
            for (key, c) in shadow {
                w.str(key);
                w.u32(c);
            }
        }
    }

    // Carried copies (Vec order is behavioral — preserved as-is).
    w.u32(state.store.len() as u32);
    for carried in &state.store {
        write_message(&mut w, &carried.msg);
        write_node_set(&mut w, &carried.delivered_to);
    }

    // Own publications.
    w.u32(state.published.len() as u32);
    for produced in &state.published {
        write_message(&mut w, &produced.msg);
        w.u32(produced.copies_left);
        write_node_set(&mut w, &produced.delivered_to);
    }

    // Seen message ids.
    let mut seen: Vec<u64> = state.seen.iter().map(|id| id.raw()).collect();
    seen.sort_unstable();
    w.u32(seen.len() as u32);
    for id in seen {
        w.u64(id);
    }

    w.into_bytes()
}

/// Overwrites everything in `state` except the genuine filter from a
/// snapshot produced by [`encode_node`] under the same `config`,
/// interning its message keys into `keys`. Returns `false` — leaving
/// `state` and `keys` untouched — on any malformed or
/// config-incompatible input.
pub(crate) fn decode_node_into(
    state: &mut NodeState,
    keys: &mut KeyTable,
    config: &BsubConfig,
    bytes: &[u8],
) -> bool {
    let Some(parsed) = parse(config, bytes) else {
        return false;
    };
    state.role = parsed.role;
    state.election = parsed.election;
    state.relay = parsed.relay.map(|(mut relay, shadow)| {
        for (key, c) in shadow {
            *relay.shadow_mut(keys.intern(&key)) = c;
        }
        relay
    });
    state.store = parsed
        .store
        .into_iter()
        .map(|(msg, delivered_to)| Carried {
            key: keys.intern(&msg.key),
            msg,
            delivered_to,
        })
        .collect();
    state.published = parsed
        .published
        .into_iter()
        .map(|(msg, copies_left, delivered_to)| Produced {
            key: keys.intern(&msg.key),
            msg,
            copies_left,
            delivered_to,
        })
        .collect();
    // The expiry bound of the imported stores is unknown: the first
    // prune walks them and recomputes it.
    state.next_expiry = SimTime::ZERO;
    state.seen = parsed.seen;
    true
}

/// Everything [`decode_node_into`] replaces, parsed up-front so a
/// malformed snapshot rejects without half-mutating the node or its
/// protocol's key table. Store entries are kept as their parts until
/// then: a message, its copies left (publications only) and the
/// consumers it was handed to; so is the relay shadow, as a
/// [`NamedShadow`] beside a relay whose shadow is empty.
struct Parsed {
    role: Role,
    election: ElectionLog,
    relay: Option<(RelayState, NamedShadow)>,
    store: Vec<(Arc<Message>, NodeSet)>,
    published: Vec<(Arc<Message>, u32, NodeSet)>,
    seen: MessageIdSet,
}

/// A relay shadow's nonzero counters by key name, in ascending order.
type NamedShadow = Vec<(Arc<str>, u32)>;

fn parse(config: &BsubConfig, bytes: &[u8]) -> Option<Parsed> {
    let mut r = Reader::new(bytes);
    if r.u8()? != VERSION {
        return None;
    }
    let role = match r.u8()? {
        0 => Role::User,
        1 => Role::Broker,
        _ => return None,
    };

    let mut election = ElectionLog::new();
    for _ in 0..r.count(8 + 4 + 1 + 8)? {
        let at = SimTime::from_millis(r.u64()?);
        let peer = NodeId::new(r.u32()?);
        let was_broker = r.flag()?;
        let degree = usize::try_from(r.u64()?).ok()?;
        election.record(at, peer, was_broker, degree);
    }

    let relay = if r.flag()? {
        let decoded = wire::decode(r.bytes()?).ok()?.into_tcbf()?;
        let initial = r.u32()?;
        let merged = r.flag()?;
        if decoded.bit_len() != config.bits || decoded.hash_count() != config.hashes {
            return None;
        }
        let filter = Tcbf::from_parts(
            decoded.counter_values(),
            config.hashes,
            initial,
            KeyHasher::default(),
            merged,
        );
        let rate = r.f64()?;
        let residual = r.f64()?;
        if !is_rate(rate) || !(0.0..1.0).contains(&residual) {
            return None; // `Decayer` invariants
        }
        let decayer = Decayer::restore(rate, residual);
        let last_decay = SimTime::from_millis(r.u64()?);
        let mut contact_log = VecDeque::new();
        for _ in 0..r.count(8)? {
            contact_log.push_back(SimTime::from_millis(r.u64()?));
        }
        let adaptive = if r.flag()? {
            let last_ncol = r.u64()?;
            let current = r.f64()?;
            if !is_rate(current) {
                return None; // it becomes the decay rate
            }
            let DfMode::Auto { delta } = config.df else {
                return None; // snapshot/config DF-mode mismatch
            };
            let mut a = crate::df::AdaptiveDf::new(
                config.initial_counter,
                config.bits,
                config.hashes,
                config.delay_limit.as_mins(),
                delta,
            );
            a.restore_cache(last_ncol, current);
            Some(a)
        } else {
            None
        };
        let mut shadow = NamedShadow::new();
        for _ in 0..r.count(4 + 4)? {
            let key = r.str()?;
            let c = r.u32()?;
            if c == 0 || shadow.last().is_some_and(|(last, _)| **last >= *key) {
                return None; // the encoder writes held keys in ascending order
            }
            shadow.push((Arc::from(key), c));
        }
        let relay = RelayState {
            filter,
            decayer,
            last_decay,
            contact_log,
            adaptive,
            shadow: Vec::new(),
        };
        Some((relay, shadow))
    } else {
        None
    };

    let mut store = Vec::new();
    for _ in 0..r.count(MESSAGE_MIN_LEN + 4)? {
        let msg = Arc::new(read_message(&mut r)?);
        store.push((msg, read_node_set(&mut r)?));
    }

    let mut published = Vec::new();
    for _ in 0..r.count(MESSAGE_MIN_LEN + 4 + 4)? {
        let msg = Arc::new(read_message(&mut r)?);
        let copies_left = r.u32()?;
        published.push((msg, copies_left, read_node_set(&mut r)?));
    }

    let mut seen = MessageIdSet::default();
    for _ in 0..r.count(8)? {
        seen.insert(MessageId::new(r.u64()?));
    }

    r.finish()?; // no trailing garbage
    Some(Parsed {
        role,
        election,
        relay,
        store,
        published,
        seen,
    })
}

/// A decay rate `Decayer` accepts: finite and non-negative.
fn is_rate(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

fn write_node_set(w: &mut Writer, set: &NodeSet) {
    w.u32(set.as_slice().len() as u32);
    for node in set.as_slice() {
        w.u32(node.index() as u32);
    }
}

/// Reads a node set written in any order, repeats included: the ids are
/// collected first and sorted once, so a hostile count costs one sort,
/// not an insertion per id.
fn read_node_set(r: &mut Reader<'_>) -> Option<NodeSet> {
    let ids = (0..r.count(4)?)
        .map(|_| r.u32().map(NodeId::new))
        .collect::<Option<_>>()?;
    Some(NodeSet::from_unsorted(ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BsubProtocol;
    use bsub_sim::{GeneratedMessage, Protocol as _, SimConfig, Simulation, SubscriptionTable};
    use bsub_traces::synthetic::SyntheticTrace;
    use bsub_traces::SimDuration;
    use std::collections::HashSet;

    /// Runs a dense little network long enough to exercise every state
    /// component: elections, relays with decay + adaptation, carried
    /// cargo, publications, and seen sets.
    fn worked_protocol() -> (BsubProtocol, SubscriptionTable) {
        let trace = SyntheticTrace::new("snap", 16, SimDuration::from_hours(12), 2500)
            .seed(11)
            .build();
        let mut subs = SubscriptionTable::new(16);
        for i in 0..16 {
            subs.subscribe(NodeId::new(i), if i % 2 == 0 { "news" } else { "sports" });
        }
        let sched: Vec<GeneratedMessage> = (0..12)
            .map(|k| GeneratedMessage {
                at: bsub_traces::SimTime::from_secs(100 + k * 600),
                producer: NodeId::new((k % 5) as u32),
                key: if k % 2 == 0 { "sports" } else { "news" }.into(),
                size: 120,
            })
            .collect();
        let sim = Simulation::new(trace, subs.clone(), sched, SimConfig::default());
        let mut bsub = BsubProtocol::new(BsubConfig::default(), &subs);
        let report = sim.run(&mut bsub);
        assert!(report.delivered > 0, "the run must do real work");
        assert!(bsub.broker_count() > 0);
        (bsub, subs)
    }

    /// export → import into a *fresh* sibling → re-export must be
    /// byte-identical, for every node — the canonical-ordering and
    /// exactness guarantees in one test.
    #[test]
    fn export_import_reexport_is_byte_identical() {
        let (bsub, subs) = worked_protocol();
        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        for i in 0..16 {
            let node = NodeId::new(i);
            let snap = bsub.export_node(node).expect("B-SUB exports");
            assert!(sibling.import_node(node, &snap), "import accepts");
            let again = sibling.export_node(node).expect("re-export");
            assert_eq!(snap, again, "node {i} snapshot must round-trip exactly");
        }
        assert_eq!(sibling.broker_count(), bsub.broker_count());
        assert_eq!(sibling.carried_copies(), bsub.carried_copies());
        assert_eq!(sibling.max_relay_counter(), bsub.max_relay_counter());
    }

    /// A message's key id is derived state the snapshot does not carry:
    /// every imported copy and publication must resolve to exactly the
    /// probe of a fresh hash of its key, or deliveries would silently
    /// change after a restore.
    #[test]
    fn imported_key_ids_resolve_to_fresh_key_probes() {
        let (mut bsub, subs) = worked_protocol();
        // Every publication of the run was replicated out; add a live
        // one so both stores travel.
        let weather = Arc::new(bsub_sim::Message {
            id: MessageId::new(1 << 40),
            key: "weather".into(),
            size: 100,
            created: bsub_traces::SimTime::ZERO,
            ttl: SimDuration::from_days(1),
            producer: NodeId::new(2),
        });
        let key = bsub.keys_mut().intern(&weather.key);
        bsub.nodes_mut()[2].publish(Produced::new(weather, key, 3));
        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        let fresh = |key: &str| bsub_match::Probe::new(&KeyHasher::default(), key.as_bytes());
        let (mut carried, mut produced) = (0, 0);
        for i in 0..16 {
            let node = NodeId::new(i);
            let snap = bsub.export_node(node).expect("B-SUB exports");
            assert!(sibling.import_node(node, &snap), "import accepts");
            let state = &sibling.nodes_mut()[node.index()];
            let ids: Vec<_> = (state.store.iter().map(|c| (c.key, &c.msg)))
                .chain(state.published.iter().map(|p| (p.key, &p.msg)))
                .map(|(id, msg)| (id, Arc::clone(msg)))
                .collect();
            carried += state.store.len();
            produced += state.published.len();
            for (id, msg) in ids {
                assert_eq!(sibling.keys_mut().probe(id), fresh(&msg.key), "{}", msg.id);
            }
        }
        assert!(carried > 0 && produced > 0, "both stores must travel");
    }

    /// Keys are interned only once a snapshot has parsed in full: a
    /// rejected snapshot leaves the key table as it was (holding the
    /// subscriptions the protocol interned at construction).
    #[test]
    fn rejected_snapshot_interns_no_key() {
        let (mut bsub, subs) = worked_protocol();
        let novel = Arc::new(bsub_sim::Message {
            id: MessageId::new(1 << 41),
            key: "never-published".into(),
            size: 100,
            created: bsub_traces::SimTime::ZERO,
            ttl: SimDuration::from_days(1),
            producer: NodeId::new(4),
        });
        let key = bsub.keys_mut().intern(&novel.key);
        let state = &mut bsub.nodes_mut()[4];
        state.publish(Produced::new(novel, key, 3));
        let keys: HashSet<Arc<str>> = (state.store.iter().map(|c| &c.msg))
            .chain(state.published.iter().map(|p| &p.msg))
            .map(|msg| Arc::clone(&msg.key))
            .chain((0..16).flat_map(|i| subs.interests_of(NodeId::new(i)).to_vec()))
            .collect();
        let snap = bsub.export_node(NodeId::new(4)).unwrap();

        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        let interned = sibling.keys_mut().len();
        for cut in [snap.len() - 1, snap.len() - 9] {
            assert!(!sibling.import_node(NodeId::new(4), &snap[..cut]));
            assert_eq!(sibling.keys_mut().len(), interned, "cut at {cut}");
        }
        assert!(sibling.import_node(NodeId::new(4), &snap));
        assert_eq!(sibling.keys_mut().len(), keys.len());
    }

    /// Node 0's snapshot as a broker whose relay truly holds `k1`, `k2`
    /// and `k3` (counters 3, 7 and 1), from a protocol that interned
    /// the keys in that order.
    fn shadow_snapshot() -> Vec<u8> {
        let mut subs = SubscriptionTable::new(2);
        for key in ["k1", "k2", "k3"] {
            subs.subscribe(NodeId::new(1), key);
        }
        let config = BsubConfig::default();
        let mut bsub = BsubProtocol::new(config.clone(), &subs);
        let ids = ["k1", "k2", "k3"].map(|k| bsub.keys_mut().intern(&Arc::from(k)));
        let state = &mut bsub.nodes_mut()[0];
        state.promote(&config, bsub_traces::SimTime::ZERO);
        let relay = state.relay.as_mut().unwrap();
        for (id, c) in ids.into_iter().zip([3, 7, 1]) {
            *relay.shadow_mut(id) = c;
        }
        bsub.export_node(NodeId::new(0)).unwrap()
    }

    /// The shadow travels by key name: a protocol that interned the
    /// keys in another order imports the same ground truth and
    /// re-exports the same bytes. An entry whose counter is 0, or keys
    /// that are not strictly ascending, are not what the encoder
    /// writes and are refused.
    #[test]
    fn shadow_decodes_only_in_canonical_form() {
        let snap = shadow_snapshot();
        let node = NodeId::new(0);
        let mut subs = SubscriptionTable::new(2);
        for key in ["k3", "zz", "k2"] {
            subs.subscribe(NodeId::new(1), key);
        }
        let mut sibling = BsubProtocol::new(BsubConfig::default(), &subs);
        assert!(sibling.import_node(node, &snap));
        assert_eq!(sibling.export_node(node).unwrap(), snap);
        for (key, held) in [("k1", true), ("k2", true), ("k3", true), ("zz", false)] {
            let id = sibling.keys_mut().intern(&Arc::from(key));
            let relay = sibling.nodes_mut()[0].relay.as_ref().unwrap();
            assert_eq!(relay.truly_holds(id), held, "{key}");
        }

        // Each entry is a 4-byte length, the 2-byte name, a counter.
        let entry = |name: &[u8]| {
            let pattern = [&[2, 0, 0, 0], name].concat();
            snap.windows(6).rposition(|w| w == pattern).expect("entry")
        };
        let (k1, k2) = (entry(b"k1"), entry(b"k2"));
        let mut zero = snap.clone();
        zero[k2 + 6..k2 + 10].fill(0);
        let mut swapped = snap.clone();
        swapped[k1 + 4..k1 + 6].copy_from_slice(b"k2");
        swapped[k2 + 4..k2 + 6].copy_from_slice(b"k1");
        let mut repeated = snap.clone();
        repeated[k2 + 4..k2 + 6].copy_from_slice(b"k1");
        for (name, bytes) in [("zero", zero), ("swapped", swapped), ("repeated", repeated)] {
            assert!(!sibling.import_node(node, &bytes), "{name}");
            assert_eq!(sibling.export_node(node).unwrap(), snap, "{name} mutated");
        }
    }

    /// A user node's snapshot with one carried copy handed to
    /// `carried_to` and one publication handed to `produced_to`, each
    /// set written in the given order.
    fn raw_node(msg: &bsub_sim::Message, carried_to: &[u32], produced_to: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(VERSION);
        w.u8(0); // user
        w.u32(0); // election log
        w.flag(false); // no relay
        for (copies, to) in [(None, carried_to), (Some(2), produced_to)] {
            w.u32(1); // one entry in the store, then in the publications
            write_message(&mut w, msg);
            if let Some(c) = copies {
                w.u32(c);
            }
            w.u32(to.len() as u32);
            for &id in to {
                w.u32(id);
            }
        }
        w.u32(0); // seen
        w.into_bytes()
    }

    /// Delivered-to sets decode from any order, repeats included, to
    /// the sorted set: the same membership and the canonical bytes.
    #[test]
    fn unsorted_and_repeated_node_ids_decode_to_the_canonical_set() {
        let subs = SubscriptionTable::new(16);
        let mut bsub = BsubProtocol::new(BsubConfig::default(), &subs);
        let msg = bsub_sim::Message {
            id: MessageId::new(5),
            key: "news".into(),
            size: 100,
            created: bsub_traces::SimTime::ZERO,
            ttl: SimDuration::from_days(1),
            producer: NodeId::new(0),
        };
        let canonical = raw_node(&msg, &[1, 4, 9], &[2, 3]);
        let hostile = raw_node(&msg, &[9, 1, 4, 9, 1], &[3, 2, 3, 3]);
        let node = NodeId::new(0);
        for bytes in [&canonical, &hostile] {
            assert!(bsub.import_node(node, bytes));
            assert_eq!(bsub.export_node(node).unwrap(), canonical);
            let state = &bsub.nodes_mut()[0];
            let carried = &state.store[0].delivered_to;
            let produced = &state.published[0].delivered_to;
            for i in 0..12 {
                let id = NodeId::new(i);
                assert_eq!(carried.contains(id), [1, 4, 9].contains(&i));
                assert_eq!(produced.contains(id), [2, 3].contains(&i));
            }
        }
    }

    /// The relay filter round-trips losslessly even when counters
    /// exceed the radio wire format's 255 saturation point.
    #[test]
    fn relay_counters_above_255_survive() {
        let subs = SubscriptionTable::new(2);
        let config = BsubConfig::default();
        let mut a = BsubProtocol::new(config.clone(), &subs);
        // Promote node 0 and reinforce one key far past 255.
        let strong = Tcbf::from_keys(config.bits, config.hashes, 300, ["hot"]);
        {
            let state = &mut a.nodes_mut()[0];
            state.promote(&config, bsub_traces::SimTime::ZERO);
            let relay = state.relay.as_mut().unwrap();
            relay.filter.a_merge(&strong).unwrap();
            relay.filter.a_merge(&strong).unwrap();
        }
        let before = a.max_relay_counter();
        assert!(before > 255, "test needs a saturating-range counter");

        let snap = a.export_node(NodeId::new(0)).unwrap();
        let mut b = BsubProtocol::new(config, &subs);
        assert!(b.import_node(NodeId::new(0), &snap));
        assert_eq!(b.max_relay_counter(), before, "no 255 saturation");
    }

    #[test]
    fn malformed_snapshots_reject_without_mutation() {
        let (bsub, subs) = worked_protocol();
        let node = NodeId::new(3);
        let good = bsub.export_node(node).unwrap();

        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        assert!(sibling.import_node(node, &good));
        let baseline = sibling.export_node(node).unwrap();

        // Truncations and version/role corruption must all reject.
        assert!(!sibling.import_node(node, &good[..good.len() - 1]));
        assert!(!sibling.import_node(node, &[]));
        let mut bad = good.clone();
        bad[0] = VERSION + 1;
        assert!(!sibling.import_node(node, &bad));
        let mut bad = good.clone();
        bad[1] = 9; // invalid role
        assert!(!sibling.import_node(node, &bad));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(!sibling.import_node(node, &trailing));

        // And none of the rejects touched the node.
        assert_eq!(sibling.export_node(node).unwrap(), baseline);
    }

    /// Builds a worked match index: deadline and plain subscriptions,
    /// decay in flight, and churn.
    fn worked_index() -> MatchIndex {
        let mut idx = MatchIndex::new(bsub_match::MatchParams {
            member_bits: 512,
            member_hashes: 4,
            initial: 8,
        });
        for id in 0..20u64 {
            let keys = vec![format!("topic-{}", id % 6), format!("extra-{id}")];
            if id % 3 == 0 {
                idx.subscribe_until(id, &keys, 50 + id);
            } else {
                idx.subscribe(id, &keys);
            }
            if id % 4 == 0 {
                idx.decay(1);
            }
        }
        for id in (0..20u64).step_by(5) {
            idx.unsubscribe(id);
        }
        idx
    }

    /// Snapshot → decode → re-snapshot must be byte-identical, and the
    /// decoded index must match events exactly like the original.
    #[test]
    fn match_index_snapshot_round_trips() {
        let idx = worked_index();
        let snap = encode_match_index(&idx);
        let back = decode_match_index(&snap).expect("decodes");
        assert_eq!(encode_match_index(&back), snap, "re-export byte-identical");
        assert_eq!(back.live_count(), idx.live_count());
        assert_eq!(back.epoch(), idx.epoch());
        let events: Vec<bsub_match::Event> = (0..8)
            .map(|t| bsub_match::Event::new(format!("topic-{t}")))
            .collect();
        assert_eq!(
            back.match_events(&events).matches,
            idx.match_events(&events).matches,
            "decoded index must match identically"
        );
        for id in 0..20u64 {
            assert_eq!(back.strength(id), idx.strength(id), "strength of {id}");
            assert_eq!(back.deadline(id), idx.deadline(id), "deadline of {id}");
        }
    }

    #[test]
    fn malformed_match_index_snapshots_reject() {
        let snap = encode_match_index(&worked_index());
        assert!(decode_match_index(&snap).is_some());
        assert!(decode_match_index(&[]).is_none());
        assert!(decode_match_index(&snap[..snap.len() - 1]).is_none());
        let mut trailing = snap.clone();
        trailing.push(0);
        assert!(decode_match_index(&trailing).is_none());
        let mut bad_version = snap.clone();
        bad_version[0] = INDEX_VERSION + 1;
        assert!(decode_match_index(&bad_version).is_none());
    }

    /// [`worked_index`] in the version-1 layout: the retired pool
    /// parameters after the geometry, and each member's tier after its
    /// id. Its first-fit tiers of four put member `id` in tier `id / 4`.
    fn worked_index_v1() -> Vec<u8> {
        let state = worked_index().export_state();
        let mut w = Writer::new();
        w.u8(1);
        w.u64(state.params.member_bits as u64);
        w.u64(state.params.member_hashes as u64);
        w.u32(state.params.initial);
        w.u64(4); // tier size
        w.u64(4 * 1024); // tier budget bytes
        w.u64(2); // keys per subscriber hint
        w.f64(0.5); // compact ratio
        w.u64(state.epoch);
        w.u32(state.subs.len() as u32);
        for sub in &state.subs {
            w.u64(sub.id);
            w.u64(sub.id / 4);
            w.u64(sub.born);
            w.flag(sub.deadline.is_some());
            if let Some(d) = sub.deadline {
                w.u64(d);
            }
            w.u32(sub.digests.len() as u32);
            for &(a, b) in &sub.digests {
                w.u64(a);
                w.u64(b);
            }
        }
        w.into_bytes()
    }

    /// A version-1 snapshot — the bytes the version-1 encoder wrote for
    /// [`worked_index`], checked against that encoder's golden length
    /// and FNV-1a digest — is refused like any unknown version.
    #[test]
    fn version_1_match_index_snapshot_rejects() {
        let v1 = worked_index_v1();
        let fnv = v1.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((v1.len(), fnv), (1081, 1_891_326_389_196_438_115));
        assert!(decode_match_index(&v1).is_none());
    }

    /// A match-index snapshot with the given geometry
    /// (`member_bits`, `member_hashes`) and one subscriber per
    /// `(id, digest count)` pair; `count` overrides the subscriber
    /// count prefix.
    fn raw_index(geometry: [u64; 2], subs: &[(u64, u32)], count: Option<u32>) -> Vec<u8> {
        let [bits, hashes] = geometry;
        let mut w = Writer::new();
        w.u8(INDEX_VERSION);
        w.u64(bits);
        w.u64(hashes);
        w.u32(8); // initial
        w.u64(0); // epoch
        w.u32(count.unwrap_or(subs.len() as u32));
        for &(id, digests) in subs {
            w.u64(id);
            w.u64(0); // born
            w.flag(false);
            w.u32(digests);
            for d in 0..u64::from(digests) {
                w.u64(d);
                w.u64(d + 1);
            }
        }
        w.into_bytes()
    }

    /// Hostile snapshots, each aimed at one allocation or geometry
    /// computation of the rebuild, must be refused, not crash it.
    #[test]
    fn hostile_match_index_snapshots_reject() {
        const SANE: [u64; 2] = [512, 4];
        let sane = raw_index(SANE, &[(0, 1), (1, 2), (7, 1)], None);
        let restored = decode_match_index(&sane).expect("the control decodes");
        assert_eq!(restored.live_count(), 3);
        assert_eq!(encode_match_index(&restored), sane);

        let hostile = [
            // 240,518,168,520-byte `with_capacity` from a 33-byte input.
            raw_index(SANE, &[], Some(u32::MAX)),
            // `member_bits × 4` wraps to zero: divide by zero.
            raw_index([1 << 62, 4], &[], None),
            // `digests × member_hashes` positions: capacity overflow.
            raw_index([512, 1 << 61], &[(0, 1)], None),
            // The wire-format caps on `member_bits` and `member_hashes`.
            raw_index([1 << 16, 4], &[], None),
            raw_index([512, 256], &[], None),
            // Ids out of order, and a repeated id.
            raw_index(SANE, &[(1, 1), (0, 1)], None),
            raw_index(SANE, &[(0, 1), (3, 1), (3, 2)], None),
        ];
        assert_eq!(hostile[0].len(), 33);
        for (i, bytes) in hostile.iter().enumerate() {
            assert!(decode_match_index(bytes).is_none(), "hostile input {i}");
        }
    }

    #[test]
    fn import_out_of_range_node_rejects() {
        let (bsub, subs) = worked_protocol();
        let snap = bsub.export_node(NodeId::new(0)).unwrap();
        let mut sibling = BsubProtocol::new(bsub.config().clone(), &subs);
        assert!(!sibling.import_node(NodeId::new(999), &snap));
        assert_eq!(bsub.export_node(NodeId::new(999)), None);
    }
}
