//! Messages: the unit of content in B-SUB.
//!
//! Section V-A: "The content of a message is identified by a single
//! key, which is a string that indicates the content of the message."
//! Messages are small (Twitter-sized, at most 140 bytes) and expire by
//! TTL, counted from creation (Section V-D).

use bsub_traces::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Globally unique message identifier, assigned by the simulation
/// runner in generation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(u64);

impl MessageId {
    /// Creates an id from its raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        MessageId(raw)
    }

    /// The raw id value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// A set of message ids: the one id-set type of every protocol and of
/// the metrics ledger.
///
/// Ids are dense generation-order counters, so the set is an exact
/// paged bitset: each page holds the bits of 512 consecutive ids in
/// `[u64; 8]`, one cache line, and pages sit in a map keyed by
/// `id >> 9` under [`MessageIdHasher`]. A probe is one hash of the page
/// number and one bit test, with no false positives. Sparse ids cost
/// one page each, a bounded amount per id. Iteration order is
/// unspecified, so whatever is exported from one is sorted first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageIdSet {
    pages: HashMap<u64, [u64; 8], BuildHasherDefault<MessageIdHasher>>,
    len: usize,
}

/// Ids per [`MessageIdSet`] page, as a shift: 512.
const PAGE_SHIFT: u32 = 9;

impl MessageIdSet {
    /// The page number, word index and bit mask of `id`.
    fn slot(id: MessageId) -> (u64, usize, u64) {
        (
            id.0 >> PAGE_SHIFT,
            (id.0 >> 6 & 7) as usize,
            1 << (id.0 & 63),
        )
    }

    /// Adds `id`; returns whether it was absent.
    pub fn insert(&mut self, id: MessageId) -> bool {
        let (page, word, bit) = Self::slot(id);
        let word = &mut self.pages.entry(page).or_insert([0; 8])[word];
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is in the set.
    #[must_use]
    pub fn contains(&self, id: &MessageId) -> bool {
        let (page, word, bit) = Self::slot(*id);
        self.pages.get(&page).is_some_and(|p| p[word] & bit != 0)
    }

    /// Number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every id, keeping the page map's capacity.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }

    /// The ids, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.pages.iter().flat_map(|(&page, words)| {
            (0..8u64).flat_map(move |w| {
                let base = page << PAGE_SHIFT | w << 6;
                let mut bits = words[w as usize];
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = u64::from(bits.trailing_zeros());
                        bits &= bits - 1;
                        MessageId(base | bit)
                    })
                })
            })
        })
    }
}

impl FromIterator<MessageId> for MessageIdSet {
    fn from_iter<I: IntoIterator<Item = MessageId>>(ids: I) -> Self {
        let mut set = Self::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// A deterministic hasher for [`MessageId`]s and the page numbers of a
/// [`MessageIdSet`]: one Fibonacci multiply of the raw value. Ids are
/// dense generation-order counters, not attacker-chosen, so SipHash's
/// flooding resistance buys nothing here. The odd multiplier is a
/// bijection on every low-bit window, so dense values spread over the
/// table's buckets, and the high bits the table uses for its tags are
/// well mixed.
#[derive(Debug, Clone, Copy, Default)]
pub struct MessageIdHasher(u64);

/// 2^64 / φ, rounded to odd.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for MessageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIBONACCI);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FIBONACCI);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A published message.
///
/// Cloning is cheap: the key is reference-counted, and protocols
/// replicate messages freely (PUSH keeps a copy on every node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique id.
    pub id: MessageId,
    /// The single key describing the content (Section V-A).
    pub key: Arc<str>,
    /// Payload size in bytes; at most 140 in the paper's workload.
    pub size: u32,
    /// Creation time; the TTL counts from here.
    pub created: SimTime,
    /// Maximum tolerable delay (Section V-D: "their maximum tolerable
    /// delay"); the message is worthless past `created + ttl`.
    pub ttl: SimDuration,
    /// The node that published the message.
    pub producer: NodeId,
}

impl Message {
    /// The instant the message expires.
    #[must_use]
    pub fn expiry(&self) -> SimTime {
        self.created + self.ttl
    }

    /// Whether the message has outlived its TTL at `now`.
    #[must_use]
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.expiry()
    }

    /// The message's age at `now` (zero if `now` precedes creation).
    #[must_use]
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_bloom::SplitMix64;
    use std::collections::HashSet;

    fn msg(created_secs: u64, ttl_secs: u64) -> Message {
        Message {
            id: MessageId::new(1),
            key: "topic".into(),
            size: 140,
            created: SimTime::from_secs(created_secs),
            ttl: SimDuration::from_secs(ttl_secs),
            producer: NodeId::new(0),
        }
    }

    #[test]
    fn expiry_is_created_plus_ttl() {
        let m = msg(100, 50);
        assert_eq!(m.expiry(), SimTime::from_secs(150));
    }

    #[test]
    fn expired_strictly_after_expiry() {
        let m = msg(100, 50);
        assert!(!m.is_expired(SimTime::from_secs(150)), "at expiry: valid");
        assert!(m.is_expired(SimTime::from_secs(151)));
        assert!(!m.is_expired(SimTime::from_secs(0)));
    }

    #[test]
    fn age_saturates_before_creation() {
        let m = msg(100, 50);
        assert_eq!(m.age(SimTime::from_secs(130)).as_secs(), 30);
        assert_eq!(m.age(SimTime::from_secs(50)), SimDuration::ZERO);
    }

    #[test]
    fn clone_shares_key() {
        let m = msg(0, 10);
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.key, &c.key));
        assert_eq!(m, c);
    }

    #[test]
    fn id_hasher_is_one_multiply_and_spreads_dense_ids() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<MessageIdHasher>::default();
        assert_eq!(build.hash_one(MessageId::new(1)), FIBONACCI);
        assert_eq!(build.hash_one(MessageId::new(0)), 0);
        // Dense ids land in distinct low-bit buckets.
        let buckets: HashSet<u64> = (0..1024)
            .map(|i| build.hash_one(MessageId::new(i)) & 1023)
            .collect();
        assert_eq!(buckets.len(), 1024);

        let mut set = MessageIdSet::default();
        assert!(set.insert(MessageId::new(7)));
        assert!(!set.insert(MessageId::new(7)));
        assert!(set.contains(&MessageId::new(7)) && !set.contains(&MessageId::new(8)));
    }

    /// Seeded inserts, lookups and clears against a `HashSet` model,
    /// over dense ids, sparse ones far apart (a page each) and the
    /// largest: same answers, same length, same members.
    #[test]
    fn id_set_matches_a_hash_set_model() {
        let mut rng = SplitMix64::new(0x6964_7365);
        let sparse = [
            1 << 41,
            (1 << 41) + 511,
            (1 << 41) + 512,
            u64::MAX - 1,
            u64::MAX,
        ];
        for round in 0..100 {
            let mut set = MessageIdSet::default();
            let mut model = HashSet::new();
            for step in 0..rng.below(3000) {
                let raw = match rng.below(8) {
                    0 => sparse[rng.below(sparse.len() as u64) as usize],
                    1 => rng.next_u64(),
                    _ => rng.below(2048),
                };
                let id = MessageId::new(raw);
                if rng.below(1000) == 0 {
                    set.clear();
                    model.clear();
                }
                assert_eq!(
                    set.insert(id),
                    model.insert(id),
                    "round {round} step {step}"
                );
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
            }
            for raw in (0..2100).chain(sparse).chain([1 << 40, (1 << 41) + 1]) {
                let id = MessageId::new(raw);
                assert_eq!(
                    set.contains(&id),
                    model.contains(&id),
                    "round {round} id {raw}"
                );
            }
            let mut members: Vec<MessageId> = set.iter().collect();
            let mut expected: Vec<MessageId> = model.iter().copied().collect();
            members.sort_unstable();
            expected.sort_unstable();
            assert_eq!(members, expected, "round {round}");
            assert_eq!(members.iter().copied().collect::<MessageIdSet>(), set);
        }
        let mut set: MessageIdSet = [MessageId::new(3), MessageId::new(u64::MAX)]
            .into_iter()
            .collect();
        set.clear();
        assert!(set.is_empty() && set.iter().next().is_none());
        assert_eq!(set, MessageIdSet::default());
    }

    #[test]
    fn id_display_and_raw() {
        let id = MessageId::new(42);
        assert_eq!(id.to_string(), "m42");
        assert_eq!(id.raw(), 42);
    }
}
