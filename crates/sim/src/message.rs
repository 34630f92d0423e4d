//! Messages: the unit of content in B-SUB.
//!
//! Section V-A: "The content of a message is identified by a single
//! key, which is a string that indicates the content of the message."
//! Messages are small (Twitter-sized, at most 140 bytes) and expire by
//! TTL, counted from creation (Section V-D).

use bsub_traces::{NodeId, SimDuration, SimTime};
use std::collections::HashSet;
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

/// A set of message ids under [`MessageIdHasher`]: the one id-set type
/// of every protocol and of the metrics ledger. Iteration order is
/// unspecified, so whatever is exported from one is sorted first.
pub type MessageIdSet = HashSet<MessageId, BuildHasherDefault<MessageIdHasher>>;

/// A deterministic hasher for [`MessageId`]s: one Fibonacci multiply
/// of the raw id. Ids are dense generation-order counters, not
/// attacker-chosen, so SipHash's flooding resistance buys nothing here.
/// The odd multiplier is a bijection on every low-bit window, so dense
/// ids spread over the table's buckets, and the high bits the table
/// uses for its tags are well mixed.
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

    #[test]
    fn id_display_and_raw() {
        let id = MessageId::new(42);
        assert_eq!(id.to_string(), "m42");
        assert_eq!(id.raw(), 42);
    }
}
