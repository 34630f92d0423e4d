//! The position-postings subscription index and its batch matcher.
//!
//! # Model
//!
//! Every subscriber filter shares one geometry `(m, k)`. A subscriber
//! is stored as a compact filter: the sorted union of its keys' bit
//! positions plus a birth epoch. Its materialized counter is uniform
//! — `C ∸ (E − born)` — because per-subscriber filters are never
//! merged after construction, so the sparse form is *exactly* the
//! dense TCBF a consumer would have built (the differential suite pins
//! this against [`crate::ReferenceMatcher`]'s dense filters).
//!
//! Aggregation is an exact inverted index, the **posting table**: for
//! every filter position, the ascending ids of the live subscribers
//! whose position set holds it. Subscribe posts the member's id under
//! each of its deduplicated positions; unsubscribe, purge and expiry
//! take it out again at once. The table never over-approximates, so
//! it needs no tombstones and no rebuilds, and decay only advances
//! the epoch.
//!
//! Members are also laid out in **tiers** of at most
//! [`MatchParams::tier_size`], filled first-fit. Matching never reads
//! them: they are the member order that [`MatchIndex::export_state`]
//! and the snapshot format expose.
//!
//! # Batch matching
//!
//! [`MatchIndex::match_events`] hashes each event key **once** (two
//! 64-bit digests), derives its `k` positions and takes their `k`
//! posting lists. An empty list ends the event: no member holds that
//! position. Otherwise the shortest list is walked and each id is
//! binary-searched in the others; the survivors pass the strength
//! check (`C ∸ (E − born) > 0`) and come out in ascending order.
//!
//! # Exactness
//!
//! A member accepts a key — even a phantom key it never subscribed to
//! — exactly when all `k` of the key's positions lie in its position
//! set and its counter is positive. It is in a position's list exactly
//! when that position is in its set. So the intersection of the `k`
//! lists is the set of live members whose filter holds the key, and
//! the strength check leaves exactly what the naive reference scan
//! reports, Bloom false positives included — the equivalence the
//! differential suite in `tests/differential.rs` exercises over
//! randomized interleavings.

use crate::probe::Probe;
use bsub_bloom::KeyHasher;
use bsub_obs::{self as obs, Counter, SizeHist, TimeHist};
use std::collections::BTreeMap;

/// One published event, identified by its content key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The content key producers attach and subscribers register.
    pub key: String,
}

impl Event {
    /// Wraps a content key.
    #[must_use]
    pub fn new(key: impl Into<String>) -> Self {
        Self { key: key.into() }
    }
}

/// Geometry and policy parameters of a [`MatchIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchParams {
    /// Bits `m` of the filter geometry every subscriber shares (at
    /// most `u32::MAX`: positions are stored as `u32`).
    pub member_bits: usize,
    /// Hash count `k` of that geometry.
    pub member_hashes: usize,
    /// Initial counter `C` a subscription starts at; decay expires a
    /// subscription after `C` epochs.
    pub initial: u32,
    /// Maximum live subscribers per tier of the member layout.
    pub tier_size: usize,
    /// Inert: sized the TCBF tier pools the posting table replaced.
    /// Kept, like the next two fields, because snapshots encode it.
    pub tier_budget_bytes: usize,
    /// Inert (see `tier_budget_bytes`).
    pub keys_per_subscriber_hint: usize,
    /// Inert (see `tier_budget_bytes`).
    pub compact_ratio: f64,
}

impl MatchParams {
    /// Whether the geometry is usable: `member_bits` in
    /// `1..=u32::MAX`, and a nonzero hash count, initial counter and
    /// tier size. The inert fields are not checked.
    fn is_valid(&self) -> bool {
        (1..=u32::MAX as usize).contains(&self.member_bits)
            && self.member_hashes > 0
            && self.initial > 0
            && self.tier_size > 0
    }
}

impl Default for MatchParams {
    fn default() -> Self {
        Self {
            member_bits: 8192,
            member_hashes: 4,
            initial: 16,
            tier_size: 512,
            tier_budget_bytes: 64 * 1024,
            keys_per_subscriber_hint: 4,
            compact_ratio: 0.5,
        }
    }
}

/// Deterministic work counts of one [`MatchIndex::match_events`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Events in the batch.
    pub events: u64,
    /// Posting-table probes: one per event, each taking the event's
    /// `k` posting lists. (The name predates the posting table.)
    pub tier_probes: u64,
    /// Probes whose `k` posting lists were all non-empty, so their
    /// intersection was walked.
    pub tier_hits: u64,
    /// Members found in all `k` posting lists, each given the
    /// strength check.
    pub candidates: u64,
    /// Confirmed (subscriber, event) matches.
    pub matched: u64,
}

/// The result of a batched match: per-event subscriber lists plus the
/// work counters of the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    /// For each event (batch order), the matching subscriber ids in
    /// ascending order.
    pub matches: Vec<Vec<u64>>,
    /// Deterministic work counts of the call.
    pub stats: MatchStats,
}

impl MatchSet {
    /// Total (subscriber, event) matches across the batch.
    #[must_use]
    pub fn total(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }
}

/// One subscriber's portable state, as exported by
/// [`MatchIndex::export_state`]: everything needed to rebuild the
/// member exactly — positions are rederived from the digests, and the
/// uniform counter from `born` against the index epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriberState {
    /// The subscriber id.
    pub id: u64,
    /// The Kirsch–Mitzenmacher digest pair of each subscribed key, in
    /// subscription order.
    pub digests: Vec<(u64, u64)>,
    /// Birth epoch (uniform counter is `C ∸ (epoch − born)`).
    pub born: u64,
    /// Optional expiry deadline ([`MatchIndex::expire`] semantics).
    pub deadline: Option<u64>,
    /// Tier the member lives in.
    pub tier: usize,
}

/// A portable snapshot of a whole [`MatchIndex`]: parameters, the
/// decay epoch, and every live subscriber in tier-member order.
///
/// [`MatchIndex::from_state`] rebuilds an identical index — same
/// members, positions, strengths, deadlines, tier layout, and posting
/// lists.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexState {
    /// Geometry and policy parameters.
    pub params: MatchParams,
    /// Accumulated decay epochs at export time.
    pub epoch: u64,
    /// Live subscribers, grouped by tier in member order.
    pub subs: Vec<SubscriberState>,
}

/// A subscriber's aggregated state: its keys' digests (for export),
/// the sorted position union of its filter, and its birth epoch.
/// Counters are uniform `C ∸ (E − born)`.
#[derive(Debug, Clone)]
struct Subscriber {
    digests: Vec<(u64, u64)>,
    positions: Vec<u32>,
    born: u64,
    deadline: Option<u64>,
    tier: usize,
}

/// Posting lists per page of the [`Postings`] table: small, so an
/// index with few members allocates little beyond the lists it uses.
const PAGE: usize = 16;

/// The posting table: for each filter position, the ascending ids of
/// the live members whose position set holds it. Pages of [`PAGE`]
/// lists are allocated on first use, so the table grows with the
/// occupied positions, not with `member_bits`: a snapshot that claims a
/// wide geometry for one subscriber costs a page, not a whole table.
#[derive(Debug, Default)]
struct Postings {
    pages: Vec<Option<Box<[Vec<u64>]>>>,
}

impl Postings {
    fn list(&self, position: u32) -> &[u64] {
        let p = position as usize;
        match self.pages.get(p / PAGE) {
            Some(Some(page)) => &page[p % PAGE],
            _ => &[],
        }
    }

    fn insert(&mut self, position: u32, id: u64) {
        let p = position as usize;
        if self.pages.len() <= p / PAGE {
            self.pages.resize_with(p / PAGE + 1, || None);
        }
        let page =
            self.pages[p / PAGE].get_or_insert_with(|| vec![Vec::new(); PAGE].into_boxed_slice());
        let list = &mut page[p % PAGE];
        if let Err(at) = list.binary_search(&id) {
            list.insert(at, id);
        }
    }

    fn remove(&mut self, position: u32, id: u64) {
        let p = position as usize;
        if let Some(Some(page)) = self.pages.get_mut(p / PAGE) {
            let list = &mut page[p % PAGE];
            if let Ok(at) = list.binary_search(&id) {
                list.remove(at);
            }
        }
    }
}

/// The broker-level subscription index: per-subscriber filters behind
/// an exact position → subscribers posting table, with bulk
/// maintenance and a batched matching path. See the module docs for
/// the model and the exactness argument.
#[derive(Debug)]
pub struct MatchIndex {
    params: MatchParams,
    hasher: KeyHasher,
    /// Accumulated decay epochs.
    epoch: u64,
    subs: BTreeMap<u64, Subscriber>,
    postings: Postings,
    /// Member ids per tier, in arrival order.
    tiers: Vec<Vec<u64>>,
    /// Index of the first tier that may have room (first-fit hint).
    open: usize,
}

impl MatchIndex {
    /// An empty index.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate: `member_bits` zero or
    /// above `u32::MAX`, or a zero hash count, initial counter or tier
    /// size.
    #[must_use]
    pub fn new(params: MatchParams) -> Self {
        assert!(
            params.is_valid(),
            "degenerate MatchParams: zero or oversized geometry"
        );
        Self {
            params,
            hasher: KeyHasher::default(),
            epoch: 0,
            subs: BTreeMap::new(),
            postings: Postings::default(),
            tiers: Vec::new(),
            open: 0,
        }
    }

    /// The index parameters.
    #[must_use]
    pub fn params(&self) -> &MatchParams {
        &self.params
    }

    /// Accumulated decay epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live subscriber count.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of tiers allocated (never shrinks; emptied tiers are
    /// refilled by later subscribes).
    #[must_use]
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Always 0: the index keeps no TCBF pools. Kept so reports that
    /// carry the column stay comparable across versions.
    #[must_use]
    pub fn pool_filter_count(&self) -> usize {
        0
    }

    /// Always 0: postings are exact, so no tier is ever rebuilt. Kept
    /// so reports that carry the column stay comparable.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        0
    }

    /// Whether `id` is currently subscribed.
    #[must_use]
    pub fn is_subscribed(&self, id: u64) -> bool {
        self.subs.contains_key(&id)
    }

    /// A subscriber's current uniform counter value (`C ∸ (E − born)`),
    /// or `None` if not subscribed.
    #[must_use]
    pub fn strength(&self, id: u64) -> Option<u32> {
        self.subs.get(&id).map(|s| self.strength_of(s))
    }

    fn strength_of(&self, sub: &Subscriber) -> u32 {
        let decayed = self.epoch - sub.born;
        if decayed >= u64::from(self.params.initial) {
            0
        } else {
            self.params.initial - decayed as u32
        }
    }

    /// Subscribes `id` to `keys` with no deadline. An existing
    /// subscription under the same id is replaced (its counters reset
    /// to `C`, possibly in a different tier).
    pub fn subscribe<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K]) {
        self.subscribe_inner(id, keys, None);
    }

    /// Subscribes `id` to `keys` until `deadline`:
    /// [`MatchIndex::expire`] removes it once `now >= deadline`.
    pub fn subscribe_until<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: u64) {
        self.subscribe_inner(id, keys, Some(deadline));
    }

    /// Bulk subscribe: one call per `(id, keys)` pair.
    pub fn subscribe_bulk<K: AsRef<[u8]>>(&mut self, batch: &[(u64, Vec<K>)]) {
        for (id, keys) in batch {
            self.subscribe_inner(*id, keys, None);
        }
    }

    fn subscribe_inner<K: AsRef<[u8]>>(&mut self, id: u64, keys: &[K], deadline: Option<u64>) {
        obs::count(Counter::MatchSubscribe, 1);
        if self.subs.contains_key(&id) {
            self.remove(id);
        }
        let digests = keys
            .iter()
            .map(|k| self.hasher.digests(k.as_ref()))
            .collect();
        let tier = self.open_tier();
        self.insert(id, digests, self.epoch, deadline, tier);
    }

    /// Adds an absent member: derives its deduplicated positions,
    /// posts its id under each, and appends it to `tier`.
    fn insert(
        &mut self,
        id: u64,
        digests: Vec<(u64, u64)>,
        born: u64,
        deadline: Option<u64>,
        tier: usize,
    ) {
        let (k, m) = (self.params.member_hashes, self.params.member_bits);
        let mut positions: Vec<u32> = Vec::with_capacity(digests.len() * k);
        for &digest in &digests {
            positions.extend(KeyHasher::positions_from_digests(digest, k, m).map(|p| p as u32));
        }
        positions.sort_unstable();
        positions.dedup();
        for &p in &positions {
            self.postings.insert(p, id);
        }
        self.tiers[tier].push(id);
        self.subs.insert(
            id,
            Subscriber {
                digests,
                positions,
                born,
                deadline,
                tier,
            },
        );
    }

    /// First tier with room, allocating a fresh one when all are full.
    fn open_tier(&mut self) -> usize {
        let mut t = self.open;
        while self
            .tiers
            .get(t)
            .is_some_and(|members| members.len() >= self.params.tier_size)
        {
            t += 1;
        }
        if t == self.tiers.len() {
            self.tiers.push(Vec::new());
        }
        self.open = t;
        t
    }

    /// Unsubscribes `id`, dropping its postings at once. Returns
    /// whether it was subscribed.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        if !self.subs.contains_key(&id) {
            return false;
        }
        obs::count(Counter::MatchUnsubscribe, 1);
        self.remove(id);
        true
    }

    /// Bulk unsubscribe; returns how many were subscribed.
    pub fn unsubscribe_bulk(&mut self, ids: &[u64]) -> usize {
        ids.iter().filter(|&&id| self.unsubscribe(id)).count()
    }

    /// The same as [`MatchIndex::unsubscribe`]: every removal takes the
    /// member out of the posting table at once, so its former keys stop
    /// producing candidates immediately.
    pub fn purge(&mut self, id: u64) -> bool {
        self.unsubscribe(id)
    }

    /// A subscriber's deadline, or `None` when not subscribed or
    /// subscribed without one.
    #[must_use]
    pub fn deadline(&self, id: u64) -> Option<u64> {
        self.subs.get(&id).and_then(|s| s.deadline)
    }

    /// Targeted expiry for deadline-wheel callers: re-checks each
    /// candidate's *current* deadline against `now` and removes only
    /// those actually due (or fully decayed). Returns how many were
    /// removed.
    ///
    /// Unlike [`MatchIndex::expire`], this never scans the whole
    /// subscriber map — a broker's clock wheel hands over exactly the
    /// ids whose bucket came due. The re-check makes stale wheel
    /// entries harmless: a resubscribe under the same id moved the
    /// deadline forward, and the old bucket entry must not evict it.
    pub fn expire_candidates(&mut self, ids: &[u64], now: u64) -> usize {
        let mut removed = 0;
        for &id in ids {
            let due = self
                .subs
                .get(&id)
                .is_some_and(|s| s.deadline.is_some_and(|d| now >= d) || self.strength_of(s) == 0);
            if due {
                obs::count(Counter::MatchExpire, 1);
                self.remove(id);
                removed += 1;
            }
        }
        removed
    }

    /// Removes every subscription whose deadline has passed
    /// (`now >= deadline`) or whose counters have fully decayed.
    /// Returns how many were removed.
    pub fn expire(&mut self, now: u64) -> usize {
        let doomed: Vec<u64> = self
            .subs
            .iter()
            .filter(|(_, s)| s.deadline.is_some_and(|d| now >= d) || self.strength_of(s) == 0)
            .map(|(&id, _)| id)
            .collect();
        obs::count(Counter::MatchExpire, doomed.len() as u64);
        for id in &doomed {
            self.remove(*id);
        }
        doomed.len()
    }

    /// Shared removal path: takes the member out of every posting list
    /// it is in and out of its tier.
    fn remove(&mut self, id: u64) {
        let sub = self.subs.remove(&id).expect("caller checked presence");
        for &p in &sub.positions {
            self.postings.remove(p, id);
        }
        self.tiers[sub.tier].retain(|&m| m != id);
        self.open = self.open.min(sub.tier);
    }

    /// Decays every subscription by `amount` epochs. Counters are
    /// uniform per member, so this only advances the epoch.
    pub fn decay(&mut self, amount: u32) {
        self.epoch += u64::from(amount);
    }

    /// Matches a batch of events against every live subscription.
    ///
    /// Each event key is hashed once; its candidates are the
    /// intersection of its `k` posting lists, walked from the shortest,
    /// and each candidate passes the strength check. Returns per-event
    /// subscriber lists identical to what the naive per-filter scan
    /// ([`crate::ReferenceMatcher`]) produces.
    #[must_use]
    pub fn match_events(&self, events: &[Event]) -> MatchSet {
        let _span = obs::span(TimeHist::MatchBatchNs);
        let (k, m) = (self.params.member_hashes, self.params.member_bits);
        let mut stats = MatchStats {
            events: events.len() as u64,
            tier_probes: events.len() as u64,
            ..MatchStats::default()
        };
        let mut matches: Vec<Vec<u64>> = vec![Vec::new(); events.len()];
        let mut lists: Vec<&[u64]> = Vec::with_capacity(k);
        for (event, found) in events.iter().zip(&mut matches) {
            let probe = Probe::new(&self.hasher, event.key.as_bytes());
            lists.clear();
            lists.extend(probe.positions(k, m).map(|p| self.postings.list(p as u32)));
            let shortest = lists.iter().copied().min_by_key(|list| list.len());
            let Some(shortest) = shortest.filter(|list| !list.is_empty()) else {
                continue;
            };
            stats.tier_hits += 1;
            for &id in shortest {
                if lists.iter().all(|list| list.binary_search(&id).is_ok()) {
                    stats.candidates += 1;
                    if self.strength_of(&self.subs[&id]) > 0 {
                        found.push(id);
                    }
                }
            }
            stats.matched += found.len() as u64;
        }
        obs::count(Counter::MatchEvents, stats.events);
        obs::count(Counter::MatchTierProbes, stats.tier_probes);
        obs::count(Counter::MatchCandidates, stats.candidates);
        obs::count(Counter::MatchMatched, stats.matched);
        obs::observe(SizeHist::MatchBatchEvents, stats.events);
        obs::observe(SizeHist::MatchBatchCandidates, stats.candidates);
        MatchSet { matches, stats }
    }

    /// Exports the index's live state for checkpointing or transfer
    /// (see [`IndexState`] for the rebuild contract).
    #[must_use]
    pub fn export_state(&self) -> IndexState {
        let mut subs = Vec::with_capacity(self.subs.len());
        for (tier, members) in self.tiers.iter().enumerate() {
            for &id in members {
                let sub = &self.subs[&id];
                subs.push(SubscriberState {
                    id,
                    digests: sub.digests.clone(),
                    born: sub.born,
                    deadline: sub.deadline,
                    tier,
                });
            }
        }
        IndexState {
            params: self.params,
            epoch: self.epoch,
            subs,
        }
    }

    /// Rebuilds an index from exported state. Tier membership and
    /// member order are restored verbatim, and the posting table is
    /// rebuilt from the members' digests.
    ///
    /// # Panics
    ///
    /// Panics if the state is inconsistent (see
    /// [`MatchIndex::try_from_state`]).
    #[must_use]
    pub fn from_state(state: &IndexState) -> Self {
        Self::try_from_state(state).expect("consistent index state")
    }

    /// [`MatchIndex::from_state`], returning `None` if the state is
    /// inconsistent: a degenerate geometry (see [`MatchIndex::new`]),
    /// duplicate subscriber ids, a birth epoch after the index epoch,
    /// or a tier holding more members than `params.tier_size`. Tiers
    /// are allocated up to the largest tier index, so untrusted state
    /// must have its tiers numbered densely first.
    #[must_use]
    pub fn try_from_state(state: &IndexState) -> Option<Self> {
        if !state.params.is_valid() {
            return None;
        }
        let mut idx = Self::new(state.params);
        idx.epoch = state.epoch;
        let tiers = state.subs.iter().map(|s| s.tier + 1).max().unwrap_or(0);
        idx.tiers.resize_with(tiers, Vec::new);
        for sub in &state.subs {
            if idx.subs.contains_key(&sub.id)
                || sub.born > state.epoch
                || idx.tiers[sub.tier].len() >= state.params.tier_size
            {
                return None;
            }
            idx.insert(
                sub.id,
                sub.digests.clone(),
                sub.born,
                sub.deadline,
                sub.tier,
            );
        }
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MatchParams {
        MatchParams {
            member_bits: 512,
            member_hashes: 4,
            initial: 8,
            tier_size: 4,
            tier_budget_bytes: 4 * 1024,
            keys_per_subscriber_hint: 2,
            compact_ratio: 0.5,
        }
    }

    fn keys_of(id: u64) -> Vec<String> {
        vec![format!("topic-{}", id % 5), format!("extra-{id}")]
    }

    #[test]
    fn subscribe_then_match() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples", "pears"]);
        idx.subscribe(2, &["pears"]);
        let set = idx.match_events(&[Event::new("pears"), Event::new("plums")]);
        assert_eq!(set.matches[0], vec![1, 2]);
        assert!(set.matches[1].is_empty());
        assert_eq!(set.stats.matched, 2);
    }

    #[test]
    fn unsubscribe_stops_matching() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.subscribe(2, &["apples"]);
        assert!(idx.unsubscribe(1));
        assert!(!idx.unsubscribe(1), "second unsubscribe is a no-op");
        let set = idx.match_events(&[Event::new("apples")]);
        assert_eq!(set.matches[0], vec![2]);
    }

    #[test]
    fn decay_expires_subscriptions() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.decay(7);
        assert_eq!(idx.strength(1), Some(1));
        assert_eq!(idx.match_events(&[Event::new("apples")]).total(), 1);
        idx.decay(1);
        assert_eq!(idx.strength(1), Some(0));
        assert_eq!(idx.match_events(&[Event::new("apples")]).total(), 0);
        assert_eq!(idx.expire(0), 1, "fully decayed subscription expires");
        assert_eq!(idx.live_count(), 0);
    }

    #[test]
    fn deadline_expiry() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe_until(1, &["apples"], 10);
        idx.subscribe(2, &["apples"]);
        assert_eq!(idx.expire(9), 0);
        assert_eq!(idx.expire(10), 1);
        assert!(!idx.is_subscribed(1));
        assert!(idx.is_subscribed(2));
    }

    #[test]
    fn tiers_spill_and_refill() {
        let mut idx = MatchIndex::new(small());
        for id in 0..10 {
            idx.subscribe(id, &keys_of(id));
        }
        assert_eq!(idx.tier_count(), 3, "tier_size=4 ⇒ 10 subs need 3 tiers");
        idx.unsubscribe(0);
        idx.subscribe(100, &keys_of(100));
        assert_eq!(idx.tier_count(), 3, "freed slot is reused first-fit");
    }

    #[test]
    fn resubscribe_refreshes_strength() {
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["apples"]);
        idx.decay(6);
        assert_eq!(idx.strength(1), Some(2));
        idx.subscribe(1, &["apples"]);
        assert_eq!(idx.strength(1), Some(8));
        assert_eq!(idx.live_count(), 1);
    }

    #[test]
    fn churn_preserves_matching() {
        let mut idx = MatchIndex::new(small());
        for id in 0..16 {
            idx.subscribe(id, &keys_of(id));
        }
        // Heavy churn empties whole tiers and shares posting lists
        // between departed and surviving members.
        for id in 0..12 {
            idx.unsubscribe(id);
        }
        assert_eq!(idx.live_count(), 4);
        let events: Vec<Event> = (0..5).map(|t| Event::new(format!("topic-{t}"))).collect();
        let set = idx.match_events(&events);
        for (t, per_event) in set.matches.iter().enumerate() {
            let expected: Vec<u64> = (12..16).filter(|id| id % 5 == t as u64).collect();
            assert_eq!(per_event, &expected, "topic-{t}");
        }
    }

    #[test]
    fn empty_key_set_never_matches() {
        let mut idx = MatchIndex::new(small());
        let no_keys: &[&str] = &[];
        idx.subscribe(1, no_keys);
        idx.subscribe(2, &["apples"]);
        let set = idx.match_events(&[Event::new("apples")]);
        assert_eq!(set.matches[0], vec![2]);
    }

    #[test]
    fn empty_batch_and_empty_index() {
        let idx = MatchIndex::new(small());
        let set = idx.match_events(&[Event::new("anything")]);
        assert_eq!(set.matches, vec![Vec::<u64>::new()]);
        let mut idx = MatchIndex::new(small());
        idx.subscribe(1, &["k"]);
        let set = idx.match_events(&[]);
        assert!(set.matches.is_empty());
        assert_eq!(set.total(), 0);
    }

    #[test]
    fn bulk_helpers() {
        let mut idx = MatchIndex::new(small());
        let batch: Vec<(u64, Vec<String>)> = (0..6).map(|id| (id, keys_of(id))).collect();
        idx.subscribe_bulk(&batch);
        assert_eq!(idx.live_count(), 6);
        assert_eq!(idx.unsubscribe_bulk(&[0, 1, 99]), 2);
        assert_eq!(idx.live_count(), 4);
    }

    #[test]
    fn stats_account_for_pruning() {
        let mut idx = MatchIndex::new(small());
        for id in 0..12 {
            idx.subscribe(id, &[format!("only-{id}")]);
        }
        let set = idx.match_events(&[Event::new("only-3")]);
        assert_eq!(set.matches[0], vec![3]);
        assert!(
            set.stats.candidates < 12,
            "tier pruning must cut the exhaustive scan: {:?}",
            set.stats
        );
        assert!(set.stats.tier_probes >= set.stats.tier_hits);
    }

    /// Checks every posting list against the live members' position
    /// sets: strictly ascending, and holding exactly the members whose
    /// set contains the position.
    fn assert_postings_exact(idx: &MatchIndex) {
        for p in 0..idx.params.member_bits as u32 {
            let list = idx.postings.list(p);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "position {p}");
            let holders: Vec<u64> = idx
                .subs
                .iter()
                .filter(|(_, s)| s.positions.binary_search(&p).is_ok())
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(list, holders, "position {p}");
        }
    }

    /// Seeded random subscribe / unsubscribe / purge / expire / decay
    /// sequences keep the posting table exact, and a snapshot round
    /// trip rebuilds identical postings.
    #[test]
    fn postings_stay_exact_under_churn() {
        use bsub_bloom::SplitMix64;
        // 600 bits: the last page of the table is partial.
        let params = MatchParams {
            member_bits: 600,
            ..small()
        };
        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(SplitMix64::mix(0x9057, seed));
            let mut idx = MatchIndex::new(params);
            let mut now = 0;
            for _ in 0..200 {
                let id = rng.below(24);
                match rng.below(10) {
                    0..=3 => {
                        let keys: Vec<String> = (0..rng.below(4))
                            .map(|_| format!("k-{}", rng.below(30)))
                            .collect();
                        if rng.below(2) == 0 {
                            idx.subscribe_until(id, &keys, now + 1 + rng.below(10));
                        } else {
                            idx.subscribe(id, &keys);
                        }
                    }
                    4 => {
                        idx.unsubscribe(id);
                    }
                    5 => {
                        idx.purge(id);
                    }
                    6 => {
                        now += rng.below(4);
                        idx.expire(now);
                    }
                    7 => {
                        let ids: Vec<u64> = (0..24).filter(|_| rng.below(2) == 0).collect();
                        idx.expire_candidates(&ids, now);
                    }
                    _ => idx.decay(rng.below(3) as u32),
                }
                assert_postings_exact(&idx);
            }
            let back = MatchIndex::from_state(&idx.export_state());
            for p in 0..params.member_bits as u32 {
                assert_eq!(back.postings.list(p), idx.postings.list(p), "seed {seed}");
            }
            assert_eq!(back.export_state(), idx.export_state(), "seed {seed}");
        }
    }

    #[test]
    fn try_from_state_rejects_inconsistent_state() {
        let mut idx = MatchIndex::new(small());
        idx.decay(2);
        for id in 0..6 {
            idx.subscribe(id, &keys_of(id));
        }
        let state = idx.export_state();
        assert!(MatchIndex::try_from_state(&state).is_some());

        let mut duplicate = state.clone();
        duplicate.subs[1].id = duplicate.subs[0].id;
        let mut unborn = state.clone();
        unborn.subs[0].born = state.epoch + 1;
        let mut crowded = state.clone();
        crowded.subs.iter_mut().for_each(|s| s.tier = 0);
        let mut degenerate = state.clone();
        degenerate.params.member_bits = usize::MAX / 2;
        for bad in [duplicate, unborn, crowded, degenerate] {
            assert!(MatchIndex::try_from_state(&bad).is_none());
        }
    }
}
