//! The contact pipeline's key table: every distinct message and
//! subscription key, hashed once per protocol instance.
//!
//! Steps 5a–5c test every buffered message against a counter-ripped
//! filter. A [`KeyTable`] interns each key the first time the protocol
//! sees it (subscription at construction, publication or snapshot
//! import) and keeps, per key id, the key's name (relay shadows are
//! indexed by id and exported by name), its [`Probe`] (step 5d's
//! preferential query needs the digests) and a `⌈m/64⌉`-word mask of
//! exactly its `k` Kirsch–Mitzenmacher positions. A membership test is
//! one branch-free reduction of the mask against the filter's bit words
//! ([`Tcbf::ripped_words_into`]) — the same answer as [`Tcbf::contains`]
//! and its Bloom false positives, without a `% m` per position or a
//! materialized `BloomFilter`. The answer depends only on the key, so a
//! store scan runs that test once per interned key
//! ([`KeyTable::held_set`]) and then tests each entry's id with one bit.
//!
//! Ids are dense and never reused, so a held set over ids `0..n` stays
//! right when the table grows: [`KeyTable::held_set`] extends it over
//! the new ids only. A consumer's genuine filter never changes during a
//! run, so its [`GenuineView`] — ripped words, set-bit count and held
//! set — is built once, and steps 4–5c only extend its held set when a
//! publication or snapshot import interned a novel key.

use crate::node::NETWORK_HASHER;
use bsub_bloom::Tcbf;
use bsub_match::Probe;
use std::collections::HashMap;
use std::sync::Arc;

/// A key's index in its [`KeyTable`].
pub(crate) type KeyId = u32;

/// Every distinct key a protocol instance has seen, with its name,
/// probe and position mask. Keys are never removed: the table is
/// derived state bounded by the key universe (38 keys in the paper's
/// workload).
#[derive(Debug)]
pub(crate) struct KeyTable {
    bits: usize,
    hashes: usize,
    /// Mask words per key, `⌈bits/64⌉`.
    words: usize,
    ids: HashMap<Arc<str>, KeyId>,
    /// The key of each id, in id order.
    names: Vec<Arc<str>>,
    probes: Vec<Probe>,
    /// `words` mask words per key, in id order.
    masks: Vec<u64>,
}

impl KeyTable {
    /// An empty table for filters of `bits` counters and `hashes`
    /// hash functions.
    pub fn new(bits: usize, hashes: usize) -> Self {
        Self {
            bits,
            hashes,
            words: bits.div_ceil(64),
            ids: HashMap::new(),
            names: Vec::new(),
            probes: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// The id of `key`, hashing and adding it on first sight.
    pub fn intern(&mut self, key: &Arc<str>) -> KeyId {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = KeyId::try_from(self.probes.len()).expect("fewer than 2^32 distinct keys");
        let probe = Probe::new(&NETWORK_HASHER, key.as_bytes());
        let at = self.masks.len();
        self.masks.resize(at + self.words, 0);
        for pos in probe.positions(self.hashes, self.bits) {
            self.masks[at + pos / 64] |= 1 << (pos % 64);
        }
        self.probes.push(probe);
        self.names.push(Arc::clone(key));
        self.ids.insert(Arc::clone(key), id);
        id
    }

    /// The key of id `id`.
    pub fn name(&self, id: KeyId) -> &Arc<str> {
        &self.names[id as usize]
    }

    /// The probe of key `id`.
    pub fn probe(&self, id: KeyId) -> Probe {
        self.probes[id as usize]
    }

    /// Whether every position of key `id` is set in `filter`, a
    /// filter's [`Tcbf::ripped_words_into`] words: exactly
    /// [`Tcbf::contains`] for the key, uninstrumented.
    fn held_by(&self, id: KeyId, filter: &[u64]) -> bool {
        let at = id as usize * self.words;
        self.masks[at..at + self.words]
            .iter()
            .zip(filter)
            .fold(0, |missing, (m, f)| missing | (m & !f))
            == 0
    }

    /// The keys `filter` holds, as a `⌈keys/64⌉`-word bitset over key
    /// ids: extends `set`, that bitset over ids `0..from`, to every
    /// interned key by running [`KeyTable::held_by`] once per new id
    /// (`from = 0` rebuilds it), so a store scan tests each entry with
    /// one [`KeyTable::is_held`] bit test instead of one mask reduction
    /// per buffered copy.
    pub fn held_set(&self, filter: &[u64], set: &mut Vec<u64>, from: usize) {
        set.truncate(from.div_ceil(64));
        set.resize(self.len().div_ceil(64), 0);
        for id in from..self.len() {
            if self.held_by(id as KeyId, filter) {
                set[id / 64] |= 1 << (id % 64);
            }
        }
    }

    /// Whether key `id` is in a [`KeyTable::held_set`] bitset.
    pub fn is_held(set: &[u64], id: KeyId) -> bool {
        set[id as usize / 64] >> (id % 64) & 1 == 1
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.probes.len()
    }
}

/// Number of set bits in `words`: a ripped filter's
/// [`Tcbf::set_bits`], without a second walk over its counters.
pub(crate) fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A consumer's genuine filter as steps 4–5c read it: its ripped words,
/// their set-bit count (the filter's wire size) and the keys it holds.
/// The filter never changes during a run, so all three are computed
/// once; only the held set grows, over the ids the [`KeyTable`] interned
/// since it was last read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GenuineView {
    words: Vec<u64>,
    set_bits: usize,
    /// The held set over ids `0..upto`.
    held: Vec<u64>,
    upto: usize,
}

impl GenuineView {
    /// The view of genuine filter `filter` over every key interned in
    /// `keys`.
    pub fn new(filter: &Tcbf, keys: &KeyTable) -> Self {
        let mut words = Vec::new();
        filter.ripped_words_into(&mut words);
        let mut view = Self {
            set_bits: popcount(&words),
            words,
            held: Vec::new(),
            upto: 0,
        };
        view.extend(keys);
        view
    }

    /// The genuine filter's [`Tcbf::set_bits`].
    pub fn set_bits(&self) -> usize {
        self.set_bits
    }

    /// Extends the held set over the keys `keys` interned since the
    /// last call.
    pub fn extend(&mut self, keys: &KeyTable) {
        keys.held_set(&self.words, &mut self.held, self.upto);
        self.upto = keys.len();
    }

    /// The genuine filter's [`KeyTable::held_set`] as of the last
    /// [`GenuineView::extend`].
    pub fn held(&self) -> &[u64] {
        &self.held
    }

    /// How many key ids the held set covers.
    #[cfg(test)]
    pub fn upto(&self) -> usize {
        self.upto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_bloom::SplitMix64;

    fn key(rng: &mut SplitMix64) -> Arc<str> {
        Arc::from(format!("key-{}", rng.below(1 << 20)))
    }

    /// A filter holding `n` random keys, inserted at counter `c`.
    fn filled(rng: &mut SplitMix64, bits: usize, hashes: usize, n: u64, c: u32) -> Tcbf {
        let keys: Vec<Arc<str>> = (0..n).map(|_| key(rng)).collect();
        Tcbf::from_keys(bits, hashes, c, keys.iter().map(|k| k.as_bytes()))
    }

    /// Asserts the mask test agrees with `Tcbf::contains` on 200
    /// random keys; returns how many of them the filter holds.
    fn agrees(
        table: &mut KeyTable,
        filter: &Tcbf,
        rng: &mut SplitMix64,
        words: &mut Vec<u64>,
    ) -> usize {
        filter.ripped_words_into(words);
        let mut held = 0;
        let mut keys = Vec::new();
        for _ in 0..200 {
            let k = key(rng);
            let id = table.intern(&k);
            let contains = filter.contains(k.as_bytes());
            assert_eq!(
                table.held_by(id, words),
                contains,
                "m={} k={} key={k}",
                filter.bit_len(),
                filter.hash_count()
            );
            held += usize::from(contains);
            keys.push(k);
        }
        // The bitset over every interned key (more than 64 of them, so
        // several words) agrees with `contains` bit for bit.
        let mut set = vec![u64::MAX; 9];
        table.held_set(words, &mut set, 0);
        assert!(table.len() > 64);
        assert_eq!(set.len(), table.len().div_ceil(64), "stale words cleared");
        for k in &keys {
            let id = table.intern(k);
            assert_eq!(KeyTable::is_held(&set, id), filter.contains(k.as_bytes()));
        }
        let bits = set.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let expected = (0..table.len())
            .filter(|&id| table.held_by(id as KeyId, words))
            .count();
        assert_eq!(bits, expected, "no bit past the last key");
        // Extending the held set over ids `0..from` (what it was before
        // the later keys were interned) gives the rebuilt set.
        for from in [1, 63, 64, 65, table.len() / 2, table.len()] {
            let mut prefix = set[..from.div_ceil(64)].to_vec();
            if from % 64 != 0 {
                prefix[from / 64] &= (1 << (from % 64)) - 1;
            }
            table.held_set(words, &mut prefix, from);
            assert_eq!(prefix, set, "extended from {from}");
        }
        held
    }

    #[test]
    fn mask_test_equals_tcbf_contains() {
        let mut rng = SplitMix64::new(0x6b65_7973);
        let mut words = Vec::new();
        let mut held = 0;
        for bits in [64, 100, 256, 257, 4096] {
            for hashes in [1, 4, 8] {
                let mut table = KeyTable::new(bits, hashes);
                // Dense enough for Bloom false positives at every m.
                let n = (bits as u64 / 8).max(4);
                let fresh = filled(&mut rng, bits, hashes, n, 10);
                held += agrees(&mut table, &fresh, &mut rng, &mut words);

                // Decayed: counters materialize as `c ∸ epoch`, so the
                // weaker keys' private bits drop out.
                let mut decayed = fresh.clone();
                decayed
                    .a_merge(&filled(&mut rng, bits, hashes, n, 3))
                    .unwrap();
                decayed.decay(5);
                held += agrees(&mut table, &decayed, &mut rng, &mut words);

                // Relay filters after A- and M-merges (then decay).
                let mut relay = Tcbf::new(bits, hashes, 10);
                relay.a_merge(&fresh).unwrap();
                relay
                    .a_merge(&filled(&mut rng, bits, hashes, n, 4))
                    .unwrap();
                held += agrees(&mut table, &relay, &mut rng, &mut words);
                let mut peer = Tcbf::new(bits, hashes, 10);
                peer.a_merge(&filled(&mut rng, bits, hashes, n, 7)).unwrap();
                peer.decay(2);
                relay.m_merge(&peer).unwrap();
                held += agrees(&mut table, &relay, &mut rng, &mut words);
                relay.decay(6);
                held += agrees(&mut table, &relay, &mut rng, &mut words);

                // A key merged into the relay is held.
                let own = key(&mut rng);
                relay
                    .m_merge(&Tcbf::from_keys(bits, hashes, 1, [own.as_bytes()]))
                    .unwrap();
                relay.ripped_words_into(&mut words);
                let id = table.intern(&own);
                assert!(table.held_by(id, &words) && relay.contains(own.as_bytes()));
            }
        }
        // Random keys are mostly absent; the ones held are Bloom false
        // positives, so both answers were exercised.
        assert!(held > 0, "no random key was held");
    }

    #[test]
    fn interning_is_idempotent_and_probes_match_fresh_hashes() {
        let mut table = KeyTable::new(256, 4);
        let a: Arc<str> = Arc::from("NewMoon");
        let b: Arc<str> = Arc::from("TwittersNew");
        let ia = table.intern(&a);
        let ib = table.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(
            table.intern(&Arc::from("NewMoon")),
            ia,
            "equal strings share an id"
        );
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.probe(ia),
            Probe::new(&bsub_bloom::KeyHasher::default(), b"NewMoon")
        );
        let positions: Vec<usize> = table.probe(ib).positions(4, 256).collect();
        let mut words = vec![0u64; 4];
        for p in &positions {
            words[p / 64] |= 1 << (p % 64);
        }
        assert!(table.held_by(ib, &words));
        words[positions[0] / 64] &= !(1 << (positions[0] % 64));
        assert!(!table.held_by(ib, &words), "one missing position misses");
    }
}
