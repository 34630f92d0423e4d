//! The contact pipeline's key table: every distinct message key,
//! hashed once per protocol instance.
//!
//! Steps 5a–5c test every buffered message against a counter-ripped
//! filter. A [`KeyTable`] interns each key the first time the protocol
//! sees it (publication or snapshot import) and keeps, per key id, the
//! key's [`Probe`] (step 5d's preferential query needs the digests)
//! and a `⌈m/64⌉`-word mask of exactly its `k` Kirsch–Mitzenmacher
//! positions. Store entries carry the id, and a membership test is one
//! branch-free reduction of the mask against the filter's bit words
//! ([`Tcbf::ripped_words_into`]) — the same answer as
//! [`Tcbf::contains`] and its Bloom false positives, without a `% m`
//! per position or a materialized `BloomFilter`.

use crate::node::NETWORK_HASHER;
use bsub_match::Probe;
use std::collections::HashMap;
use std::sync::Arc;

#[cfg(doc)]
use bsub_bloom::Tcbf;

/// A key's index in its [`KeyTable`].
pub(crate) type KeyId = u32;

/// Every distinct message key a protocol instance has seen, with its
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
        self.ids.insert(Arc::clone(key), id);
        id
    }

    /// The probe of key `id`.
    pub fn probe(&self, id: KeyId) -> Probe {
        self.probes[id as usize]
    }

    /// Whether every position of key `id` is set in `filter`, a
    /// filter's [`Tcbf::ripped_words_into`] words: exactly
    /// [`Tcbf::contains`] for the key, uninstrumented.
    pub fn held_by(&self, id: KeyId, filter: &[u64]) -> bool {
        let at = id as usize * self.words;
        self.masks[at..at + self.words]
            .iter()
            .zip(filter)
            .fold(0, |missing, (m, f)| missing | (m & !f))
            == 0
    }

    /// Number of interned keys.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.probes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsub_bloom::{SplitMix64, Tcbf};

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
