//! Differential proof for the broker: its one apply path,
//! [`BrokerCore::apply`], against independent models — in process and
//! over real sockets.
//!
//! The model is the reference scan ([`ReferenceMatcher`]) for matching
//! and a flat `(id, deadline)` list for eviction. Two layers use it:
//!
//! 1. **Socket-free.** Ten thousand seeded interleavings of subscribe,
//!    TTL subscribe, unsubscribe, publish and tick drive a fresh
//!    [`BrokerCore`], and every call's effects must equal the model's —
//!    Bloom false positives included (the geometry is chosen small
//!    enough to produce them). Boundary cases of the deadline rule get
//!    their own tests.
//! 2. **Over sockets.** Concurrent client workers drive seeded
//!    interleavings at a [`BrokerNode`] over Unix-domain sockets. The
//!    broker journals its inputs; replaying them through a fresh core
//!    must equal the model on every publish (**decision equality**),
//!    Bloom false positives included (a guard demands some),
//!    and every `DELIVER` frame each client actually received must
//!    equal, in order, what the replay sent it (**delivery fidelity**:
//!    the socket plane loses and reorders nothing).
//!
//! Wall-clock deadline expiry, the live-index snapshot seam and live
//! stats serving get their own scenarios.

use bsub_bloom::SplitMix64;
use bsub_match::{Event, MatchParams, ReferenceMatcher};
use bsub_net::broker::{
    BrokerClient, BrokerConfig, BrokerCore, BrokerNode, BrokerOp, DeliverBody, Effects,
    PublishBody, SubscribeBody,
};
use bsub_net::{scrape, EndpointAddr, PeerConfig, PeerId, StatsServer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn scratch_addr(tag: &str) -> EndpointAddr {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    EndpointAddr::Unix(
        std::env::temp_dir().join(format!("bsub-broker-{}-{tag}-{n}.sock", std::process::id())),
    )
}

/// Small geometry: 128 bits, so the socket-free interleavings over the
/// [`wide_key`] pool produce member-level Bloom false positives, which
/// both sides must agree on.
fn fp_params() -> MatchParams {
    MatchParams {
        member_bits: 128,
        member_hashes: 2,
        initial: 8,
    }
}

/// The socket differential's geometry: 32 bits and one hash, so
/// subscriptions of up to three keys from the 20-key pool of [`key`]
/// make other pool keys match falsely: 2,223 of the 26,600 (subscription
/// of one to three pool keys, other pool key) probes, about one in
/// twelve. At [`fp_params`] that pool yields none.
fn socket_params() -> MatchParams {
    MatchParams {
        member_bits: 32,
        member_hashes: 1,
        initial: 8,
    }
}

const KEY_POOL: u64 = 20;
const WORKERS: u32 = 3;
const OPS_PER_WORKER: usize = 50;

fn key(i: u64) -> String {
    format!("topic-{}", i % KEY_POOL)
}

/// What [`BrokerCore::apply`] must decide, computed without the match
/// index or the clock wheel.
struct Model {
    reference: ReferenceMatcher,
    /// `(id, deadline)` of every live subscription that has one.
    deadlines: Vec<(u64, u64)>,
    /// Every live subscription's keys, to tell false positives apart.
    keys: BTreeMap<u64, Vec<String>>,
    tick: u64,
    /// Deliveries to a subscriber that holds none of the event's keys.
    false_positives: u64,
}

impl Model {
    fn new(params: &MatchParams, tick: u64) -> Self {
        Self {
            reference: ReferenceMatcher::from_params(params),
            deadlines: Vec::new(),
            keys: BTreeMap::new(),
            tick,
            false_positives: 0,
        }
    }

    /// The deadline rule: a subscription is evicted by the first call
    /// whose `now / tick` exceeds `deadline / tick`.
    fn due(&self, now: u64, deadline: u64) -> bool {
        now / self.tick > deadline / self.tick
    }

    fn forget(&mut self, id: u64) {
        self.deadlines.retain(|&(d_id, _)| d_id != id);
        self.keys.remove(&id);
    }

    /// The effects of `apply(now, ops)`, evictions in ascending id
    /// order.
    fn apply(&mut self, now: u64, ops: &[BrokerOp]) -> Effects {
        let mut effects = Effects::default();
        let mut due: Vec<u64> = self
            .deadlines
            .iter()
            .filter(|&&(_, deadline)| self.due(now, deadline))
            .map(|&(id, _)| id)
            .collect();
        due.sort_unstable();
        for id in due {
            assert!(self.reference.unsubscribe(id), "model evicts unknown {id}");
            self.forget(id);
            effects.evicted.push(id);
        }
        for op in ops {
            match op {
                BrokerOp::Subscribe(client, body) => {
                    let id = u64::from(*client);
                    self.forget(id);
                    if body.ttl_ms > 0 {
                        self.deadlines.push((id, now.saturating_add(body.ttl_ms)));
                    }
                    self.keys.insert(id, body.keys.clone());
                    self.reference.subscribe(id, &body.keys);
                }
                BrokerOp::Unsubscribe(client) => {
                    let id = u64::from(*client);
                    self.forget(id);
                    self.reference.unsubscribe(id);
                }
                BrokerOp::Publish(client, body) => {
                    let matched = self
                        .reference
                        .match_events(&[Event::new(body.key.clone())])
                        .matches
                        .remove(0);
                    self.false_positives += matched
                        .iter()
                        .filter(|id| !self.keys[id].contains(&body.key))
                        .count() as u64;
                    let deliver = DeliverBody {
                        seq: body.seq,
                        sent_ns: body.sent_ns,
                        publisher: *client,
                        key: body.key.clone(),
                    };
                    effects.delivered.push((deliver, matched));
                }
            }
        }
        effects
    }
}

/// Applies one call to both the core and the model and demands equal
/// effects (evictions compared as sets).
fn apply_checked(
    core: &mut BrokerCore,
    model: &mut Model,
    now: u64,
    ops: Vec<BrokerOp>,
    context: &str,
) -> Effects {
    let want = model.apply(now, &ops);
    let mut got = core.apply(now, ops);
    got.evicted.sort_unstable();
    assert_eq!(
        got, want,
        "{context}: apply at {now} diverged from the model"
    );
    got
}

/// Replays a journal of inputs through a fresh core, checking every
/// call against the model; returns each call's effects and the Bloom
/// false positives among the deliveries.
fn replay(
    journal: &[(u64, Vec<BrokerOp>)],
    params: &MatchParams,
    tick: u64,
    seed: u64,
) -> (Vec<Effects>, u64) {
    let mut core = BrokerCore::new(*params, tick);
    let mut model = Model::new(params, tick);
    let effects = journal
        .iter()
        .enumerate()
        .map(|(at, (now, ops))| {
            let context = format!("seed {seed} journal entry {at}");
            apply_checked(&mut core, &mut model, *now, ops.clone(), &context)
        })
        .collect();
    (effects, model.false_positives)
}

fn subscribe(client: u32, ttl_ms: u64, keys: &[&str]) -> BrokerOp {
    BrokerOp::Subscribe(
        client,
        SubscribeBody {
            ttl_ms,
            keys: keys.iter().map(|k| (*k).to_string()).collect(),
        },
    )
}

fn publish(client: u32, seq: u64, key: &str) -> BrokerOp {
    BrokerOp::Publish(
        client,
        PublishBody {
            seq,
            sent_ns: seq * 10,
            key: key.to_string(),
        },
    )
}

/// A key from a pool wide enough that `fp_params` produces Bloom false
/// positives: no subscription of up to three keys from the 20-key pool
/// of [`key`] makes any other pool key match at that geometry.
fn wide_key(rng: &mut SplitMix64) -> String {
    format!("topic-{}", rng.below(400))
}

/// One seeded interleaving: a wheel tick, then a run of `apply` calls,
/// each a batch of up to four ops (or none: a pure tick) with `now`
/// advancing by seeded steps of zero to three ticks.
fn interleaving(seed: u64) -> (u64, Vec<(u64, Vec<BrokerOp>)>) {
    let mut rng = SplitMix64::new(seed);
    let tick = [1, 3, 10, 100][rng.below_usize(4)];
    let mut now = rng.below(5 * tick);
    let mut seq = 0u64;
    let calls = (0..4 + rng.below(20))
        .map(|_| {
            now += rng.below(3 * tick + 1);
            let ops = (0..rng.below(5))
                .map(|_| {
                    let client = 1 + rng.below(5) as u32;
                    match rng.below(10) {
                        0 | 1 => {
                            let keys: Vec<String> =
                                (0..1 + rng.below(4)).map(|_| wide_key(&mut rng)).collect();
                            let ttl_ms = match rng.below(8) {
                                0..=2 => 0,
                                3 => u64::MAX,
                                // Deadlines on and around tick boundaries.
                                4 => tick * (1 + rng.below(3)) - now % tick,
                                _ => 1 + rng.below(4 * tick),
                            };
                            BrokerOp::Subscribe(client, SubscribeBody { ttl_ms, keys })
                        }
                        2 => BrokerOp::Unsubscribe(client),
                        _ => {
                            seq += 1;
                            BrokerOp::Publish(
                                client,
                                PublishBody {
                                    seq,
                                    sent_ns: rng.next_u64(),
                                    key: wide_key(&mut rng),
                                },
                            )
                        }
                    }
                })
                .collect();
            (now, ops)
        })
        .collect();
    (tick, calls)
}

/// Ten thousand seeded interleavings, no sockets: every delivery equals
/// the reference scan on the same op prefix and every eviction equals
/// the flat deadline model. Both Bloom false positives and evictions
/// must actually occur, or the test proves nothing.
#[test]
fn core_matches_models_across_seeded_interleavings() {
    let params = fp_params();
    let (mut evictions, mut false_positives, mut publishes) = (0u64, 0u64, 0u64);
    for seed in 0..10_000u64 {
        let (tick, calls) = interleaving(seed);
        let mut core = BrokerCore::new(params, tick);
        let mut model = Model::new(&params, tick);
        for (at, (now, ops)) in calls.into_iter().enumerate() {
            let context = format!("seed {seed} call {at} (tick {tick})");
            let effects = apply_checked(&mut core, &mut model, now, ops, &context);
            evictions += effects.evicted.len() as u64;
            publishes += effects.delivered.len() as u64;
        }
        false_positives += model.false_positives;
    }
    assert!(publishes > 10_000, "{publishes} publishes");
    assert!(evictions > 1_000, "{evictions} evictions");
    assert!(false_positives > 100, "{false_positives} false positives");
}

/// A deadline exactly on a tick boundary, and one inside a tick: at
/// tick 10, deadlines 20 and 25 are both evicted by the first call at
/// `now >= 30`, not before — after the deadline, within one tick.
#[test]
fn deadline_on_a_tick_boundary() {
    let params = fp_params();
    for deadline in [20, 25] {
        let context = format!("deadline {deadline}");
        let mut core = BrokerCore::new(params, 10);
        let mut model = Model::new(&params, 10);
        let sub = vec![subscribe(1, deadline, &["a"])];
        apply_checked(&mut core, &mut model, 0, sub, &context);
        assert!(!core.has_due(29), "{context}");
        let kept = apply_checked(
            &mut core,
            &mut model,
            29,
            vec![publish(2, 1, "a")],
            &context,
        );
        assert_eq!(kept.delivered[0].1, vec![1], "{context}");
        assert!(core.has_due(30), "{context}");
        let gone = apply_checked(
            &mut core,
            &mut model,
            30,
            vec![publish(2, 2, "a")],
            &context,
        );
        assert_eq!(gone.evicted, vec![1], "{context}");
        assert!(gone.delivered[0].1.is_empty(), "{context}");
        assert!(!core.has_due(u64::MAX), "{context}: the wheel is empty");
    }
}

/// A resubscribe moves the deadline: a shorter TTL evicts earlier, a
/// longer one later, and none never.
#[test]
fn resubscribe_with_shorter_longer_and_no_ttl() {
    let params = fp_params();
    // (second TTL, first call that evicts); tick 10, first TTL 100 at
    // time 0 (deadline 100), second subscribe at time 5.
    for (ttl, evicted_at) in [(15, 30), (300, 310), (0, u64::MAX)] {
        let mut core = BrokerCore::new(params, 10);
        let mut model = Model::new(&params, 10);
        let context = format!("resubscribe ttl {ttl}");
        apply_checked(
            &mut core,
            &mut model,
            0,
            vec![subscribe(1, 100, &["a"])],
            &context,
        );
        apply_checked(
            &mut core,
            &mut model,
            5,
            vec![subscribe(1, ttl, &["a"])],
            &context,
        );
        for now in (10..=400).step_by(5) {
            let effects = apply_checked(&mut core, &mut model, now, Vec::new(), &context);
            let want: &[u64] = if now == evicted_at { &[1] } else { &[] };
            assert_eq!(effects.evicted, want, "{context}: at {now}");
        }
        assert_eq!(
            core.index().live_count(),
            usize::from(ttl == 0),
            "{context}"
        );
    }
}

/// Unsubscribe then resubscribe before the old bucket pops: the old
/// deadline must not evict the new subscription.
#[test]
fn unsubscribe_then_resubscribe_before_the_old_bucket_pops() {
    let params = fp_params();
    for ttl in [0, 500] {
        let mut core = BrokerCore::new(params, 10);
        let mut model = Model::new(&params, 10);
        let context = format!("resubscribe ttl {ttl}");
        apply_checked(
            &mut core,
            &mut model,
            0,
            vec![subscribe(1, 20, &["a"])],
            &context,
        );
        let ops = vec![BrokerOp::Unsubscribe(1), subscribe(1, ttl, &["a"])];
        apply_checked(&mut core, &mut model, 5, ops, &context);
        let effects = apply_checked(
            &mut core,
            &mut model,
            100,
            vec![publish(2, 1, "a")],
            &context,
        );
        assert!(effects.evicted.is_empty(), "{context}");
        assert_eq!(effects.delivered[0].1, vec![1], "{context}");
    }
}

/// Counts the subscribes and publishes in a journal of inputs.
fn journal_counts(journal: &[(u64, Vec<BrokerOp>)]) -> (u64, u64) {
    let ops = journal.iter().flat_map(|(_, ops)| ops);
    let subs = ops
        .clone()
        .filter(|op| matches!(op, BrokerOp::Subscribe(..)))
        .count() as u64;
    let pubs = ops.filter(|op| matches!(op, BrokerOp::Publish(..))).count() as u64;
    (subs, pubs)
}

/// One worker's seeded op script against a shared broker. Returns
/// (subscribes sent, publishes sent).
fn drive_client(client: &BrokerClient, seed: u64) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut subscribed_once = false;
    let (mut subs, mut pubs) = (0u64, 0u64);
    for i in 0..OPS_PER_WORKER {
        match rng.next_u64() % 10 {
            0..=3 => {
                let n = 1 + (rng.next_u64() % 3) as usize;
                let keys: Vec<String> = (0..n).map(|_| key(rng.next_u64())).collect();
                // Occasional TTLs long enough to outlive the run keep
                // the deadline path on without racing the assertions
                // (wheel expiry is pinned separately below).
                let ttl = rng
                    .next_u64()
                    .is_multiple_of(4)
                    .then_some(Duration::from_secs(120));
                client.subscribe(&keys, ttl).expect("subscribe sends");
                subscribed_once = true;
                subs += 1;
            }
            4 if subscribed_once => {
                client.unsubscribe().expect("unsubscribe sends");
            }
            _ => {
                let seq = (u64::from(client.local().0) << 32) | i as u64;
                client
                    .publish(seq, &key(rng.next_u64()))
                    .expect("publish sends");
                pubs += 1;
            }
        }
        if rng.next_u64().is_multiple_of(4) {
            thread::sleep(Duration::from_micros(200));
        }
    }
    (subs, pubs)
}

/// Three seeded interleavings over sockets, three concurrent workers
/// each, decision equality and delivery fidelity on every one. Bloom
/// false positives must actually cross the sockets, or the test proves
/// exact matches only.
#[test]
fn networked_broker_matches_reference_across_seeded_interleavings() {
    let mut false_positives = 0;
    for seed in [11u64, 29, 63] {
        let params = socket_params();
        let broker_id = PeerId(1000);
        let broker_addr = scratch_addr(&format!("diff{seed}"));
        let mut config = BrokerConfig::new(broker_id, broker_addr.clone(), seed);
        config.params = params;
        config.journal = true;
        let mut broker = BrokerNode::serve(config).expect("broker binds");

        let clients: Vec<Arc<BrokerClient>> = (1..=WORKERS)
            .map(|c| {
                let addr = scratch_addr(&format!("c{seed}-{c}"));
                Arc::new(
                    BrokerClient::connect(
                        PeerConfig::new(PeerId(c), addr, seed),
                        broker_id,
                        &broker_addr,
                    )
                    .expect("client connects"),
                )
            })
            .collect();

        let workers: Vec<_> = clients
            .iter()
            .map(|client| {
                let client = Arc::clone(client);
                let seed = SplitMix64::mix(seed, u64::from(client.local().0));
                thread::spawn(move || drive_client(&client, seed))
            })
            .collect();
        let (mut sent_subs, mut sent_pubs) = (0u64, 0u64);
        for worker in workers {
            let (s, p) = worker.join().expect("worker completes");
            sent_subs += s;
            sent_pubs += p;
        }
        assert!(sent_pubs > 0, "seed {seed}: the script never published");

        // Every subscribe and publish is journaled exactly once; wait
        // until the broker has applied them all.
        let deadline = Instant::now() + Duration::from_secs(20);
        let journal = loop {
            let journal = broker.journal();
            if journal_counts(&journal) == (sent_subs, sent_pubs) {
                break journal;
            }
            assert!(
                Instant::now() < deadline,
                "seed {seed}: broker applied {:?} of ({sent_subs}, {sent_pubs}) ops",
                journal_counts(&broker.journal())
            );
            thread::sleep(Duration::from_millis(5));
        };

        // Layer 1: replaying the broker's inputs through a fresh core
        // equals the reference on every publish.
        let mut expected: BTreeMap<u64, Vec<(u32, u64, String)>> = BTreeMap::new();
        let (replayed, seen) = replay(&journal, &params, 100, seed);
        false_positives += seen;
        for effects in replayed {
            for (deliver, matched) in effects.delivered {
                for subscriber in matched {
                    expected.entry(subscriber).or_default().push((
                        deliver.publisher,
                        deliver.seq,
                        deliver.key.clone(),
                    ));
                }
            }
        }

        // Layer 2: each client received exactly the replay's
        // deliveries, in order.
        for client in &clients {
            let want = expected
                .get(&u64::from(client.local().0))
                .cloned()
                .unwrap_or_default();
            let mut got = Vec::with_capacity(want.len());
            let deadline = Instant::now() + Duration::from_secs(10);
            while got.len() < want.len() {
                let left = deadline.saturating_duration_since(Instant::now());
                let delivery = client.recv_delivery(left).unwrap_or_else(|| {
                    panic!(
                        "seed {seed} client {}: {} of {} deliveries arrived",
                        client.local(),
                        got.len(),
                        want.len()
                    )
                });
                got.push((
                    delivery.body.publisher,
                    delivery.body.seq,
                    delivery.body.key.clone(),
                ));
            }
            assert_eq!(
                got,
                want,
                "seed {seed} client {}: delivery stream diverged",
                client.local()
            );
            // And nothing extra is in flight.
            assert!(
                client.recv_delivery(Duration::from_millis(100)).is_none(),
                "seed {seed} client {}: surplus delivery",
                client.local()
            );
        }

        broker.shutdown();
    }
    assert!(
        false_positives > 0,
        "no Bloom false positive crossed the sockets — the test lost coverage"
    );
}

/// Wall-clock deadline expiry over the wire: a TTL'd subscription
/// serves publishes until its deadline, is reaped by the wheel within
/// a tick of it, and a resubscribe is never clipped by the stale wheel
/// entry its predecessor left behind.
#[test]
fn deadline_expiry_and_resubscribe_safety_over_the_wire() {
    let broker_id = PeerId(2000);
    let broker_addr = scratch_addr("ttl");
    let mut config = BrokerConfig::new(broker_id, broker_addr.clone(), 5);
    config.tick = Duration::from_millis(20);
    config.journal = true;
    let mut broker = BrokerNode::serve(config).expect("broker binds");

    let subscriber = BrokerClient::connect(
        PeerConfig::new(PeerId(1), scratch_addr("ttl-sub"), 5),
        broker_id,
        &broker_addr,
    )
    .expect("subscriber connects");
    let publisher = BrokerClient::connect(
        PeerConfig::new(PeerId(2), scratch_addr("ttl-pub"), 5),
        broker_id,
        &broker_addr,
    )
    .expect("publisher connects");

    // Phase 1: subscribe with a TTL; a pre-deadline publish delivers.
    // The publish is gated on the broker having *applied* the
    // subscription — the two clients feed independent inbound queues,
    // so nothing else orders the frames.
    subscriber
        .subscribe(&["news"], Some(Duration::from_millis(400)))
        .expect("subscribe");
    let applied = Instant::now() + Duration::from_secs(10);
    while broker.live_count() == 0 {
        assert!(Instant::now() < applied, "subscription never applied");
        thread::sleep(Duration::from_millis(2));
    }
    publisher.publish(1, "news").expect("publish");
    let delivery = subscriber
        .recv_delivery(Duration::from_secs(5))
        .expect("pre-deadline publish delivers");
    assert_eq!(delivery.body.seq, 1);
    assert_eq!(delivery.body.publisher, 2);

    // Phase 2: let the deadline and a wheel tick pass; the
    // wheel must have reaped the subscription without any frame
    // arriving to prod the service loop.
    let reaped = Instant::now() + Duration::from_secs(10);
    while broker.live_count() > 0 {
        assert!(Instant::now() < reaped, "wheel never reaped the TTL");
        thread::sleep(Duration::from_millis(10));
    }
    publisher
        .publish(2, "news")
        .expect("publish after deadline");
    assert!(
        subscriber
            .recv_delivery(Duration::from_millis(300))
            .is_none(),
        "post-deadline publish must not deliver"
    );
    let journal = broker.journal();
    assert!(
        replay(&journal, &MatchParams::default(), 20, 5)
            .0
            .iter()
            .any(|effects| effects.evicted == [1]),
        "the replayed journal must show the eviction: {journal:?}"
    );

    // Phase 3: a short TTL immediately replaced by an open-ended
    // subscription; once the *old* deadline has passed (stale wheel
    // entry popped), publishes must still deliver.
    subscriber
        .subscribe(&["news"], Some(Duration::from_millis(80)))
        .expect("short ttl");
    subscriber.subscribe(&["news"], None).expect("replacement");
    let replaced = Instant::now() + Duration::from_secs(10);
    loop {
        let state = broker.export_index();
        if state.subs.iter().any(|s| s.id == 1 && s.deadline.is_none()) {
            break;
        }
        assert!(Instant::now() < replaced, "replacement never applied");
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_millis(200));
    publisher
        .publish(3, "news")
        .expect("publish after stale deadline");
    let delivery = subscriber
        .recv_delivery(Duration::from_secs(5))
        .expect("replacement subscription survives its predecessor's wheel entry");
    assert_eq!(delivery.body.seq, 3);
    assert_eq!(broker.live_count(), 1);

    broker.shutdown();
}

/// The live-index snapshot seam: state exported mid-serve round-trips
/// byte-exactly through the `bsub-core` codec and rebuilds an index
/// with identical matching behavior.
#[test]
fn live_index_state_snapshots_through_core_codec() {
    let broker_id = PeerId(3000);
    let broker_addr = scratch_addr("snap");
    let mut config = BrokerConfig::new(broker_id, broker_addr.clone(), 9);
    config.params = fp_params();
    let mut broker = BrokerNode::serve(config).expect("broker binds");

    let client = BrokerClient::connect(
        PeerConfig::new(PeerId(1), scratch_addr("snap-c"), 9),
        broker_id,
        &broker_addr,
    )
    .expect("client connects");
    client
        .subscribe(&["alpha", "beta"], Some(Duration::from_secs(300)))
        .expect("subscribe");
    let settled = Instant::now() + Duration::from_secs(10);
    while broker.live_count() == 0 {
        assert!(Instant::now() < settled, "subscription never applied");
        thread::sleep(Duration::from_millis(5));
    }

    let state = broker.export_index();
    let bytes =
        bsub_core::snapshot::encode_match_index(&bsub_match::MatchIndex::from_state(&state));
    let rebuilt = bsub_core::snapshot::decode_match_index(&bytes).expect("snapshot decodes");
    assert_eq!(rebuilt.export_state(), state, "state survives the codec");
    assert_eq!(
        bsub_core::snapshot::encode_match_index(&rebuilt),
        bytes,
        "re-encode is byte-identical"
    );
    let probe: Vec<Event> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|k| Event::new(*k))
        .collect();
    assert_eq!(
        rebuilt.match_events(&probe).matches,
        bsub_match::MatchIndex::from_state(&state)
            .match_events(&probe)
            .matches,
    );
    assert!(rebuilt.deadline(1).is_some(), "TTL survives");

    broker.shutdown();
}

/// The broker's own sink is scrapeable live: the service loop's batch
/// profile and the socket threads' frame counts land in one report,
/// which a `StatsServer` serves while the broker runs.
#[test]
fn broker_sink_serves_live_stats() {
    let broker_id = PeerId(4000);
    let broker_addr = scratch_addr("stats");
    let mut broker = BrokerNode::serve(BrokerConfig::new(broker_id, broker_addr.clone(), 11))
        .expect("broker binds");
    broker.manager().metrics().enable();
    let peers = Arc::clone(broker.manager());
    let server = StatsServer::serve(&scratch_addr("stats-http"), move || {
        peers.metrics().snapshot()
    })
    .expect("stats server binds");

    let subscriber = BrokerClient::connect(
        PeerConfig::new(PeerId(1), scratch_addr("stats-sub"), 11),
        broker_id,
        &broker_addr,
    )
    .expect("subscriber connects");
    let publisher = BrokerClient::connect(
        PeerConfig::new(PeerId(2), scratch_addr("stats-pub"), 11),
        broker_id,
        &broker_addr,
    )
    .expect("publisher connects");
    subscriber.subscribe(&["news"], None).expect("subscribe");
    let applied = Instant::now() + Duration::from_secs(10);
    while broker.live_count() == 0 {
        assert!(Instant::now() < applied, "subscription never applied");
        thread::sleep(Duration::from_millis(2));
    }
    publisher.publish(1, "news").expect("publish");
    let delivery = subscriber
        .recv_delivery(Duration::from_secs(5))
        .expect("publish delivers");
    assert_eq!(delivery.body.seq, 1);

    // The delivery can overtake the recording of its batch's profile,
    // so scrape until the publish shows up.
    let recorded = Instant::now() + Duration::from_secs(10);
    loop {
        let text = scrape(server.local_addr(), "/metrics").expect("scrape /metrics");
        if text.lines().any(|l| l == "bsub_broker_publishes 1") {
            assert!(text.contains("\nbsub_broker_deliveries 1\n"), "{text}");
            assert!(text.contains("\nbsub_net_frames_recv "), "{text}");
            break;
        }
        assert!(
            Instant::now() < recorded,
            "the publish never reached the scrape:\n{text}"
        );
        thread::sleep(Duration::from_millis(5));
    }

    drop(server);
    broker.shutdown();
}

/// Waits until the broker's index holds `want` live subscribers.
fn wait_live(broker: &BrokerNode, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.live_count() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: {} live, want {want}",
            broker.live_count()
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// A subscriber that vanishes without unsubscribing is purged once its
/// connection closes, although `ttl_ms = 0` gives it no deadline. A
/// client that reconnects under the same id and resubscribes keeps its
/// subscription, and the healthy subscriber's deliveries still equal
/// the replay of the journal, where the close is an unsubscribe.
#[test]
fn vanished_subscriber_is_purged_when_its_connection_closes() {
    let broker_id = PeerId(5000);
    let broker_addr = scratch_addr("vanish");
    let mut config = BrokerConfig::new(broker_id, broker_addr.clone(), 13);
    config.journal = true;
    let mut broker = BrokerNode::serve(config).expect("broker binds");
    let connect = |id: u32, tag: &str| {
        BrokerClient::connect(
            PeerConfig::new(PeerId(id), scratch_addr(tag), 13),
            broker_id,
            &broker_addr,
        )
        .expect("client connects")
    };
    let healthy = connect(1, "vanish-healthy");
    let vanishing = connect(2, "vanish-gone");
    let publisher = connect(3, "vanish-pub");
    healthy.subscribe(&["news"], None).expect("subscribe");
    vanishing.subscribe(&["news"], None).expect("subscribe");
    wait_live(&broker, 2, "both subscriptions applied");
    publisher.publish(1, "news").expect("publish");
    let delivery = vanishing
        .recv_delivery(Duration::from_secs(5))
        .expect("the subscriber receives before it vanishes");
    assert_eq!(delivery.body.seq, 1);

    // No unsubscribe and no deadline: only the close can purge it.
    vanishing.manager().shutdown();
    drop(vanishing);
    wait_live(&broker, 1, "the vanished subscriber is purged");
    publisher.publish(2, "news").expect("publish");

    let back = connect(2, "vanish-back");
    back.subscribe(&["news"], None).expect("resubscribe");
    wait_live(&broker, 2, "the reconnected subscription applied");
    publisher.publish(3, "news").expect("publish");
    let delivery = back
        .recv_delivery(Duration::from_secs(5))
        .expect("the reconnected subscriber receives");
    assert_eq!(delivery.body.seq, 3);
    assert_eq!(
        broker.live_count(),
        2,
        "the reconnect keeps its subscription"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    let journal = loop {
        let journal = broker.journal();
        if journal_counts(&journal).1 == 3 {
            break journal;
        }
        assert!(
            Instant::now() < deadline,
            "the publishes were never applied"
        );
        thread::sleep(Duration::from_millis(2));
    };
    let closes = journal
        .iter()
        .flat_map(|(_, ops)| ops)
        .filter(|op| **op == BrokerOp::Unsubscribe(2))
        .count();
    assert_eq!(closes, 1, "the close is journaled once: {journal:?}");
    let (replayed, _) = replay(&journal, &MatchParams::default(), 100, 13);
    let want: Vec<u64> = replayed
        .iter()
        .flat_map(|effects| &effects.delivered)
        .filter(|(_, matched)| matched.contains(&1))
        .map(|(deliver, _)| deliver.seq)
        .collect();
    assert_eq!(want, [1, 2, 3]);
    let got: Vec<u64> = want
        .iter()
        .map(|_| {
            healthy
                .recv_delivery(Duration::from_secs(5))
                .expect("the healthy subscriber receives the replay's deliveries")
                .body
                .seq
        })
        .collect();
    assert_eq!(got, want);
    assert!(healthy.recv_delivery(Duration::from_millis(100)).is_none());

    for client in [&healthy, &back, &publisher] {
        client.manager().shutdown();
    }
    wait_live(&broker, 0, "every client left");
    broker.shutdown();
}
