//! Differential proof for the networked broker: deliveries over real
//! sockets ≡ an in-process [`ReferenceMatcher`] replay.
//!
//! Concurrent client workers drive seeded subscribe / unsubscribe /
//! publish interleavings at a [`BrokerNode`] over Unix-domain sockets.
//! The broker journals the exact order it applied the ops in; the test
//! then replays that journal through the reference scan and demands:
//!
//! 1. **Decision equality** — every journaled publish's delivered set
//!    equals the reference's match for the same op prefix (the
//!    matching index behind sockets is still exactly the reference,
//!    Bloom false positives included — the geometry is chosen small
//!    enough to produce them).
//! 2. **Delivery fidelity** — every `DELIVER` frame each client
//!    actually received equals, in order, what the journal says was
//!    enqueued toward it (the socket plane loses and reorders
//!    nothing).
//!
//! Three seeds, each driving three concurrent workers, give three
//! seeded multi-worker interleavings; wall-clock deadline expiry,
//! the live-index snapshot seam and live stats serving get their own
//! scenarios.

use bsub_bloom::SplitMix64;
use bsub_match::{Event, MatchParams, ReferenceMatcher};
use bsub_net::broker::{BrokerClient, BrokerConfig, BrokerNode, BrokerOp};
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

/// Small geometry: 128 bits across a 20-key pool forces member-level
/// Bloom false positives, which both sides must agree on.
fn fp_params() -> MatchParams {
    MatchParams {
        member_bits: 128,
        member_hashes: 2,
        initial: 8,
    }
}

const KEY_POOL: u64 = 20;
const WORKERS: u32 = 3;
const OPS_PER_WORKER: usize = 50;

fn key(i: u64) -> String {
    format!("topic-{}", i % KEY_POOL)
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

fn journal_counts(journal: &[BrokerOp]) -> (u64, u64) {
    let subs = journal
        .iter()
        .filter(|op| matches!(op, BrokerOp::Subscribe { .. }))
        .count() as u64;
    let pubs = journal
        .iter()
        .filter(|op| matches!(op, BrokerOp::Publish { .. }))
        .count() as u64;
    (subs, pubs)
}

/// Replays `journal` through the reference matcher, asserting decision
/// equality per publish and returning each subscriber's expected
/// delivery list in enqueue order.
fn replay(
    journal: &[BrokerOp],
    params: &MatchParams,
    seed: u64,
) -> BTreeMap<u64, Vec<(u32, u64, String)>> {
    let mut reference = ReferenceMatcher::from_params(params);
    let mut expected: BTreeMap<u64, Vec<(u32, u64, String)>> = BTreeMap::new();
    for (at, op) in journal.iter().enumerate() {
        match op {
            BrokerOp::Subscribe { client, keys, .. } => {
                reference.subscribe(u64::from(*client), keys);
            }
            BrokerOp::Unsubscribe { client } => {
                assert!(
                    reference.unsubscribe(u64::from(*client)),
                    "seed {seed} op {at}: broker journaled an unsubscribe \
                     for a client the reference thinks is gone"
                );
            }
            BrokerOp::Expire { clients, .. } => {
                for id in clients {
                    assert!(
                        reference.unsubscribe(*id),
                        "seed {seed} op {at}: broker expired unknown id {id}"
                    );
                }
            }
            BrokerOp::Publish {
                client,
                seq,
                key,
                delivered,
            } => {
                let oracle = reference.match_events(&[Event::new(key.clone())]);
                assert_eq!(
                    &oracle.matches[0], delivered,
                    "seed {seed} op {at}: broker delivery set for {key} (seq {seq}) \
                     diverged from the reference replay"
                );
                for &subscriber in delivered {
                    expected
                        .entry(subscriber)
                        .or_default()
                        .push((*client, *seq, key.clone()));
                }
            }
        }
    }
    expected
}

/// The tentpole: three seeded interleavings, three concurrent workers
/// each, decision equality and delivery fidelity on every one.
#[test]
fn networked_broker_matches_reference_across_seeded_interleavings() {
    for seed in [11u64, 29, 63] {
        let params = fp_params();
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

        // Layer 1: the broker's decisions equal the reference replay.
        let expected = replay(&journal, &params, seed);

        // Layer 2: each client received exactly the journaled
        // deliveries, in enqueue order.
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

    // Phase 2: let the deadline and at least two wheel ticks pass; the
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
    assert!(
        broker
            .journal()
            .iter()
            .any(|op| matches!(op, BrokerOp::Expire { clients, .. } if clients == &vec![1])),
        "the eviction must be journaled: {:?}",
        broker.journal()
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
