//! Integration tests for the networked runtime: dial-race
//! convergence, mid-exchange socket drops, and — the acceptance bar —
//! a multi-worker loopback cluster whose report equals the serial
//! simulator's for every protocol.

use bsub_baselines::{Pull, Push};
use bsub_core::{BsubConfig, BsubProtocol, DfMode};
use bsub_net::{
    peer_addr, render_prometheus, run_coordinator, run_coordinator_with, run_worker, scrape,
    ClusterSpec, ConnState, EndpointAddr, Frame, FrameKind, PeerConfig, PeerId, PeerManager,
    StatsServer,
};
use bsub_obs::{Counter, SharedReport, TimeHist};
use bsub_sim::fault::PPM;
use bsub_sim::{
    EventLog, FaultSpec, LossCause, Protocol, ProtocolFactory, SimConfig, Simulation,
    SubscriptionTable, TraceEvent,
};
use bsub_traces::synthetic::SyntheticTrace;
use bsub_traces::{NodeId, SimDuration};
use bsub_workload::{interests, keys, WorkloadBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bsub-net-it-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Two peers dialing each other simultaneously must converge on
/// exactly one connection per side (the one dialed by the lower peer
/// id — DESIGN.md §12.2), with traffic flowing both ways afterwards.
#[test]
fn dial_accept_race_resolves_to_one_connection() {
    let dir = scratch_dir("race");
    let a_addr = peer_addr(&dir, PeerId(1));
    let b_addr = peer_addr(&dir, PeerId(2));
    let a = PeerManager::bind(PeerConfig::new(PeerId(1), a_addr.clone(), 42)).unwrap();
    let b = PeerManager::bind(PeerConfig::new(PeerId(2), b_addr.clone(), 42)).unwrap();

    // Dial in both directions at once, repeatedly hitting the race
    // window.
    let dial_a = {
        let a = Arc::clone(&a);
        let b_addr = b_addr.clone();
        thread::spawn(move || a.connect(PeerId(2), &b_addr))
    };
    let dial_b = {
        let b = Arc::clone(&b);
        let a_addr = a_addr.clone();
        thread::spawn(move || b.connect(PeerId(1), &a_addr))
    };
    dial_a.join().unwrap().unwrap();
    dial_b.join().unwrap().unwrap();

    wait_until("both sides established", || {
        a.state(PeerId(2)) == ConnState::Established && b.state(PeerId(1)) == ConnState::Established
    });
    assert_eq!(a.connection_count(), 1, "one connection on the dialer");
    assert_eq!(b.connection_count(), 1, "one connection on the acceptor");

    // Ping-pong with retries: a frame queued on the race loser before
    // displacement is legitimately lost (reset semantics), so resend
    // until the surviving socket carries it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let pong = loop {
        assert!(Instant::now() < deadline, "race survivors never spoke");
        let _ = a.send(PeerId(2), Frame::new(FrameKind::Dispatch, vec![1]));
        // A close notice, like a lost frame, means another round.
        if let Some((from, Some(frame))) = b.recv_any(Duration::from_millis(300)) {
            assert_eq!((from, frame.kind), (PeerId(1), FrameKind::Dispatch));
            let _ = b.send(PeerId(1), Frame::new(FrameKind::PublishOk, vec![2]));
            if let Some((from, Some(reply))) = a.recv_any(Duration::from_millis(300)) {
                break (from, reply);
            }
        }
    };
    assert_eq!((pong.0, pong.1.kind), (PeerId(2), FrameKind::PublishOk));
    assert_eq!(a.connection_count(), 1);
    assert_eq!(b.connection_count(), 1);
}

/// A socket dying mid-exchange must leave both sides recoverable: the
/// survivor observes the reset and retires the connection, a
/// reconnect succeeds, and protocol state shipped over the new
/// connection is byte-identical — no counter corruption from the
/// partial exchange.
#[test]
fn mid_exchange_drop_recovers_without_state_corruption() {
    let dir = scratch_dir("drop");
    let a_addr = peer_addr(&dir, PeerId(1));
    let b_addr = peer_addr(&dir, PeerId(2));
    let a = PeerManager::bind(PeerConfig::new(PeerId(1), a_addr.clone(), 7)).unwrap();
    let b = PeerManager::bind(PeerConfig::new(PeerId(2), b_addr.clone(), 7)).unwrap();
    a.connect(PeerId(2), &b_addr).unwrap();
    a.send(PeerId(2), Frame::new(FrameKind::Dispatch, vec![0]))
        .unwrap();
    let (_, frame) = b.recv_any(Duration::from_secs(5)).expect("pre-drop frame");
    assert!(frame.is_some(), "a frame, not a close notice");

    // Populate a real B-SUB instance with TCBF counters by running a
    // short serial simulation, then snapshot one node.
    let (spec, _nodes) = small_world(3);
    let factory = bsub_factory(&spec);
    let (_report, protocol) = spec.sim.run_factory(factory.as_ref(), spec.seed);
    let snapshot = protocol
        .export_node(NodeId::new(0))
        .expect("bsub exports node state");

    // Kill the remote abruptly — mid-exchange from A's perspective.
    b.shutdown();
    drop(b);
    wait_until("survivor retires the dropped connection", || {
        a.state(PeerId(2)) == ConnState::Closed && a.connection_count() == 0
    });

    // The peer comes back under the same identity; reconnect and ship
    // the snapshot over the fresh connection.
    let b2 = PeerManager::bind(PeerConfig::new(PeerId(2), b_addr.clone(), 7)).unwrap();
    a.connect(PeerId(2), &b_addr).unwrap();
    a.send(
        PeerId(2),
        Frame::new(FrameKind::StateGrant, snapshot.clone()),
    )
    .unwrap();
    let (_, frame) = b2
        .recv_any(Duration::from_secs(5))
        .expect("snapshot arrives");
    let frame = frame.expect("a frame, not a close notice");
    assert_eq!(
        frame.body, snapshot,
        "transport did not corrupt the snapshot"
    );

    // Import into a fresh instance and re-export: byte-identical, the
    // snapshot exactness contract across the network path.
    let mut fresh = factory.build(spec.seed);
    assert!(fresh.import_node(NodeId::new(0), &frame.body));
    assert_eq!(
        fresh.export_node(NodeId::new(0)).expect("re-export"),
        snapshot,
        "imported state re-exports byte-identically (no counter corruption)"
    );
}

// ---- cluster vs. serial simulator -------------------------------------

/// A small deterministic world shared by the cluster tests — built
/// exactly like `Experiment::over` in `bsub-bench`.
fn small_world(workers: u32) -> (ClusterSpec, u32) {
    let seed = 11u64;
    let trace = SyntheticTrace::new("netit", 10, SimDuration::from_hours(1), 150)
        .seed(seed)
        .build();
    let nodes = trace.node_count();
    let subscriptions: SubscriptionTable =
        interests::assign_interests(nodes, keys::trend_keys(), seed ^ 0x1111);
    let schedule = WorkloadBuilder::new(&trace).seed(seed ^ 0x2222).build();
    let config = SimConfig {
        ttl: SimDuration::from_mins(30),
        ..SimConfig::default()
    };
    let sim = Simulation::new(trace, subscriptions, schedule, config);
    (ClusterSpec::new(sim, seed, workers), nodes)
}

fn bsub_factory(spec: &ClusterSpec) -> Box<dyn ProtocolFactory> {
    let config = BsubConfig::builder()
        .df(DfMode::Fixed(2.0))
        .delay_limit(spec.sim.config().ttl)
        .build();
    let subscriptions = Arc::clone(spec.sim.subscriptions());
    Box::new(move |_seed: u64| {
        Box::new(BsubProtocol::new(config.clone(), &subscriptions)) as Box<dyn Protocol>
    })
}

fn push_factory(nodes: u32) -> Box<dyn ProtocolFactory> {
    Box::new(move |_seed: u64| Box::new(Push::new(nodes)) as Box<dyn Protocol>)
}

fn pull_factory(nodes: u32) -> Box<dyn ProtocolFactory> {
    Box::new(move |_seed: u64| Box::new(Pull::new(nodes)) as Box<dyn Protocol>)
}

/// Runs `small_world(workers)` under `faults` on the cluster and on
/// the serial simulator, asserts the two reports are equal, and hands
/// back the serial run's event log.
fn assert_cluster_matches_serial(
    tag: &str,
    factory: &dyn ProtocolFactory,
    workers: u32,
    faults: FaultSpec,
) -> EventLog {
    let (mut spec, _nodes) = small_world(workers);
    spec.sim = spec.sim.with_faults(faults);
    let mut log = EventLog::new();
    let serial = spec
        .sim
        .run_factory_recorded(factory, spec.seed, &mut log)
        .0;

    let dir = scratch_dir(tag);
    let workers_handles: Vec<_> = (1..=workers)
        .map(|w| {
            let spec = spec.clone();
            let dir = dir.clone();
            // Each worker thread builds its own factory-equivalent
            // closure by sharing the one under test via scoped spawn.
            thread::Builder::new()
                .name(format!("net-it-worker-{w}"))
                .spawn({
                    let spec = spec.clone();
                    let dir = dir.clone();
                    let factory = clone_factory_handle(&spec, tag);
                    move || run_worker(&spec, factory.as_ref(), &dir, w)
                })
                .expect("spawn worker")
        })
        .collect();
    let outcome = finish_cluster(run_coordinator(&spec, factory, &dir), workers_handles);
    assert_eq!(
        outcome.report, serial,
        "cluster report equals the serial simulator ({tag})"
    );
    assert_eq!(outcome.exchange_ns.len(), spec.sim.trace().len());
    log
}

/// Joins the worker threads and unwraps the coordinator outcome. On
/// a coordinator failure the workers' own results are part of the
/// panic message — a stalled coordinator usually means a worker died
/// first, and its error is the one that explains the run.
fn finish_cluster(
    outcome: std::io::Result<bsub_net::ClusterOutcome>,
    handles: Vec<thread::JoinHandle<std::io::Result<()>>>,
) -> bsub_net::ClusterOutcome {
    let worker_results: Vec<std::io::Result<()>> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(std::io::Error::other("worker thread panicked")))
        })
        .collect();
    match outcome {
        Ok(outcome) => {
            for (i, result) in worker_results.into_iter().enumerate() {
                result.unwrap_or_else(|e| panic!("worker {} failed: {e}", i + 1));
            }
            outcome
        }
        Err(err) => panic!("coordinator failed: {err}; worker results: {worker_results:?}"),
    }
}

/// Rebuilds the factory for a worker thread from the spec alone —
/// what a worker process does from CLI args in `net-cluster`.
fn clone_factory_handle(spec: &ClusterSpec, tag: &str) -> Box<dyn ProtocolFactory> {
    let nodes = spec.sim.trace().node_count();
    if tag.contains("push") {
        push_factory(nodes)
    } else if tag.contains("pull") {
        pull_factory(nodes)
    } else {
        bsub_factory(spec)
    }
}

#[test]
fn cluster_matches_serial_simulator_push() {
    let (spec, nodes) = small_world(2);
    let factory = push_factory(nodes);
    drop(spec);
    let _ = assert_cluster_matches_serial("push", factory.as_ref(), 2, FaultSpec::none());
}

#[test]
fn cluster_matches_serial_simulator_bsub() {
    let (spec, _nodes) = small_world(2);
    let factory = bsub_factory(&spec);
    let _ = assert_cluster_matches_serial("bsub", factory.as_ref(), 2, FaultSpec::none());
}

#[test]
fn cluster_matches_serial_simulator_pull() {
    let (spec, nodes) = small_world(2);
    let factory = pull_factory(nodes);
    drop(spec);
    let _ = assert_cluster_matches_serial("pull", factory.as_ref(), 2, FaultSpec::none());
}

#[test]
fn cluster_matches_serial_with_three_workers() {
    let (spec, _nodes) = small_world(3);
    let factory = bsub_factory(&spec);
    let _ = assert_cluster_matches_serial("bsub-w3", factory.as_ref(), 3, FaultSpec::none());
}

/// The live observability plane end to end: with a stats cadence on,
/// the cluster's protocol report still equals the serial simulator's
/// (the plane observes, never perturbs), the merged live report covers
/// every contact, and a scrape of the running [`StatsServer`] returns
/// exactly the merged report in both exposition formats.
#[test]
fn cluster_stats_plane_merges_and_serves_without_perturbing() {
    let workers = 2u32;
    let (spec, _nodes) = small_world(workers);
    let spec = spec.with_stats_cadence(Duration::from_millis(50));
    let factory = bsub_factory(&spec);
    let serial = spec.sim.run_factory(factory.as_ref(), spec.seed).0;

    let dir = scratch_dir("stats");
    let worker_handles: Vec<_> = (1..=workers)
        .map(|w| {
            let spec = spec.clone();
            let dir = dir.clone();
            let factory = bsub_factory(&spec);
            thread::Builder::new()
                .name(format!("net-it-stats-worker-{w}"))
                .spawn(move || run_worker(&spec, factory.as_ref(), &dir, w))
                .expect("spawn worker")
        })
        .collect();

    // Serve the sink the coordinator merges into — the endpoint is
    // scrapeable while the run is live.
    let stats = Arc::new(SharedReport::new());
    let served = Arc::clone(&stats);
    let server = StatsServer::serve(
        &EndpointAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        move || served.snapshot(),
    )
    .expect("stats server binds");

    let outcome = finish_cluster(
        run_coordinator_with(&spec, factory.as_ref(), &dir, Some(stats.clone())),
        worker_handles,
    );

    assert_eq!(
        outcome.report, serial,
        "observability plane does not perturb the protocol report"
    );
    let merged = outcome.cluster_metrics.expect("plane was on");
    assert!(!merged.is_empty(), "merged live report is non-empty");
    assert_eq!(
        merged.time_hist(TimeHist::NetExchangeNs).count(),
        spec.sim.trace().len() as u64,
        "one exchange-latency sample per contact"
    );
    assert_eq!(
        merged.counter(Counter::Contacts),
        spec.sim.trace().len() as u64,
        "every contact ran the simulator's own contact step on a worker"
    );
    assert!(merged.counter(Counter::NetFramesSent) > 0);
    assert!(merged.counter(Counter::NetStatsFrames) > 0, "deltas merged");

    // The endpoint serves exactly the merged slot, live.
    let text = scrape(server.local_addr(), "/metrics").expect("text scrape");
    assert_eq!(text, render_prometheus(&stats.snapshot()));
    let json = scrape(server.local_addr(), "/metrics.json").expect("json scrape");
    assert_eq!(json, stats.snapshot().to_json());
    assert_eq!(
        stats.snapshot(),
        merged,
        "endpoint slot equals the outcome's merged report"
    );
}

/// The cluster reproduces faulted runs exactly: each fault alone, on
/// every protocol. Every cell also checks that its fault fired in the
/// serial run, so none passes vacuously. Corruption damages control
/// encodings, which only B-SUB sends, so it has B-SUB cells only.
#[test]
fn cluster_matches_serial_under_each_fault() {
    let fault = FaultSpec::none().with_seed(23);
    let loss = fault.clone().with_contact_loss(PPM / 5);
    let truncation = fault.clone().with_truncation(PPM / 3);
    let churn = fault.clone().with_churn(PPM / 4, SimDuration::from_mins(5));
    let corruption = fault.with_corruption(PPM / 4);
    let fired = |name: &str, event: &TraceEvent| match name {
        "loss" => matches!(
            event,
            TraceEvent::ContactLost {
                cause: LossCause::Radio,
                ..
            }
        ),
        "truncation" => matches!(event, TraceEvent::ContactTruncated { .. }),
        "churn" => matches!(event, TraceEvent::NodeReset { .. }),
        "corruption" => matches!(event, TraceEvent::ControlCorrupted { .. }),
        other => unreachable!("unknown fault {other}"),
    };

    let (spec, nodes) = small_world(2);
    let protocols: [(&str, Box<dyn ProtocolFactory>, u32); 4] = [
        ("push", push_factory(nodes), 2),
        ("bsub", bsub_factory(&spec), 2),
        ("pull", pull_factory(nodes), 2),
        ("bsub-w3", bsub_factory(&spec), 3),
    ];
    for (name, faults) in [
        ("loss", &loss),
        ("truncation", &truncation),
        ("churn", &churn),
        ("corruption", &corruption),
    ] {
        for (protocol, factory, workers) in &protocols {
            if name == "corruption" && !protocol.starts_with("bsub") {
                continue;
            }
            let tag = format!("{name}-{protocol}");
            let log =
                assert_cluster_matches_serial(&tag, factory.as_ref(), *workers, faults.clone());
            assert!(
                log.events().iter().any(|e| fired(name, e)),
                "{tag}: the fault never fired in the serial run"
            );
        }
    }
}
