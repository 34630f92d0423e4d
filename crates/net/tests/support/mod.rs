//! Worked fixtures shared by the codec golden test and the decoder
//! mutation harness: every cursor-codec format, each holding enough
//! state to exercise all of its fields.

use bsub_baselines::{Pull, Push};
use bsub_core::{BsubConfig, BsubProtocol};
use bsub_match::{MatchIndex, MatchParams};
use bsub_obs::{Counter, Gauge, ProfReport, SizeHist, TimeHist};
use bsub_sim::{GeneratedMessage, Protocol, SimConfig, Simulation, SubscriptionTable};
use bsub_traces::synthetic::SyntheticTrace;
use bsub_traces::{NodeId, SimDuration, SimTime};

/// Nodes in the worked simulation.
pub const NODES: u32 = 12;

/// A report with counters, a gauge, and samples in both histogram
/// families (including an empty bucket gap and a huge sample).
pub fn sample_report() -> ProfReport {
    let mut report = ProfReport::default();
    report.add_counter(Counter::NetFramesSent, 12);
    report.add_counter(Counter::ControlBytes, 9001);
    report.raise_gauge(Gauge::BufferMsgs, 17);
    for ns in [0, 7, 12_345, 1 << 33] {
        report.record_time(TimeHist::NetExchangeNs, ns);
    }
    report.record_size(SizeHist::NetFrameStatsBytes, 512);
    report
}

/// A match index with deadline and plain subscriptions, decay in
/// flight, and churn.
pub fn worked_index() -> MatchIndex {
    let mut idx = MatchIndex::new(MatchParams {
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

/// A dense little network with two interest groups and a dozen
/// publications: elections, relays, carried cargo, and seen sets.
pub fn worked_simulation() -> (Simulation, SubscriptionTable) {
    let trace = SyntheticTrace::new("codec", NODES, SimDuration::from_hours(12), 2000)
        .seed(11)
        .build();
    let mut subs = SubscriptionTable::new(NODES);
    for i in 0..NODES {
        subs.subscribe(NodeId::new(i), if i % 2 == 0 { "news" } else { "sports" });
    }
    let sched: Vec<GeneratedMessage> = (0..12u64)
        .map(|k| GeneratedMessage {
            at: SimTime::from_secs(100 + k * 600),
            producer: NodeId::new((k % 5) as u32),
            key: if k % 2 == 0 { "sports" } else { "news" }.into(),
            size: 120,
        })
        .collect();
    let sim = Simulation::new(trace, subs.clone(), sched, SimConfig::default());
    (sim, subs)
}

/// Runs the worked simulation under `protocol`, returning it.
pub fn run<P: Protocol>(mut protocol: P) -> P {
    let (sim, _) = worked_simulation();
    let _ = sim.run(&mut protocol);
    protocol
}

/// B-SUB after the worked simulation.
pub fn worked_bsub() -> BsubProtocol {
    let (_, subs) = worked_simulation();
    run(BsubProtocol::new(BsubConfig::default(), &subs))
}

/// PUSH after the worked simulation.
pub fn worked_push() -> Push {
    run(Push::new(NODES))
}

/// PULL after the worked simulation.
pub fn worked_pull() -> Pull {
    run(Pull::new(NODES))
}

/// Every node's snapshot under `protocol`, in node order.
pub fn snapshots(protocol: &dyn Protocol) -> Vec<Vec<u8>> {
    (0..NODES)
        .map(|i| protocol.export_node(NodeId::new(i)).expect("exports"))
        .collect()
}
