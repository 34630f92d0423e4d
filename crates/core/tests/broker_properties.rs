//! Property tests for the Section V-B election log: randomized meeting
//! histories are replayed into [`ElectionLog`] and into a naive mirror
//! model (a plain `Vec` of meetings re-scanned per query), and every
//! derived statistic and decision must agree. The deterministic cases
//! pin the boundaries the simulator leans on: window-pruning cutoffs,
//! the empty window, a single known broker, stale degree reports, and
//! the cases the log's incremental tallies must get right — a peer
//! whose broker meetings expire before its user meetings, and a peer
//! that leaves the window and returns as a broker.

use bsub_bloom::SplitMix64;
use bsub_core::broker::{ElectionAction, ElectionLog};
use bsub_traces::{NodeId, SimDuration, SimTime};

const WINDOW: SimDuration = SimDuration::from_hours(4);

fn t(mins: u64) -> SimTime {
    SimTime::from_mins(mins)
}

/// The mirror model: the same sliding log, kept as a flat list and
/// re-derived from scratch on every query.
#[derive(Default)]
struct Naive {
    meetings: Vec<(SimTime, NodeId, bool, usize)>,
}

impl Naive {
    fn prune(&mut self, now: SimTime, window: SimDuration) {
        let cutoff = now.saturating_since(SimTime::ZERO + window);
        let cutoff = SimTime::from_secs(cutoff.as_secs());
        self.meetings.retain(|&(at, _, _, _)| at >= cutoff);
    }

    fn brokers_met(&self) -> usize {
        let mut seen: Vec<NodeId> = Vec::new();
        for &(_, peer, was_broker, _) in &self.meetings {
            if was_broker && !seen.contains(&peer) {
                seen.push(peer);
            }
        }
        seen.len()
    }

    fn degree(&self) -> usize {
        let mut seen: Vec<NodeId> = Vec::new();
        for &(_, peer, _, _) in &self.meetings {
            if !seen.contains(&peer) {
                seen.push(peer);
            }
        }
        seen.len()
    }

    fn average_broker_degree(&self) -> Option<f64> {
        let mut latest: Vec<(NodeId, usize)> = Vec::new();
        for &(_, peer, was_broker, deg) in &self.meetings {
            if !was_broker {
                continue;
            }
            if let Some(e) = latest.iter_mut().find(|(p, _)| *p == peer) {
                e.1 = deg;
            } else {
                latest.push((peer, deg));
            }
        }
        if latest.is_empty() {
            return None;
        }
        Some(latest.iter().map(|&(_, d)| d as f64).sum::<f64>() / latest.len() as f64)
    }
}

/// Replays one random interleaving of record / prune / decide steps
/// into both models and checks agreement throughout.
fn drive(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut log = ElectionLog::new();
    let mut naive = Naive::default();
    let mut now_mins = 0u64;

    for _ in 0..120 {
        match rng.next_u64() % 10 {
            0..=5 => {
                now_mins += rng.next_u64() % 45;
                let peer = NodeId::new((rng.next_u64() % 12) as u32);
                let was_broker = rng.next_u64().is_multiple_of(3);
                let degree = (rng.next_u64() % 15) as usize;
                log.record(t(now_mins), peer, was_broker, degree);
                naive.meetings.push((t(now_mins), peer, was_broker, degree));
            }
            6..=7 => {
                log.prune(t(now_mins), WINDOW);
                naive.prune(t(now_mins), WINDOW);
            }
            _ => {
                let peer_is_broker = rng.next_u64().is_multiple_of(2);
                let peer_degree = (rng.next_u64() % 15) as usize;
                let lower = (rng.next_u64() % 4) as usize;
                let upper = lower + (rng.next_u64() % 4) as usize;
                let action = log.decide(peer_is_broker, peer_degree, lower, upper);

                // Re-derive the rule from the mirror model.
                let brokers = naive.brokers_met();
                let expected = if brokers < lower && !peer_is_broker {
                    ElectionAction::Promote
                } else if brokers > upper
                    && peer_is_broker
                    && naive
                        .average_broker_degree()
                        .is_some_and(|avg| (peer_degree as f64) < avg)
                {
                    ElectionAction::Demote
                } else {
                    ElectionAction::Keep
                };
                assert_eq!(action, expected, "seed {seed}: decide disagreed");

                // Role-direction invariants of the hysteresis band.
                if peer_is_broker {
                    assert_ne!(
                        action,
                        ElectionAction::Promote,
                        "brokers are never promoted"
                    );
                } else {
                    assert_ne!(action, ElectionAction::Demote, "users are never demoted");
                }
                if (lower..=upper).contains(&brokers) {
                    assert_eq!(
                        action,
                        ElectionAction::Keep,
                        "inside the hysteresis band nothing changes"
                    );
                }
            }
        }
        assert_eq!(log.len(), naive.meetings.len(), "seed {seed}: window sizes");
        assert_eq!(log.brokers_met(), naive.brokers_met(), "seed {seed}");
        assert_eq!(log.degree(), naive.degree(), "seed {seed}");
        assert_eq!(
            log.average_broker_degree(),
            naive.average_broker_degree(),
            "seed {seed}"
        );
    }
}

#[test]
fn election_log_agrees_with_naive_model() {
    for seed in 0..60 {
        drive(SplitMix64::mix(0xE1EC, seed));
    }
}

#[test]
fn replayed_snapshot_round_trips() {
    for seed in 0..20 {
        let mut rng = SplitMix64::new(SplitMix64::mix(0x5AFE, seed));
        let mut log = ElectionLog::new();
        for i in 0..40 {
            log.record(
                t(i * 7),
                NodeId::new((rng.next_u64() % 9) as u32),
                rng.next_u64().is_multiple_of(3),
                (rng.next_u64() % 12) as usize,
            );
        }
        log.prune(t(150), WINDOW);
        let mut replayed = ElectionLog::new();
        for (at, peer, was_broker, degree) in log.meetings() {
            replayed.record(at, peer, was_broker, degree);
        }
        assert_eq!(replayed.len(), log.len());
        assert_eq!(replayed.brokers_met(), log.brokers_met());
        assert_eq!(replayed.degree(), log.degree());
        assert_eq!(
            replayed.average_broker_degree(),
            log.average_broker_degree()
        );
    }
}

#[test]
fn prune_boundary_is_inclusive_at_cutoff() {
    // Window 240 min, now = 300 min ⇒ cutoff = 60 min. A meeting at
    // exactly the cutoff survives; one a minute earlier is dropped.
    let mut log = ElectionLog::new();
    log.record(t(59), NodeId::new(1), true, 3);
    log.record(t(60), NodeId::new(2), true, 3);
    log.record(t(61), NodeId::new(3), true, 3);
    log.prune(t(300), WINDOW);
    assert_eq!(log.len(), 2);
    assert_eq!(log.brokers_met(), 2);
}

#[test]
fn prune_before_window_fills_keeps_everything() {
    let mut log = ElectionLog::new();
    log.record(t(0), NodeId::new(1), false, 1);
    log.record(t(10), NodeId::new(2), true, 2);
    log.prune(t(30), WINDOW); // now < window: no cutoff yet
    assert_eq!(log.len(), 2);
}

#[test]
fn prune_is_idempotent_and_monotone() {
    let mut rng = SplitMix64::new(0xD0D0);
    let mut log = ElectionLog::new();
    for i in 0..50 {
        log.record(
            t(i * 11),
            NodeId::new((rng.next_u64() % 7) as u32),
            rng.next_u64().is_multiple_of(2),
            (rng.next_u64() % 9) as usize,
        );
    }
    let mut prev = log.len();
    for now in [200u64, 300, 300, 450, 700] {
        log.prune(t(now), WINDOW);
        assert!(log.len() <= prev, "pruning never grows the window");
        prev = log.len();
        let before = log.len();
        log.prune(t(now), WINDOW);
        assert_eq!(
            log.len(),
            before,
            "pruning twice at the same now is a no-op"
        );
    }
}

#[test]
fn empty_window_edge_cases() {
    let log = ElectionLog::new();
    assert_eq!(log.brokers_met(), 0);
    assert_eq!(log.degree(), 0);
    assert_eq!(log.average_broker_degree(), None);
    // No average ⇒ demotion is impossible even above the band.
    assert_eq!(log.decide(true, 0, 0, 0), ElectionAction::Keep);
    // lower == 0 ⇒ 0 brokers met is not "fewer than lower".
    assert_eq!(log.decide(false, 0, 0, 0), ElectionAction::Keep);
    assert_eq!(log.decide(false, 0, 1, 1), ElectionAction::Promote);
}

#[test]
fn single_broker_window() {
    let mut log = ElectionLog::new();
    log.record(t(0), NodeId::new(7), true, 6);
    assert_eq!(log.average_broker_degree(), Some(6.0));
    // One broker met, band (0, 0): above upper. Strictly-below wins…
    assert_eq!(log.decide(true, 5, 0, 0), ElectionAction::Demote);
    // …and a peer at exactly the average survives.
    assert_eq!(log.decide(true, 6, 0, 0), ElectionAction::Keep);
}

#[test]
fn stale_degree_reports_latest_wins() {
    let mut log = ElectionLog::new();
    // The same broker reports a shrinking degree across the window;
    // only the newest report counts toward the average.
    log.record(t(0), NodeId::new(1), true, 12);
    log.record(t(30), NodeId::new(1), true, 8);
    log.record(t(60), NodeId::new(1), true, 2);
    log.record(t(90), NodeId::new(2), true, 4);
    assert_eq!(log.average_broker_degree(), Some(3.0));
    // Pruning with the whole history still inside the window changes
    // nothing (now = 240 ⇒ cutoff = 0)…
    log.prune(t(240), WINDOW);
    assert_eq!(log.len(), 4);
    assert_eq!(log.average_broker_degree(), Some(3.0));
    // …pruning away the two oldest reports leaves broker 1's newest
    // report as its degree (now = 300 ⇒ cutoff = 60, inclusive)…
    log.prune(t(300), WINDOW);
    assert_eq!(log.len(), 2);
    assert_eq!(log.average_broker_degree(), Some(3.0));
    // …and once broker 1's last report expires, it leaves the set.
    log.prune(t(330), WINDOW);
    assert_eq!(log.len(), 1, "only the t=90 meeting survives");
    assert_eq!(log.average_broker_degree(), Some(4.0));
}

/// Every derived statistic of the log equals the mirror model's.
fn assert_agrees(log: &ElectionLog, naive: &Naive) {
    assert_eq!(log.len(), naive.meetings.len());
    assert_eq!(log.brokers_met(), naive.brokers_met());
    assert_eq!(log.degree(), naive.degree());
    assert_eq!(log.average_broker_degree(), naive.average_broker_degree());
}

fn record_both(log: &mut ElectionLog, naive: &mut Naive, m: (SimTime, NodeId, bool, usize)) {
    log.record(m.0, m.1, m.2, m.3);
    naive.meetings.push(m);
}

fn prune_both(log: &mut ElectionLog, naive: &mut Naive, now: SimTime) {
    log.prune(now, WINDOW);
    naive.prune(now, WINDOW);
}

#[test]
fn broker_meetings_expire_while_user_meetings_stay() {
    // Peer 1 was a broker early in the window and a user later (it was
    // demoted); peer 2 is a broker throughout.
    let (mut log, mut naive) = (ElectionLog::new(), Naive::default());
    record_both(&mut log, &mut naive, (t(0), NodeId::new(1), true, 10));
    record_both(&mut log, &mut naive, (t(20), NodeId::new(1), true, 12));
    record_both(&mut log, &mut naive, (t(60), NodeId::new(1), false, 9));
    record_both(&mut log, &mut naive, (t(80), NodeId::new(1), false, 7));
    record_both(&mut log, &mut naive, (t(100), NodeId::new(2), true, 4));
    assert_eq!(log.average_broker_degree(), Some(8.0), "(12 + 4) / 2");
    assert_agrees(&log, &naive);

    // now = 250 ⇒ cutoff = 10: one of peer 1's broker reports is left,
    // and its t=20 report is still the latest.
    prune_both(&mut log, &mut naive, t(250));
    assert_eq!(log.average_broker_degree(), Some(8.0));
    assert_agrees(&log, &naive);

    // now = 290 ⇒ cutoff = 50: peer 1's broker meetings are gone, its
    // user meetings stay. The average drops it, the degree keeps it.
    prune_both(&mut log, &mut naive, t(290));
    assert_eq!(log.len(), 3);
    assert_eq!(log.brokers_met(), 1);
    assert_eq!(log.average_broker_degree(), Some(4.0));
    assert_eq!(log.degree(), 2, "peer 1 is still a met peer");
    assert_agrees(&log, &naive);
    // One broker met with band (0, 0): peer 1 no longer props up the
    // average, so a degree-5 broker survives.
    assert_eq!(log.decide(true, 5, 0, 0), ElectionAction::Keep);
    assert_eq!(log.decide(true, 3, 0, 0), ElectionAction::Demote);
}

#[test]
fn peer_leaves_the_window_then_returns_as_a_broker() {
    let (mut log, mut naive) = (ElectionLog::new(), Naive::default());
    record_both(&mut log, &mut naive, (t(0), NodeId::new(3), false, 2));
    record_both(&mut log, &mut naive, (t(10), NodeId::new(3), true, 6));
    record_both(&mut log, &mut naive, (t(200), NodeId::new(4), true, 8));
    assert_eq!(log.average_broker_degree(), Some(7.0));
    assert_agrees(&log, &naive);

    // now = 300 ⇒ cutoff = 60: peer 3 is gone entirely.
    prune_both(&mut log, &mut naive, t(300));
    assert_eq!(log.degree(), 1);
    assert_eq!(log.brokers_met(), 1);
    assert_eq!(log.average_broker_degree(), Some(8.0));
    assert_agrees(&log, &naive);

    // It returns as a broker with a new degree: counted once, at the
    // new report — nothing of its earlier tally survives.
    record_both(&mut log, &mut naive, (t(310), NodeId::new(3), true, 14));
    assert_eq!(log.degree(), 2);
    assert_eq!(log.brokers_met(), 2);
    assert_eq!(log.average_broker_degree(), Some(11.0), "(14 + 8) / 2");
    assert_agrees(&log, &naive);

    // Once peer 4 expires, peer 3's new report is the whole average.
    prune_both(&mut log, &mut naive, t(450));
    assert_eq!(log.degree(), 1);
    assert_eq!(log.average_broker_degree(), Some(14.0));
    assert_agrees(&log, &naive);
}
