//! Broker allocation: the decentralized election of Section V-B.
//!
//! Each *user* keeps a sliding log of the nodes it met within the
//! window `W`. From the log it derives:
//!
//! - how many distinct **brokers** it met (if below `L`, promote the
//!   next user it meets; if above `U`, try to demote);
//! - its own **degree** — the number of distinct nodes met in `W`
//!   (exchanged in the identity beacon, and compared against the
//!   average degree of known brokers when demoting: "the user
//!   designates the broker to be a user if the broker's degree is
//!   below the average value").
//!
//! Brokers themselves never promote or demote anyone.

use bsub_traces::{NodeId, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// One remembered meeting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meeting {
    at: SimTime,
    peer: NodeId,
    peer_was_broker: bool,
    peer_degree: usize,
}

/// What the window holds about one peer.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Meetings with the peer in the window (never 0 while tallied).
    meetings: usize,
    /// Those of them at which the peer was a broker.
    broker_meetings: usize,
    /// Degree reported at the latest broker meeting (meaningful only
    /// while `broker_meetings > 0`).
    broker_degree: usize,
}

/// A node's sliding meeting log and the election statistics derived
/// from it.
///
/// The statistics are kept incrementally: [`ElectionLog::record`] and
/// [`ElectionLog::prune`] update a per-peer tally, the number of
/// distinct brokers, and the exact integer sum of their latest
/// degrees, so every query is O(1). Meetings leave the window
/// oldest-first, so a peer's latest broker report only changes when
/// its last broker meeting leaves — at which point the peer drops out
/// of the broker count and the sum.
#[derive(Debug, Clone, Default)]
pub struct ElectionLog {
    meetings: VecDeque<Meeting>,
    peers: HashMap<NodeId, Tally>,
    brokers: usize,
    /// Σ of `broker_degree` over the peers with broker meetings; `u128`
    /// so no sequence of reported degrees can overflow it.
    broker_degree_sum: u128,
}

/// What a user decides about the peer it just met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionAction {
    /// Designate the peer (a user) as a broker — too few brokers seen.
    Promote,
    /// Designate the peer (a low-degree broker) back to a user — too
    /// many brokers seen.
    Demote,
    /// Leave the peer's role alone.
    Keep,
}

impl ElectionLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops meetings older than `window` before `now`.
    pub fn prune(&mut self, now: SimTime, window: SimDuration) {
        let cutoff = now.saturating_since(SimTime::ZERO + window);
        let cutoff = SimTime::from_secs(cutoff.as_secs());
        while self.meetings.front().is_some_and(|m| m.at < cutoff) {
            let m = self.meetings.pop_front().expect("front exists");
            let Entry::Occupied(mut entry) = self.peers.entry(m.peer) else {
                unreachable!("every logged meeting is tallied");
            };
            let tally = entry.get_mut();
            tally.meetings -= 1;
            if m.peer_was_broker {
                tally.broker_meetings -= 1;
                if tally.broker_meetings == 0 {
                    self.brokers -= 1;
                    self.broker_degree_sum -= tally.broker_degree as u128;
                }
            }
            if tally.meetings == 0 {
                entry.remove();
            }
        }
    }

    /// Records a meeting with `peer`, whose pre-contact role and
    /// self-reported degree arrive in the identity beacon.
    pub fn record(
        &mut self,
        now: SimTime,
        peer: NodeId,
        peer_was_broker: bool,
        peer_degree: usize,
    ) {
        self.meetings.push_back(Meeting {
            at: now,
            peer,
            peer_was_broker,
            peer_degree,
        });
        let tally = self.peers.entry(peer).or_default();
        tally.meetings += 1;
        if peer_was_broker {
            if tally.broker_meetings == 0 {
                self.brokers += 1;
            } else {
                self.broker_degree_sum -= tally.broker_degree as u128;
            }
            tally.broker_meetings += 1;
            tally.broker_degree = peer_degree; // later meeting wins
            self.broker_degree_sum += peer_degree as u128;
        }
    }

    /// Distinct brokers met within the (already pruned) window.
    #[must_use]
    pub fn brokers_met(&self) -> usize {
        self.brokers
    }

    /// This node's degree: distinct peers met within the window.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.peers.len()
    }

    /// Mean of the last-reported degrees of the distinct brokers in
    /// the window; `None` if no broker was met.
    #[must_use]
    pub fn average_broker_degree(&self) -> Option<f64> {
        (self.brokers > 0).then(|| self.broker_degree_sum as f64 / self.brokers as f64)
    }

    /// The election rule of Section V-B, evaluated by a **user** about
    /// the peer it just met (call *before* recording the meeting, so
    /// the counts reflect the window prior to this contact).
    ///
    /// - fewer than `lower` brokers met and the peer is a user ⇒
    ///   [`ElectionAction::Promote`];
    /// - more than `upper` brokers met, the peer is a broker, and the
    ///   peer's degree is below the average broker degree ⇒
    ///   [`ElectionAction::Demote`];
    /// - otherwise ⇒ [`ElectionAction::Keep`].
    #[must_use]
    pub fn decide(
        &self,
        peer_is_broker: bool,
        peer_degree: usize,
        lower: usize,
        upper: usize,
    ) -> ElectionAction {
        let brokers = self.brokers_met();
        if brokers < lower && !peer_is_broker {
            return ElectionAction::Promote;
        }
        if brokers > upper && peer_is_broker {
            if let Some(avg) = self.average_broker_degree() {
                if (peer_degree as f64) < avg {
                    return ElectionAction::Demote;
                }
            }
        }
        ElectionAction::Keep
    }

    /// Iterates the remembered meetings oldest-first as
    /// `(at, peer, peer_was_broker, peer_degree)` tuples — the exact
    /// arguments [`ElectionLog::record`] takes, so a log snapshot is
    /// round-tripped by replaying each tuple into a fresh log. Used by
    /// the `snapshot` module to ship election state between processes.
    pub fn meetings(&self) -> impl Iterator<Item = (SimTime, NodeId, bool, usize)> + '_ {
        self.meetings
            .iter()
            .map(|m| (m.at, m.peer, m.peer_was_broker, m.peer_degree))
    }

    /// Number of meetings currently in the window (for diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.meetings.len()
    }

    /// Whether the window holds no meetings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meetings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: SimDuration = SimDuration::from_hours(5);

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn empty_log_promotes_users() {
        let log = ElectionLog::new();
        assert_eq!(log.decide(false, 3, 3, 5), ElectionAction::Promote);
        // A broker peer is never promoted.
        assert_eq!(log.decide(true, 3, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn enough_brokers_keeps() {
        let mut log = ElectionLog::new();
        for i in 0..3 {
            log.record(t(i), NodeId::new(i as u32), true, 4);
        }
        assert_eq!(log.brokers_met(), 3);
        assert_eq!(log.decide(false, 3, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn too_many_brokers_demotes_low_degree() {
        let mut log = ElectionLog::new();
        for i in 0..6 {
            log.record(t(i), NodeId::new(i as u32), true, 10);
        }
        // Average broker degree is 10; a degree-2 broker is below it.
        assert_eq!(log.decide(true, 2, 3, 5), ElectionAction::Demote);
        // A degree-12 broker is not.
        assert_eq!(log.decide(true, 12, 3, 5), ElectionAction::Keep);
        // A user peer is never demoted.
        assert_eq!(log.decide(false, 2, 3, 5), ElectionAction::Keep);
    }

    #[test]
    fn brokers_met_counts_distinct() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.record(t(1), NodeId::new(1), true, 4);
        log.record(t(2), NodeId::new(2), true, 4);
        log.record(t(3), NodeId::new(3), false, 4);
        assert_eq!(log.brokers_met(), 2);
        assert_eq!(log.degree(), 3);
    }

    #[test]
    fn prune_drops_old_meetings() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.record(t(100), NodeId::new(2), true, 4);
        log.prune(t(400), W); // window 300 min: meeting at t=0 expires
        assert_eq!(log.len(), 1);
        assert_eq!(log.brokers_met(), 1);
    }

    #[test]
    fn prune_near_time_zero_is_safe() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 4);
        log.prune(t(1), W); // now < window: nothing can be older
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn average_broker_degree_uses_latest_report() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), true, 2);
        log.record(t(1), NodeId::new(1), true, 8); // degree grew
        log.record(t(2), NodeId::new(2), true, 4);
        assert_eq!(log.average_broker_degree(), Some(6.0));
    }

    #[test]
    fn average_broker_degree_none_without_brokers() {
        let mut log = ElectionLog::new();
        log.record(t(0), NodeId::new(1), false, 2);
        assert_eq!(log.average_broker_degree(), None);
        // With no average available, no demotion can happen.
        for i in 0..10 {
            log.record(t(i), NodeId::new(10 + i as u32), false, 1);
        }
        assert_eq!(log.decide(true, 0, 0, 0), ElectionAction::Keep);
    }

    #[test]
    fn is_empty_reflects_state() {
        let mut log = ElectionLog::new();
        assert!(log.is_empty());
        log.record(t(0), NodeId::new(1), false, 0);
        assert!(!log.is_empty());
    }
}
