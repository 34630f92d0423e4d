//! Trace statistics: the Table I summary and per-node social metrics.
//!
//! Two per-node metrics matter to B-SUB:
//!
//! - **degree** — the number of *distinct* peers a node met (within a
//!   window); the broker-election demotion rule compares degrees
//!   (Section V-B).
//! - **contact-count centrality** — the node's share of total contact
//!   participations; the workload generator scales message rates by it
//!   (Section VII-A: "the higher the centrality, the higher the
//!   message generation rate").

use crate::contact::{ContactTrace, NodeId};
use crate::time::SimTime;
use std::collections::HashSet;

/// Summary statistics of a trace — the quantities Table I reports,
/// plus a few the generator calibration needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of contacts.
    pub contacts: usize,
    /// Trace duration (end of last contact).
    pub duration: SimTime,
    /// Mean contact duration in seconds.
    pub mean_contact_secs: f64,
    /// Median contact duration in seconds.
    pub median_contact_secs: u64,
    /// Mean contacts per node per day.
    pub contacts_per_node_day: f64,
    /// Mean node degree (distinct peers over the whole trace).
    pub mean_degree: f64,
}

impl TraceStats {
    /// Computes summary statistics for `trace`.
    #[must_use]
    pub fn compute(trace: &ContactTrace) -> Self {
        let mut durations: Vec<u64> = trace.iter().map(|e| e.duration().as_secs()).collect();
        durations.sort_unstable();
        let total: u64 = durations.iter().sum();
        let n = trace.len();
        let days = (trace.duration().as_secs() as f64 / 86_400.0).max(f64::MIN_POSITIVE);
        let deg = degrees(trace);
        Self {
            nodes: trace.node_count(),
            contacts: n,
            duration: trace.duration(),
            mean_contact_secs: if n == 0 { 0.0 } else { total as f64 / n as f64 },
            median_contact_secs: durations.get(n / 2).copied().unwrap_or(0),
            contacts_per_node_day: if trace.node_count() == 0 {
                0.0
            } else {
                // Each contact involves two nodes.
                2.0 * n as f64 / (f64::from(trace.node_count()) * days)
            },
            mean_degree: if deg.is_empty() {
                0.0
            } else {
                deg.iter().map(|&d| d as f64).sum::<f64>() / deg.len() as f64
            },
        }
    }
}

/// Per-node degree: the number of distinct peers each node contacted
/// over the whole trace. Indexed by [`NodeId::index`].
#[must_use]
pub fn degrees(trace: &ContactTrace) -> Vec<usize> {
    let mut peers: Vec<HashSet<NodeId>> = vec![HashSet::new(); trace.node_count() as usize];
    for e in trace {
        peers[e.a.index()].insert(e.b);
        peers[e.b.index()].insert(e.a);
    }
    peers.into_iter().map(|s| s.len()).collect()
}

/// Per-node contact counts (participations). Indexed by
/// [`NodeId::index`].
#[must_use]
pub fn contact_counts(trace: &ContactTrace) -> Vec<usize> {
    let mut counts = vec![0usize; trace.node_count() as usize];
    for e in trace {
        counts[e.a.index()] += 1;
        counts[e.b.index()] += 1;
    }
    counts
}

/// Contact-count centrality: each node's participation count
/// normalized so the maximum is 1.0. Nodes with no contacts get 0.
///
/// This is the social-standing proxy the evaluation uses to scale
/// message generation rates.
#[must_use]
pub fn centrality(trace: &ContactTrace) -> Vec<f64> {
    let counts = contact_counts(trace);
    let max = counts.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / max as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::{ContactEvent, NodeId};

    fn ev(a: u32, b: u32, start: u64, end: u64) -> ContactEvent {
        ContactEvent::new(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
    }

    fn sample() -> ContactTrace {
        ContactTrace::new(
            "s",
            4,
            vec![
                ev(0, 1, 0, 60),
                ev(0, 2, 100, 160),
                ev(0, 1, 400, 430),
                ev(2, 3, 500, 620),
            ],
        )
        .unwrap()
    }

    #[test]
    fn stats_basics() {
        let s = TraceStats::compute(&sample());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.contacts, 4);
        assert_eq!(s.duration.as_secs(), 620);
        let expected_mean = (60.0 + 60.0 + 30.0 + 120.0) / 4.0;
        assert!((s.mean_contact_secs - expected_mean).abs() < 1e-9);
        assert!(s.contacts_per_node_day > 0.0);
    }

    #[test]
    fn stats_empty_trace() {
        let t = ContactTrace::new("e", 3, vec![]).unwrap();
        let s = TraceStats::compute(&t);
        assert_eq!(s.contacts, 0);
        assert_eq!(s.mean_contact_secs, 0.0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn degrees_count_distinct_peers() {
        let d = degrees(&sample());
        assert_eq!(d, vec![2, 1, 2, 1]); // 0 met {1,2}; 1 met {0}; 2 met {0,3}; 3 met {2}
    }

    #[test]
    fn contact_counts_count_participations() {
        let c = contact_counts(&sample());
        assert_eq!(c, vec![3, 2, 2, 1]);
    }

    #[test]
    fn centrality_normalized_to_max() {
        let c = centrality(&sample());
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[3] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn centrality_all_zero_when_no_contacts() {
        let t = ContactTrace::new("z", 2, vec![]).unwrap();
        assert_eq!(centrality(&t), vec![0.0, 0.0]);
    }
}
