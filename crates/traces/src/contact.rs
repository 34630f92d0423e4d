//! The contact model: pairwise sightings between node devices.

use crate::error::ParseError;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node (a person's device) within one trace.
///
/// Node ids are dense: a trace with `n` nodes uses ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One contact: nodes `a` and `b` were within radio range from `start`
/// to `end` (inclusive of transfer opportunity for the whole span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContactEvent {
    /// One endpoint (the lower id by convention of [`ContactEvent::new`]).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// When the devices came into range.
    pub start: SimTime,
    /// When the devices left range; `end >= start`.
    pub end: SimTime,
}

impl ContactEvent {
    /// Creates a contact, normalizing endpoint order (`a < b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (a device cannot contact itself) or
    /// `end < start`.
    #[must_use]
    pub fn new(a: NodeId, b: NodeId, start: SimTime, end: SimTime) -> Self {
        assert!(a != b, "self-contact: {a}");
        assert!(end >= start, "contact ends before it starts");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        Self { a, b, start, end }
    }

    /// How long the devices stayed in range.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Whether `node` participates in this contact.
    #[must_use]
    pub fn involves(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }

    /// The other endpoint of the contact, if `node` is one of them.
    #[cfg(test)]
    fn peer_of(&self, node: NodeId) -> Option<NodeId> {
        if self.a == node {
            Some(self.b)
        } else if self.b == node {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A contact trace: a time-sorted sequence of [`ContactEvent`]s over a
/// dense node-id space, as logged by the CRAWDAD datasets of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContactTrace {
    name: String,
    nodes: u32,
    events: Vec<ContactEvent>,
}

impl ContactTrace {
    /// Builds a trace from events, sorting them by start time.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidNode`] if any event references a
    /// node id `>= nodes`.
    pub fn new(
        name: impl Into<String>,
        nodes: u32,
        mut events: Vec<ContactEvent>,
    ) -> Result<Self, ParseError> {
        for (i, e) in events.iter().enumerate() {
            if e.a.index() >= nodes as usize || e.b.index() >= nodes as usize {
                return Err(ParseError::InvalidNode {
                    line: i + 1,
                    node: e.b.index().max(e.a.index()),
                    nodes: nodes as usize,
                });
            }
        }
        events.sort_by_key(|e| (e.start, e.end, e.a, e.b));
        Ok(Self {
            name: name.into(),
            nodes,
            events,
        })
    }

    /// The trace's human-readable name (e.g. `"haggle-infocom06"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (dense ids `0..nodes`).
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// All node ids in the trace.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId::new)
    }

    /// Number of contacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no contacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The contacts, sorted by start time.
    #[must_use]
    pub fn events(&self) -> &[ContactEvent] {
        &self.events
    }

    /// Iterator over the contacts in start-time order.
    pub fn iter(&self) -> std::slice::Iter<'_, ContactEvent> {
        self.events.iter()
    }

    /// End time of the last contact; [`SimTime::ZERO`] for an empty
    /// trace.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// A sub-trace containing the contacts that *start* within
    /// `[from, from + len)`, with times shifted so the window begins at
    /// zero. Used to cut the paper's "3 day records" out of the 246-day
    /// MIT Reality trace.
    #[must_use]
    pub fn window(&self, from: SimTime, len: SimDuration) -> ContactTrace {
        let until = from + len;
        let events = self
            .events
            .iter()
            .filter(|e| e.start >= from && e.start < until)
            .map(|e| {
                ContactEvent::new(
                    e.a,
                    e.b,
                    SimTime::ZERO + (e.start - from),
                    // Clip contacts that outlive the window.
                    SimTime::ZERO + (e.end.min(until) - from),
                )
            })
            .collect();
        ContactTrace {
            name: format!("{}[{}+{}]", self.name, from, len),
            nodes: self.nodes,
            events,
        }
    }
}

impl<'a> IntoIterator for &'a ContactTrace {
    type Item = &'a ContactEvent;
    type IntoIter = std::slice::Iter<'a, ContactEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(a: u32, b: u32, start: u64, end: u64) -> ContactEvent {
        ContactEvent::new(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
    }

    #[test]
    fn contact_normalizes_endpoint_order() {
        let e = ev(5, 2, 0, 10);
        assert_eq!(e.a, NodeId::new(2));
        assert_eq!(e.b, NodeId::new(5));
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn self_contact_panics() {
        let _ = ev(3, 3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn inverted_interval_panics() {
        let _ = ev(0, 1, 10, 5);
    }

    #[test]
    fn duration_and_involvement() {
        let e = ev(0, 1, 100, 160);
        assert_eq!(e.duration(), SimDuration::from_mins(1));
        assert!(e.involves(NodeId::new(0)));
        assert!(e.involves(NodeId::new(1)));
        assert!(!e.involves(NodeId::new(2)));
        assert_eq!(e.peer_of(NodeId::new(0)), Some(NodeId::new(1)));
        assert_eq!(e.peer_of(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(e.peer_of(NodeId::new(9)), None);
    }

    #[test]
    fn trace_sorts_events() {
        let t = ContactTrace::new("t", 4, vec![ev(0, 1, 50, 60), ev(2, 3, 10, 20)]).unwrap();
        assert_eq!(t.events()[0].start.as_secs(), 10);
        assert_eq!(t.events()[1].start.as_secs(), 50);
        assert_eq!(t.len(), 2);
        assert_eq!(t.duration().as_secs(), 60);
    }

    #[test]
    fn trace_rejects_out_of_range_node() {
        let err = ContactTrace::new("t", 2, vec![ev(0, 5, 0, 1)]).unwrap_err();
        assert!(matches!(err, ParseError::InvalidNode { node: 5, .. }));
    }

    #[test]
    fn empty_trace() {
        let t = ContactTrace::new("empty", 10, vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimTime::ZERO);
        assert_eq!(t.node_ids().count(), 10);
    }

    #[test]
    fn window_shifts_and_filters() {
        let t = ContactTrace::new(
            "w",
            4,
            vec![ev(0, 1, 10, 20), ev(1, 2, 100, 150), ev(2, 3, 300, 310)],
        )
        .unwrap();
        let w = t.window(SimTime::from_secs(50), SimDuration::from_secs(200));
        assert_eq!(w.len(), 1);
        assert_eq!(w.events()[0].start.as_secs(), 50);
        assert_eq!(w.events()[0].end.as_secs(), 100);
        assert_eq!(w.node_count(), 4);
    }

    #[test]
    fn window_clips_overhanging_contact() {
        let t = ContactTrace::new("w", 2, vec![ev(0, 1, 10, 500)]).unwrap();
        let w = t.window(SimTime::ZERO, SimDuration::from_secs(100));
        assert_eq!(w.events()[0].end.as_secs(), 100);
    }

    #[test]
    fn iterate_with_for_loop() {
        let t = ContactTrace::new("it", 3, vec![ev(0, 1, 0, 1), ev(1, 2, 2, 3)]).unwrap();
        let mut n = 0;
        for e in &t {
            assert!(e.end >= e.start);
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }
}
