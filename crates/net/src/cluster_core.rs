//! The cluster's decisions, one core per role, with no sockets, threads
//! or clock (DESIGN.md §12.6). [`ClusterCore`], the coordinator, walks
//! the contact trace in order and holds what exactness rests on: where
//! each node's state is, the results that arrived ahead of their turn,
//! the master ledger they are replayed into in contact order, and the
//! publish barrier's acks. Its shell acts on [`ClusterCore::next`], and
//! while that is [`Action::Wait`] feeds it one frame. [`WorkerCore`]
//! takes one call per frame a worker reads and returns the frames to
//! send. A frame that contradicts a core's bookkeeping is an
//! `InvalidData` error.

use crate::cluster::{
    bad, body_node_bytes, body_u32, body_u64, owner, read_dispatch, read_node_bytes, read_u32,
    read_u64, ExchangeOutcome, COORDINATOR,
};
use crate::frame::{Frame, FrameKind};
use crate::peer::PeerId;
use bsub_obs::SharedReport;
use bsub_sim::{
    FaultState, Message, MetricsCollector, NullProtocol, NullRecorder, Protocol, Recorder,
    SimReport, Simulation, TraceEvent,
};
use bsub_traces::NodeId;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::Arc;

/// What the shell does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Send `DISPATCH(index, resets)` to `executor`.
    Dispatch {
        index: u64,
        executor: PeerId,
        resets: [bool; 2],
    },
    /// Broadcast `ADVANCE(count)` to every worker.
    Advance(u64),
    /// Read the next frame and feed it in.
    Wait,
    /// Every contact is replayed and every publication accounted.
    Finished,
}

/// Where a node's state is. A contact's executor owns its endpoint
/// `a`, so a contact awaits its `RESULT` exactly while `a` is
/// `Executing` it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// At its owner, in no exchange.
    Home,
    /// In contact `i` on its owner, the executor: home on the `RESULT`.
    Executing(u64),
    /// Lent to contact `i`'s executor: home on its owner's `NODE_FREE`.
    Lent(u64),
}

/// The coordinator's bookkeeping for one cluster run.
pub(crate) struct ClusterCore<'a> {
    sim: &'a Simulation,
    workers: u32,
    /// The next contact to dispatch.
    cursor: usize,
    /// Churn resets, walked in contact order as the serial runner does.
    faults: FaultState,
    holds: Vec<Hold>,
    /// Results that arrived ahead of their turn.
    buffered: BTreeMap<u64, ExchangeOutcome>,
    /// The next contact to replay into `metrics`.
    replayed: u64,
    metrics: MetricsCollector,
    /// Applied publications, indexed by message id (= schedule index).
    messages: Vec<Arc<Message>>,
    /// The open barrier's count, and which workers acknowledged it.
    barrier: Option<(u64, Vec<bool>)>,
}

impl<'a> ClusterCore<'a> {
    pub fn new(sim: &'a Simulation, workers: u32) -> Self {
        let nodes = sim.trace().node_count() as usize;
        Self {
            sim,
            workers,
            cursor: 0,
            faults: FaultState::new(nodes),
            holds: vec![Hold::Home; nodes],
            buffered: BTreeMap::new(),
            replayed: 0,
            metrics: MetricsCollector::new(),
            messages: Vec::with_capacity(sim.schedule().len()),
            barrier: None,
        }
    }

    /// The next action. Publications due at or before the next
    /// contact's start (all of them after the last contact) go first,
    /// behind a barrier that opens only with every node home; a
    /// contact goes out once both its endpoints are home.
    pub fn next(&mut self) -> Action {
        if let Some((count, acks)) = &self.barrier {
            if !acks.iter().all(|&ack| ack) {
                return Action::Wait;
            }
            for index in self.messages.len()..*count as usize {
                let (metrics, sim) = (&mut self.metrics, self.sim);
                let msg = sim.step_publish(index, metrics, &mut NullProtocol, &mut NullRecorder);
                self.messages.push(msg);
            }
            self.barrier = None;
        }
        let (events, schedule) = (self.sim.trace().events(), self.sim.schedule());
        let next = events.get(self.cursor);
        let due = next.map_or(schedule.len(), |contact| {
            let ahead = schedule[self.messages.len()..].iter();
            self.messages.len() + ahead.take_while(|m| m.at <= contact.start).count()
        });
        let Some(contact) = next.filter(|_| due == self.messages.len()) else {
            // A barrier opens, and the run ends, only with every node home.
            return if self.holds.iter().any(|&h| h != Hold::Home) {
                Action::Wait
            } else if due > self.messages.len() {
                self.barrier = Some((due as u64, vec![false; self.workers as usize]));
                Action::Advance(due as u64)
            } else {
                Action::Finished
            };
        };
        if [contact.a, contact.b]
            .iter()
            .any(|n| self.holds[n.index()] != Hold::Home)
        {
            return Action::Wait;
        }
        let index = self.cursor as u64;
        let executor = owner(contact.a, self.workers);
        for node in [contact.a, contact.b] {
            self.holds[node.index()] = if owner(node, self.workers) == executor {
                Hold::Executing(index)
            } else {
                Hold::Lent(index)
            };
        }
        self.cursor += 1;
        let resets = self.faults.resets(self.sim.faults(), contact);
        Action::Dispatch {
            index,
            executor,
            resets,
        }
    }

    /// `from`'s `RESULT` for a contact it executes: the endpoints it
    /// owns are home, and every result now contiguous with the replayed
    /// prefix goes into the master ledger, in contact order.
    pub fn result(&mut self, from: PeerId, outcome: ExchangeOutcome) -> io::Result<()> {
        let (index, events) = (outcome.index, self.sim.trace().events());
        let contact = events.get(index as usize).filter(|c| {
            self.holds[c.a.index()] == Hold::Executing(index) && owner(c.a, self.workers) == from
        });
        let nodes = self.holds.len() as u32;
        let published = self.messages.len() as u64;
        let valid = |&(msg, node, _): &(u64, u32, bool)| node < nodes && msg < published;
        let (Some(contact), true) = (contact, outcome.deliveries.iter().all(valid)) else {
            let why = "not its executor, or a delivery outside the world or unpublished";
            return Err(bad(format!(
                "RESULT for contact {index} from {from}: {why}"
            )));
        };
        for node in [contact.a, contact.b] {
            if self.holds[node.index()] == Hold::Executing(index) {
                self.holds[node.index()] = Hold::Home;
            }
        }
        self.buffered.insert(index, outcome);
        while let Some(outcome) = self.buffered.remove(&self.replayed) {
            let at = events[self.replayed as usize].start;
            self.metrics.on_contact();
            self.metrics.absorb_costs(&outcome.as_costs());
            for &(msg, node, genuine) in &outcome.deliveries {
                let msg = &self.messages[msg as usize];
                let _ = self
                    .metrics
                    .on_delivery(msg, NodeId::new(node), at, genuine);
            }
            self.replayed += 1;
        }
        Ok(())
    }

    /// `from`'s `NODE_FREE`: a node it owns is home from a loan.
    pub fn node_free(&mut self, from: PeerId, node: u32) -> io::Result<()> {
        let lent = self.holds.get(node as usize).copied();
        if !matches!(lent, Some(Hold::Lent(_))) || owner(NodeId::new(node), self.workers) != from {
            let why = "which does not own it or did not lend it";
            return Err(bad(format!("NODE_FREE for node {node} from {from}, {why}")));
        }
        self.holds[node as usize] = Hold::Home;
        Ok(())
    }

    /// `from`'s `PUBLISH_OK(count)` for the open barrier.
    pub fn publish_ok(&mut self, from: PeerId, count: u64) -> io::Result<()> {
        let barrier = self.barrier.as_mut().filter(|(target, _)| *target == count);
        let worker = (from.0 as usize).wrapping_sub(1);
        match barrier.and_then(|(_, acks)| acks.get_mut(worker)) {
            Some(ack) if !*ack => {
                *ack = true;
                Ok(())
            }
            _ => Err(bad(format!(
                "PUBLISH_OK({count}) from {from} unasked or repeated"
            ))),
        }
    }

    /// The contacts in flight on `peer`'s nodes (on every node, for
    /// `None`): the ones it executes or lent an endpoint to.
    fn in_flight(&self, peer: Option<PeerId>) -> Vec<u64> {
        let mut contacts = Vec::new();
        for (node, hold) in self.holds.iter().enumerate() {
            let on_peer = peer.is_none_or(|p| owner(NodeId::new(node as u32), self.workers) == p);
            if let (true, Hold::Executing(index) | Hold::Lent(index)) = (on_peer, *hold) {
                contacts.push(index);
            }
        }
        contacts.sort_unstable();
        contacts.dedup();
        contacts
    }

    /// `peer`'s link closed: the run cannot finish. Names the worker
    /// and the contacts in flight on it.
    pub fn closed(&self, peer: PeerId) -> io::Error {
        let (worker, pending) = (peer.0, self.in_flight(Some(peer)));
        let message = format!("worker {worker} closed its link; pending contacts {pending:?}");
        io::Error::new(io::ErrorKind::ConnectionAborted, message)
    }

    /// What the run still waits for, for a stall report.
    pub fn owed(&self) -> String {
        let (in_flight, replayed) = (self.in_flight(None), self.replayed);
        format!(
            "in flight {in_flight:?}, replayed {replayed}, barrier {:?}",
            self.barrier
        )
    }

    /// The master report, once [`ClusterCore::next`] has said
    /// [`Action::Finished`].
    pub fn finish(self, protocol: &str) -> SimReport {
        debug_assert_eq!(self.replayed as usize, self.sim.trace().len());
        self.metrics.finish(protocol)
    }
}

/// An outcome records its exchange's deliveries: the one event class
/// the coordinator must replay into the master ledger.
impl Recorder for ExchangeOutcome {
    fn is_active(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Delivered {
            msg, node, genuine, ..
        } = event
        {
            self.deliveries
                .push((msg.raw(), node.index() as u32, *genuine));
        }
    }
}

/// One worker's bookkeeping for one cluster run: its own protocol
/// instance, the contacts dispatched to it and the publications it has
/// applied. A contact's executor owns its endpoint `a`, so it awaits at
/// most one grant, for `b`. Contacts run in arrival order, so the
/// instance's clock never runs back (PUSH keeps an expiry cache).
pub(crate) struct WorkerCore<'a> {
    sim: &'a Simulation,
    local: PeerId,
    workers: u32,
    protocol: Box<dyn Protocol>,
    /// With the stats plane on, each exchange step is profiled into it.
    sink: &'a SharedReport,
    /// Dispatched contacts and their resets, in arrival order. The
    /// front is the head: it awaits the grant of its endpoint `b`.
    queue: VecDeque<(u64, [bool; 2])>,
    /// Publications applied to `protocol`.
    applied: usize,
    /// The frames the current call sends, in order.
    out: Vec<(PeerId, Frame)>,
}

impl<'a> WorkerCore<'a> {
    pub fn new(
        sim: &'a Simulation,
        local: PeerId,
        workers: u32,
        protocol: Box<dyn Protocol>,
        sink: &'a SharedReport,
    ) -> Self {
        Self {
            sim,
            local,
            workers,
            protocol,
            sink,
            queue: VecDeque::new(),
            applied: 0,
            out: Vec::new(),
        }
    }

    /// One `DISPATCH`, `STATE_REQ`, `STATE_GRANT`, `STATE_RET` or
    /// `ADVANCE` from `from`: returns the frames to send, in order.
    pub fn handle(&mut self, from: PeerId, frame: &Frame) -> io::Result<Vec<(PeerId, Frame)>> {
        let events = self.sim.trace().events();
        match frame.kind {
            FrameKind::Dispatch => {
                let (index, resets) = read_dispatch(&frame.body)?;
                let contact = events.get(index as usize);
                if contact.is_none_or(|c| owner(c.a, self.workers) != self.local) {
                    return Err(bad(format!("DISPATCH {index}, whose a is not here")));
                }
                self.queue.push_back((index, resets));
                if self.queue.len() == 1 {
                    self.drain(None)?;
                }
            }
            FrameKind::StateReq => {
                let node = self.own("STATE_REQ", read_u32(&frame.body)?)?;
                let bytes = self.protocol.export_node(node);
                let bytes = bytes.ok_or_else(|| bad("protocol cannot export state"))?;
                let body = body_node_bytes(node.index() as u32, &bytes);
                self.send(from, FrameKind::StateGrant, body);
            }
            FrameKind::StateGrant => {
                let (node, bytes) = read_node_bytes(&frame.body)?;
                let b = NodeId::new(node);
                let other = |&(i, _): &(u64, _)| events[i as usize].b != b;
                if owner(b, self.workers) != from || self.queue.front().is_none_or(other) {
                    return Err(bad(format!("STATE_GRANT of {b} from {from}, unawaited")));
                }
                self.drain(Some((b, bytes)))?;
            }
            FrameKind::StateRet => {
                let (node, bytes) = read_node_bytes(&frame.body)?;
                let node = self.own("STATE_RET", node)?;
                if !self.protocol.import_node(node, &bytes) {
                    return Err(bad("returned node snapshot rejected"));
                }
                let body = body_u32(node.index() as u32);
                self.send(COORDINATOR, FrameKind::NodeFree, body);
            }
            FrameKind::Advance => {
                let count = read_u64(&frame.body)? as usize;
                let (sim, instance) = (self.sim, &mut *self.protocol);
                if count > sim.schedule().len() || count < self.applied || !self.queue.is_empty() {
                    return Err(bad("ADVANCE outside the schedule, or mid-exchange"));
                }
                // A publication's only possible delivery is a
                // self-delivery, which every ledger drops alike: the
                // throwaway collector loses nothing.
                let mut metrics = MetricsCollector::new();
                for index in self.applied..count {
                    sim.step_publish(index, &mut metrics, instance, &mut NullRecorder);
                }
                self.applied = count;
                self.send(COORDINATOR, FrameKind::PublishOk, body_u64(count as u64));
            }
            other => return Err(bad(format!("worker got unexpected {other:?} frame"))),
        }
        Ok(std::mem::take(&mut self.out))
    }

    fn send(&mut self, to: PeerId, kind: FrameKind, body: Vec<u8>) {
        self.out.push((to, Frame::new(kind, body)));
    }

    /// `node`, if it is in the world and this worker owns it.
    fn own(&self, what: &str, node: u32) -> io::Result<NodeId> {
        let (id, nodes) = (NodeId::new(node), self.sim.trace().node_count());
        if node < nodes && owner(id, self.workers) == self.local {
            return Ok(id);
        }
        Err(bad(format!("{what} for node {node}, not owned here")))
    }

    /// Runs the queue in arrival order, the head with its `grant`, until
    /// the head has a remote endpoint `b` and no grant: it asks for one.
    /// A run is the simulator's own contact step
    /// ([`Simulation::step_contact`]) between importing and exporting
    /// `b`, all profiled; then `b` goes home and the `RESULT` out.
    fn drain(&mut self, mut grant: Option<(NodeId, Vec<u8>)>) -> io::Result<()> {
        while let Some(&(index, resets)) = self.queue.front() {
            let b = self.sim.trace().events()[index as usize].b;
            if owner(b, self.workers) != self.local && grant.is_none() {
                let body = body_u32(b.index() as u32);
                self.send(owner(b, self.workers), FrameKind::StateReq, body);
                return Ok(());
            }
            self.queue.pop_front();
            let (sim, instance, remote) = (self.sim, &mut *self.protocol, grant.take());
            let (mut metrics, mut outcome) = (MetricsCollector::new(), ExchangeOutcome::default());
            let remote = self.sink.profile(|| {
                if let Some((node, bytes)) = &remote {
                    if !instance.import_node(*node, bytes) {
                        return Err(bad("remote node snapshot rejected"));
                    }
                }
                sim.step_contact(index as usize, resets, &mut metrics, instance, &mut outcome);
                let export = |(node, _)| instance.export_node(node).map(|bytes| (node, bytes));
                let unexported = || bad("protocol cannot export node state");
                remote.map(|r| export(r).ok_or_else(unexported)).transpose()
            })?;
            if let Some((node, bytes)) = remote {
                let body = body_node_bytes(node.index() as u32, &bytes);
                self.send(owner(node, self.workers), FrameKind::StateRet, body);
            }
            let report = metrics.finish("exchange");
            let outcome = ExchangeOutcome {
                index,
                forwardings: report.forwardings,
                control_bytes: report.control_bytes,
                data_bytes: report.data_bytes,
                injections: report.injections,
                false_injections: report.false_injections,
                ..outcome
            };
            self.send(COORDINATOR, FrameKind::ExchangeResult, outcome.encode());
        }
        Ok(())
    }

    /// What the worker awaits, for a stall report.
    pub fn owed(&self) -> String {
        let (events, queued, applied) = (self.sim.trace().events(), self.queue.len(), self.applied);
        let head = self.queue.front().map(|&(i, _)| (i, events[i as usize].b));
        let head = head.map(|(i, b)| format!("contact {i} awaits {b}'s grant, "));
        let head = head.unwrap_or_default();
        format!("{head}{queued} queued, {applied} applied")
    }
}

#[cfg(test)]
mod tests {
    //! A seeded, socket-free property test: one `WorkerCore` per
    //! simulated worker runs the cluster protocol against one
    //! `ClusterCore`. Frames on a link keep their send order, links
    //! interleave in seeded order, and frames bound for the coordinator
    //! reach it in any order. Plus one test per frame a core must
    //! refuse, and one that pins a worker's arrival order.

    use super::*;
    use crate::cluster::body_dispatch;
    use bsub_baselines::{Pull, Push};
    use bsub_bloom::SplitMix64;
    use bsub_core::{BsubConfig, BsubProtocol, DfMode};
    use bsub_sim::fault::PPM;
    use bsub_sim::{FaultSpec, Protocol, SimConfig};
    use bsub_traces::synthetic::SyntheticTrace;
    use bsub_traces::SimDuration;
    use bsub_workload::{interests, keys, WorkloadBuilder};

    /// A world the size of the socket tests' `small_world`. Odd seeds
    /// get a two-minute TTL, so messages expire between contacts that
    /// are in flight together, and PUSH's instance-wide expiry memo
    /// shows a worker that runs its contacts out of arrival order.
    fn world(seed: u64, faults: FaultSpec) -> Simulation {
        let trace = SyntheticTrace::new("core", 10, SimDuration::from_hours(1), 150)
            .seed(seed)
            .build();
        let nodes = trace.node_count();
        let subscriptions = interests::assign_interests(nodes, keys::trend_keys(), seed ^ 0x1111);
        let schedule = WorkloadBuilder::new(&trace).seed(seed ^ 0x2222).build();
        let config = SimConfig {
            ttl: SimDuration::from_mins(if seed % 2 == 1 { 2 } else { 30 }),
            ..SimConfig::default()
        };
        Simulation::new(trace, subscriptions, schedule, config).with_faults(faults)
    }

    fn build(protocol: usize, sim: &Simulation) -> Box<dyn Protocol> {
        let nodes = sim.trace().node_count();
        match protocol {
            0 => Box::new(Push::new(nodes)),
            1 => Box::new(Pull::new(nodes)),
            _ => {
                let config = BsubConfig::builder()
                    .df(DfMode::Fixed(2.0))
                    .delay_limit(sim.config().ttl)
                    .build();
                Box::new(BsubProtocol::new(config, sim.subscriptions()))
            }
        }
    }

    /// A ledger's contact-driven part: what replaying contacts adds.
    fn contact_part(metrics: MetricsCollector) -> SimReport {
        SimReport {
            generated: 0,
            target_pairs: 0,
            ..metrics.finish("")
        }
    }

    /// The serial runner's ledger after each prefix of the trace,
    /// `[k]` after contacts `0..k`, stepped as `Simulation::run` steps.
    fn serial_prefixes(sim: &Simulation, protocol: usize) -> Vec<SimReport> {
        let (mut instance, schedule) = (build(protocol, sim), sim.schedule());
        let mut faults = FaultState::new(sim.trace().node_count() as usize);
        let (mut metrics, mut published) = (MetricsCollector::new(), 0);
        let mut prefixes = Vec::new();
        for (index, contact) in sim.trace().iter().enumerate() {
            prefixes.push(contact_part(metrics.clone()));
            while published < schedule.len() && schedule[published].at <= contact.start {
                sim.step_publish(published, &mut metrics, &mut *instance, &mut NullRecorder);
                published += 1;
            }
            let resets = faults.resets(sim.faults(), contact);
            sim.step_contact(
                index,
                resets,
                &mut metrics,
                &mut *instance,
                &mut NullRecorder,
            );
        }
        prefixes.push(contact_part(metrics));
        prefixes
    }

    #[derive(Debug, Default)]
    struct Coverage {
        out_of_order: u64,
        free_before_result: u64,
        barriers: u64,
        resets: u64,
        /// Dispatches that reach a worker already holding two or more
        /// contacts: where arrival order and its reverse differ.
        deep_queues: u64,
    }

    struct Cluster<'s> {
        seed: u64,
        sim: &'s Simulation,
        /// Worker `w`'s core at `w - 1`.
        workers: Vec<WorkerCore<'s>>,
        /// Frames on their way to the coordinator, taken in any order.
        inbox: Vec<(PeerId, Frame)>,
        /// Frames on their way to a worker, one queue per link
        /// `(from, to)`: a link keeps its send order, as a socket does.
        links: BTreeMap<(PeerId, PeerId), VecDeque<Frame>>,
        /// The contact each node is in, from its dispatch until its
        /// state is home again: at the executor's `RESULT` for an
        /// endpoint it owns, at the owner's `NODE_FREE` for a lent one.
        busy: Vec<Option<u64>>,
        /// The serial ledger after each prefix of the trace.
        prefixes: Vec<SimReport>,
        /// Contacts whose `RESULT` the core has not had yet.
        unresulted: std::collections::BTreeSet<u64>,
        /// Each worker's contacts without a `RESULT`, in the order their
        /// `DISPATCH`es reach it (its link keeps the dispatch order).
        arrivals: Vec<VecDeque<u64>>,
        finished: bool,
        cov: Coverage,
    }

    impl<'s> Cluster<'s> {
        fn new(
            seed: u64,
            sim: &'s Simulation,
            workers: u32,
            protocol: usize,
            sink: &'s SharedReport,
        ) -> Self {
            let worker = |w| WorkerCore::new(sim, PeerId(w), workers, build(protocol, sim), sink);
            Self {
                seed,
                sim,
                workers: (1..=workers).map(worker).collect(),
                inbox: Vec::new(),
                links: BTreeMap::new(),
                busy: vec![None; sim.trace().node_count() as usize],
                prefixes: serial_prefixes(sim, protocol),
                unresulted: std::collections::BTreeSet::new(),
                arrivals: vec![VecDeque::new(); workers as usize],
                finished: false,
                cov: Coverage::default(),
            }
        }

        fn owner(&self, node: NodeId) -> PeerId {
            owner(node, self.workers.len() as u32)
        }

        /// Takes one seeded step: asks the core for its next action,
        /// feeds it one frame, or hands one link's oldest frame to its
        /// worker.
        fn step(&mut self, core: &mut ClusterCore<'_>, rng: &mut SplitMix64) {
            let busy = self.links.iter().filter(|(_, q)| !q.is_empty());
            let links: Vec<(PeerId, PeerId)> = busy.map(|(&link, _)| link).collect();
            let choices = 1 + self.inbox.len() + links.len();
            let (mut pick, seed) = (rng.below_usize(choices), self.seed);
            if pick == 0 {
                let action = core.next();
                let stuck = choices == 1 && action == Action::Wait;
                assert!(!stuck, "{seed}: the core waits on nothing: {}", core.owed());
                return self.act(action);
            }
            pick -= 1;
            if pick < self.inbox.len() {
                let (from, frame) = self.inbox.swap_remove(pick);
                let fed = match frame.kind {
                    FrameKind::ExchangeResult => {
                        let outcome = ExchangeOutcome::decode(&frame.body).expect("a RESULT");
                        self.unresulted.remove(&outcome.index);
                        core.result(from, outcome)
                    }
                    FrameKind::NodeFree => core.node_free(from, read_u32(&frame.body).unwrap()),
                    FrameKind::PublishOk => core.publish_ok(from, read_u64(&frame.body).unwrap()),
                    other => panic!("{seed}: a worker sent {other:?} to the coordinator"),
                };
                fed.unwrap_or_else(|e| panic!("{seed}: a frame of a correct run refused: {e}"));
                // Replay is in contact order: the ledger after `k`
                // replayed contacts is the serial one after contact `k`.
                let replayed = core.replayed as usize;
                let ledger = contact_part(core.metrics.clone());
                let serial = &self.prefixes[replayed];
                return assert_eq!(&ledger, serial, "{seed}: {replayed} replayed");
            }
            let (from, to) = links[pick - self.inbox.len()];
            let frame = self
                .links
                .get_mut(&(from, to))
                .and_then(VecDeque::pop_front);
            let frame = frame.expect("a frame on the link");
            let sends = self.workers[to.0 as usize - 1].handle(from, &frame);
            let sends = sends.unwrap_or_else(|e| panic!("{seed}: {to} refused {frame:?}: {e}"));
            for (dest, frame) in sends {
                self.send(to, dest, frame);
            }
        }

        /// Puts `frame` on its way from `from` to `to`, and notes when a
        /// node leaves its exchange.
        fn send(&mut self, from: PeerId, to: PeerId, frame: Frame) {
            if to != COORDINATOR {
                return self.links.entry((from, to)).or_default().push_back(frame);
            }
            match frame.kind {
                FrameKind::ExchangeResult => {
                    let outcome = ExchangeOutcome::decode(&frame.body).expect("a RESULT");
                    let (index, seed) = (outcome.index, self.seed);
                    let first = self.arrivals[from.0 as usize - 1].pop_front();
                    assert_eq!(
                        first,
                        Some(index),
                        "{seed}: {from} ran out of arrival order"
                    );
                    let contact = self.sim.trace().events()[index as usize];
                    for node in [contact.a, contact.b] {
                        if self.owner(node) == from {
                            self.busy[node.index()] = None;
                        }
                    }
                    if self.unresulted.range(..index).next().is_some() {
                        self.cov.out_of_order += 1;
                    }
                }
                FrameKind::NodeFree => {
                    let node = read_u32(&frame.body).expect("a node") as usize;
                    let index = self.busy[node].take().expect("a lent node is busy");
                    if self.unresulted.contains(&index) {
                        self.cov.free_before_result += 1;
                    }
                }
                _ => {}
            }
            self.inbox.push((from, frame));
        }

        fn act(&mut self, action: Action) {
            let seed = self.seed;
            match action {
                Action::Dispatch {
                    index,
                    executor,
                    resets,
                } => {
                    let contact = self.sim.trace().events()[index as usize];
                    assert_eq!(executor, self.owner(contact.a));
                    for node in [contact.a, contact.b] {
                        if let Some(other) = self.busy[node.index()].replace(index) {
                            panic!(
                                "{seed}: {node:?} dispatched in contact {index} while in {other}"
                            );
                        }
                    }
                    self.cov.resets += u64::from(resets[0]) + u64::from(resets[1]);
                    self.unresulted.insert(index);
                    let arrivals = &mut self.arrivals[executor.0 as usize - 1];
                    self.cov.deep_queues += u64::from(arrivals.len() >= 2);
                    arrivals.push_back(index);
                    let frame = Frame::new(FrameKind::Dispatch, body_dispatch(index, resets));
                    self.send(COORDINATOR, executor, frame);
                }
                Action::Advance(count) => {
                    let in_flight = self.links.values().any(|q| !q.is_empty())
                        || !self.unresulted.is_empty()
                        || self.busy.iter().any(Option::is_some);
                    assert!(
                        !in_flight,
                        "{seed}: a barrier opened with an exchange in flight"
                    );
                    self.cov.barriers += 1;
                    for worker in 1..=self.workers.len() as u32 {
                        let frame = Frame::new(FrameKind::Advance, body_u64(count));
                        self.send(COORDINATOR, PeerId(worker), frame);
                    }
                }
                Action::Wait => {}
                Action::Finished => self.finished = true,
            }
        }
    }

    /// Thousands of seeded schedules over small worlds, for PUSH, PULL
    /// and B-SUB on one to three workers, with no faults and under
    /// churn: the replayed report equals the serial simulator's, no
    /// node is ever in two exchanges, no barrier opens with an exchange
    /// in flight, and every worker runs its contacts in arrival order.
    #[test]
    fn schedules_replay_the_serial_report() {
        let (mut cov, sink) = (Coverage::default(), SharedReport::new());
        for seed in 0..2_400u64 {
            let mut rng = SplitMix64::new(seed);
            let faults = if seed % 2 == 0 {
                FaultSpec::none()
            } else {
                FaultSpec::none()
                    .with_seed(seed)
                    .with_churn(PPM / 4, SimDuration::from_mins(5))
            };
            let sim = world(seed / 6, faults);
            let protocol = (seed / 2 % 3) as usize;
            let workers = 1 + rng.below(3) as u32;
            let serial = sim.run(&mut *build(protocol, &sim));

            let mut core = ClusterCore::new(&sim, workers);
            let mut cluster = Cluster::new(seed, &sim, workers, protocol, &sink);
            while !cluster.finished {
                cluster.step(&mut core, &mut rng);
            }
            assert!(cluster.inbox.is_empty(), "{seed}");
            assert!(cluster.links.values().all(VecDeque::is_empty), "{seed}");
            assert_eq!(core.finish(&serial.protocol), serial, "{seed}");
            cov.out_of_order += cluster.cov.out_of_order;
            cov.free_before_result += cluster.cov.free_before_result;
            cov.barriers += cluster.cov.barriers;
            cov.resets += cluster.cov.resets;
            cov.deep_queues += cluster.cov.deep_queues;
        }
        for (name, count) in [
            ("out-of-order results", cov.out_of_order),
            ("NODE_FREEs ahead of their RESULT", cov.free_before_result),
            ("barriers", cov.barriers),
            ("churn resets", cov.resets),
            ("dispatches behind two queued contacts", cov.deep_queues),
        ] {
            assert!(count > 1_000, "only {count} {name}: {cov:?}");
        }
    }

    /// Three nodes on two workers (node 0 and 2 on worker 1, node 1 on
    /// worker 2), one publication, then contacts 0–1 and 1–2.
    fn tiny() -> Simulation {
        small(3, &[(0, 1), (1, 2)])
    }

    /// `nodes` nodes, one publication from node 0 for node 1, then the
    /// `contacts`, ten seconds apart.
    fn small(nodes: u32, contacts: &[(u32, u32)]) -> Simulation {
        use bsub_sim::{GeneratedMessage, SubscriptionTable};
        use bsub_traces::{ContactEvent, ContactTrace, SimTime};
        let contact = |(i, &(a, b)): (usize, &(u32, u32))| {
            let at = SimTime::from_secs(10 * (i as u64 + 1));
            ContactEvent::new(
                NodeId::new(a),
                NodeId::new(b),
                at,
                at + SimDuration::from_secs(5),
            )
        };
        let events = contacts.iter().enumerate().map(contact).collect();
        let trace = ContactTrace::new("tiny", nodes, events);
        let mut subscriptions = SubscriptionTable::new(nodes);
        subscriptions.subscribe(NodeId::new(1), "k");
        let schedule = vec![GeneratedMessage {
            at: SimTime::from_secs(0),
            producer: NodeId::new(0),
            key: "k".into(),
            size: 100,
        }];
        let trace = trace.expect("a valid trace");
        Simulation::new(trace, subscriptions, schedule, SimConfig::default())
    }

    /// A core past the opening barrier, with contact 0 out: node 0
    /// executing on worker 1, node 1 lent by worker 2.
    fn dispatched(sim: &Simulation) -> ClusterCore<'_> {
        let mut core = ClusterCore::new(sim, 2);
        assert_eq!(core.next(), Action::Advance(1));
        core.publish_ok(PeerId(1), 1).unwrap();
        core.publish_ok(PeerId(2), 1).unwrap();
        let executor = PeerId(1);
        let resets = [false; 2];
        assert_eq!(
            core.next(),
            Action::Dispatch {
                index: 0,
                executor,
                resets
            }
        );
        core
    }

    fn refused(fed: io::Result<()>) -> bool {
        fed.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    fn outcome(index: u64, deliveries: Vec<(u64, u32, bool)>) -> ExchangeOutcome {
        ExchangeOutcome {
            index,
            forwardings: 1,
            control_bytes: 0,
            data_bytes: 100,
            injections: 0,
            false_injections: 0,
            deliveries,
        }
    }

    #[test]
    fn node_free_outside_the_world_is_refused() {
        let sim = tiny();
        let mut core = dispatched(&sim);
        assert!(refused(core.node_free(PeerId(2), 3)));
        assert!(refused(core.node_free(PeerId(1), u32::MAX)));
    }

    #[test]
    fn node_free_from_a_worker_that_does_not_own_the_node_is_refused() {
        let sim = tiny();
        let mut core = dispatched(&sim);
        assert!(refused(core.node_free(PeerId(1), 1)));
        assert!(refused(core.node_free(PeerId(0), 1)));
        core.node_free(PeerId(2), 1).unwrap();
    }

    #[test]
    fn node_free_for_a_node_not_awaiting_a_return_is_refused() {
        let sim = tiny();
        let mut core = dispatched(&sim);
        assert!(refused(core.node_free(PeerId(1), 0)), "executing, not lent");
        assert!(refused(core.node_free(PeerId(1), 2)), "home");
        core.node_free(PeerId(2), 1).unwrap();
        assert!(refused(core.node_free(PeerId(2), 1)), "already home");
    }

    #[test]
    fn repeated_publish_ok_does_not_open_the_barrier() {
        let sim = tiny();
        let mut core = ClusterCore::new(&sim, 2);
        assert_eq!(core.next(), Action::Advance(1));
        assert!(refused(core.publish_ok(PeerId(1), 0)), "wrong count");
        assert!(refused(core.publish_ok(PeerId(0), 1)), "not a worker");
        assert!(refused(core.publish_ok(PeerId(3), 1)), "not a worker");
        core.publish_ok(PeerId(1), 1).unwrap();
        assert!(refused(core.publish_ok(PeerId(1), 1)), "repeated");
        assert_eq!(core.next(), Action::Wait);
        core.publish_ok(PeerId(2), 1).unwrap();
        assert!(matches!(core.next(), Action::Dispatch { index: 0, .. }));
        assert!(refused(core.publish_ok(PeerId(2), 1)), "no barrier open");
    }

    #[test]
    fn result_delivering_outside_the_world_is_refused() {
        let sim = tiny();
        let mut core = dispatched(&sim);
        assert!(refused(
            core.result(PeerId(1), outcome(0, vec![(0, 3, true)]))
        ));
        assert!(
            refused(core.result(PeerId(1), outcome(0, vec![(1, 1, true)]))),
            "unpublished"
        );
        assert!(
            refused(core.result(PeerId(2), outcome(0, vec![]))),
            "not its executor"
        );
        assert!(
            refused(core.result(PeerId(1), outcome(1, vec![]))),
            "never dispatched"
        );
        core.result(PeerId(1), outcome(0, vec![(0, 1, true)]))
            .unwrap();
        core.node_free(PeerId(2), 1).unwrap();
        let executor = PeerId(2);
        let resets = [false; 2];
        assert_eq!(
            core.next(),
            Action::Dispatch {
                index: 1,
                executor,
                resets
            }
        );
    }

    /// A closed worker link is named with the contacts pending on it:
    /// the ones it executes and the ones holding a node it lent.
    #[test]
    fn a_closed_worker_is_named_with_its_contacts() {
        let sim = tiny();
        let core = dispatched(&sim);
        for worker in [1, 2] {
            let err = core.closed(PeerId(worker));
            assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
            let named = format!("worker {worker} closed its link; pending contacts [0]");
            assert_eq!(err.to_string(), named);
        }
    }

    /// PUSH worker `local` of two over `sim`, past the opening barrier.
    fn worker<'s>(sim: &'s Simulation, local: u32, sink: &'s SharedReport) -> WorkerCore<'s> {
        let mut worker = WorkerCore::new(sim, PeerId(local), 2, build(0, sim), sink);
        let advance = Frame::new(FrameKind::Advance, body_u64(1));
        let sent = worker.handle(COORDINATOR, &advance).unwrap();
        assert_eq!(kinds(&sent), [(COORDINATOR, FrameKind::PublishOk)]);
        worker
    }

    fn dispatch(index: u64) -> Frame {
        Frame::new(FrameKind::Dispatch, body_dispatch(index, [false; 2]))
    }

    fn node_frame(kind: FrameKind, node: u32) -> Frame {
        Frame::new(kind, body_u32(node))
    }

    /// Where each frame goes, and its kind.
    fn kinds(sends: &[(PeerId, Frame)]) -> Vec<(PeerId, FrameKind)> {
        sends.iter().map(|(to, frame)| (*to, frame.kind)).collect()
    }

    /// `worker`'s grant of `node`, as `to` gets it.
    fn grant(worker: &mut WorkerCore<'_>, to: PeerId, node: u32) -> Frame {
        let mut sent = worker
            .handle(to, &node_frame(FrameKind::StateReq, node))
            .unwrap();
        assert_eq!(kinds(&sent), [(to, FrameKind::StateGrant)]);
        sent.remove(0).1
    }

    fn refuses(worker: &mut WorkerCore<'_>, from: PeerId, frame: &Frame) -> bool {
        refused(worker.handle(from, frame).map(drop))
    }

    #[test]
    fn a_grant_the_head_contact_does_not_await_is_refused() {
        let (sim, sink) = (tiny(), SharedReport::new());
        let (mut w1, mut w2) = (worker(&sim, 1, &sink), worker(&sim, 2, &sink));
        let granted = grant(&mut w2, PeerId(1), 1);
        assert!(refuses(&mut w1, PeerId(2), &granted), "nothing dispatched");
        let sent = w1.handle(COORDINATOR, &dispatch(0)).unwrap();
        assert_eq!(kinds(&sent), [(PeerId(2), FrameKind::StateReq)]);
        let advance = Frame::new(FrameKind::Advance, body_u64(1));
        assert!(refuses(&mut w1, COORDINATOR, &advance), "a contact is out");
        let stray = Frame::new(FrameKind::StateGrant, body_node_bytes(2, b"stray"));
        assert!(refuses(&mut w1, PeerId(2), &stray), "not the awaited node");
        assert!(refuses(&mut w1, PeerId(1), &granted), "not from the owner");
        assert_eq!(
            w1.owed(),
            "contact 0 awaits n1's grant, 1 queued, 1 applied"
        );
        let sent = w1.handle(PeerId(2), &granted).unwrap();
        let (ret, result) = (FrameKind::StateRet, FrameKind::ExchangeResult);
        assert_eq!(kinds(&sent), [(PeerId(2), ret), (COORDINATOR, result)]);
        assert!(refuses(&mut w1, PeerId(2), &granted), "granted already");
    }

    #[test]
    fn a_state_req_for_a_node_not_owned_is_refused() {
        let (sim, sink) = (tiny(), SharedReport::new());
        let mut w1 = worker(&sim, 1, &sink);
        for node in [1, 3, 4, u32::MAX] {
            let req = node_frame(FrameKind::StateReq, node);
            assert!(refuses(&mut w1, PeerId(2), &req), "node {node}");
        }
        grant(&mut w1, PeerId(2), 2);
    }

    #[test]
    fn a_state_ret_for_a_node_not_owned_is_refused() {
        let (sim, sink) = (tiny(), SharedReport::new());
        let (mut w1, mut w2) = (worker(&sim, 1, &sink), worker(&sim, 2, &sink));
        let theirs = grant(&mut w2, PeerId(1), 1);
        let ret = |frame: &Frame| Frame::new(FrameKind::StateRet, frame.body.clone());
        assert!(
            refuses(&mut w1, PeerId(2), &ret(&theirs)),
            "another worker's node"
        );
        let outside = Frame::new(FrameKind::StateRet, body_node_bytes(4, b"outside"));
        assert!(refuses(&mut w1, PeerId(2), &outside), "outside the world");
        let mine = grant(&mut w1, PeerId(2), 2);
        let sent = w1.handle(PeerId(2), &ret(&mine)).unwrap();
        assert_eq!(kinds(&sent), [(COORDINATOR, FrameKind::NodeFree)]);
    }

    #[test]
    fn a_dispatch_whose_endpoint_a_is_not_owned_is_refused() {
        let (sim, sink) = (tiny(), SharedReport::new());
        let mut w2 = worker(&sim, 2, &sink);
        assert!(
            refuses(&mut w2, COORDINATOR, &dispatch(0)),
            "node 0 is worker 1's"
        );
        assert!(
            refuses(&mut w2, COORDINATOR, &dispatch(2)),
            "outside the trace"
        );
        let sent = w2.handle(COORDINATOR, &dispatch(1)).unwrap();
        assert_eq!(kinds(&sent), [(PeerId(1), FrameKind::StateReq)]);
    }

    /// Three contacts reach worker 1, each with its endpoint `b` on
    /// worker 2: each asks for its grant, and reports its `RESULT`,
    /// only after the `RESULT` of the one that arrived before it.
    #[test]
    fn contacts_run_in_arrival_order() {
        let contacts = [(0, 1), (2, 3), (4, 5)];
        let (sim, sink) = (small(6, &contacts), SharedReport::new());
        let (mut w1, mut w2) = (worker(&sim, 1, &sink), worker(&sim, 2, &sink));
        let sent = w1.handle(COORDINATOR, &dispatch(0)).unwrap();
        assert_eq!(kinds(&sent), [(PeerId(2), FrameKind::StateReq)]);
        for index in [1, 2] {
            let sent = w1.handle(COORDINATOR, &dispatch(index)).unwrap();
            assert!(sent.is_empty(), "contact {index} waits behind contact 0");
        }
        let grants: Vec<Frame> = (0..3)
            .map(|i| grant(&mut w2, PeerId(1), 2 * i + 1))
            .collect();
        for early in &grants[1..] {
            assert!(refuses(&mut w1, PeerId(2), early), "not asked for yet");
        }
        let (req, ret, result) = (
            FrameKind::StateReq,
            FrameKind::StateRet,
            FrameKind::ExchangeResult,
        );
        for (index, granted) in grants.iter().enumerate() {
            let sent = w1.handle(PeerId(2), granted).unwrap();
            let mut order = vec![(PeerId(2), ret), (COORDINATOR, result)];
            if index < 2 {
                order.push((PeerId(2), req));
                let next = read_u32(&sent[2].1.body).unwrap();
                assert_eq!(next, 2 * index as u32 + 3, "the next arrival asks next");
            }
            assert_eq!(kinds(&sent), order);
            let outcome = ExchangeOutcome::decode(&sent[1].1.body).unwrap();
            assert_eq!(outcome.index, index as u64);
        }
    }
}
