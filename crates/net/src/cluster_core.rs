//! The coordinator's decisions, with no sockets, threads or clock
//! (DESIGN.md §12.6). [`ClusterCore`] walks the contact trace in order
//! and holds what the cluster's exactness rests on: where each node's
//! state is, the results that arrived ahead of their turn, the master
//! ledger they are replayed into in contact order, and the publish
//! barrier's acks. The shell asks [`ClusterCore::next`] what to do;
//! while the answer is [`Action::Wait`] it reads one frame and makes
//! one call per event. A frame that contradicts the bookkeeping is an
//! `InvalidData` error.

use crate::cluster::{bad, owner, ExchangeOutcome};
use crate::peer::PeerId;
use bsub_sim::{
    FaultState, Message, MetricsCollector, NullProtocol, NullRecorder, SimReport, Simulation,
};
use bsub_traces::NodeId;
use std::collections::BTreeMap;
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

#[cfg(test)]
mod tests {
    //! A seeded, socket-free property test: simulated workers, each
    //! with its own protocol instance, run the cluster protocol against
    //! one core. Snapshots move at grant and return time, and results,
    //! `NODE_FREE`s and `PUBLISH_OK`s reach the core in seeded orders.
    //! Plus one test per frame the core must refuse.

    use super::*;
    use crate::cluster::{exchange, Snapshots};
    use bsub_baselines::{Pull, Push};
    use bsub_bloom::SplitMix64;
    use bsub_core::{BsubConfig, BsubProtocol, DfMode};
    use bsub_sim::fault::PPM;
    use bsub_sim::{FaultSpec, Protocol, SimConfig};
    use bsub_traces::synthetic::SyntheticTrace;
    use bsub_traces::SimDuration;
    use bsub_workload::{interests, keys, WorkloadBuilder};

    /// A world the size of the socket tests' `small_world`.
    fn world(seed: u64, faults: FaultSpec) -> Simulation {
        let trace = SyntheticTrace::new("core", 10, SimDuration::from_hours(1), 150)
            .seed(seed)
            .build();
        let nodes = trace.node_count();
        let subscriptions = interests::assign_interests(nodes, keys::trend_keys(), seed ^ 0x1111);
        let schedule = WorkloadBuilder::new(&trace).seed(seed ^ 0x2222).build();
        let config = SimConfig {
            ttl: SimDuration::from_mins(30),
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

    /// A frame on its way to the coordinator.
    enum ToCore {
        Result(ExchangeOutcome),
        NodeFree(u32),
        PublishOk(u64),
    }

    /// A dispatched exchange its executor has not run yet.
    struct Lend {
        index: u64,
        executor: PeerId,
        resets: [bool; 2],
        remotes: Vec<NodeId>,
        granted: Snapshots,
    }

    #[derive(Debug, Default)]
    struct Coverage {
        out_of_order: u64,
        free_before_result: u64,
        barriers: u64,
        resets: u64,
    }

    struct Cluster<'s> {
        seed: u64,
        sim: &'s Simulation,
        workers: Vec<Box<dyn Protocol>>,
        /// Publications each worker has applied.
        applied: Vec<usize>,
        inbox: Vec<(PeerId, ToCore)>,
        /// In dispatch order: a worker's executor runs its contacts in
        /// the order their `DISPATCH`es arrive, so an instance's clock
        /// never runs back (PUSH's instance-wide expiry cache needs
        /// that).
        lends: Vec<Lend>,
        /// Snapshots on their way home to their owners.
        returns: Snapshots,
        /// `ADVANCE(count)` frames a worker has not applied yet.
        advances: Vec<(PeerId, u64)>,
        /// The contact each node is in, from its dispatch until its
        /// state is home again: at the executor's run for an endpoint
        /// it owns, at the owner's import for a lent one.
        busy: Vec<Option<u64>>,
        /// The serial ledger after each prefix of the trace.
        prefixes: Vec<SimReport>,
        /// Contacts whose `RESULT` the core has not had yet.
        unresulted: std::collections::BTreeSet<u64>,
        finished: bool,
        cov: Coverage,
    }

    impl<'s> Cluster<'s> {
        fn new(seed: u64, sim: &'s Simulation, workers: u32, protocol: usize) -> Self {
            Self {
                seed,
                sim,
                workers: (0..workers).map(|_| build(protocol, sim)).collect(),
                applied: vec![0; workers as usize],
                inbox: Vec::new(),
                lends: Vec::new(),
                returns: Vec::new(),
                advances: Vec::new(),
                busy: vec![None; sim.trace().node_count() as usize],
                prefixes: serial_prefixes(sim, protocol),
                unresulted: std::collections::BTreeSet::new(),
                finished: false,
                cov: Coverage::default(),
            }
        }

        fn worker(&mut self, peer: PeerId) -> &mut dyn Protocol {
            &mut *self.workers[peer.0 as usize - 1]
        }

        fn owner(&self, node: NodeId) -> PeerId {
            owner(node, self.workers.len() as u32)
        }

        /// Takes one seeded step: asks the core for its next action,
        /// or moves one frame or snapshot.
        fn step(&mut self, core: &mut ClusterCore<'_>, rng: &mut SplitMix64) {
            // Each worker's oldest lend: the one its executor is on.
            let heads: Vec<usize> = (0..self.lends.len())
                .filter(|&i| {
                    let executor = self.lends[i].executor;
                    self.lends[..i].iter().all(|l| l.executor != executor)
                })
                .collect();
            let grants = heads.len();
            let choices = 1 + self.inbox.len() + grants + self.returns.len() + self.advances.len();
            let mut pick = rng.below_usize(choices);
            if pick == 0 {
                let action = core.next();
                let stuck = choices == 1 && action == Action::Wait;
                assert!(
                    !stuck,
                    "{}: the core waits on nothing: {}",
                    self.seed,
                    core.owed()
                );
                return self.act(action);
            }
            pick -= 1;
            if pick < self.inbox.len() {
                let (from, frame) = self.inbox.swap_remove(pick);
                let fed = match frame {
                    ToCore::Result(outcome) => {
                        self.unresulted.remove(&outcome.index);
                        core.result(from, outcome)
                    }
                    ToCore::NodeFree(node) => core.node_free(from, node),
                    ToCore::PublishOk(count) => core.publish_ok(from, count),
                };
                let seed = self.seed;
                fed.unwrap_or_else(|e| panic!("{seed}: a frame of a correct run refused: {e}"));
                // Replay is in contact order: the ledger after `k`
                // replayed contacts is the serial one after contact `k`.
                let replayed = core.replayed as usize;
                let ledger = contact_part(core.metrics.clone());
                let serial = &self.prefixes[replayed];
                return assert_eq!(&ledger, serial, "{seed}: {replayed} replayed");
            }
            pick -= self.inbox.len();
            if pick < grants {
                return self.grant_or_run(heads[pick]);
            }
            pick -= grants;
            if pick < self.returns.len() {
                let (node, bytes) = self.returns.swap_remove(pick);
                let owner = self.owner(node);
                assert!(self.worker(owner).import_node(node, &bytes));
                let index = self.busy[node.index()].take().expect("a lent node is busy");
                if self.unresulted.contains(&index) {
                    self.cov.free_before_result += 1;
                }
                let node = node.index() as u32;
                return self.inbox.push((owner, ToCore::NodeFree(node)));
            }
            pick -= self.returns.len();
            let (worker, count) = self.advances.swap_remove(pick);
            let from = self.applied[worker.0 as usize - 1];
            let mut scratch = MetricsCollector::new();
            for index in from..count as usize {
                let sim = self.sim;
                sim.step_publish(index, &mut scratch, self.worker(worker), &mut NullRecorder);
            }
            self.applied[worker.0 as usize - 1] = count as usize;
            self.inbox.push((worker, ToCore::PublishOk(count)));
        }

        /// Grants lend `i`'s next remote snapshot from its owner, or,
        /// with every snapshot granted, runs the exchange on the
        /// executor's own instance through the workers' exchange step.
        fn grant_or_run(&mut self, i: usize) {
            let lend = &self.lends[i];
            if let Some(&node) = lend.remotes.get(lend.granted.len()) {
                let owner = self.owner(node);
                let bytes = self.worker(owner).export_node(node).expect("exports");
                return self.lends[i].granted.push((node, bytes));
            }
            let lend = self.lends.remove(i);
            let sim = self.sim;
            let instance = self.worker(lend.executor);
            let (outcome, returns) =
                exchange(sim, instance, lend.index, lend.resets, lend.granted).expect("exchange");
            let contact = sim.trace().events()[lend.index as usize];
            for node in [contact.a, contact.b] {
                if self.owner(node) == lend.executor {
                    self.busy[node.index()] = None;
                }
            }
            if self.unresulted.range(..lend.index).next().is_some() {
                self.cov.out_of_order += 1;
            }
            self.returns.extend(returns);
            self.inbox.push((lend.executor, ToCore::Result(outcome)));
        }

        fn act(&mut self, action: Action) {
            match action {
                Action::Dispatch {
                    index,
                    executor,
                    resets,
                } => {
                    let contact = self.sim.trace().events()[index as usize];
                    assert_eq!(executor, self.owner(contact.a));
                    let mut remotes = Vec::new();
                    for node in [contact.a, contact.b] {
                        if let Some(other) = self.busy[node.index()].replace(index) {
                            let seed = self.seed;
                            panic!(
                                "{seed}: {node:?} dispatched in contact {index} while in {other}"
                            );
                        }
                        if self.owner(node) != executor {
                            remotes.push(node);
                        }
                    }
                    self.cov.resets += u64::from(resets[0]) + u64::from(resets[1]);
                    self.unresulted.insert(index);
                    self.lends.push(Lend {
                        index,
                        executor,
                        resets,
                        remotes,
                        granted: Vec::new(),
                    });
                }
                Action::Advance(count) => {
                    let in_flight = !self.lends.is_empty()
                        || !self.returns.is_empty()
                        || !self.unresulted.is_empty()
                        || self.busy.iter().any(Option::is_some);
                    let seed = self.seed;
                    assert!(
                        !in_flight,
                        "{seed}: a barrier opened with an exchange in flight"
                    );
                    self.cov.barriers += 1;
                    for worker in 1..=self.workers.len() as u32 {
                        self.advances.push((PeerId(worker), count));
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
    /// node is ever in two exchanges, and no barrier opens with an
    /// exchange in flight.
    #[test]
    fn schedules_replay_the_serial_report() {
        let mut cov = Coverage::default();
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
            let mut cluster = Cluster::new(seed, &sim, workers, protocol);
            while !cluster.finished {
                cluster.step(&mut core, &mut rng);
            }
            assert!(
                cluster.inbox.is_empty() && cluster.lends.is_empty(),
                "{seed}"
            );
            assert!(
                cluster.returns.is_empty() && cluster.advances.is_empty(),
                "{seed}"
            );
            assert_eq!(core.finish(&serial.protocol), serial, "{seed}");
            cov.out_of_order += cluster.cov.out_of_order;
            cov.free_before_result += cluster.cov.free_before_result;
            cov.barriers += cluster.cov.barriers;
            cov.resets += cluster.cov.resets;
        }
        for (name, count) in [
            ("out-of-order results", cov.out_of_order),
            ("NODE_FREEs ahead of their RESULT", cov.free_before_result),
            ("barriers", cov.barriers),
            ("churn resets", cov.resets),
        ] {
            assert!(count > 1_000, "only {count} {name}: {cov:?}");
        }
    }

    /// Three nodes on two workers (node 0 and 2 on worker 1, node 1 on
    /// worker 2), one publication, then contacts 0–1 and 1–2.
    fn tiny() -> Simulation {
        use bsub_sim::{GeneratedMessage, SubscriptionTable};
        use bsub_traces::{ContactEvent, ContactTrace, SimTime};
        let contact = |a, b, at| {
            let at = SimTime::from_secs(at);
            ContactEvent::new(
                NodeId::new(a),
                NodeId::new(b),
                at,
                at + SimDuration::from_secs(5),
            )
        };
        let trace = ContactTrace::new("tiny", 3, vec![contact(0, 1, 10), contact(1, 2, 20)]);
        let mut subscriptions = SubscriptionTable::new(3);
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
}
