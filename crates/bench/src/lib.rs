//! Experiment harness regenerating every table and figure of the
//! B-SUB paper (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results).
//!
//! Each `fig*`/`table*` binary in `src/bin/` is a thin wrapper around
//! a function in [`experiments`]. Sweep-style experiments are
//! *declared* as [`engine::SweepSpec`]s and executed by the
//! deterministic parallel [`engine::Executor`]; the functions print
//! aligned tables to stdout and write machine-readable CSV into
//! `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
pub mod engine;
pub mod experiments;
pub mod microbench;
pub mod output;
pub mod perf;

use bsub_baselines::{Pull, Push};
use bsub_core::{BsubConfig, BsubProtocol, DfMode};
use bsub_sim::{
    GeneratedMessage, Protocol, ProtocolFactory, SimConfig, SimReport, Simulation,
    SubscriptionTable,
};
use bsub_traces::{ContactTrace, SimDuration};
use bsub_workload::{interests, keys, WorkloadBuilder};
use std::sync::Arc;

/// A fully prepared evaluation environment: trace, ground-truth
/// subscriptions, and a message schedule, all from one seed. All
/// three are `Arc`-shared, so cloning an `Experiment` (or building
/// many [`Simulation`]s from one) never copies the world.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The contact trace driving the simulation.
    pub trace: Arc<ContactTrace>,
    /// Ground-truth subscriptions (one weighted key per node).
    pub subscriptions: Arc<SubscriptionTable>,
    /// The centrality-scaled message schedule.
    pub schedule: Arc<[GeneratedMessage]>,
}

/// The master seed all experiment binaries use, so every figure is
/// regenerated from identical inputs.
pub const MASTER_SEED: u64 = 20100621; // ICDCS 2010 opening day

impl Experiment {
    /// Builds an environment over an arbitrary trace.
    #[must_use]
    pub fn over(trace: ContactTrace, seed: u64) -> Self {
        let subscriptions =
            interests::assign_interests(trace.node_count(), keys::trend_keys(), seed ^ 0x1111);
        let schedule = WorkloadBuilder::new(&trace).seed(seed ^ 0x2222).build();
        Self {
            trace: Arc::new(trace),
            subscriptions: Arc::new(subscriptions),
            schedule: schedule.into(),
        }
    }

    /// The Haggle (Infocom'06)-like environment of Figs. 7 and 9.
    #[must_use]
    pub fn haggle(seed: u64) -> Self {
        Self::over(bsub_traces::synthetic::haggle_like(seed), seed)
    }

    /// The MIT Reality-like environment of Figs. 8 and 9.
    #[must_use]
    pub fn reality(seed: u64) -> Self {
        Self::over(bsub_traces::synthetic::reality_like(seed), seed)
    }

    /// A [`Simulation`] over this environment with the given TTL —
    /// the world is shared, not copied.
    #[must_use]
    pub fn sim(&self, ttl: SimDuration) -> Simulation {
        let config = SimConfig {
            ttl,
            ..SimConfig::default()
        };
        Simulation::new(
            Arc::clone(&self.trace),
            Arc::clone(&self.subscriptions),
            Arc::clone(&self.schedule),
            config,
        )
    }

    /// A factory producing fresh instances of the given protocol for
    /// this environment (the TTL feeds B-SUB's delay budget).
    #[must_use]
    pub fn factory(&self, protocol: ProtocolKind, ttl: SimDuration) -> Box<dyn ProtocolFactory> {
        let nodes = self.trace.node_count();
        match protocol {
            ProtocolKind::Push => {
                Box::new(move |_seed: u64| Box::new(Push::new(nodes)) as Box<dyn Protocol>)
            }
            ProtocolKind::Pull => {
                Box::new(move |_seed: u64| Box::new(Pull::new(nodes)) as Box<dyn Protocol>)
            }
            ProtocolKind::Bsub { df } => {
                let config = BsubConfig::builder().df(df).delay_limit(ttl).build();
                self.bsub_factory(config)
            }
        }
    }

    /// A factory producing fresh [`BsubProtocol`] instances with an
    /// explicit configuration (for ablations).
    #[must_use]
    pub fn bsub_factory(&self, config: BsubConfig) -> Box<dyn ProtocolFactory> {
        let subscriptions = Arc::clone(&self.subscriptions);
        Box::new(move |_seed: u64| {
            Box::new(BsubProtocol::new(config.clone(), &subscriptions)) as Box<dyn Protocol>
        })
    }

    /// Runs one protocol over this environment with the given TTL.
    #[must_use]
    pub fn run(&self, protocol: ProtocolKind, ttl: SimDuration) -> SimReport {
        let factory = self.factory(protocol, ttl);
        let (report, _) = self.sim(ttl).run_factory(factory.as_ref(), 0);
        report
    }

    /// The Eq. 5 decaying factor for a given TTL, exactly as the paper
    /// sets up Figs. 7–8: "we set \[D\] the same as the TTL, and
    /// calculate DFs using Eq. 5. ... The number of encountered nodes
    /// in \[D\] is obtained by analyzing the traces", plus "a small
    /// constant ... to account for the missed cases".
    #[must_use]
    pub fn df_for_ttl(&self, ttl: SimDuration) -> f64 {
        let duration = self.trace.duration().as_secs().max(1);
        let per_node_total = 2.0 * self.trace.len() as f64 / f64::from(self.trace.node_count());
        let window_frac = (ttl.as_secs() as f64 / duration as f64).min(1.0);
        let ncol = (per_node_total * window_frac).round() as u64;
        bsub_core::df::decaying_factor_per_min(50, ncol, 256, 4, ttl.as_mins(), 0.005)
    }
}

/// Which protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolKind {
    /// Epidemic flooding (upper bound).
    Push,
    /// One-hop collection (lower bound).
    Pull,
    /// B-SUB with the given decay mode.
    Bsub {
        /// Relay decay behavior.
        df: DfMode,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        let trace = bsub_traces::synthetic::SyntheticTrace::new(
            "tiny",
            12,
            SimDuration::from_hours(6),
            600,
        )
        .seed(5)
        .build();
        Experiment::over(trace, 5)
    }

    #[test]
    fn experiment_environment_is_consistent() {
        let e = tiny();
        assert_eq!(e.subscriptions.node_count(), e.trace.node_count());
        assert!(!e.schedule.is_empty());
    }

    #[test]
    fn experiment_clone_shares_the_world() {
        let e = tiny();
        let clone = e.clone();
        assert!(Arc::ptr_eq(&e.trace, &clone.trace));
        assert!(Arc::ptr_eq(&e.subscriptions, &clone.subscriptions));
        let sim = e.sim(SimDuration::from_hours(1));
        assert!(Arc::ptr_eq(sim.trace(), &e.trace));
    }

    #[test]
    fn protocol_ordering_holds_on_tiny_trace() {
        let e = tiny();
        let ttl = SimDuration::from_hours(3);
        let push = e.run(ProtocolKind::Push, ttl);
        let pull = e.run(ProtocolKind::Pull, ttl);
        let bsub = e.run(
            ProtocolKind::Bsub {
                df: DfMode::Fixed(0.05),
            },
            ttl,
        );
        assert!(push.delivery_ratio() >= bsub.delivery_ratio());
        assert!(bsub.delivery_ratio() >= pull.delivery_ratio());
        assert!(push.forwardings >= bsub.forwardings);
        assert!(bsub.forwardings >= pull.forwardings);
    }

    #[test]
    fn df_for_ttl_decreases_with_ttl() {
        let e = tiny();
        let short = e.df_for_ttl(SimDuration::from_mins(10));
        let long = e.df_for_ttl(SimDuration::from_mins(1000));
        assert!(short > long);
        assert!(long > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let e = tiny();
        let ttl = SimDuration::from_hours(2);
        let a = e.run(ProtocolKind::Push, ttl);
        let b = e.run(ProtocolKind::Push, ttl);
        assert_eq!(a, b);
    }

    #[test]
    fn factory_builds_independent_instances() {
        let e = tiny();
        let ttl = SimDuration::from_hours(2);
        let factory = e.factory(ProtocolKind::Push, ttl);
        let sim = e.sim(ttl);
        let (first, _) = sim.run_factory(factory.as_ref(), 1);
        let (second, _) = sim.run_factory(factory.as_ref(), 2);
        assert_eq!(first, second, "fresh protocol per run, no state bleed");
    }
}
