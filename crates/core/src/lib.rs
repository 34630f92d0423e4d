//! B-SUB: the Bloom-filter-based content-based publish-subscribe
//! protocol for human networks (Zhao & Wu, ICDCS 2010).
//!
//! B-SUB has two logical components (Section V):
//!
//! - **Broker allocation** ([`broker`]) — a decentralized election:
//!   each *user* tracks how many brokers it met inside a time window
//!   `W`; below a lower bound `L` it promotes the next user it meets,
//!   above an upper bound `U` it demotes brokers whose degree falls
//!   below the average of the brokers it knows. Socially active nodes
//!   end up carrying the traffic.
//! - **Pub-sub forwarding** ([`BsubProtocol`]) — interests live in TCBFs:
//!   every consumer keeps a *genuine filter* of its own interests;
//!   every broker keeps a decaying *relay filter*. Consumers A-merge
//!   their genuine filter into brokers they meet (reinforcement);
//!   brokers M-merge each other's relay filters (no bogus counters);
//!   producers push at most `ℂ` copies of a message to matching
//!   brokers; broker-to-broker handoff is ranked by the TCBF's
//!   preferential query; consumers receive messages whose key tests
//!   positive against their genuine filter — the only place a false
//!   positive can surface as a falsely delivered message.
//!
//! The decaying factor (DF) is the protocol's single most important
//! knob (Section VI); [`df`] implements the Eq. 4/5 machinery for
//! setting it from a delay budget, and [`DfMode`] selects between a
//! fixed DF, the online-adaptive variant, and no decay at all.
//!
//! Every protocol state transition — promotion/demotion, filter merge
//! and decay, forwarding decision, injection, expiry — additionally
//! emits a typed [`TraceEvent`] through the run's [`Recorder`]. With
//! the default [`NullRecorder`] the emission closures are never run,
//! so ordinary simulations pay nothing for the instrumentation.
//!
//! # Quickstart
//!
//! ```
//! use bsub_core::{BsubConfig, BsubProtocol, DfMode};
//! use bsub_sim::{Simulation, SimConfig, GeneratedMessage, SubscriptionTable};
//! use bsub_traces::synthetic::SyntheticTrace;
//! use bsub_traces::{NodeId, SimDuration, SimTime};
//!
//! let trace = SyntheticTrace::new("q", 12, SimDuration::from_hours(8), 2000)
//!     .seed(1)
//!     .build();
//! let mut subs = SubscriptionTable::new(12);
//! for n in 0..12 {
//!     subs.subscribe(NodeId::new(n), if n % 2 == 0 { "news" } else { "sports" });
//! }
//! let schedule = vec![GeneratedMessage {
//!     at: SimTime::from_secs(60),
//!     producer: NodeId::new(0),
//!     key: "sports".into(),
//!     size: 120,
//! }];
//! let config = BsubConfig::builder().df(DfMode::Fixed(0.05)).build();
//! let mut bsub = BsubProtocol::new(config, &subs);
//! let sim = Simulation::new(trace, subs.clone(), schedule, SimConfig::default());
//! let report = sim.run(&mut bsub);
//! assert!(report.delivered > 0, "dense little network delivers");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod broker;
mod config;
pub mod df;
mod keys;
mod node;
mod protocol;
pub mod snapshot;

pub use crate::config::{
    BrokerPolicy, BsubConfig, BsubConfigBuilder, DfMode, ForwardingPolicy, MergeRule,
};
pub use crate::node::Role;
pub use crate::protocol::BsubProtocol;

// The observability surface: every emission site in this crate goes
// through these types, so re-export them for callers that only depend
// on `bsub-core`.
pub use bsub_sim::{
    EpochRow, EventLog, MergeKind, NullRecorder, PreferenceValue, Recorder, RunRecorder,
    TimeSeriesRecorder, TraceEvent,
};
