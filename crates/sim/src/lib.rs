//! A contact-driven discrete-event simulator for DTN/HUNET
//! publish-subscribe protocols, reproducing the evaluation environment
//! of the B-SUB paper (Section VII).
//!
//! The simulator replays a [`ContactTrace`]: every contact gives the
//! two endpoints a bandwidth-limited [`Link`] (the paper assumes a
//! 250 Kbps effective Bluetooth rate, so a contact of duration `d`
//! carries at most `d × 31,250` bytes). A [`Protocol`] implementation
//! reacts to message generations and contacts; everything it transfers
//! is accounted by the [`metrics`] module, which produces the four
//! quantities the paper plots: delivery ratio, delay, forwardings per
//! delivered message, and the false-positive rate of deliveries.
//!
//! The paper's three protocols — PUSH, PULL (in `bsub-baselines`) and
//! B-SUB itself (in `bsub-core`) — all implement [`Protocol`], so one
//! [`Simulation`] run produces directly comparable reports.
//!
//! Runs can additionally stream typed [`TraceEvent`]s into a
//! [`Recorder`] ([`Simulation::run_recorded`]) for time-series and
//! event-log observability; the default [`NullRecorder`] makes the
//! tracing layer free — see the [`record`] module.
//!
//! [`ContactTrace`]: bsub_traces::ContactTrace
//!
//! # Quickstart
//!
//! ```
//! use bsub_sim::{Simulation, SimConfig, GeneratedMessage, SubscriptionTable};
//! use bsub_sim::protocols::NullProtocol;
//! use bsub_traces::synthetic::SyntheticTrace;
//! use bsub_traces::{SimDuration, SimTime, NodeId};
//!
//! let trace = SyntheticTrace::new("demo", 5, SimDuration::from_hours(2), 50)
//!     .seed(1)
//!     .build();
//! let mut subs = SubscriptionTable::new(5);
//! subs.subscribe(NodeId::new(1), "news");
//! let schedule = vec![GeneratedMessage {
//!     at: SimTime::ZERO,
//!     producer: NodeId::new(0),
//!     key: "news".into(),
//!     size: 100,
//! }];
//! let sim = Simulation::new(trace, subs, schedule, SimConfig::default());
//! let report = sim.run(&mut NullProtocol);
//! assert_eq!(report.generated, 1);
//! assert_eq!(report.delivered, 0); // the null protocol never forwards
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fault;
mod link;
mod message;
pub mod metrics;
pub mod protocols;
pub mod record;
mod runner;
pub mod snapshot;
mod subscriptions;

pub use crate::fault::{FaultSpec, FaultState, WireCorruption};
pub use crate::link::Link;
pub use crate::message::{Message, MessageId, MessageIdHasher, MessageIdSet};
pub use crate::metrics::{DeliveryOutcome, MetricsCollector, SimReport};
pub use crate::protocols::{NullProtocol, Protocol, ProtocolFactory, SimCtx};
pub use crate::record::{
    EpochRow, EventLog, LossCause, MergeKind, NullRecorder, PreferenceValue, Recorder, RunRecorder,
    TimeSeriesRecorder, TraceEvent,
};
pub use crate::runner::{GeneratedMessage, SimConfig, Simulation};
pub use crate::subscriptions::SubscriptionTable;
