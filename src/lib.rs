//! Umbrella crate for the B-SUB reproduction: re-exports every
//! workspace crate under one roof for examples and integration tests.
//!
//! See the individual crates for documentation:
//!
//! - [`obs`] — allocation-free in-process metrics and profiling.
//! - [`bloom`] — Bloom filter and the TCBF.
//! - [`traces`] — contact traces: parsers, synthetic generators, stats.
//! - [`sim`] — the contact-driven DTN simulator and its metrics.
//! - [`workload`] — Twitter-trend keys and message generation.
//! - [`baselines`] — the PUSH and PULL comparison protocols.
//! - [`core`] — the B-SUB protocol itself.
//! - [`matching`] — broker-side subscription aggregation and the
//!   batched event-matching index.
//! - [`net`] — the networked runtime: framed socket exchanges and the
//!   loopback cluster driver.

pub use bsub_baselines as baselines;
pub use bsub_bloom as bloom;
pub use bsub_core as core;
pub use bsub_match as matching;
pub use bsub_net as net;
pub use bsub_obs as obs;
pub use bsub_sim as sim;
pub use bsub_traces as traces;
pub use bsub_workload as workload;
