//! Human contact traces for B-SUB simulations.
//!
//! The B-SUB paper evaluates on two CRAWDAD Bluetooth contact traces:
//! Haggle (Infocom'06) and MIT Reality (Table I). This crate provides:
//!
//! - [`SimTime`] / [`SimDuration`] — the simulation clock.
//! - [`ContactEvent`] / [`ContactTrace`] — the contact model: a trace
//!   is a time-sorted sequence of pairwise contacts with durations.
//! - [`parser`] — parsers for the CRAWDAD text formats, so the real
//!   datasets drop in if available.
//! - [`synthetic`] — seeded community-based generators calibrated to
//!   Table I, used as the substitution for the (registration-gated)
//!   real traces. See DESIGN.md §4 for the substitution argument.
//! - [`stats`] — degree, contact-count centrality and the Table I
//!   summary.
//!
//! # Quickstart
//!
//! ```
//! use bsub_traces::synthetic::haggle_like;
//! use bsub_traces::stats::TraceStats;
//!
//! let trace = haggle_like(42);
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.nodes, 79);
//! assert!(stats.contacts > 60_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod contact;
mod error;
pub mod parser;
pub mod stats;
pub mod synthetic;
mod time;

pub use crate::contact::{ContactEvent, ContactTrace, NodeId};
pub use crate::error::ParseError;
pub use crate::time::{SimDuration, SimTime};
