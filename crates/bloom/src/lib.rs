//! Bloom-filter substrate for B-SUB, including the paper's core data
//! structure: the **Temporal Counting Bloom Filter (TCBF)**.
//!
//! This crate implements, from scratch:
//!
//! - [`BloomFilter`] — the classic Bloom filter (Bloom, 1970) with
//!   insertion, probabilistic membership queries, and union merging.
//! - [`Tcbf`] — the Temporal Counting Bloom Filter of the B-SUB paper
//!   (Zhao & Wu, ICDCS 2010): counters are set to an initial value on
//!   insertion, combined with *A-merge* (additive) or *M-merge*
//!   (maximum), and *decayed* over time so that stale entries expire.
//!   It supports *existential* queries (classic membership) and
//!   *preferential* queries (ranking two filters as carriers of a key).
//!   Decay is recorded lazily as a per-filter epoch offset and
//!   materialized on read/merge, so it costs O(1) per call.
//! - [`PackedTcbf`] — the scale-tier TCBF: sixteen 4-bit counters per
//!   `u64` word with SWAR merge kernels (see [`packed`]), for
//!   million-node deployments where `C ≤ 15` bounds every counter.
//! - [`math`] — closed-form analysis from Sections III and VI of the
//!   paper: false-positive rate, fill ratio, the expected minimum of
//!   binomially distributed counter increments (Eq. 4), the decaying
//!   factor formula (Eq. 5), joint FPR of several filters (Eq. 7), and
//!   the memory model of the compressed wire format (Eq. 8).
//! - [`wire`] — the compressed encoding of Section VI-C: set-bit
//!   locations packed at ⌈log₂ m⌉ bits each, with full, shared, or
//!   ripped counters.
//! - [`allocation`] — the dynamic multi-filter allocation strategy of
//!   Section VI-D, including the binary search for the optimal filter
//!   count under a storage bound (Eq. 9–10).
//!
//! # Quickstart
//!
//! ```
//! use bsub_bloom::Tcbf;
//!
//! let mut interests = Tcbf::new(256, 4, 50);
//! interests.insert("NewMoon")?;
//! assert!(interests.contains("NewMoon"));
//! assert!(!interests.contains("openwebawards"));
//!
//! // Time passes: decay the counters. After 50 decrements the key
//! // expires, which is how B-SUB forgets interests of consumers a
//! // broker no longer meets.
//! interests.decay(50);
//! assert!(!interests.contains("NewMoon"));
//! # Ok::<(), bsub_bloom::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod allocation;
mod bitvec;
mod bloom;
mod error;
pub mod hash;
pub mod math;
pub mod packed;
pub mod rng;
mod tcbf;
pub mod wire;

pub use crate::allocation::{AllocationPlan, TcbfPool};
pub use crate::bitvec::BitVec;
pub use crate::bloom::BloomFilter;
pub use crate::error::Error;
pub use crate::hash::KeyHasher;
pub use crate::packed::PackedTcbf;
pub use crate::rng::SplitMix64;
pub use crate::tcbf::{Decayer, Preference, SparseTcbf, Tcbf};
