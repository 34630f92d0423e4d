//! The B-SUB workspace benchmark: three workloads, each timed from
//! outside through the public functions of the crates it exercises.
//!
//! | workload      | stresses                                    | bypasses                       |
//! |---------------|---------------------------------------------|--------------------------------|
//! | `sim-haggle`  | `bsub-sim`, `bsub-core`, `bsub-bloom`       | `bsub-match` index, `bsub-net` |
//! | `match-zipf`  | `bsub-match` read path (write path: traced) | simulator, `bsub-net`          |
//! | `broker-rate` | `bsub-net` codec, peer queues, service loop | simulator                      |
//!
//! A run with tracing off reports the end-to-end metrics; a traced run
//! turns on the timing wrappers, the `bsub-obs` profiler and the
//! broker's `NetMetrics`, and reports the per-layer metrics with a
//! layer accounting against the end-to-end figure. `BENCHMARK.json` at
//! the repository root lists the metrics and why each workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod broker;
pub mod matching;
pub mod report;
pub mod sim;
pub mod stats;

use report::Outcome;
use stats::Windows;
use std::time::{Duration, Instant};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["sim-haggle", "match-zipf", "broker-rate"];

/// Arguments shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the untraced measurement runs.
    pub seconds: Duration,
    /// Whether this is the traced run (fixed work, per-layer metrics).
    pub trace: bool,
}

/// When a measured loop ends: untraced runs measure for a time, traced
/// runs do a fixed amount of work so their counts repeat exactly.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this much time.
    Elapsed(Duration),
    /// After this many operations.
    Count(u64),
}

impl Until {
    /// The loop's end for `args`: `count` operations when traced,
    /// `args.seconds` otherwise.
    #[must_use]
    pub fn for_run(args: &RunArgs, count: u64) -> Self {
        if args.trace {
            Self::Count(count)
        } else {
            Self::Elapsed(args.seconds)
        }
    }

    /// Whether a loop that started at `started` and did `done`
    /// operations is over.
    #[must_use]
    pub fn reached(self, started: Instant, done: u64) -> bool {
        match self {
            Self::Elapsed(d) => started.elapsed() >= d,
            Self::Count(n) => done >= n,
        }
    }

    /// Windows to cut the loop into: [`stats::WINDOWS`] for a timed
    /// loop, one for fixed work.
    #[must_use]
    pub fn windows(self) -> Windows {
        match self {
            Self::Elapsed(d) => Windows::over(d),
            Self::Count(_) => Windows::single(),
        }
    }
}

/// Runs `workload` at the benchmark's shape; `None` for an unknown name.
#[must_use]
pub fn run(workload: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match workload {
        "sim-haggle" => sim::run_shaped(args, sim::SimShape::FIG7),
        "match-zipf" => matching::run_zipf(args, matching::MatchShape::BENCH),
        "broker-rate" => broker::run(args, broker::BrokerShape::BENCH),
        _ => return None,
    })
}
