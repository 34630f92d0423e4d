//! `bsub-net` — the networked runtime for the B-SUB stack.
//!
//! The simulator crates keep the paper's protocols (B-SUB's TCBF
//! routing plus the PUSH/PULL baselines from Section VII) *pure*:
//! a [`Protocol`](bsub_sim::Protocol) sees contacts and messages,
//! never sockets. This crate is the other half of that bargain — it
//! runs those same implementations over real TCP and Unix-domain
//! connections, without forking their logic:
//!
//! - [`frame`] — the length-prefixed, CRC-checked frame codec. The
//!   wire layout is specified normatively in DESIGN.md §12.4; the
//!   unit tests here assert the implementation against the spec's
//!   byte offsets, not the other way round. It also maps each frame
//!   kind to its latency and size histograms.
//! - [`transport`] — one stream/listener enum over TCP and
//!   Unix-domain sockets, so everything above it is family-agnostic.
//! - [`backoff`] — deterministic jittered exponential backoff for
//!   dial retries (seeded per peer pair; replays identically).
//! - [`peer`] — the connection manager: explicit lifecycle state
//!   machine (idle → dialing/accepting → established → draining →
//!   closed), lower-peer-wins dial-race resolution, bounded outbound
//!   queues for backpressure, and per-connection reader/writer
//!   threads built on blocking std sockets. Its decisions live in one
//!   pure `PeerCore`, with no sockets, threads or clock.
//! - [`cluster`] — a multi-process loopback cluster that re-runs the
//!   serial simulator's event loop across OS processes, shipping node
//!   state via the protocols' snapshot seams. Its final report is
//!   **equal** to the serial simulator's, not approximately so.
//! - [`stats`] — the live observability endpoint: a [`StatsServer`]
//!   serves a `bsub_obs::SharedReport` — the coordinator's merged
//!   cluster report, or a broker's own sink — as Prometheus text and
//!   JSON (DESIGN.md §15).
//! - [`broker`] — the live broker service (DESIGN.md §16): a pure
//!   [`BrokerCore`] (a `bsub_match::MatchIndex` plus a deadline wheel)
//!   decides, and a [`BrokerNode`] serves it behind the peer state
//!   machine, reading `SUBSCRIBE`/`UNSUBSCRIBE`/`PUBLISH` streams,
//!   applying them with batched matching and real-clock expiry, and
//!   fanning `DELIVER` frames out on the backpressured outbound queues.
//!
//! # Run a loopback cluster
//!
//! The `net-cluster` binary (in `bsub-bench`) spawns the worker
//! processes itself and diffs the cluster's delivery columns against
//! the serial simulator's:
//!
//! ```text
//! cargo run --release -p bsub-bench --bin net-cluster -- --smoke
//! ```
//!
//! Everything here is `std`-only — no async runtime, no external
//! dependencies — to honor the repository's zero-dependency rule.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backoff;
pub mod broker;
pub mod cluster;
pub mod frame;
pub mod peer;
mod peer_core;
pub mod stats;
pub mod transport;

pub use backoff::Backoff;
pub use broker::{
    unix_ns, BrokerClient, BrokerConfig, BrokerCore, BrokerNode, BrokerOp, DeliverBody, Delivery,
    Effects, PublishBody, SubscribeBody,
};
/// The peer plane's metrics sink, under the name the repository
/// benchmark (`perfbench/`, frozen until its next change) imports.
/// New code names [`bsub_obs::SharedReport`].
pub use bsub_obs::SharedReport as NetMetrics;
pub use cluster::{
    peer_addr, run_coordinator, run_coordinator_with, run_worker, ClusterOutcome, ClusterSpec,
    COORDINATOR,
};
pub use frame::{frame_size_hist, frame_time_hist, Frame, FrameKind, HEADER_LEN, MAX_BODY_LEN};
pub use peer::{ConnState, PeerConfig, PeerId, PeerManager};
pub use stats::{render_prometheus, scrape, StatsServer};
pub use transport::{EndpointAddr, Listener, Stream};
