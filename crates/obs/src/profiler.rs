//! Thread-local profiler and the workspace metric taxonomy.
//!
//! Metric identity is a closed set of enums so the active recording
//! path is an array index — no hashing, no allocation, no locks. The
//! taxonomy is defined here, at the bottom of the crate graph, because
//! it spans crates: `bsub-bloom` records TCBF and wire-codec metrics,
//! `bsub-core` records election and matching, `bsub-sim` records the
//! contact loop, link budgets, and fault draws, and the baselines
//! record buffer occupancy.

use crate::hist::Histogram;
use crate::report::ProfReport;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Monotonic event counters, recorded with [`count`].
///
/// All byte counters count *payload-level* bytes as the cost model of
/// the paper does; `WireBytes` counts actual encoded control-filter
/// bytes produced by `bsub_bloom::wire::encode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// TCBF key insertions.
    TcbfInsert,
    /// Additive (reinforcement) merges.
    TcbfAMerge,
    /// Maximum merges (broker ↔ broker).
    TcbfMMerge,
    /// Decay applications with a non-zero amount.
    TcbfDecay,
    /// Existential / minimum-counter queries.
    TcbfQuery,
    /// Preferential queries (Section IV-A).
    TcbfPreference,
    /// Successful wire encodings of a control filter.
    WireEncode,
    /// Successful wire decodings.
    WireDecodeOk,
    /// Wire decodings rejected (truncation or CRC mismatch).
    WireDecodeReject,
    /// Broker elections resolving to a promotion.
    ElectionPromote,
    /// Broker elections resolving to a demotion.
    ElectionDemote,
    /// Message-to-interest matching checks.
    MatchChecked,
    /// Matching checks that hit (message delivered or forwarded).
    MatchHit,
    /// Contacts processed by the runner loop.
    Contacts,
    /// Contacts dropped entirely by fault injection.
    FaultContactLost,
    /// Contacts with a fault-truncated link budget.
    FaultTruncated,
    /// Corruption randomness draws taken from a fault stream.
    FaultCorruptionDraw,
    /// Node state resets due to churn rejoin.
    NodeReset,
    /// Transfers refused because the link budget was exhausted.
    LinkExhausted,
    /// Control-plane bytes sent (filters, requests, identities).
    ControlBytes,
    /// Data-plane bytes sent (message payloads).
    DataBytes,
    /// Encoded control-filter bytes produced by the wire codec.
    WireBytes,
    /// Network frames written to a socket (`bsub-net`).
    NetFramesSent,
    /// Network frames read and accepted from a socket (`bsub-net`).
    NetFramesRecv,
    /// Bytes written to sockets, headers included (`bsub-net`).
    NetBytesSent,
    /// Bytes read from sockets, headers included (`bsub-net`).
    NetBytesRecv,
    /// Dial attempts that were retried after a connect failure or
    /// handshake timeout (`bsub-net`).
    NetRetries,
    /// Connections closed as the losing side of a simultaneous-dial
    /// race (`bsub-net`).
    NetRaceLost,
    /// Subscriptions added to a `bsub-match` index.
    MatchSubscribe,
    /// Subscriptions removed from a `bsub-match` index.
    MatchUnsubscribe,
    /// Subscriptions expired out of a `bsub-match` index (deadline
    /// passed or filter fully decayed).
    MatchExpire,
    /// Tier rebuilds. The `bsub-match` posting table needs none, so
    /// this stays 0; kept so recorded reports keep their schema.
    MatchCompact,
    /// Events processed through the batched `match_events` path.
    MatchEvents,
    /// Posting-table probes taken by a batch, one per event.
    MatchTierProbes,
    /// Subscribers found in all of an event's posting lists, each
    /// given the strength check.
    MatchCandidates,
    /// Confirmed (subscriber, event) matches produced by the index.
    MatchMatched,
    /// Poll/wait intervals that elapsed without observable progress in
    /// `bsub-net`'s connection-assembly waits — the starvation
    /// visibility counter for single-CPU schedulers.
    NetPollStarved,
    /// Outbound sends that found a connection's bounded queue full and
    /// had to block (`bsub-net` backpressure stalls).
    NetSendStalls,
    /// `STATS` frames merged into a live cluster-wide report
    /// (`bsub-net` coordinator side).
    NetStatsFrames,
    /// `SUBSCRIBE` frames applied to a live broker's match index
    /// (`bsub-net` broker service loop).
    BrokerSubscribes,
    /// `UNSUBSCRIBE` frames applied to a live broker's match index.
    BrokerUnsubscribes,
    /// `PUBLISH` frames matched through a live broker's index.
    BrokerPublishes,
    /// `DELIVER` frames a live broker enqueued toward subscribers
    /// (one per confirmed or false-positive match).
    BrokerDeliveries,
    /// Subscriptions a live broker evicted because their real-clock
    /// deadline passed (clock-wheel expiry).
    BrokerExpired,
    /// Service-loop batches a live broker drained from its inbound
    /// queues (each batch is one drain + match + deliver cycle).
    BrokerBatches,
}

impl Counter {
    /// Every counter, in stable report order.
    pub const ALL: [Counter; 45] = [
        Counter::TcbfInsert,
        Counter::TcbfAMerge,
        Counter::TcbfMMerge,
        Counter::TcbfDecay,
        Counter::TcbfQuery,
        Counter::TcbfPreference,
        Counter::WireEncode,
        Counter::WireDecodeOk,
        Counter::WireDecodeReject,
        Counter::ElectionPromote,
        Counter::ElectionDemote,
        Counter::MatchChecked,
        Counter::MatchHit,
        Counter::Contacts,
        Counter::FaultContactLost,
        Counter::FaultTruncated,
        Counter::FaultCorruptionDraw,
        Counter::NodeReset,
        Counter::LinkExhausted,
        Counter::ControlBytes,
        Counter::DataBytes,
        Counter::WireBytes,
        Counter::NetFramesSent,
        Counter::NetFramesRecv,
        Counter::NetBytesSent,
        Counter::NetBytesRecv,
        Counter::NetRetries,
        Counter::NetRaceLost,
        Counter::MatchSubscribe,
        Counter::MatchUnsubscribe,
        Counter::MatchExpire,
        Counter::MatchCompact,
        Counter::MatchEvents,
        Counter::MatchTierProbes,
        Counter::MatchCandidates,
        Counter::MatchMatched,
        Counter::NetPollStarved,
        Counter::NetSendStalls,
        Counter::NetStatsFrames,
        Counter::BrokerSubscribes,
        Counter::BrokerUnsubscribes,
        Counter::BrokerPublishes,
        Counter::BrokerDeliveries,
        Counter::BrokerExpired,
        Counter::BrokerBatches,
    ];

    /// Stable snake-case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::TcbfInsert => "tcbf_insert",
            Counter::TcbfAMerge => "tcbf_a_merge",
            Counter::TcbfMMerge => "tcbf_m_merge",
            Counter::TcbfDecay => "tcbf_decay",
            Counter::TcbfQuery => "tcbf_query",
            Counter::TcbfPreference => "tcbf_preference",
            Counter::WireEncode => "wire_encode",
            Counter::WireDecodeOk => "wire_decode_ok",
            Counter::WireDecodeReject => "wire_decode_reject",
            Counter::ElectionPromote => "election_promote",
            Counter::ElectionDemote => "election_demote",
            Counter::MatchChecked => "match_checked",
            Counter::MatchHit => "match_hit",
            Counter::Contacts => "contacts",
            Counter::FaultContactLost => "fault_contact_lost",
            Counter::FaultTruncated => "fault_truncated",
            Counter::FaultCorruptionDraw => "fault_corruption_draw",
            Counter::NodeReset => "node_reset",
            Counter::LinkExhausted => "link_exhausted",
            Counter::ControlBytes => "control_bytes",
            Counter::DataBytes => "data_bytes",
            Counter::WireBytes => "wire_bytes",
            Counter::NetFramesSent => "net_frames_sent",
            Counter::NetFramesRecv => "net_frames_recv",
            Counter::NetBytesSent => "net_bytes_sent",
            Counter::NetBytesRecv => "net_bytes_recv",
            Counter::NetRetries => "net_retries",
            Counter::NetRaceLost => "net_race_lost",
            Counter::MatchSubscribe => "match_subscribe",
            Counter::MatchUnsubscribe => "match_unsubscribe",
            Counter::MatchExpire => "match_expire",
            Counter::MatchCompact => "match_compact",
            Counter::MatchEvents => "match_events",
            Counter::MatchTierProbes => "match_tier_probes",
            Counter::MatchCandidates => "match_candidates",
            Counter::MatchMatched => "match_matched",
            Counter::NetPollStarved => "net_poll_starved",
            Counter::NetSendStalls => "net_send_stalls",
            Counter::NetStatsFrames => "net_stats_frames",
            Counter::BrokerSubscribes => "broker_subscribes",
            Counter::BrokerUnsubscribes => "broker_unsubscribes",
            Counter::BrokerPublishes => "broker_publishes",
            Counter::BrokerDeliveries => "broker_deliveries",
            Counter::BrokerExpired => "broker_expired",
            Counter::BrokerBatches => "broker_batches",
        }
    }
}

/// Level gauges with high-water tracking, driven by [`gauge_add`] /
/// [`gauge_sub`] (incremental) or [`gauge_set`] (absolute).
///
/// A report keeps only the high-water mark — the peak is what memory
/// sizing cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Messages resident in protocol buffers, across all nodes.
    BufferMsgs,
    /// Payload bytes resident in protocol buffers, across all nodes.
    /// The workspace's memory-high-water proxy: message payloads
    /// dominate the simulator's per-node state.
    BufferBytes,
}

/// How often protocols walk their buffers to refresh the occupancy
/// gauges: on the first contact and every `OCCUPANCY_SAMPLE_PERIOD`-th
/// after. The walk is O(nodes × buffered messages), so doing it on
/// *every* contact turns a profiled full-trace PUSH run from seconds
/// into minutes; sampling keeps the high-water mark representative at
/// a bounded cost. Deterministic: driven by the contact count, never
/// by time.
pub const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

impl Gauge {
    /// Every gauge, in stable report order.
    pub const ALL: [Gauge; 2] = [Gauge::BufferMsgs, Gauge::BufferBytes];

    /// Stable snake-case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::BufferMsgs => "buffer_msgs_hwm",
            Gauge::BufferBytes => "buffer_bytes_hwm",
        }
    }
}

/// Wall-clock timing histograms (nanoseconds), recorded with [`span`].
///
/// Timing is machine- and scheduling-dependent, so these are *excluded*
/// from worker-count-invariance guarantees; everything else in a
/// report is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum TimeHist {
    /// One TCBF merge (A- or M-).
    MergeNs,
    /// One TCBF decay application.
    DecayNs,
    /// One preferential query.
    PreferenceNs,
    /// One wire encode.
    EncodeNs,
    /// One wire decode (accepted or rejected).
    DecodeNs,
    /// One full protocol contact handler.
    ContactNs,
    /// B-SUB contact stage 1: expiry pruning and lazy relay decay of
    /// both nodes (`bsub-core`).
    CoreHousekeepingNs,
    /// B-SUB contact stage 3: broker election.
    CoreElectionNs,
    /// B-SUB contact stage 4: genuine filters A-merged into broker
    /// peers' relays.
    CorePropagateNs,
    /// B-SUB contact steps 5a + 5c: each side served as a consumer.
    CoreServeNs,
    /// B-SUB contact step 5b: producers replicate to broker peers.
    CoreReplicateNs,
    /// B-SUB contact step 5d: broker ↔ broker handoff and M-merge.
    CoreExchangeNs,
    /// One networked contact exchange, dispatch to result, as seen by
    /// the cluster coordinator (`bsub-net`).
    NetExchangeNs,
    /// One batched `match_events` call on a `bsub-match` index.
    MatchBatchNs,
    /// Socket-write latency of one `HELLO` frame (`bsub-net`). The
    /// per-frame-kind families below measure the writer thread's
    /// wall clock from dequeuing a frame to the flushed socket write,
    /// so OS-buffer backpressure shows up per kind.
    NetFrameHelloNs,
    /// Socket-write latency of one `DISPATCH` frame.
    NetFrameDispatchNs,
    /// Socket-write latency of one `STATE_REQ` frame.
    NetFrameStateReqNs,
    /// Socket-write latency of one `STATE_GRANT` frame.
    NetFrameStateGrantNs,
    /// Socket-write latency of one `STATE_RET` frame.
    NetFrameStateRetNs,
    /// Socket-write latency of one `RESULT` frame.
    NetFrameExchangeResultNs,
    /// Socket-write latency of one `NODE_FREE` frame.
    NetFrameNodeFreeNs,
    /// Socket-write latency of one `ADVANCE` frame.
    NetFrameAdvanceNs,
    /// Socket-write latency of one `PUBLISH_OK` frame.
    NetFramePublishOkNs,
    /// Socket-write latency of one `DONE` frame.
    NetFrameDoneNs,
    /// Socket-write latency of one `STATS` frame.
    NetFrameStatsNs,
    /// Socket-write latency of one `SUBSCRIBE` frame.
    NetFrameSubscribeNs,
    /// Socket-write latency of one `UNSUBSCRIBE` frame.
    NetFrameUnsubscribeNs,
    /// Socket-write latency of one `PUBLISH` frame.
    NetFramePublishNs,
    /// Socket-write latency of one `DELIVER` frame.
    NetFrameDeliverNs,
    /// One broker service-loop batch: drain the inbound queues, expire
    /// due deadlines, apply subscribe/unsubscribe, match the publish
    /// run, enqueue deliveries (`bsub-net` broker).
    BrokerBatchNs,
    /// One epoch's A-merge derivation phase in the sharded scale
    /// engine (phase A, per shard).
    ScaleDeriveNs,
    /// One epoch's cross-shard merge phase (phase B, per shard).
    ScaleMergeNs,
    /// One epoch's query phase (phase C, per shard).
    ScaleQueryNs,
    /// One epoch's decay phase (phase D, per shard).
    ScaleDecayNs,
}

impl TimeHist {
    /// Every timing histogram, in stable report order.
    pub const ALL: [TimeHist; 34] = [
        TimeHist::MergeNs,
        TimeHist::DecayNs,
        TimeHist::PreferenceNs,
        TimeHist::EncodeNs,
        TimeHist::DecodeNs,
        TimeHist::ContactNs,
        TimeHist::CoreHousekeepingNs,
        TimeHist::CoreElectionNs,
        TimeHist::CorePropagateNs,
        TimeHist::CoreServeNs,
        TimeHist::CoreReplicateNs,
        TimeHist::CoreExchangeNs,
        TimeHist::NetExchangeNs,
        TimeHist::MatchBatchNs,
        TimeHist::NetFrameHelloNs,
        TimeHist::NetFrameDispatchNs,
        TimeHist::NetFrameStateReqNs,
        TimeHist::NetFrameStateGrantNs,
        TimeHist::NetFrameStateRetNs,
        TimeHist::NetFrameExchangeResultNs,
        TimeHist::NetFrameNodeFreeNs,
        TimeHist::NetFrameAdvanceNs,
        TimeHist::NetFramePublishOkNs,
        TimeHist::NetFrameDoneNs,
        TimeHist::NetFrameStatsNs,
        TimeHist::NetFrameSubscribeNs,
        TimeHist::NetFrameUnsubscribeNs,
        TimeHist::NetFramePublishNs,
        TimeHist::NetFrameDeliverNs,
        TimeHist::BrokerBatchNs,
        TimeHist::ScaleDeriveNs,
        TimeHist::ScaleMergeNs,
        TimeHist::ScaleQueryNs,
        TimeHist::ScaleDecayNs,
    ];

    /// Stable snake-case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TimeHist::MergeNs => "tcbf_merge_ns",
            TimeHist::DecayNs => "tcbf_decay_ns",
            TimeHist::PreferenceNs => "tcbf_preference_ns",
            TimeHist::EncodeNs => "wire_encode_ns",
            TimeHist::DecodeNs => "wire_decode_ns",
            TimeHist::ContactNs => "contact_ns",
            TimeHist::CoreHousekeepingNs => "core_housekeeping_ns",
            TimeHist::CoreElectionNs => "core_election_ns",
            TimeHist::CorePropagateNs => "core_propagate_ns",
            TimeHist::CoreServeNs => "core_serve_ns",
            TimeHist::CoreReplicateNs => "core_replicate_ns",
            TimeHist::CoreExchangeNs => "core_exchange_ns",
            TimeHist::NetExchangeNs => "net_exchange_ns",
            TimeHist::MatchBatchNs => "match_batch_ns",
            TimeHist::NetFrameHelloNs => "net_frame_hello_ns",
            TimeHist::NetFrameDispatchNs => "net_frame_dispatch_ns",
            TimeHist::NetFrameStateReqNs => "net_frame_state_req_ns",
            TimeHist::NetFrameStateGrantNs => "net_frame_state_grant_ns",
            TimeHist::NetFrameStateRetNs => "net_frame_state_ret_ns",
            TimeHist::NetFrameExchangeResultNs => "net_frame_exchange_result_ns",
            TimeHist::NetFrameNodeFreeNs => "net_frame_node_free_ns",
            TimeHist::NetFrameAdvanceNs => "net_frame_advance_ns",
            TimeHist::NetFramePublishOkNs => "net_frame_publish_ok_ns",
            TimeHist::NetFrameDoneNs => "net_frame_done_ns",
            TimeHist::NetFrameStatsNs => "net_frame_stats_ns",
            TimeHist::NetFrameSubscribeNs => "net_frame_subscribe_ns",
            TimeHist::NetFrameUnsubscribeNs => "net_frame_unsubscribe_ns",
            TimeHist::NetFramePublishNs => "net_frame_publish_ns",
            TimeHist::NetFrameDeliverNs => "net_frame_deliver_ns",
            TimeHist::BrokerBatchNs => "broker_batch_ns",
            TimeHist::ScaleDeriveNs => "scale_derive_ns",
            TimeHist::ScaleMergeNs => "scale_merge_ns",
            TimeHist::ScaleQueryNs => "scale_query_ns",
            TimeHist::ScaleDecayNs => "scale_decay_ns",
        }
    }
}

/// Size histograms (bytes), recorded with [`observe`]. Deterministic,
/// unlike [`TimeHist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SizeHist {
    /// Encoded size of each control filter put on the wire.
    EncodedFilterBytes,
    /// Total bytes (control + data) moved per contact.
    ContactBytes,
    /// Events per batched `match_events` call (`bsub-match`).
    MatchBatchEvents,
    /// Exact confirmations attempted per batched `match_events` call
    /// (`bsub-match`) — how much work tier pruning let through.
    MatchBatchCandidates,
    /// Encoded size (header + body) of each `HELLO` frame written to a
    /// socket (`bsub-net`). The per-frame-kind families are recorded
    /// on the send side only, so a cluster-wide merge counts each
    /// frame exactly once.
    NetFrameHelloBytes,
    /// Encoded size of each `DISPATCH` frame written.
    NetFrameDispatchBytes,
    /// Encoded size of each `STATE_REQ` frame written.
    NetFrameStateReqBytes,
    /// Encoded size of each `STATE_GRANT` frame written.
    NetFrameStateGrantBytes,
    /// Encoded size of each `STATE_RET` frame written.
    NetFrameStateRetBytes,
    /// Encoded size of each `RESULT` frame written.
    NetFrameExchangeResultBytes,
    /// Encoded size of each `NODE_FREE` frame written.
    NetFrameNodeFreeBytes,
    /// Encoded size of each `ADVANCE` frame written.
    NetFrameAdvanceBytes,
    /// Encoded size of each `PUBLISH_OK` frame written.
    NetFramePublishOkBytes,
    /// Encoded size of each `DONE` frame written.
    NetFrameDoneBytes,
    /// Encoded size of each `STATS` frame written.
    NetFrameStatsBytes,
    /// Encoded size of each `SUBSCRIBE` frame written.
    NetFrameSubscribeBytes,
    /// Encoded size of each `UNSUBSCRIBE` frame written.
    NetFrameUnsubscribeBytes,
    /// Encoded size of each `PUBLISH` frame written.
    NetFramePublishBytes,
    /// Encoded size of each `DELIVER` frame written.
    NetFrameDeliverBytes,
    /// Frames carried by each socket write of a connection's writer
    /// thread (`bsub-net`): how many queued frames one write coalesced.
    /// A count, not bytes, and timing-dependent like
    /// [`SizeHist::BrokerBatchOps`].
    NetFramesPerWrite,
    /// Operations (subscribes + unsubscribes + publishes) applied per
    /// broker service-loop batch (`bsub-net` broker).
    BrokerBatchOps,
}

impl SizeHist {
    /// Every size histogram, in stable report order.
    pub const ALL: [SizeHist; 21] = [
        SizeHist::EncodedFilterBytes,
        SizeHist::ContactBytes,
        SizeHist::MatchBatchEvents,
        SizeHist::MatchBatchCandidates,
        SizeHist::NetFrameHelloBytes,
        SizeHist::NetFrameDispatchBytes,
        SizeHist::NetFrameStateReqBytes,
        SizeHist::NetFrameStateGrantBytes,
        SizeHist::NetFrameStateRetBytes,
        SizeHist::NetFrameExchangeResultBytes,
        SizeHist::NetFrameNodeFreeBytes,
        SizeHist::NetFrameAdvanceBytes,
        SizeHist::NetFramePublishOkBytes,
        SizeHist::NetFrameDoneBytes,
        SizeHist::NetFrameStatsBytes,
        SizeHist::NetFrameSubscribeBytes,
        SizeHist::NetFrameUnsubscribeBytes,
        SizeHist::NetFramePublishBytes,
        SizeHist::NetFrameDeliverBytes,
        SizeHist::NetFramesPerWrite,
        SizeHist::BrokerBatchOps,
    ];

    /// Stable snake-case name used in JSON and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SizeHist::EncodedFilterBytes => "encoded_filter_bytes",
            SizeHist::ContactBytes => "contact_bytes",
            SizeHist::MatchBatchEvents => "match_batch_events",
            SizeHist::MatchBatchCandidates => "match_batch_candidates",
            SizeHist::NetFrameHelloBytes => "net_frame_hello_bytes",
            SizeHist::NetFrameDispatchBytes => "net_frame_dispatch_bytes",
            SizeHist::NetFrameStateReqBytes => "net_frame_state_req_bytes",
            SizeHist::NetFrameStateGrantBytes => "net_frame_state_grant_bytes",
            SizeHist::NetFrameStateRetBytes => "net_frame_state_ret_bytes",
            SizeHist::NetFrameExchangeResultBytes => "net_frame_exchange_result_bytes",
            SizeHist::NetFrameNodeFreeBytes => "net_frame_node_free_bytes",
            SizeHist::NetFrameAdvanceBytes => "net_frame_advance_bytes",
            SizeHist::NetFramePublishOkBytes => "net_frame_publish_ok_bytes",
            SizeHist::NetFrameDoneBytes => "net_frame_done_bytes",
            SizeHist::NetFrameStatsBytes => "net_frame_stats_bytes",
            SizeHist::NetFrameSubscribeBytes => "net_frame_subscribe_bytes",
            SizeHist::NetFrameUnsubscribeBytes => "net_frame_unsubscribe_bytes",
            SizeHist::NetFramePublishBytes => "net_frame_publish_bytes",
            SizeHist::NetFrameDeliverBytes => "net_frame_deliver_bytes",
            SizeHist::NetFramesPerWrite => "net_frames_per_write",
            SizeHist::BrokerBatchOps => "broker_batch_ops",
        }
    }
}

/// The per-thread metric store. Fixed arrays indexed by the enums
/// above; recording is an index plus a saturating add.
#[derive(Debug, Clone)]
pub(crate) struct Profiler {
    pub(crate) counters: [u64; Counter::ALL.len()],
    pub(crate) gauge_cur: [u64; Gauge::ALL.len()],
    pub(crate) gauge_hwm: [u64; Gauge::ALL.len()],
    pub(crate) time_hists: [Histogram; TimeHist::ALL.len()],
    pub(crate) size_hists: [Histogram; SizeHist::ALL.len()],
}

impl Profiler {
    fn new() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            gauge_cur: [0; Gauge::ALL.len()],
            gauge_hwm: [0; Gauge::ALL.len()],
            time_hists: std::array::from_fn(|_| Histogram::new()),
            size_hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

thread_local! {
    /// Fast active flag: the only cost instrumentation pays when
    /// profiling is off is reading this cell.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static PROFILER: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// Installs a fresh profiler on the current thread, discarding any
/// previous one. Until [`finish`] is called, instrumentation on this
/// thread records into it.
pub fn start() {
    PROFILER.with(|p| *p.borrow_mut() = Some(Profiler::new()));
    ACTIVE.with(|a| a.set(true));
}

/// Uninstalls the current thread's profiler and returns what it
/// collected. Returns an empty report if [`start`] was never called.
pub fn finish() -> ProfReport {
    ACTIVE.with(|a| a.set(false));
    PROFILER
        .with(|p| p.borrow_mut().take())
        .map(|prof| ProfReport::from_profiler(&prof))
        .unwrap_or_default()
}

/// Whether a profiler is installed on this thread. Instrumentation
/// call sites don't need this — [`count`] and friends check it — but
/// it lets callers skip *building* expensive arguments, mirroring the
/// `Recorder::is_active` pattern.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.with(Cell::get)
}

fn with_profiler(f: impl FnOnce(&mut Profiler)) {
    if !is_active() {
        return;
    }
    PROFILER.with(|p| {
        if let Some(prof) = p.borrow_mut().as_mut() {
            f(prof);
        }
    });
}

/// Adds `n` to a counter (saturating). Free when inactive.
#[inline]
pub fn count(c: Counter, n: u64) {
    with_profiler(|p| {
        let slot = &mut p.counters[c as usize];
        *slot = slot.saturating_add(n);
    });
}

/// Raises a gauge by `n`, updating its high-water mark.
#[inline]
pub fn gauge_add(g: Gauge, n: u64) {
    with_profiler(|p| {
        let i = g as usize;
        p.gauge_cur[i] = p.gauge_cur[i].saturating_add(n);
        p.gauge_hwm[i] = p.gauge_hwm[i].max(p.gauge_cur[i]);
    });
}

/// Lowers a gauge by `n` (saturating at zero).
#[inline]
pub fn gauge_sub(g: Gauge, n: u64) {
    with_profiler(|p| {
        let i = g as usize;
        p.gauge_cur[i] = p.gauge_cur[i].saturating_sub(n);
    });
}

/// Sets a gauge to an absolute level, updating its high-water mark.
#[inline]
pub fn gauge_set(g: Gauge, level: u64) {
    with_profiler(|p| {
        let i = g as usize;
        p.gauge_cur[i] = level;
        p.gauge_hwm[i] = p.gauge_hwm[i].max(level);
    });
}

/// Records a sample into a size histogram. Free when inactive.
#[inline]
pub fn observe(h: SizeHist, value: u64) {
    with_profiler(|p| p.size_hists[h as usize].record(value));
}

/// Records an externally measured duration into a timing histogram —
/// for latencies that cannot be bracketed by a [`span`] (e.g. a
/// request/response round trip observed across threads). Free when
/// inactive.
#[inline]
pub fn observe_ns(h: TimeHist, ns: u64) {
    with_profiler(|p| p.time_hists[h as usize].record(ns));
}

/// A scoped timing guard returned by [`span`]: measures wall-clock
/// nanoseconds from construction to drop and records them into a
/// [`TimeHist`]. When profiling is inactive the guard holds no clock
/// reading and its drop is a no-op — spans on hot paths cost one
/// thread-local read.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to _ drops immediately"]
pub struct Span {
    hist: TimeHist,
    started: Option<Instant>,
}

/// Starts a timing span for `hist`. See [`Span`].
#[inline]
pub fn span(hist: TimeHist) -> Span {
    let started = if is_active() {
        Some(Instant::now())
    } else {
        None
    };
    Span { hist, started }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            with_profiler(|p| p.time_hists[self.hist as usize].record(ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_thread_records_nothing() {
        // No start(): everything is a no-op and finish() is empty.
        count(Counter::TcbfInsert, 5);
        gauge_add(Gauge::BufferMsgs, 3);
        observe(SizeHist::ContactBytes, 100);
        drop(span(TimeHist::ContactNs));
        assert!(!is_active());
        let report = finish();
        assert_eq!(report.counter(Counter::TcbfInsert), 0);
        assert!(report.is_empty());
    }

    #[test]
    fn start_finish_collects_and_resets() {
        start();
        assert!(is_active());
        count(Counter::WireEncode, 2);
        count(Counter::WireEncode, 3);
        observe(SizeHist::EncodedFilterBytes, 64);
        let report = finish();
        assert!(!is_active());
        assert_eq!(report.counter(Counter::WireEncode), 5);
        assert_eq!(report.size_hist(SizeHist::EncodedFilterBytes).count(), 1);
        // A second finish without start is empty again.
        assert!(finish().is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        start();
        count(Counter::DataBytes, u64::MAX);
        count(Counter::DataBytes, u64::MAX);
        assert_eq!(finish().counter(Counter::DataBytes), u64::MAX);
    }

    #[test]
    fn gauges_track_high_water() {
        start();
        gauge_add(Gauge::BufferMsgs, 4);
        gauge_add(Gauge::BufferMsgs, 3);
        gauge_sub(Gauge::BufferMsgs, 6);
        gauge_add(Gauge::BufferMsgs, 1);
        let report = finish();
        assert_eq!(report.gauge(Gauge::BufferMsgs), 7);
    }

    #[test]
    fn gauge_sub_saturates_at_zero() {
        start();
        gauge_sub(Gauge::BufferBytes, 10);
        gauge_add(Gauge::BufferBytes, 2);
        assert_eq!(finish().gauge(Gauge::BufferBytes), 2);
    }

    #[test]
    fn spans_record_into_the_right_histogram() {
        start();
        {
            let _s = span(TimeHist::MergeNs);
        }
        {
            let _s = span(TimeHist::MergeNs);
        }
        let report = finish();
        assert_eq!(report.time_hist(TimeHist::MergeNs).count(), 2);
        assert_eq!(report.time_hist(TimeHist::DecayNs).count(), 0);
    }
}
