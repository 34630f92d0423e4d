//! Thread-local profiler and the workspace metric taxonomy.
//!
//! Metric identity is a closed set of enums so the active recording
//! path is an array index — no hashing, no allocation, no locks. The
//! taxonomy is defined here, at the bottom of the crate graph, because
//! it spans crates: `bsub-bloom` records TCBF and wire-codec metrics,
//! `bsub-core` records election and matching, `bsub-sim` records the
//! contact loop, link budgets, and fault draws, and the baselines
//! record buffer occupancy.
//!
//! Each kind is one `taxonomy!` table: a metric is declared once,
//! as a documented `Variant => "name"` line, and table order is the
//! report's wire and JSON order (DESIGN.md §9).

use crate::report::ProfReport;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Declares one metric kind from a single table of documented
/// `Variant => "name"` entries: the enum, `ALL` in table order and
/// `name()`. Table order is the order of `ProfReport`'s arrays, its
/// wire encoding and its JSON, so entries are only ever appended.
macro_rules! taxonomy {
    (
        $(#[$kind_meta:meta])*
        pub enum $kind:ident {
            $( $(#[$meta:meta])* $variant:ident => $name:literal, )+
        }
    ) => {
        $(#[$kind_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $kind {
            $( $(#[$meta])* $variant, )+
        }

        impl $kind {
            /// Every variant, in stable report order.
            pub const ALL: [$kind; [$($name),+].len()] = [$($kind::$variant),+];

            /// Stable snake-case name used in JSON and tables.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $( $kind::$variant => $name, )+
                }
            }
        }
    };
}

taxonomy! {
    /// Monotonic event counters, recorded with [`count`].
    ///
    /// All byte counters count *payload-level* bytes as the cost model of
    /// the paper does; `WireBytes` counts actual encoded control-filter
    /// bytes produced by `bsub_bloom::wire::encode`.
    pub enum Counter {
        /// TCBF key insertions.
        TcbfInsert => "tcbf_insert",
        /// Additive (reinforcement) merges.
        TcbfAMerge => "tcbf_a_merge",
        /// Maximum merges (broker ↔ broker).
        TcbfMMerge => "tcbf_m_merge",
        /// Decay applications with a non-zero amount.
        TcbfDecay => "tcbf_decay",
        /// Existential / minimum-counter queries.
        TcbfQuery => "tcbf_query",
        /// Preferential queries (Section IV-A).
        TcbfPreference => "tcbf_preference",
        /// Successful wire encodings of a control filter.
        WireEncode => "wire_encode",
        /// Successful wire decodings.
        WireDecodeOk => "wire_decode_ok",
        /// Wire decodings rejected (truncation or CRC mismatch).
        WireDecodeReject => "wire_decode_reject",
        /// Broker elections resolving to a promotion.
        ElectionPromote => "election_promote",
        /// Broker elections resolving to a demotion.
        ElectionDemote => "election_demote",
        /// Message-to-interest matching checks.
        MatchChecked => "match_checked",
        /// Matching checks that hit (message delivered or forwarded).
        MatchHit => "match_hit",
        /// Contacts processed by the runner loop.
        Contacts => "contacts",
        /// Contacts dropped entirely by fault injection.
        FaultContactLost => "fault_contact_lost",
        /// Contacts with a fault-truncated link budget.
        FaultTruncated => "fault_truncated",
        /// Corruption randomness draws taken from a fault stream.
        FaultCorruptionDraw => "fault_corruption_draw",
        /// Node state resets due to churn rejoin.
        NodeReset => "node_reset",
        /// Transfers refused because the link budget was exhausted.
        LinkExhausted => "link_exhausted",
        /// Control-plane bytes sent (filters, requests, identities).
        ControlBytes => "control_bytes",
        /// Data-plane bytes sent (message payloads).
        DataBytes => "data_bytes",
        /// Encoded control-filter bytes produced by the wire codec.
        WireBytes => "wire_bytes",
        /// Network frames written to a socket (`bsub-net`).
        NetFramesSent => "net_frames_sent",
        /// Network frames read and accepted from a socket (`bsub-net`).
        NetFramesRecv => "net_frames_recv",
        /// Bytes written to sockets, headers included (`bsub-net`).
        NetBytesSent => "net_bytes_sent",
        /// Bytes read from sockets, headers included (`bsub-net`).
        NetBytesRecv => "net_bytes_recv",
        /// Dial attempts that were retried after a connect failure or
        /// handshake timeout (`bsub-net`).
        NetRetries => "net_retries",
        /// Connections closed as the losing side of a simultaneous-dial
        /// race (`bsub-net`).
        NetRaceLost => "net_race_lost",
        /// Subscriptions added to a `bsub-match` index.
        MatchSubscribe => "match_subscribe",
        /// Subscriptions removed from a `bsub-match` index.
        MatchUnsubscribe => "match_unsubscribe",
        /// Subscriptions expired out of a `bsub-match` index (deadline
        /// passed or filter fully decayed).
        MatchExpire => "match_expire",
        /// Tier rebuilds. The `bsub-match` posting table needs none, so
        /// this stays 0; kept so recorded reports keep their schema.
        MatchCompact => "match_compact",
        /// Events processed through the batched `match_events` path.
        MatchEvents => "match_events",
        /// Posting-table probes taken by a batch, one per event.
        MatchTierProbes => "match_tier_probes",
        /// Subscribers found in all of an event's posting lists, each
        /// given the strength check.
        MatchCandidates => "match_candidates",
        /// Confirmed (subscriber, event) matches produced by the index.
        MatchMatched => "match_matched",
        /// Poll/wait intervals that elapsed without observable progress in
        /// `bsub-net`'s connection-assembly waits — the starvation
        /// visibility counter for single-CPU schedulers.
        NetPollStarved => "net_poll_starved",
        /// Outbound sends that found a connection's bounded queue full and
        /// had to block (`bsub-net` backpressure stalls).
        NetSendStalls => "net_send_stalls",
        /// `STATS` frames merged into a live cluster-wide report
        /// (`bsub-net` coordinator side).
        NetStatsFrames => "net_stats_frames",
        /// `SUBSCRIBE` frames applied to a live broker's match index
        /// (`bsub-net` broker service loop).
        BrokerSubscribes => "broker_subscribes",
        /// `UNSUBSCRIBE` frames applied to a live broker's match index.
        BrokerUnsubscribes => "broker_unsubscribes",
        /// `PUBLISH` frames matched through a live broker's index.
        BrokerPublishes => "broker_publishes",
        /// `DELIVER` frames a live broker enqueued toward subscribers
        /// (one per confirmed or false-positive match).
        BrokerDeliveries => "broker_deliveries",
        /// Subscriptions a live broker evicted because their real-clock
        /// deadline passed (clock-wheel expiry).
        BrokerExpired => "broker_expired",
        /// Service-loop batches a live broker drained from its inbound
        /// queues (each batch is one drain + match + deliver cycle).
        BrokerBatches => "broker_batches",
    }
}

taxonomy! {
    /// Level gauges with high-water tracking, driven by [`gauge_add`] /
    /// [`gauge_sub`] (incremental) or [`gauge_set`] (absolute).
    ///
    /// A report keeps only the high-water mark — the peak is what memory
    /// sizing cares about.
    pub enum Gauge {
        /// Messages resident in protocol buffers, across all nodes.
        BufferMsgs => "buffer_msgs_hwm",
        /// Payload bytes resident in protocol buffers, across all nodes.
        /// The workspace's memory-high-water proxy: message payloads
        /// dominate the simulator's per-node state.
        BufferBytes => "buffer_bytes_hwm",
    }
}

/// How often protocols walk their buffers to refresh the occupancy
/// gauges: on the first contact and every `OCCUPANCY_SAMPLE_PERIOD`-th
/// after. The walk is O(nodes × buffered messages), so doing it on
/// *every* contact turns a profiled full-trace PUSH run from seconds
/// into minutes; sampling keeps the high-water mark representative at
/// a bounded cost. Deterministic: driven by the contact count, never
/// by time.
pub const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

taxonomy! {
    /// Wall-clock timing histograms (nanoseconds), recorded with [`span`].
    ///
    /// Timing is machine- and scheduling-dependent, so these are *excluded*
    /// from worker-count-invariance guarantees; everything else in a
    /// report is deterministic.
    ///
    /// The `NetFrame*Ns` family holds one histogram per `bsub-net` frame
    /// kind, contiguous and in discriminant order (`frame_time_hist`
    /// indexes into it). A connection's writer thread records every
    /// frame of one drain under its own kind with the drain's wall
    /// clock, from the first dequeue to the completed socket write, so
    /// OS-buffer backpressure shows up per kind.
    pub enum TimeHist {
        /// One TCBF merge (A- or M-).
        MergeNs => "tcbf_merge_ns",
        /// One TCBF decay application.
        DecayNs => "tcbf_decay_ns",
        /// One preferential query.
        PreferenceNs => "tcbf_preference_ns",
        /// One wire encode.
        EncodeNs => "wire_encode_ns",
        /// One wire decode (accepted or rejected).
        DecodeNs => "wire_decode_ns",
        /// One full protocol contact handler.
        ContactNs => "contact_ns",
        /// B-SUB contact stage 1: expiry pruning and lazy relay decay of
        /// both nodes (`bsub-core`).
        CoreHousekeepingNs => "core_housekeeping_ns",
        /// B-SUB contact stage 3: broker election.
        CoreElectionNs => "core_election_ns",
        /// B-SUB contact stage 4: genuine filters A-merged into broker
        /// peers' relays.
        CorePropagateNs => "core_propagate_ns",
        /// B-SUB contact steps 5a + 5c: each side served as a consumer.
        CoreServeNs => "core_serve_ns",
        /// B-SUB contact step 5b: producers replicate to broker peers.
        CoreReplicateNs => "core_replicate_ns",
        /// B-SUB contact step 5d: broker ↔ broker handoff and M-merge.
        CoreExchangeNs => "core_exchange_ns",
        /// One networked contact exchange, dispatch to result, as seen by
        /// the cluster coordinator (`bsub-net`).
        NetExchangeNs => "net_exchange_ns",
        /// One batched `match_events` call on a `bsub-match` index.
        MatchBatchNs => "match_batch_ns",
        /// `HELLO` frames' write latency (the `NetFrame*Ns` family).
        NetFrameHelloNs => "net_frame_hello_ns",
        /// `DISPATCH` frames' write latency.
        NetFrameDispatchNs => "net_frame_dispatch_ns",
        /// `STATE_REQ` frames' write latency.
        NetFrameStateReqNs => "net_frame_state_req_ns",
        /// `STATE_GRANT` frames' write latency.
        NetFrameStateGrantNs => "net_frame_state_grant_ns",
        /// `STATE_RET` frames' write latency.
        NetFrameStateRetNs => "net_frame_state_ret_ns",
        /// `RESULT` frames' write latency.
        NetFrameExchangeResultNs => "net_frame_exchange_result_ns",
        /// `NODE_FREE` frames' write latency.
        NetFrameNodeFreeNs => "net_frame_node_free_ns",
        /// `ADVANCE` frames' write latency.
        NetFrameAdvanceNs => "net_frame_advance_ns",
        /// `PUBLISH_OK` frames' write latency.
        NetFramePublishOkNs => "net_frame_publish_ok_ns",
        /// `DONE` frames' write latency.
        NetFrameDoneNs => "net_frame_done_ns",
        /// `STATS` frames' write latency.
        NetFrameStatsNs => "net_frame_stats_ns",
        /// `SUBSCRIBE` frames' write latency.
        NetFrameSubscribeNs => "net_frame_subscribe_ns",
        /// `UNSUBSCRIBE` frames' write latency.
        NetFrameUnsubscribeNs => "net_frame_unsubscribe_ns",
        /// `PUBLISH` frames' write latency.
        NetFramePublishNs => "net_frame_publish_ns",
        /// `DELIVER` frames' write latency.
        NetFrameDeliverNs => "net_frame_deliver_ns",
        /// One broker service-loop batch: drain the inbound queues, expire
        /// due deadlines, apply subscribe/unsubscribe, match the publish
        /// run, enqueue deliveries (`bsub-net` broker).
        BrokerBatchNs => "broker_batch_ns",
        /// One epoch's A-merge derivation phase in the sharded scale
        /// engine (phase A, per shard).
        ScaleDeriveNs => "scale_derive_ns",
        /// One epoch's cross-shard merge phase (phase B, per shard).
        ScaleMergeNs => "scale_merge_ns",
        /// One epoch's query phase (phase C, per shard).
        ScaleQueryNs => "scale_query_ns",
        /// One epoch's decay phase (phase D, per shard).
        ScaleDecayNs => "scale_decay_ns",
    }
}

taxonomy! {
    /// Size histograms (bytes), recorded with [`observe`]. Deterministic,
    /// unlike [`TimeHist`].
    ///
    /// The `NetFrame*Bytes` family holds one histogram per `bsub-net`
    /// frame kind, contiguous and in discriminant order
    /// (`frame_size_hist` indexes into it): the encoded size, header
    /// and body, of each frame written to a socket. It is recorded on
    /// the send side only, so a cluster-wide merge counts each frame
    /// exactly once.
    pub enum SizeHist {
        /// Encoded size of each control filter put on the wire.
        EncodedFilterBytes => "encoded_filter_bytes",
        /// Total bytes (control + data) moved per contact.
        ContactBytes => "contact_bytes",
        /// Events per batched `match_events` call (`bsub-match`).
        MatchBatchEvents => "match_batch_events",
        /// Exact confirmations attempted per batched `match_events` call
        /// (`bsub-match`) — how much work tier pruning let through.
        MatchBatchCandidates => "match_batch_candidates",
        /// `HELLO` frames' encoded size (the `NetFrame*Bytes` family).
        NetFrameHelloBytes => "net_frame_hello_bytes",
        /// `DISPATCH` frames' encoded size.
        NetFrameDispatchBytes => "net_frame_dispatch_bytes",
        /// `STATE_REQ` frames' encoded size.
        NetFrameStateReqBytes => "net_frame_state_req_bytes",
        /// `STATE_GRANT` frames' encoded size.
        NetFrameStateGrantBytes => "net_frame_state_grant_bytes",
        /// `STATE_RET` frames' encoded size.
        NetFrameStateRetBytes => "net_frame_state_ret_bytes",
        /// `RESULT` frames' encoded size.
        NetFrameExchangeResultBytes => "net_frame_exchange_result_bytes",
        /// `NODE_FREE` frames' encoded size.
        NetFrameNodeFreeBytes => "net_frame_node_free_bytes",
        /// `ADVANCE` frames' encoded size.
        NetFrameAdvanceBytes => "net_frame_advance_bytes",
        /// `PUBLISH_OK` frames' encoded size.
        NetFramePublishOkBytes => "net_frame_publish_ok_bytes",
        /// `DONE` frames' encoded size.
        NetFrameDoneBytes => "net_frame_done_bytes",
        /// `STATS` frames' encoded size.
        NetFrameStatsBytes => "net_frame_stats_bytes",
        /// `SUBSCRIBE` frames' encoded size.
        NetFrameSubscribeBytes => "net_frame_subscribe_bytes",
        /// `UNSUBSCRIBE` frames' encoded size.
        NetFrameUnsubscribeBytes => "net_frame_unsubscribe_bytes",
        /// `PUBLISH` frames' encoded size.
        NetFramePublishBytes => "net_frame_publish_bytes",
        /// `DELIVER` frames' encoded size.
        NetFrameDeliverBytes => "net_frame_deliver_bytes",
        /// Frames carried by each socket write of a connection's writer
        /// thread (`bsub-net`): how many queued frames one write coalesced.
        /// A count, not bytes, and timing-dependent like
        /// [`SizeHist::BrokerBatchOps`].
        NetFramesPerWrite => "net_frames_per_write",
        /// Operations (subscribes + unsubscribes + publishes) applied per
        /// broker service-loop batch (`bsub-net` broker).
        BrokerBatchOps => "broker_batch_ops",
    }
}

/// The per-thread metric store: the report being collected, plus each
/// gauge's current level (the report keeps only high-water marks).
#[derive(Debug, Default)]
struct Profiler {
    report: ProfReport,
    gauge_cur: [u64; Gauge::ALL.len()],
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
    PROFILER.with(|p| *p.borrow_mut() = Some(Profiler::default()));
    ACTIVE.with(|a| a.set(true));
}

/// Uninstalls the current thread's profiler and returns what it
/// collected. Returns an empty report if [`start`] was never called.
pub fn finish() -> ProfReport {
    ACTIVE.with(|a| a.set(false));
    PROFILER
        .with(|p| p.borrow_mut().take())
        .map(|prof| prof.report)
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
    with_profiler(|p| p.report.add_counter(c, n));
}

/// Raises a gauge by `n`, updating its high-water mark.
#[inline]
pub fn gauge_add(g: Gauge, n: u64) {
    with_profiler(|p| {
        let cur = &mut p.gauge_cur[g as usize];
        *cur = cur.saturating_add(n);
        p.report.raise_gauge(g, *cur);
    });
}

/// Lowers a gauge by `n` (saturating at zero).
#[inline]
pub fn gauge_sub(g: Gauge, n: u64) {
    with_profiler(|p| {
        let cur = &mut p.gauge_cur[g as usize];
        *cur = cur.saturating_sub(n);
    });
}

/// Sets a gauge to an absolute level, updating its high-water mark.
#[inline]
pub fn gauge_set(g: Gauge, level: u64) {
    with_profiler(|p| {
        p.gauge_cur[g as usize] = level;
        p.report.raise_gauge(g, level);
    });
}

/// Records a sample into a size histogram. Free when inactive.
#[inline]
pub fn observe(h: SizeHist, value: u64) {
    with_profiler(|p| p.report.record_size(h, value));
}

/// Records an externally measured duration into a timing histogram —
/// for latencies that cannot be bracketed by a [`span`] (e.g. a
/// request/response round trip observed across threads). Free when
/// inactive.
#[inline]
pub fn observe_ns(h: TimeHist, ns: u64) {
    with_profiler(|p| p.report.record_time(h, ns));
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
            observe_ns(self.hist, ns);
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
