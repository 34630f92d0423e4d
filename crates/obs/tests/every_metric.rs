//! One report with every metric set pins the taxonomy: each kind's
//! names in declaration order, and the exact bytes of the report's
//! JSON and wire encoding.
//!
//! Declaration order is the report's wire and JSON order, so a
//! renamed, dropped, added or reordered metric fails here: each
//! metric's value follows its name, not its place in the code. Never
//! edit the expected values to follow a code change: a mismatch means
//! the schema of every `metrics_*.json` and every `STATS` frame moved.
//! `every_metric.json` is the expected `to_json()` output, one line;
//! the wire encoding is pinned by length plus a 64-bit FNV-1a digest.

use bsub_obs::{self as obs, Counter, Gauge, ProfReport, SizeHist, TimeHist};

/// Every metric name in declaration order, one list per kind.
const COUNTERS: [&str; 45] = [
    "tcbf_insert",
    "tcbf_a_merge",
    "tcbf_m_merge",
    "tcbf_decay",
    "tcbf_query",
    "tcbf_preference",
    "wire_encode",
    "wire_decode_ok",
    "wire_decode_reject",
    "election_promote",
    "election_demote",
    "match_checked",
    "match_hit",
    "contacts",
    "fault_contact_lost",
    "fault_truncated",
    "fault_corruption_draw",
    "node_reset",
    "link_exhausted",
    "control_bytes",
    "data_bytes",
    "wire_bytes",
    "net_frames_sent",
    "net_frames_recv",
    "net_bytes_sent",
    "net_bytes_recv",
    "net_retries",
    "net_race_lost",
    "match_subscribe",
    "match_unsubscribe",
    "match_expire",
    "match_compact",
    "match_events",
    "match_tier_probes",
    "match_candidates",
    "match_matched",
    "net_poll_starved",
    "net_send_stalls",
    "net_stats_frames",
    "broker_subscribes",
    "broker_unsubscribes",
    "broker_publishes",
    "broker_deliveries",
    "broker_expired",
    "broker_batches",
];

/// See [`COUNTERS`].
const GAUGES: [&str; 2] = ["buffer_msgs_hwm", "buffer_bytes_hwm"];

/// See [`COUNTERS`].
const TIME_HISTS: [&str; 34] = [
    "tcbf_merge_ns",
    "tcbf_decay_ns",
    "tcbf_preference_ns",
    "wire_encode_ns",
    "wire_decode_ns",
    "contact_ns",
    "core_housekeeping_ns",
    "core_election_ns",
    "core_propagate_ns",
    "core_serve_ns",
    "core_replicate_ns",
    "core_exchange_ns",
    "net_exchange_ns",
    "match_batch_ns",
    "net_frame_hello_ns",
    "net_frame_dispatch_ns",
    "net_frame_state_req_ns",
    "net_frame_state_grant_ns",
    "net_frame_state_ret_ns",
    "net_frame_exchange_result_ns",
    "net_frame_node_free_ns",
    "net_frame_advance_ns",
    "net_frame_publish_ok_ns",
    "net_frame_done_ns",
    "net_frame_stats_ns",
    "net_frame_subscribe_ns",
    "net_frame_unsubscribe_ns",
    "net_frame_publish_ns",
    "net_frame_deliver_ns",
    "broker_batch_ns",
    "scale_derive_ns",
    "scale_merge_ns",
    "scale_query_ns",
    "scale_decay_ns",
];

/// See [`COUNTERS`].
const SIZE_HISTS: [&str; 21] = [
    "encoded_filter_bytes",
    "contact_bytes",
    "match_batch_events",
    "match_batch_candidates",
    "net_frame_hello_bytes",
    "net_frame_dispatch_bytes",
    "net_frame_state_req_bytes",
    "net_frame_state_grant_bytes",
    "net_frame_state_ret_bytes",
    "net_frame_exchange_result_bytes",
    "net_frame_node_free_bytes",
    "net_frame_advance_bytes",
    "net_frame_publish_ok_bytes",
    "net_frame_done_bytes",
    "net_frame_stats_bytes",
    "net_frame_subscribe_bytes",
    "net_frame_unsubscribe_bytes",
    "net_frame_publish_bytes",
    "net_frame_deliver_bytes",
    "net_frames_per_write",
    "broker_batch_ops",
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The value `name` holds in [`every_metric_report`]: `1009·k` for
/// the `k`-th name (from 1) of the lists above taken in turn, so no
/// two metrics share one and a metric keeps its own wherever the code
/// declares it.
fn value(name: &str) -> u64 {
    let k = COUNTERS
        .iter()
        .chain(&GAUGES)
        .chain(&TIME_HISTS)
        .chain(&SIZE_HISTS)
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("{name} is not a pinned metric name"));
    1_009 * (k as u64 + 1)
}

/// A report that sets every metric to its [`value`] `v`: a counter
/// counts `v`, a gauge peaks at `v`, and a histogram holds the samples
/// `v` and `64·v`.
fn every_metric_report() -> ProfReport {
    obs::start();
    for c in Counter::ALL {
        obs::count(c, value(c.name()));
    }
    for g in Gauge::ALL {
        obs::gauge_set(g, value(g.name()));
    }
    for h in TimeHist::ALL {
        let v = value(h.name());
        obs::observe_ns(h, v);
        obs::observe_ns(h, 64 * v);
    }
    for h in SizeHist::ALL {
        let v = value(h.name());
        obs::observe(h, v);
        obs::observe(h, 64 * v);
    }
    obs::finish()
}

#[test]
fn names_are_pinned_in_declaration_order() {
    assert_eq!(Counter::ALL.map(Counter::name), COUNTERS);
    assert_eq!(Gauge::ALL.map(Gauge::name), GAUGES);
    assert_eq!(TimeHist::ALL.map(TimeHist::name), TIME_HISTS);
    assert_eq!(SizeHist::ALL.map(SizeHist::name), SIZE_HISTS);
}

#[test]
fn every_metric_json_is_pinned() {
    let want = include_str!("every_metric.json").trim_end_matches('\n');
    assert_eq!(every_metric_report().to_json(), want);
}

#[test]
fn every_metric_encoding_is_pinned() {
    let bytes = every_metric_report().encode();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (3191, 0x4427_934f_44af_03eb));
    assert_eq!(ProfReport::decode(&bytes), Some(every_metric_report()));
}
