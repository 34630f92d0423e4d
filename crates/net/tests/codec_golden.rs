//! Golden bytes for every cursor-codec format that crosses a process
//! boundary.
//!
//! The expected values are reference bytes of each layout, recorded
//! from an independent encoder implementation. Never edit them to
//! follow a code change: a mismatch means a wire or snapshot layout
//! moved. Short encodings are pinned byte for byte; long ones by
//! length plus a 64-bit FNV-1a digest.

mod support;

use bsub_core::snapshot::encode_match_index;
use bsub_net::broker::{DeliverBody, PublishBody, SubscribeBody};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, digest)` of one encoding.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

/// `(length, digest)` of every node's snapshot, concatenated in node
/// order.
fn pin_nodes(snaps: &[Vec<u8>]) -> (usize, u64) {
    pin(&snaps.concat())
}

#[test]
fn broker_bodies_are_pinned() {
    let subscribe = SubscribeBody {
        ttl_ms: 0x0102_0304_0506_0708,
        keys: vec!["news".into(), String::new(), "é".into()],
    };
    assert_eq!(
        subscribe.encode(),
        [
            8, 7, 6, 5, 4, 3, 2, 1, 3, 0, 0, 0, 4, 0, 0, 0, 110, 101, 119, 115, 0, 0, 0, 0, 2, 0,
            0, 0, 195, 169
        ]
    );
    let publish = PublishBody {
        seq: 7,
        sent_ns: 0xAABB_CCDD_EEFF_0011,
        key: "topic-3".into(),
    };
    assert_eq!(
        publish.encode(),
        [
            7, 0, 0, 0, 0, 0, 0, 0, 17, 0, 255, 238, 221, 204, 187, 170, 7, 0, 0, 0, 116, 111, 112,
            105, 99, 45, 51
        ]
    );
    let deliver = DeliverBody {
        seq: 7,
        sent_ns: 0xAABB_CCDD_EEFF_0011,
        publisher: 0x0A0B_0C0D,
        key: "topic-3".into(),
    };
    assert_eq!(
        deliver.encode(),
        [
            7, 0, 0, 0, 0, 0, 0, 0, 17, 0, 255, 238, 221, 204, 187, 170, 13, 12, 11, 10, 7, 0, 0,
            0, 116, 111, 112, 105, 99, 45, 51
        ]
    );
}

/// The taxonomy has 34 timing histograms: the six B-SUB contact-stage
/// spans follow `contact_ns`. It has 21 size histograms:
/// `net_frames_per_write` follows `net_frame_deliver_bytes`. These
/// bytes are the 28-timing, 20-size encoding (2015 bytes, digest
/// 12_188_529_752_364_692_876) with six empty 33-byte histograms
/// inserted before `net_exchange_ns`, one more before
/// `broker_batch_ops`, and the header's counts raised from 28 to 34
/// and from 20 to 21. (The 34-timing, 20-size encoding was 2213
/// bytes, digest 10_891_222_113_517_974_330.)
#[test]
fn prof_report_is_pinned() {
    assert_eq!(
        pin(&support::sample_report().encode()),
        (2246, 3_416_249_484_286_823_491)
    );
}

#[test]
fn match_index_snapshot_is_pinned() {
    assert_eq!(
        pin(&encode_match_index(&support::worked_index())),
        (921, 8_454_281_984_845_070_913)
    );
}

#[test]
fn node_snapshots_are_pinned() {
    assert_eq!(
        pin_nodes(&support::snapshots(&support::worked_bsub())),
        (91142, 12_715_232_530_964_133_638)
    );
    assert_eq!(
        pin_nodes(&support::snapshots(&support::worked_push())),
        (156, 15_951_787_416_360_157_685)
    );
    assert_eq!(
        pin_nodes(&support::snapshots(&support::worked_pull())),
        (1136, 10_817_870_839_549_612_963)
    );
}
