//! Seeded mutation harness over every public decoder.
//!
//! Valid encodings of every cursor format, the TCBF wire format, and
//! frames are mutated with a fixed-seed SplitMix64 stream — bit flips,
//! truncation, trailing bytes, and random offsets overwritten with
//! large count/length values — and fed to their decoder. For every
//! input the harness demands:
//!
//! 1. no panic;
//! 2. neither a single allocation nor the peak of live heap bytes
//!    during the decode larger than 1 MiB + 64 × the input length (a
//!    counting global allocator watches the decoding thread), so no
//!    untrusted count reaches `with_capacity` unbounded, and no
//!    untrusted count grows a collection one bounded push at a time
//!    past what the input could describe;
//! 3. an accepted input reaches a fixed point: decode → encode →
//!    decode gives an equal value, and the broker bodies, profiler
//!    reports, and frames re-encode to the input bytes exactly.
//!
//! For the CRC-protected formats half the mutants get their checksum
//! repaired, so mutations reach the parser behind the CRC. The seeds
//! and iteration counts are fixed: a failure names its target, seed
//! encoding, and round, and reproduces exactly. This binary holds one
//! `#[test]` so the allocator sees only the harness's allocations.

mod support;

use bsub_bloom::wire::{self, crc16, CounterMode, WirePayload};
use bsub_bloom::{SplitMix64, Tcbf};
use bsub_core::snapshot::{decode_match_index, encode_match_index};
use bsub_net::broker::{DeliverBody, PublishBody, SubscribeBody};
use bsub_net::{Frame, FrameKind, HEADER_LEN};
use bsub_obs::ProfReport;
use bsub_sim::Protocol;
use bsub_traces::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// Mutants fed to each decoder, spread over its seed encodings.
const MUTANTS_PER_TARGET: usize = 100_000;

// ---- allocation watch --------------------------------------------------

struct Counting;

/// Largest single allocation of the watched decode.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Live heap bytes the watched decode added so far: allocations minus
/// frees. Frees of memory allocated before the decode (a replaced
/// node state, say) can take it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest value `LIVE` reached during the watched decode.
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static WATCHING: Cell<bool> = const { Cell::new(false) };
}

/// Accounts one heap event of `size` bytes that changes the live
/// total by `delta`.
fn note(size: usize, delta: isize) {
    if WATCHING.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; `note` only
// reads a const-initialized thread-local and updates atomics, so it
// never allocates or touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `decode` on `input` and asserts that both its largest single
/// allocation and its peak of live heap bytes stay within
/// 1 MiB + 64 × `input.len()`.
fn watched<T>(input: &[u8], decode: impl FnOnce() -> T) -> T {
    LARGEST.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    WATCHING.set(true);
    let out = decode();
    WATCHING.set(false);
    let largest = LARGEST.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    let bound = (1 << 20) + 64 * input.len();
    assert!(
        largest <= bound,
        "a {largest}-byte allocation while decoding {} bytes (bound {bound})",
        input.len()
    );
    assert!(
        peak <= bound as isize,
        "{peak} live heap bytes at peak while decoding {} bytes (bound {bound})",
        input.len()
    );
    out
}

// ---- mutation ---------------------------------------------------------

/// Large values written over random offsets, as u32 or u64 LE: they
/// land on count and length fields often enough in short encodings.
fn large(rng: &mut SplitMix64) -> u64 {
    match rng.below(6) {
        0 => u64::MAX,
        1 => u64::from(u32::MAX),
        2 => 1 << 31,
        3 => 1 << 16,
        4 => 1 << 62,
        _ => rng.next_u64(),
    }
}

/// One to three mutations of `seed`.
fn mutate(seed: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..=rng.below(3) {
        match rng.below(4) {
            0 if !out.is_empty() => {
                for _ in 0..=rng.below(4) {
                    let i = rng.below_usize(out.len());
                    out[i] ^= 1 << rng.below(8);
                }
            }
            1 => out.truncate(rng.below_usize(out.len() + 1)),
            2 => out.extend((0..=rng.below(8)).map(|_| rng.next_u64() as u8)),
            _ => {
                let width = if rng.next_bool() { 4 } else { 8 };
                if out.len() >= width {
                    let at = rng.below_usize(out.len() - width + 1);
                    out[at..at + width].copy_from_slice(&large(rng).to_le_bytes()[..width]);
                }
            }
        }
    }
    out
}

/// Recomputes a TCBF wire payload's CRC over whatever bytes follow.
fn repair_wire(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let crc = crc16([&bytes[..6], &bytes[8..]]);
        bytes[6..8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recomputes a frame's CRC over its header and the body bytes present.
fn repair_frame(bytes: &mut [u8]) {
    if bytes.len() >= HEADER_LEN {
        let claimed = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
        let end = HEADER_LEN.saturating_add(claimed).min(bytes.len());
        let crc = crc16([&bytes[..6], &bytes[HEADER_LEN..end]]);
        bytes[6..8].copy_from_slice(&crc.to_le_bytes());
    }
}

// ---- decoders under test ----------------------------------------------

/// Decodes one input (watched) and checks the fixed point of an
/// accepted value; returns whether the input was accepted.
type Check = Box<dyn FnMut(&[u8]) -> bool>;

/// One decoder: valid seed encodings, an optional checksum repair, and
/// its [`Check`].
struct Target {
    name: &'static str,
    seeds: Vec<Vec<u8>>,
    repair: Option<fn(&mut [u8])>,
    check: Check,
}

impl Target {
    fn new(
        name: &'static str,
        seeds: Vec<Vec<u8>>,
        check: impl FnMut(&[u8]) -> bool + 'static,
    ) -> Self {
        Self {
            name,
            seeds,
            repair: None,
            check: Box::new(check),
        }
    }
}

/// A decoder whose accepted inputs must re-encode to the input bytes.
fn exact<T: 'static>(
    name: &'static str,
    seeds: Vec<Vec<u8>>,
    decode: fn(&[u8]) -> Option<T>,
    encode: fn(&T) -> Vec<u8>,
) -> Target {
    Target::new(name, seeds, move |input| {
        let Some(value) = watched(input, || decode(input)) else {
            return false;
        };
        assert_eq!(encode(&value), input, "{name} must re-encode exactly");
        true
    })
}

/// Re-encodes a decoded wire payload in the mode its tag names.
fn reencode_wire(tag: u8, payload: &WirePayload) -> Vec<u8> {
    let encoded = match payload {
        WirePayload::Tcbf(t) => {
            let mode = match tag {
                0 => CounterMode::Full,
                1 => CounterMode::Shared,
                _ => CounterMode::Wide,
            };
            wire::encode(t, mode)
        }
        WirePayload::Bloom(b) => {
            let counters = (0..b.bit_len()).map(|i| u32::from(b.bits().get(i)));
            let t = Tcbf::from_parts(counters.collect(), b.hash_count(), 1, b.hasher(), true);
            wire::encode(&t, CounterMode::Ripped)
        }
    };
    encoded.expect("an accepted payload re-encodes")
}

fn wire_target() -> Target {
    let mut merged = Tcbf::from_keys(300, 3, 40, ["a", "b", "c"]);
    merged
        .a_merge(&Tcbf::from_keys(300, 3, 300, ["b", "d"]))
        .unwrap();
    let plain = Tcbf::from_keys(1024, 4, 9, (0..40).map(|i| format!("key-{i}")));
    let seeds = vec![
        wire::encode(&merged, CounterMode::Full).unwrap(),
        wire::encode(&plain, CounterMode::Shared).unwrap(),
        wire::encode(&plain, CounterMode::Ripped).unwrap(),
        wire::encode(&merged, CounterMode::Wide).unwrap(),
    ];
    let mut target = Target::new("wire::decode", seeds, |input| {
        let Ok(payload) = watched(input, || wire::decode(input)) else {
            return false;
        };
        let again = reencode_wire(input[0], &payload);
        assert_eq!(wire::decode(&again).ok(), Some(payload), "wire fixed point");
        true
    });
    target.repair = Some(repair_wire);
    target
}

fn frame_target() -> Target {
    let frames = [
        Frame::new(FrameKind::Hello, vec![1, 0, 0, 0]),
        Frame::new(FrameKind::Done, Vec::new()),
        Frame::new(
            FrameKind::Publish,
            PublishBody {
                seq: 3,
                sent_ns: 99,
                key: "topic-1".into(),
            }
            .encode(),
        ),
        Frame::new(FrameKind::StateGrant, vec![0xA5; 300]),
    ];
    let seeds = frames
        .iter()
        .map(|f| {
            let mut bytes = Vec::new();
            f.write_to(&mut bytes).unwrap();
            bytes
        })
        .collect();
    let mut target = Target::new("Frame::read_from", seeds, |input| {
        let mut stream = input;
        let Ok(frame) = watched(input, || Frame::read_from(&mut stream)) else {
            return false;
        };
        let consumed = input.len() - stream.len();
        let mut again = Vec::new();
        frame.write_to(&mut again).unwrap();
        assert_eq!(again, input[..consumed], "frame must re-encode exactly");
        true
    });
    target.repair = Some(repair_frame);
    target
}

fn match_index_target() -> Target {
    let mut small = bsub_match::MatchIndex::new(bsub_match::MatchParams {
        member_bits: 64,
        member_hashes: 2,
        initial: 3,
    });
    small.subscribe_until(1, &["x"], 9);
    small.subscribe(2, &["y", "z"]);
    // The widest geometry the format carries: a posting table dense in
    // `member_bits` would allocate 1.5 MiB for this one subscriber.
    let mut wide = bsub_match::MatchIndex::new(bsub_match::MatchParams {
        member_bits: usize::from(u16::MAX),
        ..bsub_match::MatchParams::default()
    });
    wide.subscribe(1, &["x", "y"]);
    let seeds = vec![
        encode_match_index(&support::worked_index()),
        encode_match_index(&small),
        encode_match_index(&wide),
    ];
    Target::new("decode_match_index", seeds, |input| {
        let Some(index) = watched(input, || decode_match_index(input)) else {
            return false;
        };
        let once = encode_match_index(&index);
        let twice = decode_match_index(&once).expect("a re-encoded index decodes");
        assert_eq!(encode_match_index(&twice), once, "index fixed point");
        true
    })
}

/// `import_node` into node 0 of `sink`; an accepted snapshot must
/// survive export → import → export unchanged.
fn import_target<P: Protocol + 'static>(name: &'static str, source: &P, mut sink: P) -> Target {
    let node = NodeId::new(0);
    Target::new(name, support::snapshots(source), move |input| {
        if !watched(input, || sink.import_node(node, input)) {
            return false;
        }
        let once = sink.export_node(node).expect("exports");
        assert!(sink.import_node(node, &once), "{name}: re-import");
        assert_eq!(sink.export_node(node).unwrap(), once, "{name} fixed point");
        true
    })
}

fn targets() -> Vec<Target> {
    let report = support::sample_report();
    vec![
        wire_target(),
        exact(
            "ProfReport::decode",
            vec![report.encode(), ProfReport::default().encode()],
            ProfReport::decode,
            ProfReport::encode,
        ),
        exact(
            "SubscribeBody::decode",
            vec![
                SubscribeBody {
                    ttl_ms: 1500,
                    keys: vec!["news".into(), String::new(), "sports/é".into()],
                }
                .encode(),
                SubscribeBody {
                    ttl_ms: 0,
                    keys: Vec::new(),
                }
                .encode(),
            ],
            SubscribeBody::decode,
            SubscribeBody::encode,
        ),
        exact(
            "PublishBody::decode",
            vec![PublishBody {
                seq: 7,
                sent_ns: 1 << 50,
                key: "topic-3".into(),
            }
            .encode()],
            PublishBody::decode,
            PublishBody::encode,
        ),
        exact(
            "DeliverBody::decode",
            vec![DeliverBody {
                seq: 7,
                sent_ns: 1 << 50,
                publisher: 4,
                key: "topic-3".into(),
            }
            .encode()],
            DeliverBody::decode,
            DeliverBody::encode,
        ),
        frame_target(),
        match_index_target(),
        import_target(
            "B-SUB import_node",
            &support::worked_bsub(),
            support::worked_bsub(),
        ),
        import_target(
            "PUSH import_node",
            &support::worked_push(),
            support::worked_push(),
        ),
        import_target(
            "PULL import_node",
            &support::worked_pull(),
            support::worked_pull(),
        ),
    ]
}

#[test]
fn every_decoder_survives_seeded_mutations() {
    for (t, mut target) in targets().into_iter().enumerate() {
        let name = target.name;
        let mut rng = SplitMix64::new(0xC0DE_C000 + t as u64);
        let rounds = MUTANTS_PER_TARGET / target.seeds.len();
        let (mut accepted, mut total) = (0, 0);
        for (s, seed) in target.seeds.iter().enumerate() {
            assert!((target.check)(seed), "{name}: seed {s} must decode");
            for round in 0..rounds {
                let mut input = mutate(seed, &mut rng);
                if let Some(repair) = target.repair.filter(|_| rng.next_bool()) {
                    repair(&mut input);
                }
                let check = &mut target.check;
                let ok = catch_unwind(AssertUnwindSafe(|| check(&input)))
                    .unwrap_or_else(|_| panic!("{name}: failed on seed {s}, round {round}"));
                accepted += usize::from(ok && input != *seed);
                total += 1;
            }
        }
        // Not an assertion: mutants that still decode are the ones that
        // exercise the fixed-point check, so report how many there were.
        eprintln!("{name}: {accepted}/{total} mutants accepted");
    }
}
