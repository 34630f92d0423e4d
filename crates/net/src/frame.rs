//! The cluster frame codec: every byte that crosses a socket.
//!
//! A frame is an 8-byte header followed by an opaque body (DESIGN.md
//! §12.4 is the normative layout; the tests here check field offsets
//! against that spec, not against this implementation):
//!
//! ```text
//! offset  size  field
//!      0     1  kind   — one of [`FrameKind`]'s discriminants
//!      1     1  flags  — reserved, must be 0
//!      2     4  len    — body length in bytes, u32 little-endian
//!      6     2  crc    — CRC-16/CCITT-FALSE, u16 little-endian
//!      8   len  body
//! ```
//!
//! The CRC covers header bytes 0–5 (kind, flags, len) plus the entire
//! body — the same CRC-16/CCITT-FALSE the TCBF wire codec uses
//! ([`bsub_bloom::wire::crc16`]), so one checksum discipline covers
//! both the filter payloads and the frames that carry them. A frame
//! that fails the CRC, carries an unknown kind, a nonzero flags byte,
//! or an oversized length is rejected with
//! [`std::io::ErrorKind::InvalidData`] and the connection is torn down
//! by the peer layer: streams never resynchronize mid-connection
//! (reset semantics, DESIGN.md §12.4).

use bsub_bloom::wire::crc16;
use bsub_obs::{SizeHist, TimeHist};
use std::io::{self, IoSlice, Read, Write};

/// Fixed size of the frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame body. Node-state snapshots dominate frame
/// sizes and stay far below this even for large traces; anything
/// bigger is treated as stream corruption rather than read to
/// exhaustion.
pub const MAX_BODY_LEN: u32 = 64 * 1024 * 1024;

/// Most body bytes [`Frame::read_from`] reserves ahead of their
/// arrival; larger bodies grow a chunk at a time as they are received.
const BODY_CHUNK: usize = 64 * 1024;

/// The message kinds of the cluster protocol (DESIGN.md §12.3).
///
/// Discriminants are the on-wire `kind` byte and are part of the wire
/// contract — they must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Handshake: body is the sender's peer id (u32 LE). First frame
    /// in each direction of every connection.
    Hello = 1,
    /// Coordinator → worker: execute one contact (body: contact
    /// index, u64 LE).
    Dispatch = 2,
    /// Executor → owner: request a node-state snapshot.
    StateReq = 3,
    /// Owner → executor: the requested snapshot.
    StateGrant = 4,
    /// Executor → owner: the post-exchange snapshot, returning
    /// ownership.
    StateRet = 5,
    /// Executor → coordinator: one contact's costs and deliveries.
    ExchangeResult = 6,
    /// Owner → coordinator: a returned node is consistent again and
    /// may appear in new dispatches.
    NodeFree = 7,
    /// Coordinator → workers: apply schedule publications (publish
    /// barrier).
    Advance = 8,
    /// Worker → coordinator: publications applied.
    PublishOk = 9,
    /// Coordinator → workers: the run is over, drain and exit.
    Done = 10,
    /// Observability plane (DESIGN.md §15). Worker → coordinator: a
    /// delta `ProfReport` (body: one stats op byte, then the
    /// `bsub_obs` wire codec). Coordinator → worker: a drain-time
    /// poll for the final delta (body: the request op byte alone).
    Stats = 11,
    /// Broker service plane (DESIGN.md §16). Client → broker: register
    /// interest in a key set with an optional real-clock deadline
    /// (body: `broker::SubscribeBody`).
    Subscribe = 12,
    /// Client → broker: withdraw every interest of the sending client
    /// (empty body).
    Unsubscribe = 13,
    /// Client → broker: match one keyed event against the live index
    /// (body: `broker::PublishBody`).
    Publish = 14,
    /// Broker → client: one matched publication, echoing the
    /// publisher's sequence number and send timestamp (body:
    /// `broker::DeliverBody`).
    Deliver = 15,
}

impl FrameKind {
    /// All kinds, in discriminant order.
    pub const ALL: [FrameKind; 15] = [
        FrameKind::Hello,
        FrameKind::Dispatch,
        FrameKind::StateReq,
        FrameKind::StateGrant,
        FrameKind::StateRet,
        FrameKind::ExchangeResult,
        FrameKind::NodeFree,
        FrameKind::Advance,
        FrameKind::PublishOk,
        FrameKind::Done,
        FrameKind::Stats,
        FrameKind::Subscribe,
        FrameKind::Unsubscribe,
        FrameKind::Publish,
        FrameKind::Deliver,
    ];

    /// Decodes the on-wire `kind` byte; `None` for unknown values.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Self> {
        Self::ALL.get(byte.wrapping_sub(1) as usize).copied()
    }

    /// The on-wire `kind` byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name, used in metric rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Hello => "hello",
            FrameKind::Dispatch => "dispatch",
            FrameKind::StateReq => "state_req",
            FrameKind::StateGrant => "state_grant",
            FrameKind::StateRet => "state_ret",
            FrameKind::ExchangeResult => "exchange_result",
            FrameKind::NodeFree => "node_free",
            FrameKind::Advance => "advance",
            FrameKind::PublishOk => "publish_ok",
            FrameKind::Done => "done",
            FrameKind::Stats => "stats",
            FrameKind::Subscribe => "subscribe",
            FrameKind::Unsubscribe => "unsubscribe",
            FrameKind::Publish => "publish",
            FrameKind::Deliver => "deliver",
        }
    }
}

/// The wall-clock write-latency histogram for frames of `kind`: its
/// place in the `NetFrame*Ns` family, which follows [`FrameKind`]'s
/// discriminant order.
#[must_use]
pub fn frame_time_hist(kind: FrameKind) -> TimeHist {
    TimeHist::ALL[TimeHist::NetFrameHelloNs as usize + family_offset(kind)]
}

/// The encoded-size histogram for frames of `kind`: its place in the
/// `NetFrame*Bytes` family. Recorded on the send side only, so a
/// cluster-wide merge counts each frame once.
#[must_use]
pub fn frame_size_hist(kind: FrameKind) -> SizeHist {
    SizeHist::ALL[SizeHist::NetFrameHelloBytes as usize + family_offset(kind)]
}

/// `kind`'s offset in a per-frame-kind metric family.
fn family_offset(kind: FrameKind) -> usize {
    usize::from(kind.byte() - FrameKind::Hello.byte())
}

/// One decoded frame: a kind and an opaque body. The body's meaning
/// is defined per kind by the `cluster` module's body codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The body bytes (may be empty).
    pub body: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    #[must_use]
    pub fn new(kind: FrameKind, body: Vec<u8>) -> Self {
        Self { kind, body }
    }

    /// Total encoded size (header + body) in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.body.len()
    }

    /// Encodes the frame's 8-byte header (the body follows verbatim).
    #[must_use]
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[0] = self.kind.byte();
        header[1] = 0; // flags: reserved
        header[2..6].copy_from_slice(&(self.body.len() as u32).to_le_bytes());
        let crc = crc16([&header[..6], &self.body]);
        header[6..8].copy_from_slice(&crc.to_le_bytes());
        header
    }

    /// Appends the frame's encoding (header, then body) to `out`: the
    /// bytes [`Frame::write_to`] puts on the wire. The caller keeps the
    /// body within [`MAX_BODY_LEN`]; the peer layer only coalesces
    /// frames far smaller than that.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.header());
        out.extend_from_slice(&self.body);
    }

    /// Writes the frame to `w` and flushes. Header and body go out in
    /// one vectored write where `w` supports it (sockets do), so the
    /// body is never copied and a frame costs one syscall.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects bodies over [`MAX_BODY_LEN`]
    /// with [`io::ErrorKind::InvalidInput`] before writing anything.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_after(&[], w)
    }

    /// Writes `prefix` (frames already encoded by
    /// [`Frame::encode_into`]), then this frame, in one vectored write
    /// that copies neither, and flushes. Errors as [`Frame::write_to`].
    pub(crate) fn write_after(&self, prefix: &[u8], w: &mut impl Write) -> io::Result<()> {
        if self.body.len() > MAX_BODY_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame body exceeds MAX_BODY_LEN",
            ));
        }
        let header = self.header();
        let mut parts = [
            IoSlice::new(prefix),
            IoSlice::new(&header),
            IoSlice::new(&self.body),
        ];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }

    /// Reads and validates one frame from `r`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for an unknown kind, nonzero
    /// flags, an oversized length, or a CRC mismatch; otherwise
    /// whatever the underlying reads return (an EOF mid-frame
    /// surfaces as [`io::ErrorKind::UnexpectedEof`]).
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let kind = FrameKind::from_byte(header[0])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown frame kind"))?;
        if header[1] != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reserved frame flags must be zero",
            ));
        }
        let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
        if len > MAX_BODY_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame body length exceeds MAX_BODY_LEN",
            ));
        }
        // Grow the body a bounded chunk at a time, so memory tracks the
        // bytes that actually arrive rather than the claimed length.
        let mut body = Vec::new();
        while body.len() < len as usize {
            let start = body.len();
            body.resize(start + (len as usize - start).min(BODY_CHUNK), 0);
            r.read_exact(&mut body[start..])?;
        }
        let expected = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        if crc16([&header[..6], &body]) != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame CRC mismatch",
            ));
        }
        Ok(Frame { kind, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no
    /// reflection, no final xor), implemented bit by bit from the
    /// DESIGN.md §12.4 spec so the test pins the algorithm rather
    /// than echoing the production table.
    fn spec_crc(bytes: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in bytes {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut out = Vec::new();
        frame.write_to(&mut out).unwrap();
        out
    }

    /// Field offsets as published in DESIGN.md §12.4: kind at 0,
    /// flags at 1, len LE at 2..6, CRC LE at 6..8, body at 8.
    #[test]
    fn header_layout_matches_spec_offsets() {
        let frame = Frame::new(FrameKind::Dispatch, vec![0xAA, 0xBB, 0xCC]);
        let bytes = encode(&frame);
        assert_eq!(bytes.len(), 8 + 3);
        assert_eq!(bytes[0], 2, "offset 0: kind byte (DISPATCH = 2)");
        assert_eq!(bytes[1], 0, "offset 1: flags, reserved as zero");
        assert_eq!(
            u32::from_le_bytes(bytes[2..6].try_into().unwrap()),
            3,
            "offsets 2..6: body length, u32 LE"
        );
        let mut covered = bytes[..6].to_vec();
        covered.extend_from_slice(&bytes[8..]);
        assert_eq!(
            u16::from_le_bytes(bytes[6..8].try_into().unwrap()),
            spec_crc(&covered),
            "offsets 6..8: CRC-16/CCITT-FALSE over header[0..6] + body, u16 LE"
        );
        assert_eq!(&bytes[8..], &[0xAA, 0xBB, 0xCC], "offset 8: body verbatim");
    }

    #[test]
    fn all_kinds_round_trip() {
        for kind in FrameKind::ALL {
            let frame = Frame::new(kind, vec![kind.byte(); kind.byte() as usize]);
            let bytes = encode(&frame);
            let back = Frame::read_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(back, frame);
            assert_eq!(frame.encoded_len(), bytes.len());
        }
    }

    #[test]
    fn empty_body_round_trips() {
        let frame = Frame::new(FrameKind::Done, Vec::new());
        let back = Frame::read_from(&mut encode(&frame).as_slice()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let good = encode(&Frame::new(FrameKind::StateGrant, b"snapshot".to_vec()));
        // Flip one body bit: CRC must catch it.
        let mut flipped = good.clone();
        flipped[10] ^= 0x01;
        let err = Frame::read_from(&mut flipped.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Unknown kind byte.
        let mut bad_kind = good.clone();
        bad_kind[0] = 0xEE;
        let err = Frame::read_from(&mut bad_kind.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Nonzero reserved flags.
        let mut bad_flags = good.clone();
        bad_flags[1] = 1;
        let err = Frame::read_from(&mut bad_flags.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Length pointing past MAX_BODY_LEN.
        let mut oversized = good.clone();
        oversized[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::read_from(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn partial_frame_is_unexpected_eof() {
        let bytes = encode(&Frame::new(FrameKind::StateRet, vec![7; 100]));
        // A connection dropped mid-body: header promises 100 bytes,
        // the stream delivers 10.
        let err = Frame::read_from(&mut &bytes[..HEADER_LEN + 10]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Dropped mid-header.
        let err = Frame::read_from(&mut &bytes[..4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A header claiming the largest legal body, followed by 16 bytes
    /// and EOF: the reader must report the short body, reserving only
    /// what arrives rather than the 64 MiB the header claims (the
    /// allocation bound is measured by `tests/decoders.rs`).
    #[test]
    fn truncated_max_length_body_is_unexpected_eof() {
        let mut bytes = encode(&Frame::new(FrameKind::StateGrant, vec![3; 16]));
        bytes[2..6].copy_from_slice(&MAX_BODY_LEN.to_le_bytes());
        let err = Frame::read_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that hands out 1–7 bytes per call, cycling through
    /// those sizes, so frame boundaries land at every offset of the
    /// buffered reader's refills.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = (1 + self.calls % 7).min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Every kind, an empty body, and a body larger than the socket
    /// reader's buffer, back to back.
    fn mixed_frames() -> Vec<Frame> {
        let capacity = crate::peer::frame_reader(io::empty()).capacity();
        let mut frames: Vec<Frame> = FrameKind::ALL
            .iter()
            .map(|&kind| Frame::new(kind, vec![kind.byte(); 3 * kind.byte() as usize]))
            .collect();
        frames.insert(3, Frame::new(FrameKind::Done, Vec::new()));
        let big = (0..capacity + 1000).map(|i| (i % 251) as u8).collect();
        frames.insert(7, Frame::new(FrameKind::StateGrant, big));
        frames
    }

    fn concat(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            frame.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn encode_into_matches_write_to() {
        for frame in mixed_frames() {
            let mut out = vec![0xEE];
            frame.encode_into(&mut out);
            assert_eq!(out[1..], encode(&frame));
        }
    }

    /// A coalesced stream, read through the socket reader in 1–7 byte
    /// pieces, decodes to exactly the frames written, then a clean EOF.
    #[test]
    fn coalesced_stream_decodes_through_the_buffered_reader() {
        let frames = mixed_frames();
        let bytes = concat(&frames);
        let mut reader = crate::peer::frame_reader(Trickle {
            bytes: &bytes,
            calls: 0,
        });
        for frame in &frames {
            assert_eq!(&Frame::read_from(&mut reader).unwrap(), frame);
        }
        let err = Frame::read_from(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A flipped CRC bit in frame `k` of a coalesced stream yields
    /// frames `0..k`, then `InvalidData`: the reader never skips ahead.
    #[test]
    fn crc_flip_mid_stream_stops_the_reader() {
        let frames = mixed_frames();
        let clean = concat(&frames);
        for k in 0..frames.len() {
            let offset: usize = frames[..k].iter().map(Frame::encoded_len).sum();
            let mut bytes = clean.clone();
            bytes[offset + 6] ^= 0x01;
            let mut reader = crate::peer::frame_reader(Trickle {
                bytes: &bytes,
                calls: 0,
            });
            for frame in &frames[..k] {
                assert_eq!(&Frame::read_from(&mut reader).unwrap(), frame);
            }
            let err = Frame::read_from(&mut reader).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "frame {k}");
        }
    }

    #[test]
    fn kind_bytes_are_stable() {
        // The discriminants are the wire contract (DESIGN.md §12.3).
        let expected: [(FrameKind, u8); 15] = [
            (FrameKind::Hello, 1),
            (FrameKind::Dispatch, 2),
            (FrameKind::StateReq, 3),
            (FrameKind::StateGrant, 4),
            (FrameKind::StateRet, 5),
            (FrameKind::ExchangeResult, 6),
            (FrameKind::NodeFree, 7),
            (FrameKind::Advance, 8),
            (FrameKind::PublishOk, 9),
            (FrameKind::Done, 10),
            (FrameKind::Stats, 11),
            (FrameKind::Subscribe, 12),
            (FrameKind::Unsubscribe, 13),
            (FrameKind::Publish, 14),
            (FrameKind::Deliver, 15),
        ];
        for (kind, byte) in expected {
            assert_eq!(kind.byte(), byte);
            assert_eq!(FrameKind::from_byte(byte), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0), None);
        assert_eq!(FrameKind::from_byte(16), None);
    }

    #[test]
    fn every_frame_kind_maps_to_its_own_histograms() {
        for kind in FrameKind::ALL {
            let name = kind.name();
            assert_eq!(frame_time_hist(kind).name(), format!("net_frame_{name}_ns"));
            assert_eq!(
                frame_size_hist(kind).name(),
                format!("net_frame_{name}_bytes")
            );
        }
    }
}
