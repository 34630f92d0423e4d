//! The [`Message`] record shared by every protocol's node snapshot.
//!
//! [`Protocol::export_node`](crate::Protocol::export_node) /
//! [`Protocol::import_node`](crate::Protocol::import_node) ship a
//! node's complete state between *processes* as self-contained bytes,
//! written with the workspace byte codec ([`bsub_obs::codec`]; its
//! conventions are in DESIGN.md §12.7). Carried and published copies
//! travel as full message records, because the `Arc` payload cannot be
//! shared across a socket; this module is that one record format.

use crate::message::{Message, MessageId};
use bsub_obs::codec::{Reader, Writer};
use bsub_traces::{NodeId, SimDuration, SimTime};
use std::sync::Arc;

/// Smallest encoded [`Message`] record (empty key), for
/// [`Reader::count`] bounds.
pub const MESSAGE_MIN_LEN: usize = 8 + 4 + 4 + 8 + 8 + 4;

/// Writes a full [`Message`] record: id, key, size, created (ms), ttl
/// (ms), producer — enough to reconstruct an identical message in
/// another process.
pub fn write_message(w: &mut Writer, msg: &Message) {
    w.u64(msg.id.raw());
    w.str(&msg.key);
    w.u32(msg.size);
    w.u64(msg.created.as_millis());
    w.u64(msg.ttl.as_millis());
    w.u32(msg.producer.index() as u32);
}

/// Reads a record written by [`write_message`].
pub fn read_message(r: &mut Reader<'_>) -> Option<Message> {
    Some(Message {
        id: MessageId::new(r.u64()?),
        key: Arc::from(r.str()?),
        size: r.u32()?,
        created: SimTime::from_millis(r.u64()?),
        ttl: SimDuration::from_millis(r.u64()?),
        producer: NodeId::new(r.u32()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_round_trip() {
        let msg = Message {
            id: MessageId::new(99),
            key: Arc::from("news/sports"),
            size: 1400,
            created: SimTime::from_millis(777),
            ttl: SimDuration::from_mins(120),
            producer: NodeId::new(31),
        };
        let mut w = Writer::new();
        write_message(&mut w, &msg);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), MESSAGE_MIN_LEN + msg.key.len());
        let mut r = Reader::new(&bytes);
        let got = read_message(&mut r).unwrap();
        assert_eq!(r.finish(), Some(()));
        assert_eq!(got.id, msg.id);
        assert_eq!(got.key, msg.key);
        assert_eq!(got.size, msg.size);
        assert_eq!(got.created, msg.created);
        assert_eq!(got.ttl, msg.ttl);
        assert_eq!(got.producer, msg.producer);
        for cut in 0..bytes.len() {
            assert!(read_message(&mut Reader::new(&bytes[..cut])).is_none());
        }
    }
}
