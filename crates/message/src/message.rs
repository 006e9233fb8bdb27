//! The [`Message`] type: a [`Header`] plus an opaque byte [`Body`].

use crate::header::Header;
use bytes::Bytes;

/// Message bodies are reference-counted byte buffers; cloning a body is O(1)
/// and never copies the payload, which is what makes the shared-memory object
/// store zero-copy in this reproduction.
pub type Body = Bytes;

/// Bodies larger than this many bytes are LZ4-compressed by default (§4.1 of
/// the paper: "XingTian compresses message bodies larger than 1 MB by default").
pub const COMPRESSION_THRESHOLD: usize = 1024 * 1024;

/// A complete message: routing metadata plus payload.
#[derive(Debug, Clone)]
pub struct Message {
    /// Routing metadata.
    pub header: Header,
    /// Payload bytes (possibly compressed; see [`Header::compression`]).
    pub body: Body,
}

impl Message {
    /// Bundles a header with its body, recording the body length in the header.
    pub fn new(mut header: Header, body: Body) -> Self {
        header.len = body.len();
        Message { header, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{MessageKind, ProcessId};

    #[test]
    fn new_records_body_length() {
        let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        let m = Message::new(h, Bytes::from(vec![1u8; 300]));
        assert_eq!(m.header.len, 300);
    }

    #[test]
    fn clone_is_zero_copy() {
        let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        let m = Message::new(h, Bytes::from(vec![1u8; 300]));
        let c = m.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(m.body.as_ptr(), c.body.as_ptr());
    }
}
