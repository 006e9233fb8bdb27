//! The lifecycle-event taxonomy.
//!
//! Every message the communication layer moves passes through a fixed set of
//! stages; each stage boundary is marked by one event keyed by the message's
//! unique id. A post-hoc assembler ([`crate::span`]) joins the events back
//! into per-message timelines, which is how the paper's Figs. 8–10 stage
//! decomposition (serialize / store / route / NIC / wait) is produced.

use std::fmt;

/// One lifecycle stage boundary of a message.
///
/// Discriminants are stable (they appear in exported CSV) and ordered by the
/// position of the stage in a message's life, so sorting events by
/// `(timestamp, kind)` yields the canonical lifecycle order even when two
/// stages share a timestamp under a coarse virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// The producer called `send`. The span from here to `StoreInserted`
    /// (serialize) is compression, any wait at the store's gate and the
    /// store copy, all on the producer's thread.
    SendEnqueued = 1,
    /// Message body landed in the broker's object store (serialization and
    /// the single copy into shared memory are done).
    StoreInserted = 2,
    /// Router matched the header against the routing table and queued the
    /// object id toward its destination(s).
    Routed = 3,
    /// A cross-machine hop started occupying the NIC.
    NicTxStart = 4,
    /// The cross-machine hop released the NIC.
    NicTxEnd = 5,
    /// Destination endpoint fetched the body out of the object store.
    Fetched = 6,
    /// Consumer actually popped the message from its receive buffer.
    Consumed = 7,
    /// The failure detector declared a process dead (`aux` = packed
    /// process identity chosen by the detector; these liveness events are
    /// keyed by an incident id, not a message id).
    ProcessDown = 8,
    /// A previously-dead (or newly supervised) process was observed alive
    /// again — recovery completed or liveness restored.
    ProcessUp = 9,
}

impl EventKind {
    /// All kinds in lifecycle order (liveness transitions sort after the
    /// message lifecycle; they never join message spans).
    pub const ALL: [EventKind; 9] = [
        EventKind::SendEnqueued,
        EventKind::StoreInserted,
        EventKind::Routed,
        EventKind::NicTxStart,
        EventKind::NicTxEnd,
        EventKind::Fetched,
        EventKind::Consumed,
        EventKind::ProcessDown,
        EventKind::ProcessUp,
    ];

    /// Decodes a discriminant; `None` for anything out of range.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EventKind::ALL.get(v.wrapping_sub(1) as usize).copied()
    }

    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SendEnqueued => "send_enqueued",
            EventKind::StoreInserted => "store_inserted",
            EventKind::Routed => "routed",
            EventKind::NicTxStart => "nic_tx_start",
            EventKind::NicTxEnd => "nic_tx_end",
            EventKind::Fetched => "fetched",
            EventKind::Consumed => "consumed",
            EventKind::ProcessDown => "process_down",
            EventKind::ProcessUp => "process_up",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded lifecycle event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The message this event belongs to (`Header::id`).
    pub msg_id: u64,
    /// Which stage boundary it marks.
    pub kind: EventKind,
    /// Timestamp in nanoseconds from the telemetry time source (monotonic
    /// real time by default, virtual-clock time under netsim).
    pub t_nanos: u64,
    /// Stage-specific payload: byte length for enqueue/insert/NIC events,
    /// destination count for `Routed`, zero elsewhere.
    pub aux: u64,
}

/// How many bits of `aux` survive the packed ring encoding.
pub const AUX_BITS: u32 = 56;

impl Event {
    /// Packs `kind` and `aux` into one word for a ring slot. `aux` is
    /// truncated to its low [`AUX_BITS`] bits (payload lengths and fan-out
    /// counts fit comfortably).
    pub(crate) fn pack_kind_aux(kind: EventKind, aux: u64) -> u64 {
        ((kind as u64) << AUX_BITS) | (aux & ((1 << AUX_BITS) - 1))
    }

    /// Reverses [`Event::pack_kind_aux`]; `None` if the kind byte is invalid
    /// (torn slot).
    pub(crate) fn unpack_kind_aux(word: u64) -> Option<(EventKind, u64)> {
        let kind = EventKind::from_u8((word >> AUX_BITS) as u8)?;
        Some((kind, word & ((1 << AUX_BITS) - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_u8() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(10), None);
    }

    #[test]
    fn kind_aux_packing_round_trips() {
        let aux = (1u64 << AUX_BITS) - 7;
        for kind in EventKind::ALL {
            let word = Event::pack_kind_aux(kind, aux);
            assert_eq!(Event::unpack_kind_aux(word), Some((kind, aux)));
        }
    }

    #[test]
    fn lifecycle_order_matches_discriminants() {
        let mut sorted = EventKind::ALL;
        sorted.sort();
        assert_eq!(sorted, EventKind::ALL);
    }
}
