//! Post-hoc span assembly: lifecycle events → per-message timelines →
//! stage-resolved latency breakdowns.
//!
//! Stage boundaries (all durations in nanoseconds, saturating):
//!
//! | stage       | from            | to              | meaning                               |
//! |-------------|-----------------|-----------------|---------------------------------------|
//! | `serialize` | `SendEnqueued`  | `StoreInserted` | compress, gate wait, copy into store  |
//! | `store`     | `StoreInserted` | `Routed`        | admission until routing (same thread) |
//! | `route`     | `Routed`        | `Fetched`       | delivery (includes any NIC hop)       |
//! | `nic`       | `NicTxStart`    | `NicTxEnd`      | NIC occupancy, summed over hops       |
//! | `wait`      | `Fetched`       | `Consumed`      | sat in the receive buffer unconsumed  |

use std::collections::HashMap;

use crate::event::{Event, EventKind};
use crate::hist::Histogram;

/// The reconstructed timeline of one message.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageSpan {
    /// The message id the events were keyed by.
    pub msg_id: u64,
    /// The message's events sorted by `(t_nanos, kind)`.
    pub events: Vec<Event>,
    /// `SendEnqueued → StoreInserted`.
    pub serialize_nanos: Option<u64>,
    /// `StoreInserted → Routed`.
    pub store_nanos: Option<u64>,
    /// `Routed → Fetched` (first fetch on broadcast).
    pub route_nanos: Option<u64>,
    /// Summed `NicTxStart → NicTxEnd` pairs (zero hops → `None`).
    pub nic_nanos: Option<u64>,
    /// `Fetched → Consumed`.
    pub wait_nanos: Option<u64>,
    /// First event to last event.
    pub total_nanos: u64,
}

impl MessageSpan {
    /// Timestamp of the first occurrence of `kind`, if recorded.
    pub fn first(&self, kind: EventKind) -> Option<u64> {
        self.events.iter().find(|e| e.kind == kind).map(|e| e.t_nanos)
    }

    /// True when every lifecycle stage up to consumption is present.
    pub fn is_complete(&self) -> bool {
        self.serialize_nanos.is_some()
            && self.store_nanos.is_some()
            && self.route_nanos.is_some()
            && self.wait_nanos.is_some()
    }
}

fn build_span(msg_id: u64, mut events: Vec<Event>) -> MessageSpan {
    // Kind is the tiebreak so a coarse (virtual) clock that stamps several
    // stages with the same nanosecond still yields lifecycle order.
    events.sort_by_key(|e| (e.t_nanos, e.kind));
    let at = |kind: EventKind| events.iter().find(|e| e.kind == kind).map(|e| e.t_nanos);
    let enqueued = at(EventKind::SendEnqueued);
    let inserted = at(EventKind::StoreInserted);
    let routed = at(EventKind::Routed);
    let fetched = at(EventKind::Fetched);
    let consumed = at(EventKind::Consumed);

    let diff = |a: Option<u64>, b: Option<u64>| match (a, b) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };

    // NIC occupancy: sum matching start/end pairs in order (a message that
    // crosses several links emits one pair per hop).
    let mut nic_total = 0u64;
    let mut nic_pairs = 0u32;
    let mut open_start: Option<u64> = None;
    for e in &events {
        match e.kind {
            EventKind::NicTxStart => open_start = Some(e.t_nanos),
            EventKind::NicTxEnd => {
                if let Some(s) = open_start.take() {
                    nic_total += e.t_nanos.saturating_sub(s);
                    nic_pairs += 1;
                }
            }
            _ => {}
        }
    }

    let total_nanos = match (events.first(), events.last()) {
        (Some(f), Some(l)) => l.t_nanos.saturating_sub(f.t_nanos),
        _ => 0,
    };

    MessageSpan {
        msg_id,
        serialize_nanos: diff(enqueued, inserted),
        store_nanos: diff(inserted, routed),
        route_nanos: diff(routed, fetched),
        nic_nanos: if nic_pairs > 0 { Some(nic_total) } else { None },
        wait_nanos: diff(fetched, consumed),
        total_nanos,
        events,
    }
}

/// Groups raw ring events by message id and assembles one [`MessageSpan`]
/// per message, ordered by the message's first timestamp.
pub fn assemble(events: &[Event]) -> Vec<MessageSpan> {
    let mut by_msg: HashMap<u64, Vec<Event>> = HashMap::new();
    for &e in events {
        by_msg.entry(e.msg_id).or_default().push(e);
    }
    let mut spans: Vec<MessageSpan> =
        by_msg.into_iter().map(|(id, evs)| build_span(id, evs)).collect();
    spans.sort_by_key(|s| (s.events.first().map_or(0, |e| e.t_nanos), s.msg_id));
    spans
}

/// Aggregated per-stage latency distributions over a set of spans.
#[derive(Debug, Default)]
pub struct StageBreakdown {
    pub serialize: Histogram,
    pub store: Histogram,
    pub route: Histogram,
    pub nic: Histogram,
    pub wait: Histogram,
    pub total: Histogram,
}

impl StageBreakdown {
    /// Builds the breakdown from assembled spans.
    pub fn from_spans(spans: &[MessageSpan]) -> Self {
        let out = StageBreakdown::default();
        for s in spans {
            if let Some(v) = s.serialize_nanos {
                out.serialize.record(v);
            }
            if let Some(v) = s.store_nanos {
                out.store.record(v);
            }
            if let Some(v) = s.route_nanos {
                out.route.record(v);
            }
            if let Some(v) = s.nic_nanos {
                out.nic.record(v);
            }
            if let Some(v) = s.wait_nanos {
                out.wait.record(v);
            }
            if s.total_nanos > 0 || s.is_complete() {
                out.total.record(s.total_nanos);
            }
        }
        out
    }

    /// `(stage name, histogram)` pairs in lifecycle order.
    pub fn stages(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("serialize", &self.serialize),
            ("store", &self.store),
            ("route", &self.route),
            ("nic", &self.nic),
            ("wait", &self.wait),
            ("total", &self.total),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(msg_id: u64, kind: EventKind, t: u64) -> Event {
        Event { msg_id, kind, t_nanos: t, aux: 0 }
    }

    #[test]
    fn full_lifecycle_resolves_every_stage() {
        let events = vec![
            ev(7, EventKind::SendEnqueued, 100),
            ev(7, EventKind::StoreInserted, 130),
            ev(7, EventKind::Routed, 150),
            ev(7, EventKind::NicTxStart, 160),
            ev(7, EventKind::NicTxEnd, 190),
            ev(7, EventKind::Fetched, 200),
            ev(7, EventKind::Consumed, 260),
        ];
        let spans = assemble(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.msg_id, 7);
        assert_eq!(s.serialize_nanos, Some(30));
        assert_eq!(s.store_nanos, Some(20));
        assert_eq!(s.route_nanos, Some(50));
        assert_eq!(s.nic_nanos, Some(30));
        assert_eq!(s.wait_nanos, Some(60));
        assert_eq!(s.total_nanos, 160);
        assert!(s.is_complete());
    }

    #[test]
    fn shuffled_input_is_reordered() {
        let mut events = vec![
            ev(1, EventKind::Consumed, 500),
            ev(1, EventKind::SendEnqueued, 100),
            ev(1, EventKind::Fetched, 400),
            ev(1, EventKind::StoreInserted, 200),
            ev(1, EventKind::Routed, 300),
        ];
        events.reverse();
        let spans = assemble(&events);
        let kinds: Vec<EventKind> = spans[0].events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SendEnqueued,
                EventKind::StoreInserted,
                EventKind::Routed,
                EventKind::Fetched,
                EventKind::Consumed,
            ]
        );
    }

    #[test]
    fn equal_timestamps_fall_back_to_lifecycle_order() {
        // A coarse virtual clock can stamp all stages identically.
        let events = vec![
            ev(3, EventKind::Consumed, 42),
            ev(3, EventKind::SendEnqueued, 42),
            ev(3, EventKind::Routed, 42),
            ev(3, EventKind::StoreInserted, 42),
            ev(3, EventKind::Fetched, 42),
        ];
        let spans = assemble(&events);
        let kinds: Vec<EventKind> = spans[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.windows(2).all(|w| w[0] < w[1]), "lifecycle tiebreak: {kinds:?}");
        assert_eq!(spans[0].serialize_nanos, Some(0));
        assert_eq!(spans[0].total_nanos, 0);
    }

    #[test]
    fn incomplete_lifecycles_yield_partial_spans() {
        let events = vec![
            ev(9, EventKind::SendEnqueued, 10),
            ev(9, EventKind::StoreInserted, 25),
        ];
        let spans = assemble(&events);
        let s = &spans[0];
        assert_eq!(s.serialize_nanos, Some(15));
        assert_eq!(s.store_nanos, None);
        assert!(!s.is_complete());
    }

    #[test]
    fn multiple_messages_are_separated_and_ordered() {
        let events = vec![
            ev(2, EventKind::SendEnqueued, 200),
            ev(1, EventKind::SendEnqueued, 100),
            ev(2, EventKind::Consumed, 210),
            ev(1, EventKind::Consumed, 190),
        ];
        let spans = assemble(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].msg_id, 1, "ordered by first timestamp");
        assert_eq!(spans[1].msg_id, 2);
    }

    #[test]
    fn multi_hop_nic_time_sums() {
        let events = vec![
            ev(4, EventKind::NicTxStart, 100),
            ev(4, EventKind::NicTxEnd, 150),
            ev(4, EventKind::NicTxStart, 200),
            ev(4, EventKind::NicTxEnd, 230),
        ];
        let spans = assemble(&events);
        assert_eq!(spans[0].nic_nanos, Some(80));
    }

    #[test]
    fn breakdown_aggregates_across_spans() {
        let events = vec![
            ev(1, EventKind::Fetched, 100),
            ev(1, EventKind::Consumed, 200),
            ev(2, EventKind::Fetched, 300),
            ev(2, EventKind::Consumed, 700),
        ];
        let spans = assemble(&events);
        let breakdown = StageBreakdown::from_spans(&spans);
        assert_eq!(breakdown.wait.count(), 2);
        assert_eq!(breakdown.wait.mean(), 250);
        assert_eq!(breakdown.serialize.count(), 0);
    }
}
