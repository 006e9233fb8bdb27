//! `xt-telemetry`: unified message-lifecycle tracing and metrics.
//!
//! The paper's evaluation (Figs. 8–10) decomposes end-to-end message latency
//! into serialize / store / route / NIC / wait stages and reports learner
//! wait-time CDFs. This crate provides the machinery to measure all of that
//! from one place:
//!
//! * [`ring::EventRing`] — a lock-free, fixed-capacity, drop-oldest ring of
//!   typed lifecycle [`event::Event`]s (one `fetch_add` + four atomic stores
//!   per event, no allocation);
//! * [`hist::Histogram`] — 64-bucket log-scale histograms with wait-free
//!   `record` and exact means;
//! * [`metrics::Registry`] — named counters / gauges / histograms, locking
//!   only at name-lookup time;
//! * [`span`] — post-hoc assembly of ring events into per-message spans and
//!   stage breakdowns;
//! * [`export`] — CSV/JSON renderers the bench binaries write to disk.
//!
//! # Zero cost when disabled
//!
//! The [`Telemetry`] handle threads through Broker, Endpoint, Explorer,
//! Learner and netsim links. Disabled (the default), it is a `None` — every
//! `emit` is an inlined `Option` check on dead data, nothing allocates, and
//! the handle clones for free. Handle types ([`CounterHandle`],
//! [`HistogramHandle`], [`GaugeHandle`]) follow the same pattern so cached
//! metric references are also free when disabled.

pub mod event;
pub mod export;
pub mod hist;
pub mod link;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod timeline;

pub use event::{Event, EventKind};
pub use hist::{Histogram, Summary};
pub use link::LinkStats;
pub use metrics::{Counter, Gauge, Registry};
pub use ring::EventRing;
pub use span::{assemble, MessageSpan, StageBreakdown};
pub use timeline::ThroughputTimeline;

use std::sync::Arc;
use std::time::Instant;

/// Provides the timestamps events are stamped with.
pub trait TimeSource: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin; must be monotone.
    fn now_nanos(&self) -> u64;
}

/// Default time source: monotonic real time since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock { start: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl TimeSource for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Default event-ring capacity: 2^16 events ≈ 4 MiB resident.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

struct Inner {
    ring: EventRing,
    registry: Registry,
    clock: Box<dyn TimeSource>,
}

/// The cloneable telemetry handle threaded through the system.
///
/// `Telemetry::default()` / [`Telemetry::disabled`] produce a no-op handle:
/// no ring, no registry, every operation an inlined `None` check.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A no-op handle; all recording compiles down to a branch on `None`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An active handle with the default ring capacity and monotonic real
    /// time.
    pub fn enabled() -> Self {
        Telemetry::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An active handle with a specific ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Telemetry::with_time_source(ring_capacity, Box::new(MonotonicClock::new()))
    }

    /// An active handle stamping events from a caller-supplied clock (e.g.
    /// netsim's virtual clock, for deterministic simulated-time traces).
    pub fn with_time_source(ring_capacity: usize, clock: Box<dyn TimeSource>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                ring: EventRing::new(ring_capacity),
                registry: Registry::new(),
                clock,
            })),
        }
    }

    /// Records a lifecycle event stamped with the handle's time source.
    /// Wait-free when enabled; a dead branch when disabled.
    #[inline]
    pub fn emit(&self, kind: EventKind, msg_id: u64, aux: u64) {
        if let Some(inner) = &self.inner {
            let t_nanos = inner.clock.now_nanos();
            inner.ring.push(Event { msg_id, kind, t_nanos, aux });
        }
    }

    /// Records a lifecycle event with an explicit timestamp (virtual-clock
    /// call sites that already know the simulated time).
    #[inline]
    pub fn emit_at(&self, kind: EventKind, msg_id: u64, aux: u64, t_nanos: u64) {
        if let Some(inner) = &self.inner {
            inner.ring.push(Event { msg_id, kind, t_nanos, aux });
        }
    }

    /// The handle's current timestamp, if enabled.
    pub fn now_nanos(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.clock.now_nanos())
    }

    /// A cached handle to the named counter (no-op when disabled).
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle { inner: self.inner.as_ref().map(|i| i.registry.counter(name)) }
    }

    /// A cached handle to the named gauge (no-op when disabled).
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle { inner: self.inner.as_ref().map(|i| i.registry.gauge(name)) }
    }

    /// A cached handle to the named histogram (no-op when disabled).
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle { inner: self.inner.as_ref().map(|i| i.registry.histogram(name)) }
    }

    /// Direct registry access, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Snapshot of all surviving ring events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.ring.snapshot())
    }

    /// Assembled per-message spans from the current ring contents.
    pub fn spans(&self) -> Vec<MessageSpan> {
        span::assemble(&self.events())
    }

    /// Stage breakdown over the current ring contents.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        StageBreakdown::from_spans(&self.spans())
    }

    /// Events lost to ring overwrite so far (0 when disabled).
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }

    /// Total events ever recorded (0 when disabled).
    pub fn total_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.total_recorded())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Telemetry(disabled)"),
            Some(i) => f
                .debug_struct("Telemetry")
                .field("ring_capacity", &i.ring.capacity())
                .field("total_events", &i.ring.total_recorded())
                .field("dropped", &i.ring.dropped())
                .finish(),
        }
    }
}

/// Cached counter reference; free when telemetry is disabled.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle {
    inner: Option<Arc<Counter>>,
}

impl CounterHandle {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.add(n);
        }
    }

    /// Current total (0 when disabled).
    pub fn get(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.get())
    }
}

/// Cached gauge reference; free when telemetry is disabled.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle {
    inner: Option<Arc<Gauge>>,
}

impl GaugeHandle {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.inner {
            g.set(v);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.inner {
            g.add(delta);
        }
    }

    /// Current level (0 when disabled).
    pub fn get(&self) -> i64 {
        self.inner.as_ref().map_or(0, |g| g.get())
    }
}

/// Cached histogram reference; free when telemetry is disabled.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle {
    inner: Option<Arc<Histogram>>,
}

impl HistogramHandle {
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.inner {
            h.record(v);
        }
    }

    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        if let Some(h) = &self.inner {
            h.record_duration(d);
        }
    }

    /// The underlying histogram, when enabled.
    pub fn histogram(&self) -> Option<&Histogram> {
        self.inner.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        t.emit(EventKind::SendEnqueued, 1, 0);
        t.counter("x").inc();
        t.histogram("h").record(9);
        t.gauge("g").set(5);
        assert!(t.events().is_empty());
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("x").get(), 0);
        assert_eq!(t.gauge("g").get(), 0);
        assert!(t.registry().is_none());
        assert_eq!(t.total_events(), 0);
    }

    #[test]
    fn enabled_handle_round_trips_events_to_spans() {
        let t = Telemetry::enabled();
        t.emit(EventKind::SendEnqueued, 42, 128);
        t.emit(EventKind::StoreInserted, 42, 128);
        t.emit(EventKind::Routed, 42, 1);
        t.emit(EventKind::Fetched, 42, 0);
        t.emit(EventKind::Consumed, 42, 0);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].msg_id, 42);
        assert!(spans[0].is_complete());
        assert_eq!(t.total_events(), 5);
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("shared").inc();
        u.counter("shared").inc();
        assert_eq!(t.counter("shared").get(), 2);
        u.emit(EventKind::Consumed, 7, 0);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn explicit_time_source_stamps_events() {
        struct Fixed;
        impl TimeSource for Fixed {
            fn now_nanos(&self) -> u64 {
                12_345
            }
        }
        let t = Telemetry::with_time_source(16, Box::new(Fixed));
        t.emit(EventKind::Routed, 1, 0);
        t.emit_at(EventKind::Fetched, 1, 0, 99_999);
        let events = t.events();
        assert_eq!(events[0].t_nanos, 12_345);
        assert_eq!(events[1].t_nanos, 99_999);
    }
}
