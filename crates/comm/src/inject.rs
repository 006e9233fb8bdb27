//! Router-level fault injection hooks.
//!
//! An installed [`RouteInjector`] is consulted exactly once per
//! *(message, destination)* pair, at the message's final-hop broker: local
//! destinations by the producer inside `Hub::dispatch`, remote destinations
//! by the uplink thread delivering into the machine that hosts them
//! (`Hub::arrive`). The injector returns an [`InjectDecision`] and that
//! thread executes it with the same
//! credit discipline as organic failures — a dropped delivery spends the
//! destination's store fetch credit through the same `Hub::settle` an
//! unreachable destination does, and a delayed delivery parks the header on
//! the broker's delay line without holding up the thread routing it. Neither
//! raises a credit: an injected fault can only lose or defer a delivery,
//! never copy one, since the channel it models never duplicates a message.
//!
//! The hooks are deliberately mechanism-only: *policy* (which routes, which
//! probabilities, which seed) lives in `xt-fault`, which implements
//! [`RouteInjector`] on top of a deterministic plan. With no injector
//! installed the hot path pays one lock-free snapshot load and nothing else.

use crate::router::Hub;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_message::{Header, ProcessId};

/// What the router should do with one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop the delivery (the destination's store credit is burned,
    /// so nothing leaks; the drop is tallied in
    /// [`InjectionStats::dropped`]).
    Drop,
    /// Deliver after the given delay, off the routing thread.
    Delay(Duration),
}

/// A fault-injection policy consulted per (message, destination).
///
/// Implementations must be cheap and thread-safe: producers call `decide`
/// inline on their send path, uplink threads on the final hop of remote
/// deliveries, concurrently and in scheduling-dependent order.
pub trait RouteInjector: Send + Sync + std::fmt::Debug {
    /// Decides the fate of delivering `header` to `dst`.
    fn decide(&self, header: &Header, dst: ProcessId) -> InjectDecision;
}

/// Counts of injected faults actually executed by a broker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Deliveries dropped by injection.
    pub dropped: u64,
    /// Deliveries routed through the delay line.
    pub delayed: u64,
}

/// A delivery parked on the delay line.
#[derive(Debug)]
pub(crate) struct DelayedDelivery {
    pub(crate) header: Arc<Header>,
    pub(crate) dst: ProcessId,
    pub(crate) deliver_at: Instant,
}

impl Hub {
    /// Runs a broker's delay line: parks delayed deliveries until they come due,
    /// then pushes them into the destination ID queue *without* re-consulting the
    /// injector (a delayed message is not re-dropped or re-delayed) but with the
    /// failed-delivery accounting of any delivery. When the broker closes the
    /// line, everything still pending is flushed immediately so no store
    /// credit is ever stranded.
    pub(crate) fn run_delay_line(&self) {
        let line = &self.table.delay_line;
        let deliver_now = |d: DelayedDelivery| {
            self.table.id_queues.with(|queues| self.push_one(queues, d.header, d.dst))
        };
        let mut pending: Vec<DelayedDelivery> = Vec::new();
        while !line.is_closed() {
            let incoming = match pending.iter().map(|d| d.deliver_at).min() {
                Some(due) => line.pop_timeout(due.saturating_duration_since(Instant::now())),
                None => line.pop(),
            };
            pending.extend(incoming);
            let now = Instant::now();
            let mut i = 0;
            while i < pending.len() {
                if pending[i].deliver_at <= now {
                    deliver_now(pending.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Shutdown flush: release everything still parked.
        pending.extend(std::iter::from_fn(|| line.try_pop()));
        pending.into_iter().for_each(deliver_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{connect_brokers, Broker};
    use crate::endpoint::Endpoint;
    use crate::CommConfig;
    use bytes::Bytes;
    use netsim::{Cluster, ClusterSpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use xingtian_message::{Message, MessageKind};

    /// Drops the first `drop_first` rollouts per destination, then delivers.
    #[derive(Debug)]
    struct DropFirst {
        drop_first: u64,
        seen: AtomicU64,
    }

    impl RouteInjector for DropFirst {
        fn decide(&self, header: &Header, _dst: ProcessId) -> InjectDecision {
            if header.kind != MessageKind::Rollout {
                return InjectDecision::Deliver;
            }
            if self.seen.fetch_add(1, Ordering::Relaxed) < self.drop_first {
                InjectDecision::Drop
            } else {
                InjectDecision::Deliver
            }
        }
    }

    #[derive(Debug)]
    struct Always(InjectDecision);

    impl RouteInjector for Always {
        fn decide(&self, header: &Header, _dst: ProcessId) -> InjectDecision {
            if header.kind == MessageKind::Rollout {
                self.0
            } else {
                InjectDecision::Deliver
            }
        }
    }

    fn rollout(body: &'static [u8]) -> Message {
        let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        Message::new(h, Bytes::from_static(body))
    }

    #[test]
    fn injected_drops_burn_credits_without_leaking() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        broker.set_injector(Arc::new(DropFirst { drop_first: 2, seen: AtomicU64::new(0) }));
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        for body in [b"a1" as &'static [u8], b"a2", b"a3"] {
            e.send(rollout(body));
        }
        let got = l.recv_timeout(Duration::from_secs(5)).expect("third rollout survives");
        assert_eq!(&got.body[..], b"a3");
        assert!(l.try_recv().is_none());
        assert_eq!(broker.injection_stats().dropped, 2);
        drop(e);
        drop(l);
        broker.shutdown();
        assert!(broker.store().is_empty(), "dropped deliveries burned their credits");
    }

    #[test]
    fn injected_delay_defers_delivery_without_losing_it() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        broker.set_injector(Arc::new(Always(InjectDecision::Delay(Duration::from_millis(50)))));
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        let t0 = Instant::now();
        e.send(rollout(b"late"));
        let got = l.recv_timeout(Duration::from_secs(5)).expect("delayed, not lost");
        assert_eq!(&got.body[..], b"late");
        assert!(t0.elapsed() >= Duration::from_millis(50), "delivery was actually deferred");
        assert_eq!(broker.injection_stats().delayed, 1);
        drop(e);
        drop(l);
        broker.shutdown();
        assert!(broker.store().is_empty());
    }

    #[test]
    fn shutdown_flushes_parked_deliveries() {
        // A delivery parked far in the future must not strand its store
        // credit when the broker shuts down before it comes due.
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        broker.set_injector(Arc::new(Always(InjectDecision::Delay(Duration::from_secs(300)))));
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        e.send(rollout(b"parked"));
        // Wait until the delivery reaches the delay line.
        let t0 = Instant::now();
        while broker.injection_stats().delayed == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(broker.injection_stats().delayed, 1);
        drop(e);
        drop(l);
        broker.shutdown();
        assert!(broker.store().is_empty(), "flush on shutdown settles the credit");
    }

    /// An explorer on machine 0 and a learner on machine 1, with `decision`
    /// installed on machine 1 only: the far end of the uplink executes it,
    /// in `Hub::arrive`'s final hop.
    fn across_an_uplink(decision: InjectDecision) -> (Broker, Broker, Endpoint, Endpoint) {
        let spec = ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0);
        let cluster = Cluster::new(spec);
        let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
        let b1 = Broker::new(1, cluster, CommConfig::default());
        b1.set_injector(Arc::new(Always(decision)));
        let e = b0.endpoint(ProcessId::explorer(0));
        let l = b1.endpoint(ProcessId::learner(0));
        connect_brokers(&[b0.clone(), b1.clone()]);
        (b0, b1, e, l)
    }

    fn shut_down_empty_and_dropless(brokers: [Broker; 2]) {
        for b in &brokers {
            b.shutdown();
        }
        for b in &brokers {
            assert!(b.store().is_empty(), "machine {} leaked a store entry", b.machine());
            assert_eq!(b.dropped(), 0, "machine {} dropped a delivery", b.machine());
        }
    }

    #[test]
    fn the_far_end_of_an_uplink_delays_remote_arrivals() {
        let (b0, b1, e, l) = across_an_uplink(InjectDecision::Delay(Duration::from_millis(50)));
        let t0 = Instant::now();
        e.send(rollout(b"remote"));
        let got = l.recv_timeout(Duration::from_secs(5)).expect("delayed on arrival, not lost");
        assert_eq!(&got.body[..], b"remote");
        assert!(t0.elapsed() >= Duration::from_millis(50), "delivery was actually deferred");
        assert_eq!(b1.injection_stats().delayed, 1, "the receiving broker ran the delay");
        assert_eq!(b0.injection_stats(), InjectionStats::default(), "the sender has no injector");
        drop(e);
        drop(l);
        shut_down_empty_and_dropless([b0, b1]);
    }

    #[test]
    fn shutdown_flushes_a_far_end_parked_delivery() {
        let (b0, b1, e, l) = across_an_uplink(InjectDecision::Delay(Duration::from_secs(300)));
        e.send(rollout(b"parked"));
        let t0 = Instant::now();
        while b1.injection_stats().delayed == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b1.injection_stats().delayed, 1, "the arrival reached the far delay line");
        assert!(l.try_recv().is_none(), "still parked");
        drop(e);
        drop(l);
        shut_down_empty_and_dropless([b0, b1]);
    }
}
