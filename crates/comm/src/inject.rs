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
//! unreachable destination does, a duplicated delivery mints the extra
//! credits before the copies are enqueued, and a delayed delivery parks the
//! header on the broker's delay line without holding up the thread routing it.
//!
//! The hooks are deliberately mechanism-only: *policy* (which routes, which
//! probabilities, which seed) lives in `xt-fault`, which implements
//! [`RouteInjector`] on top of a deterministic plan. With no injector
//! installed the hot path pays one lock-free snapshot load and nothing else.

use crate::router::Hub;
use crossbeam_channel::{Receiver, RecvTimeoutError};
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
    /// Deliver the original plus `n` duplicate copies.
    Duplicate(u32),
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
    /// Extra duplicate copies delivered.
    pub duplicated: u64,
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
    /// failed-delivery accounting of any delivery. When the broker shuts the
    /// line down (sender dropped), everything still pending is flushed
    /// immediately so no store credit is ever stranded.
    pub(crate) fn run_delay_line(&self, rx: Receiver<DelayedDelivery>) {
        let deliver_now = |d: DelayedDelivery| {
            self.table.id_queues.with(|queues| self.push_one(queues, &d.header, d.dst))
        };
        let mut pending: Vec<DelayedDelivery> = Vec::new();
        loop {
            let next_due = pending.iter().map(|d| d.deliver_at).min();
            let incoming = match next_due {
                Some(due) => {
                    match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                        Ok(d) => Some(d),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match rx.recv() {
                    Ok(d) => Some(d),
                    Err(_) => break,
                },
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
        while let Ok(d) = rx.try_recv() {
            pending.push(d);
        }
        pending.into_iter().for_each(deliver_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::CommConfig;
    use bytes::Bytes;
    use netsim::Cluster;
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
    fn injected_duplicates_mint_matching_credits() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        broker.set_injector(Arc::new(Always(InjectDecision::Duplicate(2))));
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        e.send(rollout(b"dup"));
        for _ in 0..3 {
            let m = l.recv_timeout(Duration::from_secs(5)).expect("original + 2 duplicates");
            assert_eq!(&m.body[..], b"dup");
        }
        assert!(l.try_recv().is_none(), "exactly 3 copies");
        assert_eq!(broker.injection_stats().duplicated, 2);
        drop(e);
        drop(l);
        broker.shutdown();
        assert!(broker.store().is_empty(), "every minted credit was spent");
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
}
