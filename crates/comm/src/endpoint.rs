//! Process endpoints: an inbox plus its receiver thread.
//!
//! An [`Endpoint`] is everything a workhorse thread (rollout worker or
//! trainer) sees of the communication channel. `send` submits the message to
//! the broker on the caller's own thread (compression, object-store
//! insertion, header enqueue) and returns once the body is in the store; a
//! data-lane body waits at the store's capacity gate while the store is full,
//! and that wait is the channel's back-pressure on the producer. `recv` pops
//! the local receive buffer, which one monitoring thread per endpoint fills:
//!
//! * the **receiver thread** pops the endpoint's ID queue, fetches the body
//!   from the object store (zero-copy), decompresses if needed, and pushes the
//!   complete message into the receive buffer.
//!
//! The receiver thread is event-driven (a blocking pop), and the producer
//! submits the instant a message exists, so transmission starts as soon as
//! data are ready — the paper's aggressive-push behavior.

use crate::broker::Broker;
use crate::buffer::Buffer;
use crate::router::IdQueueMsg;
use crate::stats::TransmissionStats;
use crossbeam_channel::Receiver;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xingtian_message::{decompress_body, Body, CompressionKind, Header, Message, MessageKind, ProcessId};
use xt_telemetry::{EventKind, Telemetry};

/// A process's handle on the asynchronous communication channel.
#[derive(Debug)]
pub struct Endpoint {
    pid: ProcessId,
    broker: Broker,
    /// Set by [`Endpoint::close`]; `send` refuses once set.
    closed: AtomicBool,
    recv_buf: Arc<Buffer>,
    /// Latency from message creation (at the producer) to arrival in this
    /// endpoint's receive buffer.
    delivery_stats: Arc<TransmissionStats>,
    bytes_received: Arc<AtomicU64>,
    messages_received: Arc<AtomicU64>,
    telemetry: Telemetry,
    receiver: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    pub(crate) fn spawn(pid: ProcessId, broker: Broker, id_rx: Receiver<IdQueueMsg>) -> Self {
        // Workhorse endpoints get byte-bounded receive buffers so that a
        // stalled consumer backpressures the whole channel (receiver thread
        // blocks → object store fills → senders block) instead of buffering
        // without bound. Control-plane endpoints stay unbounded: stats must
        // never be able to stall the data plane.
        let recv_buf = Arc::new(match (pid.role, broker.config().endpoint_recv_bytes) {
            (
                xingtian_message::ProcessRole::Explorer | xingtian_message::ProcessRole::Learner,
                Some(bytes),
            ) => Buffer::with_budget(bytes),
            _ => Buffer::new(),
        });
        let delivery_stats = Arc::new(TransmissionStats::new());
        let bytes_received = Arc::new(AtomicU64::new(0));
        let messages_received = Arc::new(AtomicU64::new(0));
        let telemetry = broker.telemetry().clone();

        // Receiver monitoring thread: ID queue -> object store -> receive buffer.
        let receiver = {
            let recv_buf = Arc::clone(&recv_buf);
            // The receiver thread holds only the hub, not the broker, so a
            // broker is never kept alive by one of its own tracked threads.
            let hub = broker.hub();
            let delivery_stats = Arc::clone(&delivery_stats);
            let bytes_received = Arc::clone(&bytes_received);
            let messages_received = Arc::clone(&messages_received);
            let telemetry = telemetry.clone();
            let delivery_hist = telemetry.histogram("comm.delivery_ns");
            let decompress_hist = telemetry.histogram("comm.decompress_ns");
            std::thread::Builder::new()
                .name(format!("xt-recv-{pid}"))
                .spawn(move || {
                    while let Ok(msg) = id_rx.recv() {
                        // The queue delivers shared headers (one Arc per
                        // destination, not one deep copy); this endpoint takes
                        // its own mutable copy only here, at the final hop.
                        let shared = match msg {
                            IdQueueMsg::Deliver(h) => h,
                            IdQueueMsg::Close => break,
                        };
                        let mut header = (*shared).clone();
                        drop(shared);
                        // A header this thread cannot turn into a message is a
                        // drop at the last hop, counted like any other. (Its
                        // credit needs no settling: there was no object, or
                        // the fetch spent it.)
                        let Some(body) = header.object_id.and_then(|id| hub.store.fetch(id)) else {
                            hub.table.add_dropped(1);
                            continue;
                        };
                        // Move the body into this process's local buffer.
                        // The store hands out shared views of the segment, so
                        // this is zero-copy for uncompressed bodies — the
                        // paper's "zero-copy communication among processes".
                        // Transport-compressed bodies decompress into a fresh
                        // local buffer here; parameter-plane frames
                        // (`is_param_plane`) pass through intact, because only
                        // the consuming workhorse holds the base version and
                        // recycled buffers they decode against.
                        let body: Body = if header.compression.is_transport() {
                            let start = std::time::Instant::now();
                            // Chunked bodies fan their frames across the
                            // shared worker pool; legacy single-block bodies
                            // (and any future kinds) take the serial decoder.
                            let result = match header.compression {
                                CompressionKind::Lz4Chunked => {
                                    crate::pool::decompress_chunked_parallel(
                                        crate::pool::shared_pool(),
                                        &body,
                                    )
                                    .map(Body::from)
                                }
                                kind => decompress_body(&body, kind),
                            };
                            match result {
                                Ok(raw) => {
                                    decompress_hist.record_duration(start.elapsed());
                                    header.compression = CompressionKind::None;
                                    raw
                                }
                                Err(_) => {
                                    hub.table.add_dropped(1); // corrupt body
                                    continue;
                                }
                            }
                        } else {
                            body
                        };
                        // One clock read, so the two instruments agree.
                        let in_flight = header.created_at.elapsed();
                        delivery_stats.record(in_flight);
                        delivery_hist.record_duration(in_flight);
                        telemetry.emit(EventKind::Fetched, header.id, body.len() as u64);
                        bytes_received.fetch_add(body.len() as u64, Ordering::Relaxed);
                        messages_received.fetch_add(1, Ordering::Relaxed);
                        if !recv_buf.push(Message { header, body }) {
                            break; // receive buffer closed: stop delivering
                        }
                    }
                    // On exit, settle the store credits of anything still queued
                    // for this endpoint so a departed consumer cannot leave
                    // the shared segment full (and senders blocked) forever.
                    while let Ok(msg) = id_rx.try_recv() {
                        if let IdQueueMsg::Deliver(h) = msg {
                            hub.settle(&h);
                        }
                    }
                    // The receiver thread is the only producer into recv_buf:
                    // once it exits, nothing will ever arrive again, so close
                    // the buffer. A workhorse blocked in `recv`/`recv_timeout`
                    // observes the closure promptly (staged messages still
                    // drain first) instead of waiting out its full timeout —
                    // this is what lets broker-side endpoint teardown
                    // (`Broker::close_endpoint`) unblock a stuck consumer.
                    recv_buf.close();
                })
                .expect("spawn receiver thread")
        };

        Endpoint {
            pid,
            broker,
            closed: AtomicBool::new(false),
            recv_buf,
            delivery_stats,
            bytes_received,
            messages_received,
            telemetry,
            receiver: Mutex::new(Some(receiver)),
        }
    }

    /// This endpoint's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Submits `msg` to the broker on the calling thread and returns once
    /// the body is in the store; waits at the data-lane gate while it is
    /// full.
    ///
    /// Returns `false` if the endpoint has been closed.
    pub fn send(&self, msg: Message) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let (id, len) = (msg.header.id, msg.body.len() as u64);
        self.telemetry.emit(EventKind::SendEnqueued, id, len);
        self.broker.submit(msg);
        true
    }

    /// Convenience: builds and sends a message from this endpoint.
    pub fn send_to(&self, dst: Vec<ProcessId>, kind: MessageKind, body: Body) -> bool {
        let header = Header::new(self.pid, dst, kind);
        self.send(Message::new(header, body))
    }

    /// Blocks until a message arrives or the endpoint is closed.
    pub fn recv(&self) -> Option<Message> {
        self.consumed(self.recv_buf.pop())
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.consumed(self.recv_buf.try_pop())
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.consumed(self.recv_buf.pop_timeout(timeout))
    }

    #[inline]
    fn consumed(&self, msg: Option<Message>) -> Option<Message> {
        if let Some(m) = &msg {
            self.telemetry.emit(EventKind::Consumed, m.header.id, 0);
        }
        msg
    }

    /// Messages already delivered and waiting in the receive buffer.
    pub fn pending(&self) -> usize {
        self.recv_buf.len()
    }

    /// The telemetry handle shared with this endpoint's broker. Disabled
    /// (zero-cost) unless the broker was built with `Broker::with_telemetry`.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Producer-to-receive-buffer latency statistics for messages delivered to
    /// this endpoint.
    pub fn delivery_stats(&self) -> &TransmissionStats {
        &self.delivery_stats
    }

    /// Shared handle to the delivery statistics, usable after the endpoint
    /// has been moved into its process thread.
    pub fn delivery_stats_arc(&self) -> Arc<TransmissionStats> {
        Arc::clone(&self.delivery_stats)
    }

    /// Total body bytes delivered to this endpoint.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total messages delivered to this endpoint.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Closes the endpoint: later sends are refused, the ID queue is
    /// removed and the receive buffer closed (the receiver thread exits, even
    /// if it was blocked on a full bounded buffer), and the receiver thread
    /// is joined. A thread parked in `send` at the store's gate is not waited
    /// for. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.broker.close_endpoint(self.pid);
        // Close the receive buffer *before* joining: a receiver thread
        // blocked pushing into a full bounded buffer unblocks on closure.
        self.recv_buf.close();
        if let Some(receiver) = self.receiver.lock().take() {
            let _ = receiver.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommConfig;
    use bytes::Bytes;
    use netsim::Cluster;

    #[test]
    fn send_stores_the_body_and_recv_blocks_until_delivery() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        assert!(e.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"r1")));
        let m = l.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(&m.body[..], b"r1");
        assert_eq!(l.messages_received(), 1);
        assert_eq!(l.bytes_received(), 2);
        assert!(!l.delivery_stats().is_empty());
        broker.shutdown();
    }

    #[test]
    fn close_stops_accepting_sends() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let e = broker.endpoint(ProcessId::explorer(0));
        let _l = broker.endpoint(ProcessId::learner(0));
        e.close();
        assert!(!e.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::new()));
        broker.shutdown();
    }

    #[test]
    fn compressed_bodies_arrive_decompressed() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        let payload = Bytes::from(vec![3u8; 4 * 1024 * 1024]); // > 1 MiB threshold
        e.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
        let m = l.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(m.header.compression, CompressionKind::None);
        assert_eq!(m.body, payload);
        broker.shutdown();
    }

    #[test]
    fn blocked_recv_timeout_observes_broker_side_close_promptly() {
        // Satellite regression test: a workhorse blocked in `recv_timeout`
        // must observe endpoint teardown within milliseconds, not wait out
        // its full timeout. The broker-side path (`close_endpoint`) only
        // sends the ID-queue close sentinel; the receiver thread must close
        // the receive buffer on its way out for the blocked popper to wake.
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let l = Arc::new(broker.endpoint(ProcessId::learner(0)));
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            let got = l2.recv_timeout(Duration::from_secs(30));
            (got.is_none(), t0.elapsed())
        });
        // Let the waiter actually block, then tear the endpoint down from
        // the broker side.
        std::thread::sleep(Duration::from_millis(50));
        broker.close_endpoint(ProcessId::learner(0));
        let (closed, waited) = waiter.join().unwrap();
        assert!(closed, "closure surfaces as None, not a message");
        assert!(
            waited < Duration::from_secs(5),
            "blocked receiver waited {waited:?} — did not observe close promptly"
        );
        broker.shutdown();
    }

    #[test]
    fn staged_messages_drain_before_close_is_observed() {
        // Closure must not eat messages that were already delivered.
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        assert!(e.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"kept")));
        let staged = l.recv_timeout(Duration::from_secs(5)).expect("delivered before close");
        assert_eq!(&staged.body[..], b"kept");
        broker.close_endpoint(ProcessId::learner(0));
        assert!(l.recv_timeout(Duration::from_secs(5)).is_none());
        broker.shutdown();
    }

    /// The pids a heartbeat lists, sorted.
    fn listed(beat: &Message) -> Vec<ProcessId> {
        use xingtian_message::codec::Decode;
        assert_eq!(beat.header.kind, MessageKind::Heartbeat);
        let mut pids = Vec::<ProcessId>::from_bytes(&beat.body).expect("a pid list");
        pids.sort();
        pids
    }

    #[test]
    fn heartbeats_flow_to_the_monitor() {
        let monitor = ProcessId::broker(u32::MAX);
        let config = CommConfig::default().with_heartbeat(5, monitor);
        let broker = Broker::new(0, Cluster::single(), config);
        // Monitor first so no beat is ever unroutable; its own (Broker-role)
        // endpoint is never listed, so nothing beats until the explorer exists.
        let mon = broker.endpoint(monitor);
        let e = broker.endpoint(ProcessId::explorer(0));
        let beat = mon.recv_timeout(Duration::from_secs(5)).expect("initial heartbeat");
        assert_eq!(beat.header.src, ProcessId::broker(0), "the broker beats");
        assert_eq!(listed(&beat), vec![ProcessId::explorer(0)]);
        let beat2 = mon.recv_timeout(Duration::from_secs(5)).expect("periodic heartbeat");
        assert!(beat2.header.seq > beat.header.seq, "beats carry increasing seq");
        // With nothing left to list, the broker stops beating.
        e.close();
        while mon.recv_timeout(Duration::from_millis(100)).is_some() {}
        assert!(mon.recv_timeout(Duration::from_millis(100)).is_none(), "no beats after close");
        drop(mon);
        broker.shutdown();
        assert_eq!(broker.dropped(), 0, "every heartbeat was routable");
        assert!(broker.store().is_empty());
    }

    #[test]
    fn one_beacon_per_interval_lists_every_live_endpoint() {
        // Sixteen endpoints, one heartbeat per interval naming them all; an
        // endpoint closed between two beats is missing from every beat the
        // broker takes after the close.
        let monitor = ProcessId::broker(u32::MAX);
        let broker = Broker::new(0, Cluster::single(), CommConfig::default().with_heartbeat(5, monitor));
        let mon = broker.endpoint(monitor);
        let mut eps: Vec<_> = (0..16).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let mut last_seq = None;
        let mut next = || {
            let beat = mon.recv_timeout(Duration::from_secs(5)).expect("a beat every interval");
            assert_eq!(beat.header.src, ProcessId::broker(0));
            assert!(last_seq < Some(beat.header.seq), "one heartbeat per interval");
            last_seq = Some(beat.header.seq);
            listed(&beat)
        };
        let all: Vec<ProcessId> = (0..16).map(ProcessId::explorer).collect();
        // Registration may straddle the first beat.
        assert!((0..3).any(|_| next() == all), "a beat lists all 16");
        for _ in 0..10 {
            assert_eq!(next(), all, "every later beat lists all 16");
        }
        let closed = eps.remove(3);
        closed.close();
        let rest: Vec<ProcessId> = all.iter().copied().filter(|&p| p != closed.pid()).collect();
        // Beats taken before the close may still be on their way, then the
        // pid is gone for good.
        assert!((0..3).any(|_| next() == rest), "the closed endpoint drops out");
        for _ in 0..10 {
            assert_eq!(next(), rest, "and stays out");
        }
        drop((eps, closed));
        drop(mon);
        broker.shutdown();
        assert_eq!(broker.dropped(), 0, "every heartbeat was routable");
    }

    #[test]
    fn many_messages_preserve_per_sender_order() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        for i in 0..100u8 {
            e.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
        }
        for i in 0..100u8 {
            let m = l.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!(m.body[0], i, "FIFO per sender");
        }
        broker.shutdown();
    }
}
