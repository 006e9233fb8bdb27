//! Process endpoints: an inbox plus its receiver thread.
//!
//! An [`Endpoint`] is everything a workhorse thread (rollout worker or
//! trainer) sees of the communication channel. `send` submits the message to
//! the broker on the caller's own thread (compression, object-store
//! insertion, routing) and returns once the message is routed; a
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
use crate::router::IdQueue;
use crate::stats::TransmissionStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xingtian_message::codec::Encode;
use xingtian_message::{Body, CompressionKind, Header, Message, MessageKind, ProcessId};
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
    telemetry: Telemetry,
    receiver: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    pub(crate) fn spawn(pid: ProcessId, broker: Broker, id_queue: IdQueue) -> Self {
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
        let telemetry = broker.telemetry().clone();

        // Receiver monitoring thread: ID queue -> object store -> receive buffer.
        let receiver = {
            let recv_buf = Arc::clone(&recv_buf);
            // The receiver thread holds only the hub, not the broker, so a
            // broker is never kept alive by one of its own tracked threads.
            let hub = broker.hub();
            let delivery_stats = Arc::clone(&delivery_stats);
            let telemetry = telemetry.clone();
            let delivery_hist = telemetry.histogram("comm.delivery_ns");
            let decompress_hist = telemetry.histogram("comm.decompress_ns");
            std::thread::Builder::new()
                .name(format!("xt-recv-{pid}"))
                .spawn(move || {
                    // `pop` ends once the queue is closed and drained: every
                    // header routed here before the close is delivered.
                    while let Some(shared) = id_queue.pop() {
                        // The queue delivers shared headers (one Arc per
                        // destination, not one deep copy). A unicast's is this
                        // thread's alone and moves out; only a broadcast's is
                        // copied, here at the final hop.
                        let mut header = Arc::unwrap_or_clone(shared);
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
                            // Chunked bodies, the one transport kind, fan
                            // their frames across the shared worker pool.
                            let result =
                                crate::pool::decompress_chunked_parallel(crate::pool::shared_pool(), &body);
                            match result.map(Body::from) {
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
                        if recv_buf.push(Message { header, body }).is_err() {
                            // Receive buffer closed: the endpoint departed.
                            hub.table.departed_discards.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    // On exit, refuse further headers and settle the store
                    // credits of anything still queued for this endpoint, so
                    // a departed consumer cannot leave the shared segment
                    // full (and senders blocked) forever.
                    id_queue.close();
                    while let Some(h) = id_queue.try_pop() {
                        hub.table.departed_discards.fetch_add(1, Ordering::Relaxed);
                        hub.settle(&h);
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

    /// Sends `value` as the body of a `kind` message to `dst`, encoded once,
    /// straight into the object store: the sender waits at the gate for the
    /// space, then writes the body in place. The bytes are those of
    /// [`Encode::to_bytes`], so this and `send_to` with them are one message.
    ///
    /// Returns `false` if the endpoint has been closed.
    pub fn send_encoded(&self, dst: Vec<ProcessId>, kind: MessageKind, value: &dyn Encode) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let header = Header::new(self.pid, dst, kind);
        self.telemetry.emit(EventKind::SendEnqueued, header.id, value.encoded_size() as u64);
        self.broker.submit_encoded(header, value);
        true
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

    /// Producer-to-receive-buffer latency statistics for messages delivered
    /// to this endpoint, as a shared handle usable after the endpoint has been
    /// moved into its process thread.
    pub fn delivery_stats_arc(&self) -> Arc<TransmissionStats> {
        Arc::clone(&self.delivery_stats)
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
        assert!(!l.delivery_stats_arc().is_empty());
        broker.shutdown();
    }

    #[test]
    fn send_encoded_is_send_to_of_the_encoded_bytes() {
        // Written once into the store, the body and the header's length are
        // those `to_bytes` gives, raw below the compression threshold and
        // compressed (then restored) above it.
        let broker = Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), Telemetry::enabled());
        let e = broker.endpoint(ProcessId::explorer(0));
        let l = broker.endpoint(ProcessId::learner(0));
        let small: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let large: Vec<u8> = (0..3 << 20).map(|i| (i % 7) as u8).collect();
        for value in [&small, &large] {
            assert!(e.send_encoded(vec![l.pid()], MessageKind::Rollout, value));
            assert!(e.send_to(vec![l.pid()], MessageKind::Rollout, Bytes::from(value.to_bytes())));
            let encoded = l.recv_timeout(Duration::from_secs(5)).expect("delivered");
            let sent = l.recv_timeout(Duration::from_secs(5)).expect("delivered");
            assert_eq!(encoded.body, sent.body);
            assert_eq!(encoded.header.len, value.encoded_size());
            assert_eq!((encoded.header.len, encoded.header.compression), (sent.header.len, sent.header.compression));
        }
        let compressed = broker.telemetry().histogram("comm.compress_ratio");
        assert_eq!(compressed.histogram().map(|h| h.count()), Some(2), "both large bodies compressed");
        drop((e, l));
        broker.shutdown();
        assert!(broker.store().is_empty());
        assert_eq!(broker.store().live_bytes(), 0);
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
    fn closing_an_endpoint_mid_stream_accounts_for_every_message() {
        // Four senders keep sending 1 KiB bodies to one endpoint while the
        // broker side closes it. A header queued before the close is
        // delivered; one routed after it, by a sender still holding the older
        // routing snapshot, is refused by the closed ID queue and discarded
        // as departed. None is a drop, none is settled uncounted, and the
        // store ends empty.
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let learner = broker.endpoint(ProcessId::learner(0));
        let stop = Arc::new(AtomicBool::new(false));
        let senders: Vec<_> = (0..4)
            .map(|i| {
                let explorer = broker.endpoint(ProcessId::explorer(i));
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut sent = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let body = Bytes::from(vec![i as u8; 1024]);
                        assert!(explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, body));
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        let mut delivered = 0u64;
        while delivered < 1_000 {
            learner.recv_timeout(Duration::from_secs(10)).expect("delivered before the close");
            delivered += 1;
        }
        broker.close_endpoint(learner.pid());
        while learner.recv_timeout(Duration::from_secs(10)).is_some() {
            delivered += 1;
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while broker.departed_discards() < 1_000 {
            assert!(std::time::Instant::now() < deadline, "senders stopped reaching the closed queue");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let sent: u64 = senders.into_iter().map(|s| s.join().expect("sender")).sum();
        drop(learner);
        broker.shutdown();
        assert_eq!(delivered + broker.departed_discards(), sent, "every message delivered or discarded");
        assert_eq!(broker.dropped(), 0);
        assert!(broker.store().is_empty());
    }

    #[test]
    fn blocked_recv_timeout_observes_broker_side_close_promptly() {
        // Satellite regression test: a workhorse blocked in `recv_timeout`
        // must observe endpoint teardown within milliseconds, not wait out
        // its full timeout. The broker-side path (`close_endpoint`) only
        // closes the ID queue; the receiver thread must close the receive
        // buffer on its way out for the blocked popper to wake.
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
    fn a_stalled_consumer_holds_at_most_its_budget_of_slabs() {
        // Fetched bodies staged in a stalled consumer's receive buffer are
        // slab memory outside the gate: at most the buffer's budget plus the
        // one body its receiver thread holds, and all of it comes back.
        let (len, budget) = (1024, 64 << 10);
        let config = CommConfig {
            compression: crate::Compression::Off,
            endpoint_recv_bytes: Some(budget),
            ..CommConfig::default()
        }
        .with_store_capacity(8 * len);
        let broker = Broker::new(0, Cluster::single(), config);
        let explorer = Arc::new(broker.endpoint(ProcessId::explorer(0)));
        // Declared last, dropped first: a failed assertion frees the store
        // and the producer parked in `send` finishes.
        let learner = broker.endpoint(ProcessId::learner(0));
        let buffered = budget / (len + std::mem::size_of::<Message>());
        let absorbed = buffered + 1 + 8;
        let total = absorbed + 4;
        let producer = {
            let explorer = Arc::clone(&explorer);
            std::thread::spawn(move || {
                for seq in 0..total {
                    let body = Bytes::from(vec![seq as u8; len]);
                    assert!(explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, body));
                }
            })
        };
        let store = broker.store();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while store.inserted() != absorbed as u64 || learner.pending() != buffered {
            assert!(std::time::Instant::now() < deadline, "never filled");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        let staged = store.slab_bytes_outstanding() - store.live_bytes();
        assert_eq!(staged, (buffered + 1) * len, "the buffer and the receiver's hand");
        assert!(staged <= budget, "{staged} B of slabs staged past a {budget} B budget");
        for seq in 0..total {
            let msg = learner.recv_timeout(Duration::from_secs(10)).expect("drains");
            assert_eq!(msg.body[0], seq as u8);
        }
        producer.join().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.slab_bytes_outstanding(), 0, "every slab is back");
        let free = store.free_slabs()[crate::store::class_of(len).unwrap()];
        assert!(free >= absorbed && free * len <= crate::store::CLASS_RETAIN_BYTES, "{free} free 1 KiB slabs");
        broker.shutdown();
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
