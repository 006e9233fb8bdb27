//! Process endpoints: send/receive buffers plus the monitoring threads.
//!
//! An [`Endpoint`] is everything a workhorse thread (rollout worker or
//! trainer) sees of the communication channel: `send` stages a message in the
//! local send buffer and returns immediately; `recv` pops the local receive
//! buffer. Two monitoring threads per endpoint keep data flowing:
//!
//! * the **sender thread** pops the send buffer and submits each message to
//!   the broker (compression + object-store insertion + header enqueue), and
//! * the **receiver thread** pops the endpoint's ID queue, fetches the body
//!   from the object store (zero-copy), decompresses if needed, and pushes the
//!   complete message into the receive buffer.
//!
//! Both threads are event-driven (blocking pops), so transmission starts the
//! instant data are ready — the paper's aggressive-push behavior.

use crate::broker::Broker;
use crate::buffer::Buffer;
use crate::router::IdQueueMsg;
use crate::stats::TransmissionStats;
use crossbeam_channel::Receiver;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
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
    send_buf: Arc<Buffer>,
    recv_buf: Arc<Buffer>,
    /// Latency from message creation (at the producer) to arrival in this
    /// endpoint's receive buffer.
    delivery_stats: Arc<TransmissionStats>,
    bytes_received: Arc<AtomicU64>,
    messages_received: Arc<AtomicU64>,
    telemetry: Telemetry,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Endpoint {
    pub(crate) fn spawn(pid: ProcessId, broker: Broker, id_rx: Receiver<IdQueueMsg>) -> Self {
        let send_buf = Arc::new(Buffer::new());
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

        let mut threads = Vec::with_capacity(2);

        // Sender monitoring thread: send buffer -> broker, until the buffer
        // is closed and drained.
        {
            let send_buf = Arc::clone(&send_buf);
            let broker = broker.clone();
            let handle = std::thread::Builder::new()
                .name(format!("xt-send-{pid}"))
                .spawn(move || {
                    while let Some(msg) = send_buf.pop() {
                        broker.submit(msg);
                    }
                })
                .expect("spawn sender thread");
            threads.push(handle);
        }

        // Receiver monitoring thread: ID queue -> object store -> receive buffer.
        {
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
            let handle = std::thread::Builder::new()
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
                .expect("spawn receiver thread");
            threads.push(handle);
        }

        Endpoint {
            pid,
            broker,
            send_buf,
            recv_buf,
            delivery_stats,
            bytes_received,
            messages_received,
            telemetry,
            threads: Mutex::new(threads),
        }
    }

    /// This endpoint's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Stages `msg` for asynchronous transmission and returns immediately.
    ///
    /// Returns `false` if the endpoint has been closed.
    pub fn send(&self, msg: Message) -> bool {
        let (id, len) = (msg.header.id, msg.body.len() as u64);
        // Stamp before the push: once the message is in the buffer the drain
        // thread can complete the whole lifecycle (advancing the virtual
        // clock across the NIC) before this thread runs again, which would
        // give SendEnqueued a later timestamp than StoreInserted..Fetched.
        // A closed endpoint leaves one stray SendEnqueued (incomplete span).
        self.telemetry.emit(EventKind::SendEnqueued, id, len);
        self.send_buf.push(msg)
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

    /// Messages staged for sending but not yet handed to the broker. Producers
    /// can use this for flow control when the channel is congested.
    pub fn send_backlog(&self) -> usize {
        self.send_buf.len()
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

    /// Closes the endpoint: the send buffer stops accepting messages (the
    /// sender thread drains and exits), the ID queue is removed and the
    /// receive buffer closed (the receiver thread exits, even if it was
    /// blocked on a full bounded buffer), and the monitoring threads are
    /// joined. Idempotent.
    pub fn close(&self) {
        self.send_buf.close();
        self.broker.close_endpoint(self.pid);
        // Close the receive buffer *before* joining: a receiver thread
        // blocked pushing into a full bounded buffer unblocks on closure.
        self.recv_buf.close();
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
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
    fn send_returns_immediately_recv_blocks_until_delivery() {
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

    #[test]
    fn heartbeats_flow_to_the_monitor() {
        let monitor = ProcessId::broker(0);
        let config = CommConfig::default().with_heartbeat(5, monitor);
        let broker = Broker::new(0, Cluster::single(), config);
        // Monitor first so no beat is ever unroutable; its own (Broker-role)
        // endpoint does not beacon.
        let mon = broker.endpoint(monitor);
        let e = broker.endpoint(ProcessId::explorer(0));
        let beat = mon.recv_timeout(Duration::from_secs(5)).expect("initial heartbeat");
        assert_eq!(beat.header.kind, MessageKind::Heartbeat);
        assert_eq!(beat.header.src, ProcessId::explorer(0));
        let beat2 = mon.recv_timeout(Duration::from_secs(5)).expect("periodic heartbeat");
        assert!(beat2.header.seq > beat.header.seq, "beats carry increasing seq");
        // Closing the endpoint stops the beacon.
        e.close();
        while mon.recv_timeout(Duration::from_millis(100)).is_some() {}
        assert!(mon.recv_timeout(Duration::from_millis(100)).is_none(), "no beats after close");
        drop(mon);
        broker.shutdown();
        assert_eq!(broker.dropped(), 0, "every heartbeat was routable");
        assert!(broker.store().is_empty());
    }

    #[test]
    fn heartbeats_spread_across_monitor_shards() {
        // Sharded heartbeat sink: each beaconing endpoint feeds exactly one
        // monitor shard, chosen by a stable hash of its own pid, and the
        // union of shards sees every endpoint.
        let monitor = ProcessId { role: xingtian_message::ProcessRole::Broker, index: u32::MAX };
        let shards = 4u32;
        let config = CommConfig::default().with_heartbeat(5, monitor).with_monitor_shards(shards);
        let hb = config.heartbeat.unwrap();
        let broker = Broker::new(0, Cluster::single(), config);
        // All monitor shards first so no beat is ever unroutable.
        let mons: Vec<_> = hb.monitor_pids().into_iter().map(|p| broker.endpoint(p)).collect();
        let n = 16u32;
        let eps: Vec<_> = (0..n).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let mut seen: std::collections::HashSet<ProcessId> = std::collections::HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.len() < n as usize && std::time::Instant::now() < deadline {
            for (s, mon) in mons.iter().enumerate() {
                while let Some(beat) = mon.try_recv() {
                    assert_eq!(beat.header.kind, MessageKind::Heartbeat);
                    assert_eq!(
                        hb.monitor_for(beat.header.src),
                        mon.pid(),
                        "explorer {} beaconed to shard {s}, not its hash-chosen shard",
                        beat.header.src,
                    );
                    seen.insert(beat.header.src);
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(seen.len(), n as usize, "every endpoint's beats reached its shard");
        drop(eps);
        drop(mons);
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
