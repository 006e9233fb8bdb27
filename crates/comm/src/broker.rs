//! The broker process: object store, communicator queue, router thread, and
//! the inter-machine fabric.
//!
//! One [`Broker`] runs per machine. Explorer and learner processes obtain an
//! [`Endpoint`] from their machine's broker; endpoints on
//! different machines communicate once their brokers are connected with
//! [`connect_brokers`] (the "fabric among brokers in different machines" of
//! paper §3.2.2).
//!
//! # Control-plane fast path
//!
//! [`Broker::submit`] is lock-free: it resolves the destination split from a
//! routing snapshot and hands the message to its machine's `Hub::dispatch`
//! (the one admission into the sharded store, then a [`RouterCmd`] on a
//! channel sender the broker holds directly) — no per-message mutex anywhere
//! on the submit path. Shutdown is signalled with an explicit
//! [`RouterCmd::Shutdown`] sentinel instead of tearing the sender out from
//! under concurrent submitters.

use crate::endpoint::Endpoint;
use crate::inject::{InjectionStats, RouteInjector};
use crate::pool::compress_for_transport;
use crate::router::{Hub, RemoteEnvelope, RouterCmd, Uplinks};
use crate::store::ObjectStore;
use crate::{CommConfig, Compression, HeartbeatConfig};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use netsim::{Cluster, MachineId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;
use xingtian_message::codec::Encode;
use xingtian_message::{Body, CompressionKind, Header, Message, MessageKind, ProcessId, ProcessRole};
use xt_telemetry::{EventKind, Telemetry};

#[derive(Debug)]
pub(crate) struct BrokerShared {
    pub(crate) machine: MachineId,
    pub(crate) cluster: Cluster,
    pub(crate) config: CommConfig,
    /// This machine's store, routing table and counters.
    pub(crate) hub: Arc<Hub>,
    /// One command sender per router shard, held directly (not behind a
    /// mutex): `submit` hashes the destination to a shard and sends
    /// lock-free; shutdown sends every shard the `RouterCmd::Shutdown`
    /// sentinel instead of tearing senders out from under submitters.
    router_txs: Vec<Sender<RouterCmd>>,
    /// Set first thing in `shutdown`; `submit` refuses new messages once set.
    closed: AtomicBool,
    /// Over-threshold bodies sent raw: the compressibility probe rejected
    /// them, or their container came out no smaller.
    compress_skipped: xt_telemetry::CounterHandle,
    /// Bodies sent compressed: probe and full pass time, and stored size in
    /// percent of raw.
    compress_ns: xt_telemetry::HistogramHandle,
    compress_ratio: xt_telemetry::HistogramHandle,
    uplinks: Arc<Uplinks>,
    /// Hubs of connected peer brokers: routes registered after the fabric
    /// exists still propagate into their tables, and this machine's uplink
    /// threads deliver into them (holding hubs, not peer `Broker`s, avoids
    /// reference cycles between mutually-connected brokers).
    peers: Mutex<HashMap<MachineId, Arc<Hub>>>,
    router_threads: Mutex<Vec<JoinHandle<()>>>,
    /// The liveness beacon (only with `CommConfig::heartbeat`): dropping the
    /// sender stops the thread at once.
    beacon: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
    /// Delay-line thread, spawned lazily by the first [`Broker::set_injector`].
    delay_thread: Mutex<Option<JoinHandle<()>>>,
    /// Uplink forwarder threads (populated by [`connect_brokers`]).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A per-machine communication hub.
///
/// Cloning a `Broker` is cheap and shares the underlying state.
#[derive(Debug, Clone)]
pub struct Broker {
    shared: Arc<BrokerShared>,
}

impl Broker {
    /// Creates a broker for `machine` of `cluster` and starts its router thread.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range for `cluster`.
    pub fn new(machine: MachineId, cluster: Cluster, config: CommConfig) -> Self {
        Broker::with_telemetry(machine, cluster, config, Telemetry::disabled())
    }

    /// Creates a broker whose channel stages report lifecycle events and
    /// metrics into `telemetry`. Pass the *same* (cloned) handle to every
    /// broker of a deployment so cross-machine spans assemble into one trace;
    /// for clusters, stamp the handle from the cluster clock
    /// (`Telemetry::with_time_source(cap, cluster.time_source())`) so event
    /// timestamps and NIC transfer receipts share a timeline.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range for `cluster`.
    pub fn with_telemetry(
        machine: MachineId,
        cluster: Cluster,
        config: CommConfig,
        telemetry: Telemetry,
    ) -> Self {
        assert!(machine < cluster.len(), "machine {machine} out of range");
        let shards = config.router_shards.max(1);
        let capacity = config.store_capacity.unwrap_or(crate::store::DEFAULT_CAPACITY);
        let hub = Arc::new(Hub::new(capacity, telemetry));
        let uplinks: Arc<Uplinks> = Arc::default();
        // One router thread per shard, each draining its own command queue in
        // bursts. All shards share the hub and the uplink map (each still
        // groups remote envelopes per machine per burst), so the only thing
        // sharding changes is which thread a delivery drains on.
        let mut router_txs = Vec::with_capacity(shards);
        let mut router_threads = Vec::with_capacity(shards);
        for s in 0..shards {
            let (comm_tx, comm_rx) = unbounded();
            router_txs.push(comm_tx);
            let (hub, uplinks) = (Arc::clone(&hub), Arc::clone(&uplinks));
            let handle = std::thread::Builder::new()
                .name(format!("xt-router-m{machine}-s{s}"))
                .spawn(move || hub.run_router(s, comm_rx, &uplinks))
                .expect("spawn router thread");
            router_threads.push(handle);
        }
        let broker = Broker {
            shared: Arc::new(BrokerShared {
                machine,
                cluster,
                config,
                compress_skipped: hub.telemetry.counter("comm.compress_skipped"),
                compress_ns: hub.telemetry.histogram("comm.compress_ns"),
                compress_ratio: hub.telemetry.histogram("comm.compress_ratio"),
                hub,
                router_txs,
                closed: AtomicBool::new(false),
                uplinks,
                peers: Mutex::new(HashMap::new()),
                router_threads: Mutex::new(router_threads),
                beacon: Mutex::new(None),
                delay_thread: Mutex::new(None),
                threads: Mutex::new(Vec::new()),
            }),
        };
        if let Some(hb) = broker.shared.config.heartbeat {
            let (stop_tx, stop_rx) = unbounded();
            let shared = Arc::downgrade(&broker.shared);
            let handle = std::thread::Builder::new()
                .name(format!("xt-beacon-m{machine}"))
                .spawn(move || run_beacon(shared, hb, stop_rx))
                .expect("spawn beacon thread");
            *broker.shared.beacon.lock() = Some((stop_tx, handle));
        }
        broker
    }

    /// The telemetry handle this broker reports into (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.hub.telemetry
    }

    /// The machine this broker runs on.
    pub fn machine(&self) -> MachineId {
        self.shared.machine
    }

    /// The simulated cluster this broker belongs to.
    pub fn cluster(&self) -> &Cluster {
        &self.shared.cluster
    }

    /// The broker's shared-memory object store (exposed for inspection in
    /// tests and memory-overhead experiments).
    pub fn store(&self) -> &ObjectStore {
        &self.shared.hub.store
    }

    /// Messages the channel lost: no route, a closed queue that never
    /// deregistered, a severed link, or a body the final hop could not fetch
    /// or decompress.
    pub fn dropped(&self) -> u64 {
        self.shared.hub.table.dropped()
    }

    /// Messages discarded because their destination had already deregistered
    /// (graceful exit or elastic retirement): credits settled, nothing
    /// leaked, not a routing failure.
    pub fn departed_discards(&self) -> u64 {
        self.shared.hub.table.departed_discards()
    }

    /// Installs (or replaces) the fault-injection policy consulted on every
    /// final-hop delivery of this broker — local destinations of local
    /// senders plus remote messages arriving for this machine. Lazily starts
    /// the broker's delay-line thread, which executes
    /// [`crate::inject::InjectDecision::Delay`] verdicts off the router
    /// thread.
    pub fn set_injector(&self, injector: Arc<dyn RouteInjector>) {
        {
            let mut delay_thread = self.shared.delay_thread.lock();
            if delay_thread.is_none() {
                let (tx, rx) = unbounded();
                *self.shared.hub.table.delay_tx.lock() = Some(tx);
                let hub = Arc::clone(&self.shared.hub);
                let handle = std::thread::Builder::new()
                    .name(format!("xt-delay-m{}", self.shared.machine))
                    .spawn(move || hub.run_delay_line(rx))
                    .expect("spawn delay-line thread");
                *delay_thread = Some(handle);
            }
        }
        self.shared.hub.table.injector.publish(Some(injector));
    }

    /// Tallies of injected faults executed by this broker.
    pub fn injection_stats(&self) -> InjectionStats {
        self.shared.hub.table.injection_stats()
    }

    /// Registers that `pid` lives on `machine`, propagating the route to
    /// every connected peer broker so endpoints registered *after*
    /// [`connect_brokers`] are immediately reachable from other machines.
    /// Called automatically by [`Broker::endpoint`] for local processes and
    /// by [`connect_brokers`] when fabrics are established.
    pub fn register_route(&self, pid: ProcessId, machine: MachineId) {
        self.shared.hub.table.add_route(pid, machine);
        for peer in self.shared.peers.lock().values() {
            peer.table.add_route(pid, machine);
        }
    }

    /// Creates the communication endpoint for local process `pid`: its ID
    /// queue, receive buffer, and receiver thread.
    ///
    /// # Panics
    ///
    /// Panics if `pid` already has an endpoint on this broker.
    pub fn endpoint(&self, pid: ProcessId) -> Endpoint {
        let (id_tx, id_rx) = unbounded();
        assert!(
            self.shared.hub.table.add_id_queue(pid, id_tx),
            "endpoint for {pid} already exists"
        );
        self.register_route(pid, self.shared.machine);
        Endpoint::spawn(pid, self.clone(), id_rx)
    }

    /// Closes the endpoint of local process `pid` (what [`Endpoint::close`]
    /// does, and how supervision closes one from the broker side):
    /// its ID queue is removed, the receiver thread drains (settling store
    /// credits of undelivered messages) and closes the receive buffer on its
    /// way out, so a workhorse blocked in `recv`/`recv_timeout` observes the
    /// closure promptly. Used by supervision to tear down the channel half of
    /// a process that is gone or wedged. Safe to call for pids with no
    /// endpoint (no-op).
    pub fn close_endpoint(&self, pid: ProcessId) {
        self.shared.hub.table.remove_id_queue(pid);
    }

    /// Accepts a message on the calling (producer's) thread: splits its
    /// destinations against the routing snapshot (once — the router reuses
    /// the plan), stores the body in the form
    /// [`compress_for_transport`] gives it, and dispatches it — admitted on
    /// its kind's lane with the plan's fan-out, delivery enqueued for the
    /// router. Returns `false` if the broker is shut down or the message has
    /// no routable destination.
    ///
    /// A compression pass delays only this sender's later messages, which
    /// per-(src,dst) FIFO holds behind it anyway.
    pub fn submit(&self, msg: Message) -> bool {
        if self.shared.closed.load(Ordering::Acquire) {
            return false;
        }
        let Message { mut header, mut body } = msg;
        let shared = &*self.shared;
        let plan = shared.hub.table.split(shared.machine, &header.dst);
        shared.hub.table.add_dropped(plan.unknown as u64);
        if plan.fanout() == 0 {
            return false;
        }
        // Pre-encoded bodies (parameter-plane frames) carry their kind in the
        // header already: re-compressing a delta/quantized frame would only
        // burn CPU on near-incompressible bytes, so only kind-`None` bodies
        // are eligible for transport compression.
        let threshold = match shared.config.compression {
            Compression::Threshold(t) if header.compression == CompressionKind::None => t,
            _ => usize::MAX,
        };
        if body.len() > threshold {
            let (raw_len, start) = (body.len(), Instant::now());
            (body, header.compression) = compress_for_transport(body, threshold);
            if header.compression == CompressionKind::None {
                shared.compress_skipped.inc();
            } else {
                shared.compress_ns.record_duration(start.elapsed());
                shared.compress_ratio.record((body.len() * 100 / raw_len) as u64);
            }
        }
        shared.hub.dispatch(&shared.router_txs, header, body, plan)
    }

    /// Number of router shards this broker runs.
    pub fn router_shards(&self) -> usize {
        self.shared.router_txs.len()
    }

    /// Deliveries submitted but not yet drained by a router shard (0 when
    /// telemetry is disabled). The `comm.router_queue_depth` gauge.
    pub fn router_queue_depth(&self) -> i64 {
        self.shared.hub.queue_depth.get()
    }

    pub(crate) fn hub(&self) -> Arc<Hub> {
        Arc::clone(&self.shared.hub)
    }

    pub(crate) fn config(&self) -> &CommConfig {
        &self.shared.config
    }

    /// Shuts the broker down: stops the beacon, sends *every* router shard
    /// its drain-then-exit sentinel and joins them all, then closes all
    /// uplinks and joins the uplink threads. In-flight messages already
    /// routed to ID queues remain fetchable by receivers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        if let Some((stop, handle)) = self.shared.beacon.lock().take() {
            drop(stop);
            let _ = handle.join();
        }
        // Symmetric drain: each shard gets its own sentinel and drains its own
        // queue before exiting. Sentinels go out to all shards before any
        // join so the shards drain concurrently, and a message submitted to a
        // non-zero shard can never be stranded behind a shard-0-only close.
        for tx in &self.shared.router_txs {
            let _ = tx.send(RouterCmd::Shutdown);
        }
        let routers: Vec<_> = self.shared.router_threads.lock().drain(..).collect();
        for h in routers {
            let _ = h.join();
        }
        // Delay line after the router: the router is the only local producer
        // of delayed deliveries. Taking the sender disconnects the thread,
        // which flushes everything still parked before exiting (no stranded
        // store credits). Uplink threads that outlive it fall back to
        // immediate delivery.
        self.shared.hub.table.delay_tx.lock().take();
        if let Some(h) = self.shared.delay_thread.lock().take() {
            let _ = h.join();
        }
        // Dropping the uplink senders disconnects the forwarder threads.
        self.shared.uplinks.lock().clear();
        let threads: Vec<_> = self.shared.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The broker's liveness beacon: each interval, one `Heartbeat` from the
/// broker to the monitor listing every local endpoint not in the `Broker` role
/// (a monitor's own), submitted like any message; nothing when there is none.
/// A pid leaves the list when its ID queue is removed — its close, or its drop
/// while a workhorse unwinds — and nothing its producer waits on inside
/// `send`, a full store or a compression pass, can keep it off. Holds the
/// broker weakly, the rule `Hub` follows; returns when `stop`'s sender is
/// dropped or the broker is gone.
fn run_beacon(shared: Weak<BrokerShared>, hb: HeartbeatConfig, stop: Receiver<()>) {
    let mut due = Instant::now();
    for seq in 0.. {
        due = (due + hb.interval()).max(Instant::now());
        let left = due.saturating_duration_since(Instant::now());
        if stop.recv_timeout(left) != Err(RecvTimeoutError::Timeout) {
            return;
        }
        let Some(shared) = shared.upgrade() else { return };
        let live: Vec<ProcessId> = shared.hub.table.id_queues.with(|queues| {
            queues.keys().copied().filter(|pid| pid.role != ProcessRole::Broker).collect()
        });
        if live.is_empty() {
            continue;
        }
        let src = ProcessId::broker(shared.machine as u32);
        let header = Header::new(src, vec![hb.monitor], MessageKind::Heartbeat).with_seq(seq);
        Broker { shared }.submit(Message::new(header, Body::from(live.to_bytes())));
    }
}

/// Caps on one coalesced uplink wire batch. The byte cap bounds the worst-
/// case link occupancy of a single transfer (a degraded link multiplies its
/// duration, and the whole batch rides one receipt); the envelope cap bounds
/// far-side delivery burstiness when bodies are tiny.
const UPLINK_COALESCE_BYTES: usize = 32 * 1024;
const UPLINK_COALESCE_ENVELOPES: usize = 256;

/// Connects a set of brokers (one per machine) into a fully-connected fabric
/// and synchronizes their routing tables. Brokers remember their peers, so
/// endpoints registered *after* this call propagate their routes to every
/// connected machine automatically (no reconnection required).
///
/// For every ordered pair `(a, b)` an uplink thread is started on `a` that
/// forwards bursts of [`RemoteEnvelope`]s over the simulated NIC link and
/// delivers them into `b`'s object store and ID queues.
///
/// # Panics
///
/// Panics if two brokers claim the same machine.
pub fn connect_brokers(brokers: &[Broker]) {
    // Merge routing tables: every broker learns every process location.
    let mut merged: HashMap<ProcessId, MachineId> = HashMap::new();
    for b in brokers {
        for (&pid, &m) in b.shared.hub.table.routes.load().iter() {
            merged.insert(pid, m);
        }
    }
    for b in brokers {
        b.shared.hub.table.add_routes(&merged);
    }
    // Remember peers so later route registrations propagate.
    for a in brokers {
        let mut peers = a.shared.peers.lock();
        for b in brokers {
            if a.shared.machine != b.shared.machine {
                peers.insert(b.shared.machine, Arc::clone(&b.shared.hub));
            }
        }
    }
    // Build uplinks for every ordered pair.
    for a in brokers {
        for b in brokers {
            if a.shared.machine == b.shared.machine {
                assert!(
                    Arc::ptr_eq(&a.shared, &b.shared),
                    "two brokers claim machine {}",
                    a.shared.machine
                );
                continue;
            }
            if a.shared.uplinks.lock().contains_key(&b.shared.machine) {
                continue;
            }
            let (tx, rx) = unbounded::<Vec<RemoteEnvelope>>();
            a.shared.uplinks.lock().insert(b.shared.machine, tx);
            let cluster = a.shared.cluster.clone();
            let from = a.shared.machine;
            let to = b.shared.machine;
            let (src, peer) = (Arc::clone(&a.shared.hub), Arc::clone(&b.shared.hub));
            let uplink_bytes = src.telemetry.counter("comm.uplink_bytes");
            let link_drops = src.telemetry.counter("comm.link_drops");
            let handle = std::thread::Builder::new()
                .name(format!("xt-uplink-m{from}-m{to}"))
                .spawn(move || {
                    // Coalesce queued envelopes into bounded wire batches so
                    // the per-transfer link latency is amortized across the
                    // backlog instead of paid once per envelope — a
                    // latency-bound uplink otherwise drains a congestion
                    // backlog slower than the fleet refills it.
                    let mut pending: VecDeque<RemoteEnvelope> = VecDeque::new();
                    loop {
                        if pending.is_empty() {
                            match rx.recv() {
                                Ok(burst) => pending.extend(burst),
                                Err(_) => break,
                            }
                        }
                        while let Ok(burst) = rx.try_recv() {
                            pending.extend(burst);
                            if pending.len() >= UPLINK_COALESCE_ENVELOPES {
                                break;
                            }
                        }
                        // Take one wire batch off the front: always at least
                        // one envelope, then more while under both caps.
                        let mut batch: Vec<RemoteEnvelope> = Vec::new();
                        let mut bytes = 0usize;
                        while let Some(e) = pending.front() {
                            if !batch.is_empty()
                                && (bytes + e.body.len() > UPLINK_COALESCE_BYTES
                                    || batch.len() >= UPLINK_COALESCE_ENVELOPES)
                            {
                                break;
                            }
                            bytes += e.body.len();
                            batch.push(pending.pop_front().expect("front checked"));
                        }
                        // Pay the NIC cost once for the whole batch; each body
                        // then arrives at the far hub, through the same
                        // admission and final hop as local traffic there. A
                        // partitioned link loses the batch on the
                        // wire: the machine's store credits were already spent
                        // by the router's fetches, so nothing leaks — every
                        // destination behind the severed link counts as
                        // dropped.
                        let receipt = match cluster.transfer_checked(from, to, bytes) {
                            Ok(r) => r,
                            Err(_down) => {
                                let n_dst: u64 =
                                    batch.iter().map(|e| e.dst.len() as u64).sum();
                                src.table.add_dropped(n_dst);
                                link_drops.add(batch.len() as u64);
                                continue;
                            }
                        };
                        uplink_bytes.add(bytes as u64);
                        for envelope in batch {
                            // The receipt's endpoints are cluster-clock nanos;
                            // with_telemetry documents that telemetry for a
                            // cluster deployment is stamped from that same
                            // clock. Coalesced envelopes share the batch's
                            // wire window.
                            let id = envelope.header.id;
                            src.telemetry.emit_at(
                                EventKind::NicTxStart,
                                id,
                                envelope.body.len() as u64,
                                receipt.start_nanos,
                            );
                            src.telemetry
                                .emit_at(EventKind::NicTxEnd, id, to as u64, receipt.end_nanos);
                            peer.arrive(envelope);
                        }
                    }
                })
                .expect("spawn uplink thread");
            a.shared.threads.lock().push(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use xingtian_message::MessageKind;

    fn rollout_msg(body: &'static [u8]) -> Message {
        let h = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        Message::new(h, Bytes::from_static(body))
    }

    #[test]
    fn submit_without_destination_is_rejected() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        assert!(!broker.submit(rollout_msg(b"data")), "no learner endpoint registered");
        assert_eq!(broker.dropped(), 1, "unroutable destination is accounted");
        assert!(broker.store().is_empty(), "nothing stored for an unroutable message");
        broker.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let _learner = broker.endpoint(ProcessId::learner(0));
        broker.shutdown();
        assert!(!broker.submit(rollout_msg(b"late")), "closed broker refuses messages");
    }

    #[test]
    fn submit_that_loses_the_race_with_router_shutdown_settles_its_body() {
        // The routers are gone but `closed` is not set yet — the window a
        // concurrent `shutdown` leaves open. The body is already admitted by
        // the time the shard refuses the delivery, so the refusal must settle
        // every credit or the object stays resident forever.
        let telemetry = Telemetry::with_capacity(1 << 8);
        let broker =
            Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry);
        let _learner = broker.endpoint(ProcessId::learner(0));
        for tx in &broker.shared.router_txs {
            tx.send(RouterCmd::Shutdown).unwrap();
        }
        for h in broker.shared.router_threads.lock().drain(..) {
            h.join().unwrap();
        }
        assert!(!broker.submit(rollout_msg(b"raced")), "a refused message reports false");
        assert!(broker.store().is_empty(), "refused body settled, not leaked");
        assert_eq!(broker.router_queue_depth(), 0);
        broker.shutdown();
    }

    #[test]
    fn local_delivery_end_to_end() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let explorer = broker.endpoint(ProcessId::explorer(0));
        let learner = broker.endpoint(ProcessId::learner(0));
        explorer.send(rollout_msg(b"hello"));
        let got = learner.recv().expect("message delivered");
        assert_eq!(&got.body[..], b"hello");
        assert_eq!(got.header.src, ProcessId::explorer(0));
        drop(explorer);
        drop(learner);
        broker.shutdown();
        assert_eq!(broker.dropped(), 0);
    }

    #[test]
    fn broadcast_reaches_every_destination_once() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let learner = broker.endpoint(ProcessId::learner(0));
        let explorers: Vec<_> = (0..4).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let h = Header::new(
            ProcessId::learner(0),
            (0..4).map(ProcessId::explorer).collect::<Vec<_>>(),
            MessageKind::Parameters,
        );
        learner.send(Message::new(h, Bytes::from_static(b"weights")));
        for e in &explorers {
            let m = e.recv().expect("broadcast delivered");
            assert_eq!(&m.body[..], b"weights");
            assert!(e.try_recv().is_none(), "exactly one copy per destination");
        }
        // All fan-out credits consumed: the store must be empty again.
        assert!(broker.store().is_empty());
        broker.shutdown();
    }

    #[test]
    fn duplicate_endpoint_panics() {
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let _a = broker.endpoint(ProcessId::explorer(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            broker.endpoint(ProcessId::explorer(0))
        }));
        assert!(result.is_err());
        broker.shutdown();
    }

    #[test]
    fn cross_machine_delivery() {
        let cluster = Cluster::new(
            netsim::ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0),
        );
        let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
        let b1 = Broker::new(1, cluster, CommConfig::default());
        let explorer = b0.endpoint(ProcessId::explorer(0));
        let learner = b1.endpoint(ProcessId::learner(0));
        connect_brokers(&[b0.clone(), b1.clone()]);
        explorer.send(rollout_msg(b"across the wire"));
        let got = learner.recv().expect("remote delivery");
        assert_eq!(&got.body[..], b"across the wire");
        // The body crossed the simulated NIC exactly once.
        assert_eq!(b0.cluster().machine(0).tx().stats().transfers(), 1);
        drop(explorer);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn endpoint_registered_after_connect_is_reachable() {
        // Regression test for silent route loss: an endpoint created *after*
        // connect_brokers must have its route propagated to peer brokers
        // without re-running connect_brokers.
        let cluster = Cluster::new(
            netsim::ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0),
        );
        let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
        let b1 = Broker::new(1, cluster, CommConfig::default());
        connect_brokers(&[b0.clone(), b1.clone()]);
        // Both endpoints join after the fabric exists.
        let explorer = b0.endpoint(ProcessId::explorer(0));
        let learner = b1.endpoint(ProcessId::learner(0));
        explorer.send(rollout_msg(b"late joiner"));
        let got = learner.recv_timeout(std::time::Duration::from_secs(10)).expect(
            "post-connect endpoint must be routable from peer machines",
        );
        assert_eq!(&got.body[..], b"late joiner");
        assert_eq!(b0.dropped(), 0);
        assert_eq!(b1.dropped(), 0);
        drop(explorer);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn cross_machine_delivery_records_full_telemetry_lifecycle() {
        let cluster = Cluster::new(
            netsim::ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0),
        );
        // One handle for the whole deployment, stamped from the cluster
        // clock so NicTx receipts share the event timeline.
        let telemetry = Telemetry::with_time_source(1 << 10, cluster.time_source());
        let b0 = Broker::with_telemetry(0, cluster.clone(), CommConfig::default(), telemetry.clone());
        let b1 = Broker::with_telemetry(1, cluster, CommConfig::default(), telemetry.clone());
        let explorer = b0.endpoint(ProcessId::explorer(0));
        let learner = b1.endpoint(ProcessId::learner(0));
        connect_brokers(&[b0.clone(), b1.clone()]);
        explorer.send(rollout_msg(b"traced"));
        let got = learner.recv().expect("remote delivery");
        let spans = telemetry.spans();
        let span = spans.iter().find(|s| s.msg_id == got.header.id).expect("span for message");
        assert!(span.is_complete(), "all stages recorded: {span:?}");
        assert!(span.nic_nanos.is_some(), "NIC hop recorded: {span:?}");
        let kinds: Vec<EventKind> = span.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SendEnqueued,
                EventKind::StoreInserted,
                EventKind::Routed,
                EventKind::NicTxStart,
                EventKind::NicTxEnd,
                EventKind::Fetched,
                EventKind::Consumed,
            ],
        );
        assert_eq!(telemetry.counter("comm.routed_messages").get(), 1);
        assert_eq!(telemetry.counter("comm.uplink_bytes").get(), 6);
        drop(explorer);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }

    #[test]
    fn sharded_router_delivers_end_to_end() {
        let broker =
            Broker::new(0, Cluster::single(), CommConfig::default().with_router_shards(4));
        assert_eq!(broker.router_shards(), 4);
        let eps: Vec<_> = (0..16).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let sender = broker.endpoint(ProcessId::learner(0));
        for i in 0..16u32 {
            let h = Header::new(
                ProcessId::learner(0),
                vec![ProcessId::explorer(i)],
                MessageKind::Dummy,
            );
            sender.send(Message::new(h, Bytes::from(vec![i as u8])));
        }
        for (i, e) in eps.iter().enumerate() {
            let m = e.recv().expect("delivered through some shard");
            assert_eq!(&m.body[..], &[i as u8]);
        }
        drop(eps);
        drop(sender);
        broker.shutdown();
        assert_eq!(broker.dropped(), 0);
        assert!(broker.store().is_empty());
    }

    #[test]
    fn shutdown_drains_every_router_shard_symmetrically() {
        // Regression: a message submitted to a *non-zero* shard immediately
        // before shutdown must still be delivered (and its store credit
        // settled) — the drain has to close all shard queues, not just one.
        let broker =
            Broker::new(0, Cluster::single(), CommConfig::default().with_router_shards(4));
        let n = 64u32;
        let eps: Vec<_> = (0..n).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let mut shard_hit = [false; 4];
        for i in 0..n {
            let dst = vec![ProcessId::explorer(i)];
            shard_hit[crate::router::shard_for(dst[0], 4)] = true;
            let h = Header::new(ProcessId::learner(0), dst, MessageKind::Dummy);
            // Submit directly so the deliveries are guaranteed to be in
            // shard queues when shutdown lands.
            assert!(broker.submit(Message::new(h, Bytes::from(vec![i as u8]))));
        }
        assert!(shard_hit.iter().all(|&h| h), "test must exercise every shard");
        broker.shutdown();
        for (i, e) in eps.iter().enumerate() {
            let m = e
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("message drained from its shard at shutdown");
            assert_eq!(&m.body[..], &[i as u8]);
        }
        assert_eq!(broker.dropped(), 0, "no message stranded in any shard");
        assert!(broker.store().is_empty(), "every store credit settled");
    }

    #[test]
    fn router_queue_depth_gauge_returns_to_zero() {
        let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 12);
        let broker = Broker::with_telemetry(
            0,
            Cluster::single(),
            CommConfig::default().with_router_shards(2),
            telemetry.clone(),
        );
        let learner = broker.endpoint(ProcessId::learner(0));
        let explorer = broker.endpoint(ProcessId::explorer(0));
        for _ in 0..32 {
            explorer.send(rollout_msg(b"depth"));
        }
        for _ in 0..32 {
            let _ = learner.recv().expect("delivered");
        }
        drop(explorer);
        drop(learner);
        broker.shutdown();
        assert_eq!(broker.router_queue_depth(), 0, "all submissions drained");
        let bursts: u64 = (0..2)
            .map(|s| telemetry.counter(&format!("comm.router.{s}.bursts")).get())
            .sum();
        assert!(bursts > 0, "shards recorded their drain bursts");
    }

    #[test]
    fn registration_churn_does_not_grow_snapshot_retention() {
        // 1 024 registrations then 1 024 closes publish thousands of routing
        // snapshots; with nobody mid-borrow each publish frees its
        // predecessor, so the cells hold the published snapshot and no more
        // (a retain-forever history would hold 1 025 / 3 073 of them).
        let broker = Broker::new(0, Cluster::single(), CommConfig::default());
        let eps: Vec<_> = (0..1024).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        assert_eq!(broker.shared.hub.table.routes.retained(), 1);
        assert_eq!(broker.shared.hub.table.id_queues.retained(), 1);
        drop(eps);
        assert_eq!(broker.shared.hub.table.routes.retained(), 1);
        assert_eq!(broker.shared.hub.table.id_queues.retained(), 1);
        assert!(broker.shared.hub.table.id_queues.load().is_empty(), "every queue deregistered");
        broker.shutdown();
    }

    #[test]
    fn cross_machine_broadcast_sends_body_once_per_machine() {
        let cluster = Cluster::new(
            netsim::ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0),
        );
        let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
        let b1 = Broker::new(1, cluster, CommConfig::default());
        let learner = b0.endpoint(ProcessId::learner(0));
        let local_e = b0.endpoint(ProcessId::explorer(0));
        let remote_es: Vec<_> = (1..4).map(|i| b1.endpoint(ProcessId::explorer(i))).collect();
        connect_brokers(&[b0.clone(), b1.clone()]);
        let h = Header::new(
            ProcessId::learner(0),
            (0..4).map(ProcessId::explorer).collect::<Vec<_>>(),
            MessageKind::Parameters,
        );
        learner.send(Message::new(h, Bytes::from_static(b"w")));
        assert_eq!(&local_e.recv().unwrap().body[..], b"w");
        for e in &remote_es {
            assert_eq!(&e.recv().unwrap().body[..], b"w");
        }
        // Three remote explorers, but only one transfer on the wire.
        assert_eq!(b0.cluster().machine(0).tx().stats().transfers(), 1);
        b0.shutdown();
        b1.shutdown();
    }
}
