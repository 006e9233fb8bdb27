//! The algorithm-agnostic router, and the per-machine state it routes over.
//!
//! The router is the thread inside every broker that watches the shared
//! communicator's header queue and dispatches each message to its
//! destinations: local destinations get the header (with its object id)
//! pushed into their ID queues; destinations on other machines get the body
//! forwarded once per machine over the inter-broker fabric. The router never
//! inspects or interprets bodies — it is *algorithm agnostic* (paper §3.2.1).
//!
//! A [`Hub`] is one machine's object store, routing table and counters, and
//! what happens to a message at a machine is each one method of it:
//! [`Hub::admit`] is the only way a body enters the store (the lane comes
//! from [`MessageKind::priority_lane`] on every path), [`Hub::dispatch`] the
//! source side, [`Hub::arrive`] the far side of an uplink, and
//! [`Hub::settle`] the only way a fetch credit is given back for a header
//! nobody will consume.
//!
//! # Control-plane fast path
//!
//! Three properties keep the per-message cost flat as fan-out grows:
//!
//! * **Snapshot routing.** `routes` and `id_queues` are [`SnapshotCell`]
//!   snapshots: [`RoutingTable::split`] and [`Hub::push_headers`] take zero
//!   locks per message; the rare writers (endpoint registration, fabric
//!   merges) pay the copy instead.
//! * **Split once.** `Broker::submit` computes the local/remote split on the
//!   producer's thread and ships the resulting [`Delivery`] plan to the
//!   router, so the destination list is resolved exactly once per message and
//!   store fetch credits always match the plan (no re-split drift between
//!   submission and routing).
//! * **O(n) broadcast.** ID queues carry `Arc<Header>`: an n-way broadcast
//!   enqueues n pointer clones of one header instead of n deep copies of an
//!   n-entry destination list.
//!
//! The router also drains the command queue in bursts, grouping remote
//! envelopes per target machine per burst so each uplink is located once per
//! burst rather than once per message.

use crate::inject::{DelayedDelivery, InjectDecision, InjectionStats, RouteInjector};
use crate::snapshot::SnapshotCell;
use crate::store::ObjectStore;
use crossbeam_channel::{Receiver, SendError, Sender, TryRecvError};
use netsim::MachineId;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xingtian_message::{CompressionKind, Header, MessageKind, ProcessId};
use xt_telemetry::{EventKind, Telemetry};

/// What flows through a per-process ID queue.
#[derive(Debug)]
pub(crate) enum IdQueueMsg {
    /// A delivered header whose object id refers to the local store.
    Deliver(Arc<Header>),
    /// Endpoint teardown: the receiver thread must exit now. (ID-queue
    /// senders live inside routing snapshots a reader may still pin, so a
    /// receiver cannot rely on sender-drop for a prompt shutdown signal.)
    Close,
}

/// A command for the router thread.
#[derive(Debug)]
pub(crate) enum RouterCmd {
    /// Route one message according to its pre-computed plan.
    Deliver(Delivery),
    /// Drain whatever is already queued, then exit.
    Shutdown,
}

/// A message plus its split plan, computed once by the submitting thread.
#[derive(Debug)]
pub(crate) struct Delivery {
    pub(crate) header: Arc<Header>,
    pub(crate) plan: SplitPlan,
}

/// The local/remote partition of a destination list.
#[derive(Debug, Default)]
pub struct SplitPlan {
    /// Destinations hosted on this machine.
    pub local: Vec<ProcessId>,
    /// Destinations grouped by hosting remote machine.
    pub remote: Vec<(MachineId, Vec<ProcessId>)>,
    /// Destinations with no registered route.
    pub unknown: usize,
}

impl SplitPlan {
    /// Store fetch credits this plan consumes: one per local destination plus
    /// one per remote machine (the body crosses the wire once per machine).
    pub fn fanout(&self) -> usize {
        self.local.len() + self.remote.len()
    }
}
/// Routing state shared between a broker, its router thread, and (after
/// [`crate::connect_brokers`]) peer brokers that propagate route updates.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Process → hosting machine. Read lock-free on every submit.
    pub(crate) routes: SnapshotCell<HashMap<ProcessId, MachineId>>,
    /// Local ID queues, one per local process. Read lock-free on every
    /// delivery.
    pub(crate) id_queues: SnapshotCell<HashMap<ProcessId, Sender<IdQueueMsg>>>,
    /// Dropped-message counter (destination unknown or queue closed).
    pub(crate) dropped: AtomicU64,
    /// Processes that deregistered their ID queue (graceful exit or retire).
    /// Late messages to them are discarded with their credits settled but are
    /// *not* routing drops — elastic retirement and coordinated shutdown both
    /// race trailing traffic against queue teardown by design. Consulted only
    /// on the failed-delivery path, so the hot path never touches the lock.
    pub(crate) departed: Mutex<std::collections::HashSet<ProcessId>>,
    /// Messages discarded because their destination had departed.
    pub(crate) departed_discards: AtomicU64,
    /// Fault-injection policy consulted per (message, destination) on the
    /// final hop. `None` (the default) costs one snapshot load per delivery
    /// batch and nothing else.
    pub(crate) injector: SnapshotCell<Option<Arc<dyn RouteInjector>>>,
    /// Feed into the broker's delay-line thread. Lives here (not in a
    /// snapshot) so shutdown can take it out and disconnect the thread at
    /// that instant, not whenever the last snapshot naming it is pruned.
    pub(crate) delay_tx: Mutex<Option<Sender<DelayedDelivery>>>,
    /// Injected-fault tallies (drops / extra duplicates / delays executed).
    pub(crate) injected_dropped: AtomicU64,
    pub(crate) injected_duplicated: AtomicU64,
    pub(crate) injected_delayed: AtomicU64,
}

impl RoutingTable {
    /// Splits a destination list into local destinations and per-remote-
    /// machine groups from the point of view of machine `here`, borrowing one
    /// routing snapshot (no locks). Unroutable
    /// destinations are tallied in the plan; the caller decides whether that
    /// counts as a drop.
    pub fn split(&self, here: MachineId, dst: &[ProcessId]) -> SplitPlan {
        self.routes.with(|routes| {
            let mut plan = SplitPlan::default();
            for &d in dst {
                match routes.get(&d) {
                    Some(&m) if m == here => plan.local.push(d),
                    Some(&m) => match plan.remote.iter_mut().find(|(rm, _)| *rm == m) {
                        Some((_, group)) => group.push(d),
                        None => plan.remote.push((m, vec![d])),
                    },
                    None => plan.unknown += 1,
                }
            }
            plan
        })
    }

    /// Registers `pid` as living on `machine` (publishes a new routes
    /// snapshot).
    pub(crate) fn add_route(&self, pid: ProcessId, machine: MachineId) {
        self.routes.modify(|routes| routes.insert(pid, machine));
    }

    /// Bulk route merge (publishes one snapshot for the whole batch).
    pub(crate) fn add_routes(&self, entries: &HashMap<ProcessId, MachineId>) {
        self.routes.modify(|routes| routes.extend(entries.iter().map(|(&p, &m)| (p, m))));
    }

    /// Registers the ID queue of local process `pid`. Returns `false` (and
    /// registers nothing) if `pid` already has a queue.
    pub(crate) fn add_id_queue(&self, pid: ProcessId, tx: Sender<IdQueueMsg>) -> bool {
        let added = self.id_queues.modify(|queues| match queues.entry(pid) {
            Entry::Vacant(slot) => {
                slot.insert(tx);
                true
            }
            Entry::Occupied(_) => false,
        });
        if added {
            // A respawned process is live again: its failures count once more.
            self.departed.lock().remove(&pid);
        }
        added
    }

    /// Unregisters `pid`'s ID queue, waking its receiver thread with a close
    /// sentinel.
    pub(crate) fn remove_id_queue(&self, pid: ProcessId) {
        self.departed.lock().insert(pid);
        self.id_queues.modify(|queues| {
            if let Some(tx) = queues.remove(&pid) {
                let _ = tx.send(IdQueueMsg::Close);
            }
        });
    }

    pub(crate) fn add_dropped(&self, n: u64) {
        if n > 0 {
            self.dropped.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Number of messages dropped for lack of a route, a severed link, or a
    /// queue that closed without deregistering. Late messages to *departed*
    /// processes (graceful exit / elastic retirement) are tallied separately
    /// in [`Self::departed_discards`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages discarded because their destination had already deregistered
    /// (credits settled, nothing leaked — but not a routing failure).
    pub fn departed_discards(&self) -> u64 {
        self.departed_discards.load(Ordering::Relaxed)
    }

    /// Injected-fault tallies executed by this table's routers.
    pub fn injection_stats(&self) -> InjectionStats {
        InjectionStats {
            dropped: self.injected_dropped.load(Ordering::Relaxed),
            duplicated: self.injected_duplicated.load(Ordering::Relaxed),
            delayed: self.injected_delayed.load(Ordering::Relaxed),
        }
    }
}

/// A body and its header bound for a set of destinations on one remote machine.
#[derive(Debug)]
pub struct RemoteEnvelope {
    /// Header as produced by the source (object id refers to the *source*
    /// store and is re-assigned on arrival).
    pub header: Header,
    /// The (possibly compressed) body bytes.
    pub body: bytes::Bytes,
    /// Destinations, all local to the target machine.
    pub dst: Vec<ProcessId>,
}

/// The feeds into a machine's uplink threads, one per connected peer.
pub(crate) type Uplinks = Mutex<HashMap<MachineId, Sender<Vec<RemoteEnvelope>>>>;

/// One machine's half of the channel: its object store, its routing table and
/// the counters every hop reports into. Shared by the broker, its router,
/// delay-line and receiver threads, and the uplink threads of peers
/// delivering into this machine; it owns no thread handle and no command
/// sender, so none of those threads keeps itself or a broker alive through it.
#[derive(Debug)]
pub(crate) struct Hub {
    pub(crate) store: ObjectStore,
    pub(crate) table: RoutingTable,
    pub(crate) telemetry: Telemetry,
    /// Broker-wide routing backlog: deliveries dispatched but not yet taken
    /// off a shard queue. Observable back-pressure before it becomes drops.
    pub(crate) queue_depth: xt_telemetry::GaugeHandle,
    /// Bytes entering the store at their source per [`CompressionKind`],
    /// indexed by discriminant. Pre-created handles so `dispatch` never
    /// touches the metrics registry lock.
    wire_bytes: [xt_telemetry::CounterHandle; CompressionKind::ALL.len()],
    /// Stored size of every `Parameters` broadcast body — the direct
    /// observable for the parameter plane's savings.
    broadcast_bytes: xt_telemetry::HistogramHandle,
}

impl Hub {
    pub(crate) fn new(store_capacity: usize, telemetry: Telemetry) -> Self {
        Hub {
            store: ObjectStore::with_capacity(store_capacity),
            table: RoutingTable::default(),
            queue_depth: telemetry.gauge("comm.router_queue_depth"),
            wire_bytes: CompressionKind::ALL
                .map(|k| telemetry.counter(&format!("comm.bytes_on_wire.{}", k.name()))),
            broadcast_bytes: telemetry.histogram("comm.broadcast_bytes"),
            telemetry,
        }
    }

    /// The one admission into this machine's store: the lane comes from the
    /// message's kind, whichever path brought the body here. Data kinds wait
    /// at the capacity gate — on remote arrival too, which is the cross-machine
    /// back-pressure a finite shared segment gives; priority kinds never do.
    pub(crate) fn admit(&self, header: &mut Header, body: bytes::Bytes, fanout: usize) {
        header.object_id = Some(if header.kind.priority_lane() {
            self.store.insert_priority(body, fanout)
        } else {
            self.store.insert(body, fanout)
        });
    }

    /// The one settlement: spends the fetch credit of one destination that
    /// will never consume `header`, so the store entry cannot leak. Whether
    /// that is also a *drop* is the caller's to count.
    pub(crate) fn settle(&self, header: &Header) {
        if let Some(id) = header.object_id {
            self.store.drop_credit(id);
        }
    }

    /// Source side, for a body in its stored form (from `submit`, after any
    /// compression): counts it, admits it, and hands the delivery to the
    /// router shards its destinations hash to ([`by_shard`]), so a sender's
    /// messages to one destination stay FIFO however they are addressed.
    /// Returns `false`, every credit of a refused part settled, if a shard is
    /// gone (a broker shutting down refuses; it does not tally a drop).
    pub(crate) fn dispatch(
        &self,
        router_txs: &[Sender<RouterCmd>],
        mut header: Header,
        body: bytes::Bytes,
        plan: SplitPlan,
    ) -> bool {
        let stored_len = body.len() as u64;
        self.wire_bytes[header.compression.discriminant() as usize].add(stored_len);
        if header.kind == MessageKind::Parameters {
            self.broadcast_bytes.record(stored_len);
        }
        self.admit(&mut header, body, plan.fanout());
        self.telemetry.emit(EventKind::StoreInserted, header.id, stored_len);
        let header = Arc::new(header);
        // One shard owns everything: no split.
        if let [tx] = router_txs {
            return self.enqueue(tx, header, plan);
        }
        let mut accepted = true;
        for (tx, part) in router_txs.iter().zip(by_shard(plan, router_txs.len())) {
            if part.fanout() > 0 {
                accepted &= self.enqueue(tx, Arc::clone(&header), part);
            }
        }
        accepted
    }

    /// Hands one delivery to a router shard; `false`, its credits settled, if
    /// the shard is gone.
    fn enqueue(&self, tx: &Sender<RouterCmd>, header: Arc<Header>, plan: SplitPlan) -> bool {
        self.queue_depth.add(1);
        let Err(SendError(refused)) = tx.send(RouterCmd::Deliver(Delivery { header, plan })) else {
            return true;
        };
        self.queue_depth.add(-1);
        if let RouterCmd::Deliver(Delivery { header, plan }) = refused {
            (0..plan.fanout()).for_each(|_| self.settle(&header));
        }
        false
    }

    /// Far side of an uplink: re-homes a body that crossed the wire into this
    /// machine's store and pushes its header to the destinations here.
    pub(crate) fn arrive(&self, RemoteEnvelope { mut header, body, dst }: RemoteEnvelope) {
        if dst.is_empty() {
            return;
        }
        self.admit(&mut header, body, dst.len());
        self.table.id_queues.with(|queues| self.push_headers(queues, &Arc::new(header), &dst));
    }

    /// Pushes `header` (whose object id already refers to this store) into
    /// the ID queue of every process in `dst`, using a pre-loaded queue
    /// snapshot. This is the final hop of every delivery, local or remote —
    /// the one place an installed [`RouteInjector`] is consulted (exactly
    /// once per (message, destination) pair).
    pub(crate) fn push_headers(
        &self,
        queues: &HashMap<ProcessId, Sender<IdQueueMsg>>,
        header: &Arc<Header>,
        dst: &[ProcessId],
    ) {
        let table = &self.table;
        table.injector.with(|injector| {
            for &d in dst {
                match injector.as_deref().map_or(InjectDecision::Deliver, |i| i.decide(header, d)) {
                    InjectDecision::Deliver => self.push_one(queues, header, d),
                    InjectDecision::Drop => {
                        table.injected_dropped.fetch_add(1, Ordering::Relaxed);
                        self.settle(header);
                    }
                    InjectDecision::Duplicate(n) => {
                        // Mint the extra credits *before* enqueuing any copy: each
                        // copy spends one credit at fetch time. If the credits cannot
                        // be minted (entry already spent), fall back to one delivery.
                        let minted =
                            header.object_id.is_some_and(|id| self.store.add_credit(id, n as usize));
                        let extra = if minted { n } else { 0 };
                        table.injected_duplicated.fetch_add(extra as u64, Ordering::Relaxed);
                        for _ in 0..=extra {
                            self.push_one(queues, header, d);
                        }
                    }
                    InjectDecision::Delay(delay) => {
                        let parked = {
                            let guard = table.delay_tx.lock();
                            guard.as_ref().is_some_and(|tx| {
                                tx.send(DelayedDelivery {
                                    header: Arc::clone(header),
                                    dst: d,
                                    deliver_at: Instant::now() + delay,
                                })
                                .is_ok()
                            })
                        };
                        if parked {
                            table.injected_delayed.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // No delay line (or it's gone): deliver immediately
                            // rather than lose the message.
                            self.push_one(queues, header, d);
                        }
                    }
                }
            }
        });
    }

    /// Delivers one header to one destination queue, settling the store credit if
    /// the destination is unreachable.
    pub(crate) fn push_one(
        &self,
        queues: &HashMap<ProcessId, Sender<IdQueueMsg>>,
        header: &Arc<Header>,
        d: ProcessId,
    ) {
        let delivered = queues
            .get(&d)
            .map(|q| q.send(IdQueueMsg::Deliver(Arc::clone(header))).is_ok())
            .unwrap_or(false);
        if !delivered {
            // A destination that deregistered its queue (retired explorer,
            // process that finished during coordinated shutdown) discards the
            // message without counting it as a drop; only a destination that was
            // never here — a genuine routing error — counts.
            if self.table.departed.lock().contains(&d) {
                self.table.departed_discards.fetch_add(1, Ordering::Relaxed);
            } else {
                self.table.add_dropped(1);
            }
            self.settle(header);
        }
    }

    /// Runs one router-shard loop until it receives [`RouterCmd::Shutdown`] or
    /// every command sender disconnects. `shard` names the per-shard burst
    /// counter (`comm.router.{shard}.bursts`); the broker-wide backlog gauge is
    /// decremented here for every command taken off a shard queue.
    pub(crate) fn run_router(&self, shard: usize, comm_rx: Receiver<RouterCmd>, uplinks: &Uplinks) {
        let routed_messages = self.telemetry.counter("comm.routed_messages");
        let bursts = self.telemetry.counter(&format!("comm.router.{shard}.bursts"));
        let mut batch: Vec<RouterCmd> = Vec::with_capacity(DRAIN_BATCH);
        let mut per_machine: HashMap<MachineId, Vec<RemoteEnvelope>> = HashMap::new();
        loop {
            // Block for the first command, then opportunistically drain a burst.
            match comm_rx.recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => return,
            }
            loop {
                if batch.len() >= DRAIN_BATCH {
                    break;
                }
                match comm_rx.try_recv() {
                    Ok(cmd) => batch.push(cmd),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }
            bursts.inc();
            // The gauge counts deliveries only (the shutdown sentinel was never
            // counted in), so the broker-wide depth returns to zero at drain.
            let delivers =
                batch.iter().filter(|c| matches!(c, RouterCmd::Deliver(_))).count() as i64;
            self.queue_depth.add(-delivers);
            // One ID-queue snapshot per burst, borrowed for the local pushes.
            let mut shutdown = false;
            self.table.id_queues.with(|queues| {
                for cmd in batch.drain(..) {
                    let Delivery { header, plan } = match cmd {
                        RouterCmd::Deliver(d) => d,
                        RouterCmd::Shutdown => {
                            // Keep draining: FIFO guarantees every message submitted
                            // before shutdown precedes the sentinel, and racing
                            // stragglers behind it still have store credits to settle.
                            shutdown = true;
                            continue;
                        }
                    };
                    self.telemetry.emit(EventKind::Routed, header.id, plan.fanout() as u64);
                    routed_messages.inc();
                    // Local destinations: hand the object id straight to their ID
                    // queues (one Arc clone each).
                    self.push_headers(queues, &header, &plan.local);
                    // Remote machines: the router is each group's consumer — its
                    // fetch spends the machine's credit, so a group that cannot be
                    // forwarded has nothing left to settle, only drops to count.
                    // Envelopes group under their uplink; the burst flushes below.
                    for (machine, dst) in plan.remote {
                        match header.object_id.and_then(|id| self.store.fetch(id)) {
                            Some(body) => per_machine.entry(machine).or_default().push(
                                RemoteEnvelope { header: (*header).clone(), body, dst },
                            ),
                            None => self.table.add_dropped(dst.len() as u64),
                        }
                    }
                }
            });
            // Flush remote groups: one uplink lookup per machine per burst. The
            // uplink thread pays the NIC cost so routing of subsequent local
            // traffic is never blocked behind a slow link.
            if !per_machine.is_empty() {
                let uplinks = uplinks.lock();
                for (machine, envelopes) in per_machine.drain() {
                    let n_dst: u64 = envelopes.iter().map(|e| e.dst.len() as u64).sum();
                    let sent =
                        uplinks.get(&machine).map(|tx| tx.send(envelopes).is_ok()).unwrap_or(false);
                    if !sent {
                        self.table.add_dropped(n_dst);
                    }
                }
            }
            if shutdown {
                return;
            }
        }
    }
}

/// How many queued commands the router folds into one drain burst. Within a
/// burst remote envelopes are grouped per machine and each ID-queue snapshot
/// is loaded once.
const DRAIN_BATCH: usize = 64;

/// The router shard that owns `pid`: a stable hash over the shard count.
pub(crate) fn shard_for(pid: ProcessId, shards: usize) -> usize {
    (crate::pid_hash(pid) % shards as u64) as usize
}

/// Splits `plan` by router shard (indexed by shard): a local destination goes
/// to the shard that owns it, a remote machine's group to the shard that owns
/// that machine's broker, so the body still crosses the wire once per machine.
/// Every message to one destination thus takes one shard, whatever else it is
/// addressed to: per-(src,dst) FIFO holds under sharding.
fn by_shard(plan: SplitPlan, shards: usize) -> Vec<SplitPlan> {
    let mut parts: Vec<SplitPlan> = (0..shards).map(|_| SplitPlan::default()).collect();
    for d in plan.local {
        parts[shard_for(d, shards)].local.push(d);
    }
    for (machine, group) in plan.remote {
        parts[shard_for(ProcessId::broker(machine as u32), shards)].remote.push((machine, group));
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn hub() -> Hub {
        Hub::new(crate::store::DEFAULT_CAPACITY, Telemetry::disabled())
    }

    #[test]
    fn split_partitions_by_machine() {
        let table = RoutingTable::default();
        table.add_route(ProcessId::explorer(0), 0);
        table.add_route(ProcessId::explorer(1), 1);
        table.add_route(ProcessId::learner(0), 0);
        let plan = table.split(
            0,
            &[ProcessId::explorer(0), ProcessId::explorer(1), ProcessId::learner(0)],
        );
        assert_eq!(plan.local, vec![ProcessId::explorer(0), ProcessId::learner(0)]);
        assert_eq!(plan.remote, vec![(1, vec![ProcessId::explorer(1)])]);
        assert_eq!(plan.unknown, 0);
        assert_eq!(plan.fanout(), 3);
    }

    #[test]
    fn split_counts_unknown_without_tallying_drops() {
        let table = RoutingTable::default();
        let plan = table.split(0, &[ProcessId::explorer(9)]);
        assert!(plan.local.is_empty());
        assert!(plan.remote.is_empty());
        assert_eq!(plan.unknown, 1);
        assert_eq!(plan.fanout(), 0);
        assert_eq!(table.dropped(), 0, "split itself does not account drops");
    }

    #[test]
    fn push_headers_reclaims_credits_for_closed_queues() {
        let hub = hub();
        let (tx, rx) = unbounded();
        drop(rx); // queue closed
        assert!(hub.table.add_id_queue(ProcessId::learner(0), tx));
        let id = hub.store.insert(bytes::Bytes::from_static(b"x"), 1);
        let mut header =
            Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        header.object_id = Some(id);
        let queues = hub.table.id_queues.load();
        hub.push_headers(&queues, &Arc::new(header), &[ProcessId::learner(0)]);
        assert_eq!(hub.table.dropped(), 1);
        assert!(hub.store.is_empty(), "credit reclaimed; no leak");
    }

    #[test]
    fn push_headers_reclaims_credits_for_unregistered_destinations() {
        let hub = hub();
        let id = hub.store.insert(bytes::Bytes::from_static(b"y"), 1);
        let mut header =
            Header::new(ProcessId::explorer(0), vec![ProcessId::learner(3)], MessageKind::Rollout);
        header.object_id = Some(id);
        let queues = hub.table.id_queues.load();
        hub.push_headers(&queues, &Arc::new(header), &[ProcessId::learner(3)]);
        assert_eq!(hub.table.dropped(), 1);
        assert!(hub.store.is_empty(), "credit reclaimed; no leak");
    }

    #[test]
    fn dead_uplink_reclaims_credits_and_counts_drops() {
        // A remote group whose uplink is gone (disconnected or never built)
        // must spend the machine's store credit and count every destination
        // behind it as dropped — no store leak either way.
        let hub = hub();
        let (dead_tx, dead_rx) = unbounded::<Vec<RemoteEnvelope>>();
        drop(dead_rx); // uplink thread gone
        let uplinks = Mutex::new(HashMap::from([(1, dead_tx)]));
        let (tx, rx) = unbounded();
        // Machine 1: closed uplink. Machine 2: no uplink registered at all.
        let mut header = Header::new(
            ProcessId::learner(0),
            vec![ProcessId::explorer(0), ProcessId::explorer(1)],
            MessageKind::Parameters,
        );
        header.object_id = Some(hub.store.insert(bytes::Bytes::from_static(b"w"), 2));
        tx.send(RouterCmd::Deliver(Delivery {
            header: Arc::new(header),
            plan: SplitPlan {
                remote: vec![(1, vec![ProcessId::explorer(0)]), (2, vec![ProcessId::explorer(1)])],
                ..SplitPlan::default()
            },
        }))
        .unwrap();
        tx.send(RouterCmd::Shutdown).unwrap();
        hub.run_router(0, rx, &uplinks);
        assert_eq!(hub.table.dropped(), 2, "one drop per unreachable destination");
        assert!(hub.store.is_empty(), "both machine credits settled; no leak");
    }

    #[test]
    fn shard_for_is_stable_and_spreads() {
        // Same destination → same shard, always (FIFO preservation).
        let pid = ProcessId::explorer(3);
        let s = shard_for(pid, 4);
        for _ in 0..8 {
            assert_eq!(shard_for(pid, 4), s);
        }
        assert_eq!(shard_for(pid, 1), 0);
        // 256 distinct destinations must not all collapse onto one shard.
        let mut hit = [false; 4];
        for i in 0..256 {
            hit[shard_for(ProcessId::explorer(i), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard owns some destinations");
    }

    #[test]
    fn by_shard_sends_each_destination_to_its_own_shard() {
        let local: Vec<ProcessId> = (0..16).map(ProcessId::explorer).collect();
        let remote = vec![(1, vec![ProcessId::explorer(16), ProcessId::explorer(17)])];
        let plan = SplitPlan { local: local.clone(), remote: remote.clone(), unknown: 0 };
        let parts = by_shard(plan, 4);
        assert!(parts.iter().filter(|p| p.fanout() > 0).count() > 1, "sixteen destinations span shards");
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.local.iter().all(|&d| shard_for(d, 4) == shard));
            assert!(part.remote.iter().all(|(m, _)| shard_for(ProcessId::broker(*m as u32), 4) == shard));
        }
        let fanout: usize = parts.iter().map(SplitPlan::fanout).sum();
        assert_eq!(fanout, local.len() + remote.len(), "the credits are the plan's, split");
        let groups: Vec<_> = parts.into_iter().flat_map(|p| p.remote).collect();
        assert_eq!(groups, remote, "a machine's group crosses the wire once");
    }

    #[test]
    fn broadcast_enqueues_shared_header() {
        // The O(n) broadcast property: every ID queue receives a clone of the
        // *same* header allocation.
        let hub = hub();
        let mut rxs = Vec::new();
        for i in 0..4 {
            let (tx, rx) = unbounded();
            assert!(hub.table.add_id_queue(ProcessId::explorer(i), tx));
            rxs.push(rx);
        }
        let dst: Vec<ProcessId> = (0..4).map(ProcessId::explorer).collect();
        let mut header = Header::new(ProcessId::learner(0), dst.clone(), MessageKind::Parameters);
        header.object_id = Some(hub.store.insert(bytes::Bytes::from_static(b"w"), 4));
        let header = Arc::new(header);
        let queues = hub.table.id_queues.load();
        hub.push_headers(&queues, &header, &dst);
        for rx in &rxs {
            match rx.try_recv().expect("delivered") {
                IdQueueMsg::Deliver(h) => {
                    assert!(Arc::ptr_eq(&h, &header), "queues share one header allocation")
                }
                IdQueueMsg::Close => panic!("unexpected close"),
            }
        }
        assert_eq!(hub.table.dropped(), 0);
    }
}
