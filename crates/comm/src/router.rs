//! The algorithm-agnostic router, and the per-machine state it routes over.
//!
//! Routing is not a thread: it is [`Hub::dispatch`], run by the sender on its
//! own thread once the body is in the store. Local destinations get the
//! header (with its object id) pushed into their ID queues; destinations on
//! other machines get the body forwarded once per machine through that
//! machine's uplink. The router never inspects or interprets bodies — it is
//! *algorithm agnostic* (paper §3.2.1).
//!
//! A [`Hub`] is one machine's object store, routing table and counters, and
//! what happens to a message at a machine is each one method of it:
//! [`Hub::admit`] is the only way space for a body is reserved in the store
//! (the lane comes from [`MessageKind::priority_lane`] on every path),
//! [`Hub::dispatch`] the source side, which seals the written body,
//! [`Hub::arrive`] the far side of an uplink, and [`Hub::settle`] the only
//! way a fetch credit is given back for a header nobody will consume.
//!
//! # Control-plane fast path
//!
//! Three properties keep the per-message cost flat as fan-out grows:
//!
//! * **Snapshot routing.** `routes` and `id_queues` are [`SnapshotCell`]
//!   snapshots: [`RoutingTable::split`] and [`Hub::push_headers`] take zero
//!   locks per message; the rare writers (endpoint registration, fabric
//!   merges) pay the copy instead.
//! * **Split once.** `Broker::submit` computes the local/remote split once
//!   per message and `dispatch` routes by that [`SplitPlan`], so store fetch
//!   credits always match the destinations served.
//! * **O(n) broadcast.** ID queues carry `Arc<Header>`: an n-way broadcast
//!   enqueues n pointer clones of one header instead of n deep copies of an
//!   n-entry destination list.
//!
//! A producer routes its own messages in the order it sends them, so
//! per-(src,dst) FIFO holds whatever the destination lists are.

use crate::buffer::Buffer;
use crate::inject::{DelayedDelivery, InjectDecision, InjectionStats, RouteInjector};
use crate::snapshot::SnapshotCell;
use crate::store::{ObjectStore, Reservation};
use netsim::MachineId;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xingtian_message::{CompressionKind, Header, MessageKind, ProcessId};
use xt_telemetry::{EventKind, Telemetry};

/// A per-process ID queue: delivered headers whose object ids refer to the
/// local store. Routing snapshots a reader may still pin hold it too, so its
/// end is the explicit close in [`RoutingTable::remove_id_queue`].
pub(crate) type IdQueue = Arc<Buffer<Arc<Header>>>;

/// The local/remote partition of a destination list.
#[derive(Debug, Default)]
pub struct SplitPlan {
    /// Destinations hosted on this machine: the header's own list when every
    /// destination is local, so the common plan allocates nothing.
    pub local: Arc<[ProcessId]>,
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
/// Routing state shared between a broker, its endpoints' receiver threads,
/// its delay line, and (after [`crate::connect_brokers`]) peer brokers that
/// propagate route updates.
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Process → hosting machine. Read lock-free on every submit.
    pub(crate) routes: SnapshotCell<HashMap<ProcessId, MachineId>>,
    /// Local ID queues, one per local process. Read lock-free on every
    /// delivery.
    pub(crate) id_queues: SnapshotCell<HashMap<ProcessId, IdQueue>>,
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
    /// Feed into the broker's delay-line thread, which `Broker::shutdown`
    /// closes; a delivery it refuses is made at once.
    pub(crate) delay_line: Buffer<DelayedDelivery>,
    /// Injected-fault tallies (drops / delays executed).
    pub(crate) injected_dropped: AtomicU64,
    pub(crate) injected_delayed: AtomicU64,
}

impl RoutingTable {
    /// Splits a destination list into local destinations and per-remote-
    /// machine groups from the point of view of machine `here`, borrowing one
    /// routing snapshot (no locks). Unroutable
    /// destinations are tallied in the plan; the caller decides whether that
    /// counts as a drop.
    pub fn split(&self, here: MachineId, dst: &Arc<[ProcessId]>) -> SplitPlan {
        self.routes.with(|routes| {
            let mut plan = SplitPlan::default();
            for &d in dst.iter() {
                match routes.get(&d) {
                    Some(&m) if m == here => {}
                    Some(&m) => match plan.remote.iter_mut().find(|(rm, _)| *rm == m) {
                        Some((_, group)) => group.push(d),
                        None => plan.remote.push((m, vec![d])),
                    },
                    None => plan.unknown += 1,
                }
            }
            plan.local = if plan.remote.is_empty() && plan.unknown == 0 {
                Arc::clone(dst)
            } else {
                dst.iter().copied().filter(|d| routes.get(d) == Some(&here)).collect()
            };
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
    pub(crate) fn add_id_queue(&self, pid: ProcessId, queue: IdQueue) -> bool {
        let added = self.id_queues.modify(|queues| match queues.entry(pid) {
            Entry::Vacant(slot) => {
                slot.insert(queue);
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

    /// Unregisters `pid`'s ID queue and closes it: its receiver thread
    /// delivers the headers already queued, then exits, and a sender still
    /// holding an older snapshot has its header refused, a departed discard.
    pub(crate) fn remove_id_queue(&self, pid: ProcessId) {
        self.departed.lock().insert(pid);
        if let Some(queue) = self.id_queues.modify(|queues| queues.remove(&pid)) {
            queue.close();
        }
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

    /// Injected-fault tallies executed on this table's machine.
    pub fn injection_stats(&self) -> InjectionStats {
        InjectionStats {
            dropped: self.injected_dropped.load(Ordering::Relaxed),
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
pub(crate) type Uplinks = Mutex<HashMap<MachineId, Arc<Buffer<RemoteEnvelope>>>>;

/// One machine's half of the channel: its object store, its routing table and
/// the counters every hop reports into. Shared by the broker, its delay-line
/// and receiver threads, and the uplink threads of peers delivering into this
/// machine; it owns no thread handle and no uplink, so none of those
/// threads keeps itself or a broker alive through it.
#[derive(Debug)]
pub(crate) struct Hub {
    pub(crate) store: ObjectStore,
    pub(crate) table: RoutingTable,
    pub(crate) telemetry: Telemetry,
    /// Messages routed at their source (`comm.routed_messages`).
    routed_messages: xt_telemetry::CounterHandle,
    /// Bytes entering the store at their source per [`CompressionKind`], in
    /// the order of [`CompressionKind::ALL`]. Pre-created handles so
    /// `dispatch` never touches the metrics registry lock.
    wire_bytes: [xt_telemetry::CounterHandle; CompressionKind::ALL.len()],
    /// Stored size of every `Parameters` broadcast body — the direct
    /// observable for the parameter plane's savings.
    broadcast_bytes: xt_telemetry::HistogramHandle,
}

impl Hub {
    pub(crate) fn new(store_capacity: usize, telemetry: Telemetry) -> Self {
        let mut store = ObjectStore::with_capacity(store_capacity);
        store.gate_waits = telemetry.counter("comm.gate_waits");
        Hub {
            store,
            table: RoutingTable::default(),
            routed_messages: telemetry.counter("comm.routed_messages"),
            wire_bytes: CompressionKind::ALL
                .map(|k| telemetry.counter(&format!("comm.bytes_on_wire.{}", k.name()))),
            broadcast_bytes: telemetry.histogram("comm.broadcast_bytes"),
            telemetry,
        }
    }

    /// The one admission into this machine's store: reserves `len` bytes for
    /// a body of `kind`, on the lane the kind names, whichever path brought
    /// the body here. Data kinds wait at the capacity gate — on remote arrival
    /// too, which is the cross-machine back-pressure a finite shared segment
    /// gives; priority kinds never do.
    pub(crate) fn admit(&self, kind: MessageKind, len: usize) -> Reservation<'_> {
        self.store.create(len, kind.priority_lane())
    }

    /// [`admit`](Hub::admit) for a body that already exists, copied in once.
    pub(crate) fn admit_copy(&self, kind: MessageKind, body: &[u8]) -> Reservation<'_> {
        let mut reservation = self.admit(kind, body.len());
        reservation.body_mut().extend_from_slice(body);
        reservation
    }

    /// The one settlement: spends the fetch credit of one destination that
    /// will never consume `header`, so the store entry cannot leak. Whether
    /// that is also a *drop* is the caller's to count.
    pub(crate) fn settle(&self, header: &Header) {
        if let Some(id) = header.object_id {
            self.store.drop_credit(id);
        }
    }

    /// Source side, for a body written in its stored form (from `submit`,
    /// after any compression), run on the submitting thread: counts the
    /// body, seals it with the plan's fan-out, pushes its header to the local
    /// destinations and sends each remote machine its envelope through that
    /// machine's uplink, whose thread pays the NIC cost.
    pub(crate) fn dispatch(
        &self,
        uplinks: &Uplinks,
        mut header: Header,
        body: Reservation<'_>,
        plan: SplitPlan,
    ) {
        let stored_len = body.len() as u64;
        let kind = CompressionKind::ALL.iter().position(|&k| k == header.compression);
        self.wire_bytes[kind.expect("ALL lists every kind")].add(stored_len);
        if header.kind == MessageKind::Parameters {
            self.broadcast_bytes.record(stored_len);
        }
        header.object_id = Some(body.seal(plan.fanout()));
        self.telemetry.emit(EventKind::StoreInserted, header.id, stored_len);
        self.telemetry.emit(EventKind::Routed, header.id, plan.fanout() as u64);
        self.routed_messages.inc();
        let header = Arc::new(header);
        if plan.remote.is_empty() {
            // The last queue takes the sender's reference, so a unicast's
            // receiver holds the only one and moves the header out.
            self.table.id_queues.with(|queues| self.push_headers(queues, header, &plan.local));
            return;
        }
        self.table.id_queues.with(|queues| self.push_headers(queues, Arc::clone(&header), &plan.local));
        // The sender is each remote group's consumer: its fetch spends the
        // machine's credit, so a group that cannot be forwarded has nothing
        // left to settle, only drops to count.
        let uplinks = uplinks.lock();
        for (machine, dst) in plan.remote {
            let n_dst = dst.len() as u64;
            let sent = header.object_id.and_then(|id| self.store.fetch(id)).is_some_and(|body| {
                let envelope = RemoteEnvelope { header: (*header).clone(), body, dst };
                uplinks.get(&machine).is_some_and(|uplink| uplink.push(envelope).is_ok())
            });
            if !sent {
                self.table.add_dropped(n_dst);
            }
        }
    }

    /// Far side of an uplink: writes a body that crossed the wire once, into
    /// a slab of this machine's store, and pushes its header to the
    /// destinations here.
    pub(crate) fn arrive(&self, RemoteEnvelope { mut header, body, dst }: RemoteEnvelope) {
        if dst.is_empty() {
            return;
        }
        let reservation = self.admit_copy(header.kind, &body);
        drop(body);
        header.object_id = Some(reservation.seal(dst.len()));
        self.table.id_queues.with(|queues| self.push_headers(queues, Arc::new(header), &dst));
    }

    /// Pushes `header` (whose object id already refers to this store) into
    /// the ID queue of every process in `dst`, using a pre-loaded queue
    /// snapshot. This is the final hop of every delivery, local or remote —
    /// the one place an installed [`RouteInjector`] is consulted (exactly
    /// once per (message, destination) pair). The last destination takes
    /// `header` itself, the others a clone of the reference.
    pub(crate) fn push_headers(
        &self,
        queues: &HashMap<ProcessId, IdQueue>,
        header: Arc<Header>,
        dst: &[ProcessId],
    ) {
        let Some((&last, rest)) = dst.split_last() else { return };
        self.table.injector.with(|injector| {
            let injector = injector.as_deref();
            for &d in rest {
                self.push_decided(queues, injector, Arc::clone(&header), d);
            }
            self.push_decided(queues, injector, header, last);
        });
    }

    /// One (message, destination) pair of [`push_headers`](Hub::push_headers):
    /// delivered, dropped or parked on the delay line as `injector` decides.
    fn push_decided(
        &self,
        queues: &HashMap<ProcessId, IdQueue>,
        injector: Option<&dyn RouteInjector>,
        header: Arc<Header>,
        d: ProcessId,
    ) {
        let table = &self.table;
        match injector.map_or(InjectDecision::Deliver, |i| i.decide(&header, d)) {
            InjectDecision::Deliver => self.push_one(queues, header, d),
            InjectDecision::Drop => {
                table.injected_dropped.fetch_add(1, Ordering::Relaxed);
                self.settle(&header);
            }
            InjectDecision::Delay(delay) => {
                let parked = DelayedDelivery { header, dst: d, deliver_at: Instant::now() + delay };
                match table.delay_line.push(parked) {
                    Ok(()) => {
                        table.injected_delayed.fetch_add(1, Ordering::Relaxed);
                    }
                    // The line is shut: deliver immediately rather than lose
                    // the message.
                    Err(refused) => self.push_one(queues, refused.header, d),
                }
            }
        }
    }

    /// Delivers one header to one destination queue, settling the store credit if
    /// the destination is unreachable.
    pub(crate) fn push_one(
        &self,
        queues: &HashMap<ProcessId, IdQueue>,
        header: Arc<Header>,
        d: ProcessId,
    ) {
        let undelivered = match queues.get(&d) {
            Some(q) => q.push(header).err(),
            None => Some(header),
        };
        if let Some(header) = undelivered {
            // A destination that deregistered its queue (retired explorer,
            // process that finished during coordinated shutdown) discards the
            // message without counting it as a drop; only a destination that was
            // never here — a genuine routing error — counts.
            if self.table.departed.lock().contains(&d) {
                self.table.departed_discards.fetch_add(1, Ordering::Relaxed);
            } else {
                self.table.add_dropped(1);
            }
            self.settle(&header);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            &Arc::from([ProcessId::explorer(0), ProcessId::explorer(1), ProcessId::learner(0)]),
        );
        assert_eq!(&plan.local[..], [ProcessId::explorer(0), ProcessId::learner(0)]);
        assert_eq!(plan.remote, vec![(1, vec![ProcessId::explorer(1)])]);
        assert_eq!(plan.unknown, 0);
        assert_eq!(plan.fanout(), 3);
        let all_local: Arc<[ProcessId]> = Arc::from([ProcessId::learner(0), ProcessId::explorer(0)]);
        let plan = table.split(0, &all_local);
        assert!(Arc::ptr_eq(&plan.local, &all_local), "an all-local plan shares the header's list");
        assert_eq!(plan.fanout(), 2);
    }

    #[test]
    fn split_counts_unknown_without_tallying_drops() {
        let table = RoutingTable::default();
        let plan = table.split(0, &Arc::from([ProcessId::explorer(9)]));
        assert!(plan.local.is_empty());
        assert!(plan.remote.is_empty());
        assert_eq!(plan.unknown, 1);
        assert_eq!(plan.fanout(), 0);
        assert_eq!(table.dropped(), 0, "split itself does not account drops");
    }

    #[test]
    fn push_headers_reclaims_credits_for_closed_queues() {
        let hub = hub();
        let queue = IdQueue::default();
        queue.close(); // closed without deregistering
        assert!(hub.table.add_id_queue(ProcessId::learner(0), queue));
        let id = hub.store.insert(bytes::Bytes::from_static(b"x"), 1);
        let mut header =
            Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], MessageKind::Rollout);
        header.object_id = Some(id);
        let queues = hub.table.id_queues.load();
        hub.push_headers(&queues, Arc::new(header), &[ProcessId::learner(0)]);
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
        hub.push_headers(&queues, Arc::new(header), &[ProcessId::learner(3)]);
        assert_eq!(hub.table.dropped(), 1);
        assert!(hub.store.is_empty(), "credit reclaimed; no leak");
    }

    #[test]
    fn dead_uplink_reclaims_credits_and_counts_drops() {
        // A remote group whose uplink is gone (disconnected or never built)
        // must spend the machine's store credit and count every destination
        // behind it as dropped — no store leak either way.
        let hub = hub();
        let dead = Arc::new(Buffer::new());
        dead.close(); // uplink shut
        let uplinks = Mutex::new(HashMap::from([(1, dead)]));
        // Machine 1: closed uplink. Machine 2: no uplink registered at all.
        let header = Header::new(
            ProcessId::learner(0),
            vec![ProcessId::explorer(0), ProcessId::explorer(1)],
            MessageKind::Parameters,
        );
        let plan = SplitPlan {
            remote: vec![(1, vec![ProcessId::explorer(0)]), (2, vec![ProcessId::explorer(1)])],
            ..SplitPlan::default()
        };
        let body = hub.admit_copy(header.kind, b"w");
        hub.dispatch(&uplinks, header, body, plan);
        assert_eq!(hub.table.dropped(), 2, "one drop per unreachable destination");
        assert!(hub.store.is_empty(), "both machine credits settled; no leak");
    }

    #[test]
    fn broadcast_enqueues_shared_header() {
        // The O(n) broadcast property: every ID queue receives a clone of the
        // *same* header allocation.
        let hub = hub();
        let mut queues = Vec::new();
        for i in 0..4 {
            let queue = IdQueue::default();
            assert!(hub.table.add_id_queue(ProcessId::explorer(i), Arc::clone(&queue)));
            queues.push(queue);
        }
        let dst: Vec<ProcessId> = (0..4).map(ProcessId::explorer).collect();
        let mut header = Header::new(ProcessId::learner(0), dst.clone(), MessageKind::Parameters);
        header.object_id = Some(hub.store.insert(bytes::Bytes::from_static(b"w"), 4));
        let header = Arc::new(header);
        hub.push_headers(&hub.table.id_queues.load(), Arc::clone(&header), &dst);
        for queue in &queues {
            let h = queue.try_pop().expect("delivered");
            assert!(Arc::ptr_eq(&h, &header), "queues share one header allocation");
        }
        assert_eq!(hub.table.dropped(), 0);
    }
}
