//! Shared-memory object store with fan-out reference counts.
//!
//! The paper keeps message bodies "inside the object store implemented via
//! shared memory for zero-copy communication among processes" (§3.2.1). Here
//! the store follows the Plasma protocol over recycled slabs:
//!
//! 1. [`ObjectStore::create`] charges the body's length at the capacity gate
//!    (a data-lane producer parks here while the store is full, before it
//!    has encoded anything) and hands back a [`Reservation`] over a slab of
//!    the body's size class;
//! 2. the producer writes the body in place, once;
//! 3. [`Reservation::seal`] publishes it under a fresh [`ObjectId`] with its
//!    fan-out. Object ids, and so per-(src,dst) FIFO, follow seal order.
//!
//! [`ObjectStore::insert`] is create + one copy + seal, for a caller that
//! already holds its body. Fetching hands out [`Bytes`] views of the slab
//! (O(1), no payload copy), and the entry is freed once every destination
//! has fetched it, so broadcast parameters occupy memory exactly once
//! regardless of explorer count. A reservation dropped unsealed — a producer
//! that panics between create and seal — gives its bytes back to the gate
//! and its slab back to its class.
//!
//! # Slabs
//!
//! Bodies up to [`MAX_POOLED_SLAB`] take a slab from the power-of-two size
//! class that fits them (64 B upwards); larger bodies get a buffer of their
//! own length. The last drop of a fetched view — on the receiver thread or
//! on the consumer that decoded it — returns a pooled slab to its class, which
//! keeps at most [`CLASS_RETAIN_BYTES`] of free slabs and frees the rest, so
//! a burst does not stay resident. A steady small-message stream therefore
//! never reaches the allocator for its bodies.
//!
//! # Concurrency layout
//!
//! The store is built for 256-explorer fan-in/fan-out, so nothing on the
//! fetch path crosses a store-wide lock:
//!
//! * entries live in [`SHARD_COUNT`] lock-striped shards keyed by object id
//!   (ids are sequential, so consecutive objects stripe across shards);
//! * an entry with one destination is removed by its one fetch inside a
//!   single critical section of its shard;
//! * an entry with several destinations carries its remaining fetch credits
//!   in an `AtomicUsize` — a fetch holds its shard lock only long enough to
//!   clone the entry `Arc`, then spends the credit with one atomic decrement,
//!   so 256 destinations fetching the same broadcast body never serialize
//!   behind a mutex while the payload handle is cloned. A credit only ever
//!   goes down: seal sets it to the fan-out, and [`ObjectStore::fetch`]'s
//!   `checked_sub` is the one read-modify-write on it
//!   ([`ObjectStore::drop_credit`] is a fetch), so exactly one fetcher takes
//!   it from 1 to 0 and removes the entry;
//! * the capacity gate is a dedicated mutex: a waiter re-checks *and
//!   reserves* while holding it, so concurrent creates can never all pass
//!   the check before any of them reserves.

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::{Entry as MapEntry, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xt_telemetry::CounterHandle;

/// Identifier of a body held in an [`ObjectStore`].
pub type ObjectId = u64;

/// Default shared-memory segment size (the real system sizes its Plasma-style
/// store explicitly; 128 MiB keeps in-flight traffic bounded without stalling
/// realistic workloads).
pub const DEFAULT_CAPACITY: usize = 128 * 1024 * 1024;

/// Number of lock stripes. 16 keeps the striping effective at 256 concurrent
/// fetchers (sequential ids spread adjacent objects across all stripes) while
/// the per-store footprint stays trivial.
pub const SHARD_COUNT: usize = 16;

/// The largest body whose slab is recycled. Larger bodies (rollouts,
/// parameter frames) are rare per second and their buffers big enough that
/// retaining them would show in the resident set.
pub const MAX_POOLED_SLAB: usize = 64 * 1024;

/// Free slabs each size class keeps, in bytes: 256 slabs of 1 KiB, 4 of
/// 64 KiB. Eleven classes bound a store's retained free slabs at 2.75 MiB.
pub const CLASS_RETAIN_BYTES: usize = 256 * 1024;

const MIN_CLASS_SHIFT: u32 = 6;
const CLASSES: usize = (MAX_POOLED_SLAB.trailing_zeros() - MIN_CLASS_SHIFT + 1) as usize;

/// The size class that holds `len` bytes, if bodies of that size are pooled.
pub(crate) fn class_of(len: usize) -> Option<usize> {
    (len <= MAX_POOLED_SLAB)
        .then(|| (len.max(1 << MIN_CLASS_SHIFT).next_power_of_two().trailing_zeros() - MIN_CLASS_SHIFT) as usize)
}

/// The store's slab classes: free lists, and the bytes handed out.
#[derive(Debug, Default)]
struct Slabs {
    free: [Mutex<Vec<Vec<u8>>>; CLASSES],
    /// Slab bytes created and not yet returned: reservations, resident
    /// bodies, and fetched views still alive anywhere.
    outstanding: AtomicUsize,
}

impl Slabs {
    /// An empty buffer able to hold `len` bytes without growing, and the
    /// slab size it counts as.
    fn take(&self, len: usize) -> (Vec<u8>, usize) {
        let (buf, size) = match class_of(len) {
            Some(c) => {
                let size = 1 << (c as u32 + MIN_CLASS_SHIFT);
                let recycled = self.free[c].lock().pop();
                (recycled.unwrap_or_else(|| Vec::with_capacity(size)), size)
            }
            None => (Vec::with_capacity(len), len),
        };
        self.outstanding.fetch_add(size, Ordering::Relaxed);
        (buf, size)
    }

    /// Returns a slab taken as `size` bytes: to its class while the class
    /// keeps fewer than its bound, to the allocator otherwise.
    fn give(&self, mut buf: Vec<u8>, size: usize) {
        self.outstanding.fetch_sub(size, Ordering::Relaxed);
        if let Some(c) = class_of(size) {
            if buf.capacity() == size {
                let mut free = self.free[c].lock();
                if free.len() * size < CLASS_RETAIN_BYTES {
                    buf.clear();
                    free.push(buf);
                }
            }
        }
    }
}

/// A sealed body: the bytes fetches view, and the slab they return to.
struct Slab {
    buf: Vec<u8>,
    size: usize,
    slabs: Arc<Slabs>,
}

impl AsRef<[u8]> for Slab {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        self.slabs.give(std::mem::take(&mut self.buf), self.size);
    }
}

/// A resident body.
#[derive(Debug)]
enum Entry {
    /// Fan-out 1: its one fetch removes it in the same critical section.
    Single { body: Bytes, gated: bool },
    /// Fan-out > 1: credits are spent outside the shard lock.
    Shared(Arc<SharedEntry>),
}

#[derive(Debug)]
struct SharedEntry {
    body: Bytes,
    /// How many fetches remain before the entry is dropped. Spent with an
    /// atomic decrement outside the shard lock.
    remaining: AtomicUsize,
    /// Whether the entry was admitted through the capacity gate (data plane)
    /// rather than the priority lane, so its release keeps the data-plane
    /// byte count balanced.
    gated: bool,
}

/// Capacity accounting, mutated only under the gate mutex so a check-then-
/// reserve is atomic.
#[derive(Debug)]
struct Gate {
    live: usize,
    /// The gate-admitted (data-plane) share of `live`. Priority-lane bodies
    /// bypass the capacity wait, so they are excluded here: this is the
    /// residency that actually back-pressures producers.
    data: usize,
}

/// Space for one body, charged at the gate and not yet published.
///
/// Write exactly [`len`](Reservation::len) bytes into
/// [`body_mut`](Reservation::body_mut), then [`seal`](Reservation::seal).
/// Dropping it unsealed releases the charge, wakes parked inserters and
/// returns the slab.
#[derive(Debug)]
pub struct Reservation<'a> {
    store: &'a ObjectStore,
    /// `None` once sealed.
    buf: Option<Vec<u8>>,
    size: usize,
    len: usize,
    gated: bool,
}

impl Reservation<'_> {
    /// The reserved body length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a reservation of zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slab, holding what has been written so far, with room for the
    /// rest of the reserved length. Writing more than that is a bug the seal
    /// reports.
    pub fn body_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("an unsealed reservation holds its slab")
    }

    /// What has been written so far.
    pub fn written(&self) -> &[u8] {
        self.buf.as_deref().expect("an unsealed reservation holds its slab")
    }

    /// Publishes the body to be fetched by `fanout` destinations and returns
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero — an object nobody will fetch would leak —
    /// or if the written length is not the reserved one. Either way the
    /// reservation is released on the unwind.
    pub fn seal(mut self, fanout: usize) -> ObjectId {
        assert!(fanout > 0, "fanout must be at least 1");
        assert_eq!(self.written().len(), self.len, "a reservation is sealed at its reserved length");
        let store = self.store;
        let buf = self.buf.take().expect("an unsealed reservation holds its slab");
        let body = Bytes::from_owner(Slab { buf, size: self.size, slabs: Arc::clone(&store.slabs) });
        let gated = self.gated;
        let entry = if fanout == 1 {
            Entry::Single { body, gated }
        } else {
            Entry::Shared(Arc::new(SharedEntry { body, remaining: AtomicUsize::new(fanout), gated }))
        };
        let id = store.next_id.fetch_add(1, Ordering::Relaxed);
        store.shard(id).lock().insert(id, entry);
        store.resident.fetch_add(1, Ordering::Relaxed);
        store.inserted.fetch_add(1, Ordering::Relaxed);
        id
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.store.release(self.len, self.gated);
            self.store.slabs.give(buf, self.size);
        }
    }
}

/// A process-shared body store.
///
/// Objects declare a *fan-out* when sealed: the number of destination
/// processes that will fetch them. [`ObjectStore::fetch`] hands out zero-copy
/// views and removes the entry on the last fetch, which keeps the store's
/// live size bounded by in-flight traffic ("no significant extra memory
/// overheads", paper §3.2.1).
///
/// Like the real shared-memory segment, the store has a fixed capacity:
/// a data-lane [`ObjectStore::create`] blocks until the object fits,
/// back-pressuring aggressive senders instead of growing without bound.
#[derive(Debug)]
pub struct ObjectStore {
    shards: Vec<Mutex<HashMap<ObjectId, Entry>>>,
    gate: Mutex<Gate>,
    space: Condvar,
    capacity: usize,
    slabs: Arc<Slabs>,
    next_id: AtomicU64,
    /// Mirror of `Gate::live` (written only under the gate lock) so readers
    /// can poll residency without contending with inserters.
    live_bytes: AtomicUsize,
    /// Mirror of `Gate::data`: resident bytes that went through the capacity
    /// gate. The elastic supervisor polls this as its backpressure signal.
    data_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    resident: AtomicUsize,
    inserted: AtomicU64,
    /// `comm.gate_waits`: creates that found the data lane full and waited
    /// at the gate, once each however long they waited (a store its hub did
    /// not give the counter counts nothing).
    pub(crate) gate_waits: CounterHandle,
}

impl Default for ObjectStore {
    fn default() -> Self {
        ObjectStore::with_capacity(DEFAULT_CAPACITY)
    }
}

impl ObjectStore {
    /// Creates an empty store with the default capacity.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Creates an empty store holding at most `capacity` bytes. Objects
    /// larger than the capacity are still admitted (alone) so oversized
    /// messages cannot deadlock the channel.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ObjectStore {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            gate: Mutex::new(Gate { live: 0, data: 0 }),
            space: Condvar::new(),
            capacity,
            slabs: Arc::default(),
            next_id: AtomicU64::new(0),
            live_bytes: AtomicUsize::new(0),
            data_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            inserted: AtomicU64::new(0),
            gate_waits: CounterHandle::default(),
        }
    }

    /// The store's capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard(&self, id: ObjectId) -> &Mutex<HashMap<ObjectId, Entry>> {
        &self.shards[(id as usize) % SHARD_COUNT]
    }

    /// Reserves `len` bytes for a body and returns the space to write it
    /// into. A data-lane reservation (`priority == false`) waits at the gate
    /// while the data lane is full; a priority-lane one — lifecycle
    /// commands, statistics, parameter broadcasts — never waits, so a wedged
    /// consumer cannot make the deployment unstoppable. An object that can
    /// never fit is admitted once the data lane drains, so oversized messages
    /// cannot deadlock the channel.
    pub fn create(&self, len: usize, priority: bool) -> Reservation<'_> {
        let gated = !priority;
        // Check-and-reserve atomically under the gate so concurrent waiters
        // cannot all observe free space and collectively overshoot. Only
        // data-lane bytes hold the gate: priority-lane bodies addressed to a
        // producer parked here could otherwise keep it shut with nobody left
        // to drain them.
        {
            let mut gate = self.gate.lock();
            let full = |gate: &Gate| gated && gate.data > 0 && gate.data + len > self.capacity;
            if full(&gate) {
                self.gate_waits.inc();
                while full(&gate) {
                    self.space.wait(&mut gate);
                }
            }
            gate.live += len;
            if gated {
                gate.data += len;
                self.data_bytes.store(gate.data, Ordering::Relaxed);
            }
            self.live_bytes.store(gate.live, Ordering::Relaxed);
            self.peak_bytes.fetch_max(gate.live, Ordering::Relaxed);
        }
        // Take the slab outside the gate.
        let (buf, size) = self.slabs.take(len);
        Reservation { store: self, buf: Some(buf), size, len, gated }
    }

    /// Inserts `body` to be fetched by `fanout` destinations and returns its
    /// id: a data-lane [`create`](ObjectStore::create), one copy of the body
    /// into the slab, and [`seal`](Reservation::seal).
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero — an object nobody will fetch would leak.
    pub fn insert(&self, body: Bytes, fanout: usize) -> ObjectId {
        assert!(fanout > 0, "fanout must be at least 1");
        let mut reservation = self.create(body.len(), false);
        reservation.body_mut().extend_from_slice(&body);
        reservation.seal(fanout)
    }

    /// Releases `len` reserved bytes and wakes blocked inserters.
    fn release(&self, len: usize, gated: bool) {
        let mut gate = self.gate.lock();
        gate.live -= len;
        if gated {
            gate.data -= len;
            self.data_bytes.store(gate.data, Ordering::Relaxed);
        }
        self.live_bytes.store(gate.live, Ordering::Relaxed);
        self.space.notify_all();
    }

    /// Fetches a zero-copy view of the object, releasing the entry when the
    /// last destination fetches it. Returns `None` for unknown (or already
    /// fully fetched) ids.
    pub fn fetch(&self, id: ObjectId) -> Option<Bytes> {
        let shared = {
            let mut shard = self.shard(id).lock();
            let MapEntry::Occupied(slot) = shard.entry(id) else { return None };
            match slot.get() {
                Entry::Shared(entry) => Arc::clone(entry),
                Entry::Single { .. } => {
                    let Entry::Single { body, gated } = slot.remove() else { unreachable!() };
                    drop(shard);
                    self.freed(body.len(), gated);
                    return Some(body);
                }
            }
        };
        // Spend one credit without the lock. `checked_sub` refuses to go
        // below zero, so an over-fetch racing the final removal cannot
        // double-free the entry.
        let prev = shared
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1))
            .ok()?;
        let body = shared.body.clone();
        if prev == 1 {
            // We spent the last credit: exactly one fetcher observes this,
            // so exactly one removal and one capacity release happen.
            self.shard(id).lock().remove(&id);
            self.freed(body.len(), shared.gated);
        }
        Some(body)
    }

    /// Accounts an entry removed by its last fetch.
    fn freed(&self, len: usize, gated: bool) {
        self.resident.fetch_sub(1, Ordering::Relaxed);
        self.release(len, gated);
    }

    /// Spends one fetch credit without returning the body. Used by routing
    /// to reclaim the credit of a destination that can no longer take
    /// delivery (closed ID queue, unroutable destination), so the entry does
    /// not leak. Returns `false` for unknown ids.
    pub fn drop_credit(&self, id: ObjectId) -> bool {
        self.fetch(id).is_some()
    }

    /// Number of objects currently resident.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// True when no objects are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident or reserved.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of resident bytes since creation.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Fraction of capacity occupied by resident bodies of either lane.
    /// Oversized lone objects (admitted despite exceeding capacity) and
    /// priority-lane bodies can push it past 1.0. The gate waits on
    /// [`data_occupancy`](ObjectStore::data_occupancy), not on this.
    pub fn occupancy(&self) -> f64 {
        self.live_bytes() as f64 / self.capacity as f64
    }

    /// Fraction of capacity occupied by *gate-admitted* (data-plane) bodies.
    ///
    /// Priority-lane bodies — lifecycle commands, statistics, parameter
    /// broadcasts: the kinds `MessageKind::priority_lane` names, at any size
    /// and on every path in — bypass the capacity wait, so they never
    /// back-pressure a producer; excluding them makes this the clean
    /// congestion signal: it only rises when data-plane producers are
    /// genuinely outrunning consumers. The elastic supervisor polls this, not
    /// [`occupancy`] (whose transient control-plane spikes would mask the
    /// drain).
    ///
    /// [`occupancy`]: ObjectStore::occupancy
    pub fn data_occupancy(&self) -> f64 {
        self.data_bytes.load(Ordering::Relaxed) as f64 / self.capacity as f64
    }

    /// Total number of objects ever inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Slab bytes created and not yet returned to their class or freed:
    /// reservations, resident bodies, and fetched views still held anywhere
    /// (a receive buffer, a consumer). Fetched views are outside the gate,
    /// so this is what bounds the channel's memory beyond the capacity.
    #[cfg(test)]
    pub(crate) fn slab_bytes_outstanding(&self) -> usize {
        self.slabs.outstanding.load(Ordering::Relaxed)
    }

    /// Free slabs held by each size class, smallest first.
    #[cfg(test)]
    pub(crate) fn free_slabs(&self) -> [usize; CLASSES] {
        std::array::from_fn(|c| self.slabs.free[c].lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A priority-lane body: created past a full gate, written, sealed.
    fn insert_priority(s: &ObjectStore, body: &[u8], fanout: usize) -> ObjectId {
        let mut reservation = s.create(body.len(), true);
        reservation.body_mut().extend_from_slice(body);
        reservation.seal(fanout)
    }

    #[test]
    fn occupancy_tracks_live_bytes() {
        let s = ObjectStore::with_capacity(100);
        assert_eq!(s.occupancy(), 0.0);
        let id = s.insert(Bytes::from(vec![0u8; 50]), 1);
        assert!((s.occupancy() - 0.5).abs() < 1e-9);
        let _ = s.fetch(id);
        assert_eq!(s.occupancy(), 0.0, "fully fetched bodies free their share");
    }

    #[test]
    fn data_occupancy_excludes_priority_lane() {
        let s = ObjectStore::with_capacity(100);
        let p = insert_priority(&s, &[0u8; 60], 1);
        assert!((s.occupancy() - 0.6).abs() < 1e-9, "priority bytes are resident");
        assert_eq!(s.data_occupancy(), 0.0, "but they are not a congestion signal");
        let d = s.insert(Bytes::from(vec![0u8; 40]), 1);
        assert!((s.data_occupancy() - 0.4).abs() < 1e-9);
        let _ = s.fetch(p);
        assert!((s.data_occupancy() - 0.4).abs() < 1e-9, "priority release leaves data share");
        let _ = s.fetch(d);
        assert_eq!(s.data_occupancy(), 0.0);
        assert_eq!(s.occupancy(), 0.0);
    }

    #[test]
    fn insert_fetch_removes_at_zero() {
        let s = ObjectStore::new();
        let id = s.insert(Bytes::from_static(b"abc"), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.fetch(id).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(s.len(), 1, "one credit remains");
        assert_eq!(s.fetch(id).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(s.len(), 0, "entry freed on last fetch");
        assert!(s.fetch(id).is_none());
    }

    #[test]
    fn insert_copies_once_fetches_share() {
        let s = ObjectStore::new();
        let body = Bytes::from(vec![9u8; 1024]);
        let ptr = body.as_ptr();
        let id = s.insert(body, 2);
        let a = s.fetch(id).unwrap();
        let b = s.fetch(id).unwrap();
        assert_ne!(a.as_ptr(), ptr, "insert writes into the (simulated) shared segment");
        assert_eq!(a.as_ptr(), b.as_ptr(), "fetches share the resident buffer");
    }

    #[test]
    fn create_write_seal_publishes_in_seal_order() {
        let s = ObjectStore::with_capacity(100);
        let mut first = s.create(3, false);
        let mut second = s.create(2, true);
        assert_eq!((s.live_bytes(), s.len()), (5, 0), "reserved, not resident");
        assert!((s.data_occupancy() - 0.03).abs() < 1e-9, "only the data lane counts");
        second.body_mut().extend_from_slice(b"hi");
        first.body_mut().extend_from_slice(b"abc");
        let b = second.seal(1);
        let a = first.seal(1);
        assert!(b < a, "ids follow seal order, not create order");
        assert_eq!(&s.fetch(a).unwrap()[..], b"abc");
        assert_eq!(&s.fetch(b).unwrap()[..], b"hi");
        assert!(s.is_empty());
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "sealed at its reserved length")]
    fn a_short_write_cannot_be_sealed() {
        let s = ObjectStore::new();
        let mut r = s.create(4, false);
        r.body_mut().extend_from_slice(b"abc");
        r.seal(1);
    }

    #[test]
    fn a_fetched_slab_returns_to_its_class_and_is_reused() {
        let s = ObjectStore::new();
        let one_kib = class_of(1024).unwrap();
        let id = s.insert(Bytes::from(vec![1u8; 1000]), 1);
        let body = s.fetch(id).unwrap();
        let ptr = body.as_ptr();
        assert_eq!(s.slab_bytes_outstanding(), 1024, "a 1000 B body takes a 1 KiB slab");
        assert_eq!(s.free_slabs()[one_kib], 0);
        drop(body);
        assert_eq!(s.slab_bytes_outstanding(), 0);
        assert_eq!(s.free_slabs()[one_kib], 1, "the last view returned it");
        let again = s.fetch(s.insert(Bytes::from(vec![2u8; 1024]), 1)).unwrap();
        assert_eq!(again.as_ptr(), ptr, "the next body of its class reuses it");
        assert_eq!(&again[..], &[2u8; 1024][..]);
        // A body above the pooled classes has a buffer of its own.
        let big = s.fetch(s.insert(Bytes::from(vec![3u8; MAX_POOLED_SLAB + 1]), 1)).unwrap();
        assert_eq!(s.slab_bytes_outstanding(), 1024 + MAX_POOLED_SLAB + 1);
        drop((again, big));
        assert_eq!(s.slab_bytes_outstanding(), 0);
        assert_eq!(s.free_slabs().iter().sum::<usize>(), 1, "large buffers are not retained");
    }

    #[test]
    fn each_class_retains_a_bounded_number_of_free_slabs() {
        let s = ObjectStore::new();
        for len in [64usize, 1024, MAX_POOLED_SLAB] {
            let class = class_of(len).unwrap();
            let views: Vec<Bytes> =
                (0..2 * CLASS_RETAIN_BYTES / len).map(|_| s.fetch(s.insert(Bytes::from(vec![0u8; len]), 1)).unwrap()).collect();
            drop(views);
            assert_eq!(s.free_slabs()[class], CLASS_RETAIN_BYTES / len, "{len} B class");
        }
        assert_eq!(s.slab_bytes_outstanding(), 0);
    }

    #[test]
    fn an_unsealed_reservation_leaks_nothing_and_wakes_parked_inserters() {
        use crate::buffer::Buffer;
        // A sender that panics between create and seal, with and without an
        // inserter parked behind it at the full data lane.
        let s = Arc::new(ObjectStore::with_capacity(4096));
        // Two free slabs in the 1 and 2 KiB classes, so every slab below is
        // lent from a free list and must come back to it.
        let warm: Vec<Bytes> = [1024, 1024, 2048, 2048]
            .iter()
            .map(|&len| s.fetch(s.insert(Bytes::from(vec![0u8; len]), 1)).unwrap())
            .collect();
        drop(warm);
        let held = s.insert(Bytes::from(vec![1u8; 2048]), 1);
        let state = |s: &ObjectStore| {
            (s.live_bytes(), s.data_occupancy(), s.len(), s.free_slabs(), s.slab_bytes_outstanding())
        };
        let before = state(&s);
        for with_parked in [false, true] {
            let (created, go) = (Arc::new(Buffer::new()), Arc::new(Buffer::new()));
            let sender = {
                let (s, created, go) = (Arc::clone(&s), Arc::clone(&created), Arc::clone(&go));
                std::thread::spawn(move || {
                    let mut reservation = s.create(1024, false);
                    reservation.body_mut().extend_from_slice(&[7u8; 100]);
                    created.push(()).unwrap();
                    go.pop();
                    panic!("the encoder failed between create and seal");
                })
            };
            created.pop().unwrap();
            assert_eq!(s.live_bytes(), 3072, "the reservation is charged at the gate");
            // 2048 held + 1024 reserved + 2048 more > 4096: this one parks,
            // and only the reservation's release lets it in.
            let parked = with_parked.then(|| {
                let store = Arc::clone(&s);
                let parked = std::thread::spawn(move || store.insert(Bytes::from(vec![2u8; 2048]), 1));
                while s.space.waiters() < 1 {
                    std::thread::yield_now();
                }
                parked
            });
            go.push(()).unwrap();
            assert!(sender.join().is_err(), "the sender panicked");
            if let Some(parked) = parked {
                let id = parked.join().expect("woken by the release");
                assert!(s.fetch(id).is_some());
            }
            assert_eq!(state(&s), before, "with a parked inserter: {with_parked}");
        }
        assert!(s.fetch(held).is_some());
        assert!(s.is_empty());
        assert_eq!((s.live_bytes(), s.slab_bytes_outstanding()), (0, 0));
    }

    #[test]
    fn concurrent_fetches_of_a_unicast_spend_its_one_credit_once() {
        // Fan-out 1 takes the single-critical-section path: one of the
        // racing fetchers removes the entry, every other one finds nothing.
        let s = Arc::new(ObjectStore::new());
        for _ in 0..200 {
            let id = s.insert(Bytes::from(vec![5u8; 256]), 1);
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.fetch(id).is_some())
                })
                .collect();
            let won = racers.into_iter().map(|t| t.join().unwrap()).filter(|&w| w).count();
            assert_eq!(won, 1);
            assert!(s.is_empty());
            assert_eq!(s.live_bytes(), 0);
        }
    }

    #[test]
    fn live_bytes_track_residency() {
        let s = ObjectStore::new();
        let a = s.insert(Bytes::from(vec![0u8; 100]), 1);
        let b = s.insert(Bytes::from(vec![0u8; 50]), 1);
        assert_eq!(s.live_bytes(), 150);
        assert_eq!(s.peak_bytes(), 150);
        s.fetch(a);
        assert_eq!(s.live_bytes(), 50);
        s.fetch(b);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(s.peak_bytes(), 150, "peak is sticky");
        assert_eq!(s.inserted(), 2);
    }

    #[test]
    fn drop_credit_frees_like_fetch() {
        let s = ObjectStore::new();
        let id = s.insert(Bytes::from(vec![0u8; 64]), 2);
        assert!(s.drop_credit(id));
        assert_eq!(s.len(), 1, "one credit remains");
        assert!(s.drop_credit(id));
        assert!(s.is_empty(), "last credit frees the entry");
        assert_eq!(s.live_bytes(), 0);
        assert!(!s.drop_credit(id), "no double-free");
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 1")]
    fn zero_fanout_rejected() {
        let s = ObjectStore::new();
        s.insert(Bytes::new(), 0);
    }

    #[test]
    fn broadcast_entry_is_freed_after_every_destination_fetches() {
        // Regression test for multi-destination broadcast: an entry inserted
        // with fanout n must hold the segment for exactly n fetches — the
        // n-th fetch frees it, leaving zero live entries and zero live bytes.
        let s = ObjectStore::new();
        let fanout = 5;
        let body = Bytes::from(vec![7u8; 1024]);
        let id = s.insert(body.clone(), fanout);
        for i in 0..fanout {
            assert_eq!(s.live_bytes(), 1024, "entry alive before fetch {i}");
            let got = s.fetch(id).expect("credit available");
            assert_eq!(got, body);
        }
        assert!(s.is_empty(), "all credits spent: entry must be freed");
        assert_eq!(s.len(), 0);
        assert_eq!(s.live_bytes(), 0, "broadcast leak: bytes still live");
        assert!(s.fetch(id).is_none(), "over-fetch must not resurrect");
    }

    #[test]
    fn ids_are_unique_under_concurrency() {
        let s = Arc::new(ObjectStore::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..250).map(|_| s.insert(Bytes::new(), 1)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<ObjectId> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn concurrent_broadcast_fetches_spend_each_credit_once() {
        // All destinations race to fetch the same entry; exactly `fanout`
        // fetches succeed and the entry frees exactly once.
        let s = Arc::new(ObjectStore::new());
        let fanout = 64;
        let id = s.insert(Bytes::from(vec![3u8; 4096]), fanout);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..16).filter(|_| s.fetch(id).is_some()).count()
            }));
        }
        let succeeded: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(succeeded, fanout, "every credit spent exactly once");
        assert!(s.is_empty());
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    fn capacity_gate_never_overshoots_under_contention() {
        // Regression test for the check-then-reserve race: with the gate
        // check and the reservation made atomically, the segment can never
        // exceed capacity + one (oversized-alone) body, no matter how many
        // inserters pile onto the gate at once.
        let capacity = 10_000;
        let max_body = 1_900;
        let s = Arc::new(ObjectStore::with_capacity(capacity));
        let mut producers = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            producers.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..50usize {
                    let len = 100 + ((t as usize * 131 + i * 977) % (max_body - 100));
                    ids.push((s.insert(Bytes::from(vec![1u8; len]), 1), len));
                }
                ids
            }));
        }
        // Consumer drains whatever appears so producers keep making progress.
        let consumer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut freed = 0usize;
                let mut next = 0u64;
                while freed < 8 * 50 {
                    if s.fetch(next).is_some() {
                        freed += 1;
                        next += 1;
                    } else if next < s.inserted() {
                        // Entry exists but we raced its insertion; retry.
                        std::thread::yield_now();
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        consumer.join().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.live_bytes(), 0);
        assert!(
            s.peak_bytes() <= capacity + max_body,
            "capacity gate overshot: peak {} > {} + {}",
            s.peak_bytes(),
            capacity,
            max_body
        );
    }

    #[test]
    fn a_release_wakes_every_inserter_parked_at_the_gate() {
        // `space` skips the wake when it counts no waiter, so the count has
        // to be right: two inserters park behind a full store, the one fetch
        // that empties it lets both through.
        let telemetry = xt_telemetry::Telemetry::enabled();
        let waits = telemetry.counter("comm.gate_waits");
        let mut s = ObjectStore::with_capacity(100);
        s.gate_waits = waits.clone();
        let s = Arc::new(s);
        let held = s.insert(Bytes::from(vec![0u8; 80]), 1);
        assert!(s.fetch(insert_priority(&s, &[2u8; 80], 1)).is_some());
        assert_eq!(waits.get(), 0, "neither insert waited");
        let parked: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.insert(Bytes::from(vec![1u8; 40]), 1))
            })
            .collect();
        while s.space.waiters() < 2 {
            std::thread::yield_now();
        }
        assert_eq!(s.live_bytes(), 80, "nothing admitted past the gate");
        assert!(s.fetch(held).is_some());
        for t in parked {
            assert!(s.fetch(t.join().unwrap()).is_some());
        }
        assert_eq!(s.space.waiters(), 0);
        assert_eq!(waits.get(), 2, "one count per insert that waited");
        assert!(s.is_empty());
    }

    #[test]
    fn oversized_object_admitted_alone() {
        let s = ObjectStore::with_capacity(100);
        // Larger than the whole segment: must not deadlock, admitted alone.
        let id = s.insert(Bytes::from(vec![0u8; 400]), 1);
        assert_eq!(s.live_bytes(), 400);
        assert!(s.fetch(id).is_some());
        assert_eq!(s.live_bytes(), 0);
    }
}
