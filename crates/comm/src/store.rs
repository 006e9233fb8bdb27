//! Shared-memory object store with fan-out reference counts.
//!
//! The paper keeps message bodies "inside the object store implemented via
//! shared memory for zero-copy communication among processes" (§3.2.1). Here
//! the store maps an [`ObjectId`] to a reference-counted [`Bytes`] buffer:
//! fetching clones the `Arc` (O(1), no payload copy), and the entry is freed
//! once every destination of the message has fetched it, so broadcast
//! parameters occupy memory exactly once regardless of explorer count.
//!
//! # Concurrency layout
//!
//! The store is built for 256-explorer fan-in/fan-out, so nothing on the
//! fetch path crosses a store-wide lock:
//!
//! * entries live in [`SHARD_COUNT`] lock-striped shards keyed by object id
//!   (ids are sequential, so consecutive objects stripe across shards);
//! * each entry carries its remaining fetch credits in an `AtomicUsize` —
//!   a fetch holds its shard lock only long enough to clone the entry `Arc`,
//!   then spends the credit with one atomic decrement, so 256 destinations
//!   fetching the same broadcast body never serialize behind a mutex while
//!   the payload handle is cloned;
//! * the capacity gate is a dedicated mutex: a waiter re-checks *and
//!   reserves* while holding it, so concurrent inserts can no longer all pass
//!   the check before any of them reserves (the old overshoot race that let
//!   the segment transiently exceed its capacity by one body per waiter).

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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

#[derive(Debug)]
struct Entry {
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

/// A process-shared body store.
///
/// Insertions declare a *fan-out*: the number of destination processes that
/// will fetch the object. [`ObjectStore::fetch`] hands out zero-copy clones
/// and removes the entry on the last fetch, which keeps the store's live size
/// bounded by in-flight traffic ("no significant extra memory overheads",
/// paper §3.2.1).
///
/// Like the real shared-memory segment, the store has a fixed capacity:
/// [`ObjectStore::insert`] blocks until the object fits, back-pressuring
/// aggressive senders instead of growing without bound.
#[derive(Debug)]
pub struct ObjectStore {
    shards: Vec<Mutex<HashMap<ObjectId, Arc<Entry>>>>,
    gate: Mutex<Gate>,
    space: Condvar,
    capacity: usize,
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
            next_id: AtomicU64::new(0),
            live_bytes: AtomicUsize::new(0),
            data_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            inserted: AtomicU64::new(0),
        }
    }

    /// The store's capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard(&self, id: ObjectId) -> &Mutex<HashMap<ObjectId, Arc<Entry>>> {
        &self.shards[(id as usize) % SHARD_COUNT]
    }

    /// Inserts `body` to be fetched by `fanout` destinations and returns its id.
    ///
    /// The body is copied once on insertion — this models the producer
    /// writing the serialized message into the shared-memory segment, the one
    /// write the real system performs. Fetches then share that single
    /// resident buffer ([`ObjectStore::fetch`] is O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero — an object nobody will fetch would leak.
    pub fn insert(&self, body: Bytes, fanout: usize) -> ObjectId {
        self.insert_inner(body, fanout, true)
    }

    /// Inserts without waiting for capacity (the store may transiently exceed
    /// its limit). Reserved for *control-plane* messages — lifecycle commands
    /// and statistics are tiny and must never be blocked behind data-plane
    /// backpressure, or a wedged consumer could make the deployment
    /// unstoppable.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn insert_priority(&self, body: Bytes, fanout: usize) -> ObjectId {
        self.insert_inner(body, fanout, false)
    }

    fn insert_inner(&self, body: Bytes, fanout: usize, wait_for_capacity: bool) -> ObjectId {
        assert!(fanout > 0, "fanout must be at least 1");
        let len = body.len();
        // Check-and-reserve atomically under the gate so concurrent waiters
        // cannot all observe free space and collectively overshoot. Only
        // data-lane bytes hold the gate: priority-lane bodies addressed to a
        // producer parked here could otherwise keep it shut with nobody left
        // to drain them. An object that can never fit is admitted once the
        // data lane drains (data == 0), so oversized messages cannot deadlock
        // the channel.
        {
            let mut gate = self.gate.lock();
            while wait_for_capacity && gate.data > 0 && gate.data + len > self.capacity {
                self.space.wait(&mut gate);
            }
            gate.live += len;
            if wait_for_capacity {
                gate.data += len;
                self.data_bytes.store(gate.data, Ordering::Relaxed);
            }
            self.live_bytes.store(gate.live, Ordering::Relaxed);
            self.peak_bytes.fetch_max(gate.live, Ordering::Relaxed);
        }
        // Pay the segment write outside the gate.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let body = Bytes::copy_from_slice(&body);
        let entry = Arc::new(Entry {
            body,
            remaining: AtomicUsize::new(fanout),
            gated: wait_for_capacity,
        });
        self.shard(id).lock().insert(id, entry);
        self.resident.fetch_add(1, Ordering::Relaxed);
        self.inserted.fetch_add(1, Ordering::Relaxed);
        id
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

    /// Fetches a zero-copy clone of the object, releasing the entry when the
    /// last destination fetches it. Returns `None` for unknown (or already
    /// fully fetched) ids.
    pub fn fetch(&self, id: ObjectId) -> Option<Bytes> {
        let entry = self.shard(id).lock().get(&id).map(Arc::clone)?;
        // Spend one credit without the lock. `checked_sub` refuses to go
        // below zero, so an over-fetch racing the final removal cannot
        // double-free or resurrect the entry.
        let prev = entry
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1))
            .ok()?;
        let body = entry.body.clone();
        if prev == 1 {
            // We spent the last credit: exactly one fetcher observes this,
            // so exactly one removal and one capacity release happen.
            self.shard(id).lock().remove(&id);
            self.resident.fetch_sub(1, Ordering::Relaxed);
            self.release(body.len(), entry.gated);
        }
        Some(body)
    }

    /// Spends one fetch credit without returning the body. Used by the router
    /// to reclaim the credit of a destination that can no longer take
    /// delivery (closed ID queue, unroutable destination), so the entry does
    /// not leak. Returns `false` for unknown ids.
    pub fn drop_credit(&self, id: ObjectId) -> bool {
        self.fetch(id).is_some()
    }

    /// Grants `extra` additional fetch credits to a live entry. Used by
    /// fault injection when a delivery is duplicated: every extra copy pushed
    /// into an ID queue will spend a credit at fetch time, so the credits
    /// must be minted *before* the copies are enqueued or the entry would be
    /// freed early (or underflow). Returns `false` — granting nothing — for
    /// unknown ids or entries whose last credit is already spent.
    pub fn add_credit(&self, id: ObjectId, extra: usize) -> bool {
        if extra == 0 {
            return true;
        }
        let Some(entry) = self.shard(id).lock().get(&id).map(Arc::clone) else { return false };
        // Refuse to resurrect an entry racing its final fetch: credits may
        // only grow while at least one is still outstanding.
        entry
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                if r == 0 {
                    None
                } else {
                    Some(r + extra)
                }
            })
            .is_ok()
    }

    /// Number of objects currently resident.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// True when no objects are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident.
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

}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = s.insert_priority(Bytes::from(vec![0u8; 60]), 1);
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
    fn add_credit_extends_live_entries_only() {
        let s = ObjectStore::new();
        let id = s.insert(Bytes::from(vec![0u8; 16]), 1);
        assert!(s.add_credit(id, 2), "live entry accepts extra credits");
        assert!(s.fetch(id).is_some());
        assert!(s.fetch(id).is_some());
        assert!(s.fetch(id).is_some(), "original + 2 minted credits");
        assert!(s.is_empty(), "last credit frees the entry");
        assert!(!s.add_credit(id, 1), "spent entry cannot be resurrected");
        assert!(s.fetch(id).is_none());
        assert!(!s.add_credit(9999, 1), "unknown id refused");
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
        let s = Arc::new(ObjectStore::with_capacity(100));
        let held = s.insert(Bytes::from(vec![0u8; 80]), 1);
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
