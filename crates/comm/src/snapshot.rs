//! Read-mostly snapshot cells: the one lock-free publish primitive.
//!
//! Some state is written rarely and read on every operation: a broker's
//! routing tables (written at endpoint registration and
//! [`crate::connect_brokers`], read on *every* message) and a serving
//! replica's policy (written per parameter swap, read per inference batch). A
//! [`SnapshotCell`] keeps it as an immutable snapshot that readers borrow
//! through [`SnapshotCell::with`] — one pointer load between two counter
//! bumps: no mutex, no reader-reader serialization, no writer starvation.
//! Writers build the replacement aside and publish it; they pay the copy so
//! the hot path doesn't.
//!
//! # Reclamation
//!
//! The hazard of pointer-swap designs is a reader that has loaded the raw
//! pointer when the writer frees the snapshot behind it. An epoch pair closes
//! it: a reader bumps `entries`, loads the pointer, runs its closure, bumps
//! `exits`; the writer (under the history lock) stores the new pointer, then
//! reads `exits` and **then** `entries`, and frees every snapshot but the
//! newest iff they are equal. All `SeqCst`, so one total order. `exits` only
//! grows and never exceeds `entries`, so `exits` read first equalling
//! `entries` read second means every reader that had entered by the second
//! read had left by the first: nobody who could hold an older pointer is
//! mid-borrow, and whoever enters later does so after the pointer store and
//! borrows the new snapshot. (Read the other way round, a reader entering and
//! leaving between the two reads makes them agree while an earlier one still
//! borrows the old snapshot.) Unequal counters defer pruning to a later
//! publish.
//!
//! * A reader pins every snapshot for the length of its closure, so the
//!   closure must be short (one routing split, one message's header pushes,
//!   one forward pass). A reader that never returns costs memory, never safety.
//! * Retention is the published snapshot plus one per publish that raced an
//!   in-flight reader since the last quiescent publish — 1 whenever a publish
//!   finds no reader mid-borrow, not O(writes).
//! * What a snapshot holds is dropped when the last snapshot naming it is
//!   pruned — possibly some publishes after its removal. A resource whose
//!   release would be a signal needs an explicit prompt one instead, as the
//!   ID queues' `close`.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// A single-value cell with lock-free borrows of the current snapshot and
/// mutex-serialized (rare) publishes. See the module docs.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// The published snapshot. Always points into an `Arc` held by `history`.
    current: AtomicPtr<T>,
    /// Borrows begun and borrows ended: the epoch pair.
    entries: AtomicU64,
    exits: AtomicU64,
    /// Writer lock and retention list: the published snapshot last, before
    /// it the superseded ones a reader may still borrow.
    history: Mutex<Vec<Arc<T>>>,
}

/// Ends a borrow, unwinding included: a reader that panicked mid-borrow
/// must not stop reclamation for the cell's lifetime.
struct Exit<'a>(&'a AtomicU64);

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl<T> SnapshotCell<T> {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: T) -> Self {
        let arc = Arc::new(initial);
        SnapshotCell {
            current: AtomicPtr::new(Arc::as_ptr(&arc) as *mut T),
            entries: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            history: Mutex::new(vec![arc]),
        }
    }

    /// The hot read: applies `f` to a borrow of the current snapshot, taking
    /// no lock. A writer publishing mid-call is harmless — `f` keeps the
    /// complete snapshot it started with. Keep `f` short: it pins reclamation.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.entries.fetch_add(1, Ordering::SeqCst);
        let _exit = Exit(&self.exits);
        // SAFETY: the target is an `Arc` in `history`, pruned only by a
        // publish that stored a newer pointer and then saw `exits == entries`
        // — impossible while this reader sits between its two bumps.
        f(unsafe { &*self.current.load(Ordering::SeqCst) })
    }

    /// The current snapshot as an `Arc` that outlives later publishes. The
    /// slow path (takes the writer lock): respawn, fabric merges, tests.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(self.history.lock().last().expect("cell always holds its published snapshot"))
    }

    /// Publishes `next`.
    pub fn publish(&self, next: T) {
        self.update(|_| (next, ()));
    }

    /// Publishes the snapshot `f` makes of the current one and prunes the
    /// superseded ones when provably unobserved. Writers serialize on the
    /// history lock; readers are never blocked.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut history = self.history.lock();
        let current = history.last().expect("cell always holds its published snapshot");
        let (next, out) = f(current);
        let arc = Arc::new(next);
        self.current.store(Arc::as_ptr(&arc) as *mut T, Ordering::SeqCst);
        history.push(arc);
        // Exits first, entries second — the order is the proof (module docs).
        let exited = self.exits.load(Ordering::SeqCst);
        if exited == self.entries.load(Ordering::SeqCst) {
            let stale = history.len() - 1;
            history.drain(..stale);
        }
        out
    }

    /// The writers' idiom: publishes a clone of the current snapshot with
    /// `f`'s change applied.
    pub fn modify<R>(&self, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        self.update(|current| {
            let mut next = current.clone();
            let out = f(&mut next);
            (next, out)
        })
    }

    /// Snapshots kept alive (published + reader-pinned): 1 after any publish
    /// that found no reader mid-borrow. Test probe.
    pub fn retained(&self) -> usize {
        self.history.lock().len()
    }
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> Self {
        SnapshotCell::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn load_sees_latest_publish() {
        let cell = SnapshotCell::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.update(|v| (v + 10, ()));
        assert_eq!(*cell.load(), 11);
    }

    #[test]
    fn old_snapshots_stay_coherent() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.update(|_| (vec![9], ()));
        assert_eq!(*old, vec![1, 2, 3], "reader's view is immutable");
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn reads_do_not_grow_retention() {
        let cell = SnapshotCell::new(0u32);
        for _ in 0..1000 {
            let _ = cell.load();
        }
        assert_eq!(cell.retained(), 1);
        cell.update(|v| (v + 1, ()));
        assert_eq!(cell.retained(), 1, "no reader mid-borrow: the superseded snapshot is freed");
    }

    #[test]
    fn quiescent_publishes_keep_retention_at_one() {
        let cell = SnapshotCell::new(vec![0u64; 8]);
        for v in 1..=100 {
            cell.publish(vec![v; 8]);
        }
        assert_eq!(cell.retained(), 1, "no readers in flight: only current survives");
        assert_eq!(cell.with(|s| s[0]), 100);
    }

    #[test]
    fn a_reader_that_panicked_mid_borrow_does_not_stop_reclamation() {
        let cell = SnapshotCell::new(0u32);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|_| panic!("reader dies mid-borrow"))
        }));
        assert!(unwound.is_err());
        cell.publish(1);
        assert_eq!(cell.retained(), 1, "the unwound borrow still counted as an exit");
    }

    #[test]
    fn with_borrows_without_retention_or_refcount() {
        let cell = SnapshotCell::new(vec![7u32]);
        let strong_before = Arc::strong_count(&cell.history.lock()[0]);
        let sum: u32 = cell.with(|v| v.iter().sum());
        assert_eq!(sum, 7);
        assert_eq!(Arc::strong_count(&cell.history.lock()[0]), strong_before);
        assert_eq!(cell.retained(), 1);
        cell.update(|_| (vec![1, 2], ()));
        assert_eq!(cell.with(|v| v.len()), 2, "with sees the latest publish");
    }

    #[test]
    fn update_returns_closure_output() {
        let cell: SnapshotCell<HashMap<u32, u32>> = SnapshotCell::default();
        let prev = cell.update(|m| {
            let mut next = m.clone();
            let prev = next.insert(1, 10);
            (next, prev)
        });
        assert_eq!(prev, None);
        let prev = cell.update(|m| {
            let mut next = m.clone();
            let prev = next.insert(1, 20);
            (next, prev)
        });
        assert_eq!(prev, Some(10));
        assert_eq!(cell.load().get(&1), Some(&20));
    }

    #[test]
    fn concurrent_swaps_never_tear_and_reclamation_converges() {
        use std::sync::atomic::AtomicBool;
        // A snapshot is its version repeated: a torn or reclaimed one would
        // make the elements disagree (or crash under a sanitizer).
        let cell = Arc::new(SnapshotCell::new(vec![0u64; 64]));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Both reads, the borrowed one first.
                        for read in [cell.with(|s| s.clone()), cell.load().to_vec()] {
                            assert!(read.iter().all(|&v| v == read[0]), "torn snapshot");
                            assert!(read[0] >= last, "versions move forward");
                            last = read[0];
                        }
                    }
                })
            })
            .collect();
        for v in 1..=500u64 {
            cell.publish(vec![v; 64]);
            if v % 97 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // With readers gone, the next publish prunes everything stale.
        cell.publish(vec![501; 64]);
        assert_eq!(cell.retained(), 1);
        assert_eq!(cell.with(|s| s[0]), 501);
    }
}
