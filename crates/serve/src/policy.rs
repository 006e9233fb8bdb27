//! The hot-swappable policy slot.
//!
//! A serving replica reads its policy on every batch; the parameter-sink
//! thread replaces it whenever a learner broadcast applies. [`PolicyCell`]
//! makes that replacement invisible to the inference hot loop: readers take
//! no lock and never observe a torn policy — they run against whichever
//! complete snapshot was current when their pass began, exactly the
//! `SnapshotCell` idiom from the comm crate.
//!
//! Where `SnapshotCell` retains every snapshot ever published (its history
//! *is* the product), a serving cell would leak a full MLP per parameter
//! swap. `PolicyCell` therefore adds epoch-based reclamation: readers bump
//! an entry counter before loading the pointer and an exit counter after
//! finishing, and the writer prunes superseded snapshots once the two
//! counters agree — proof that every reader that could still hold an old
//! pointer has left. Retention stays at the current snapshot plus at most
//! the few superseded ones still pinned by in-flight passes.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tinynn::{Activation, Mlp};
use xingtian_algos::ParamBlob;

/// An immutable policy snapshot: a version tag plus the MLP that serves it.
#[derive(Debug)]
pub struct Policy {
    /// Parameter version (checkpoint or broadcast) these weights carry.
    pub version: u64,
    /// The network, ready for `forward_ws`.
    pub mlp: Mlp,
}

impl Policy {
    /// Builds a policy of shape `sizes` holding `blob`'s parameters.
    ///
    /// The construction seed is irrelevant: `set_params` overwrites every
    /// weight, which is what makes a checkpoint-loaded replica and a
    /// hot-swapped replica bit-identical at the same version.
    ///
    /// # Panics
    ///
    /// Panics if `blob.params` does not match the parameter count of
    /// `sizes` — a version/topology mismatch must not serve garbage.
    pub fn from_blob(sizes: &[usize], blob: &ParamBlob) -> Self {
        let mut mlp = Mlp::new(sizes, Activation::Relu, 0);
        assert_eq!(
            blob.params.len(),
            mlp.num_params(),
            "serve: parameter blob v{} does not fit policy shape {:?}",
            blob.version,
            sizes
        );
        mlp.set_params(&blob.params);
        Policy { version: blob.version, mlp }
    }

    /// The policy's parameters as a blob (used to respawn a replica when no
    /// checkpoint is available).
    pub fn to_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: self.mlp.params().to_vec() }
    }
}

/// Lock-free double-buffered policy slot. See the module docs.
#[derive(Debug)]
pub struct PolicyCell {
    /// The current snapshot. Always points into an `Arc` held by `retained`.
    current: AtomicPtr<Policy>,
    /// Readers in flight: bumped on entry. With `exits`, an epoch pair —
    /// equality means no reader holds a pointer loaded before the check.
    entries: AtomicU64,
    /// Readers finished: bumped on exit.
    exits: AtomicU64,
    /// Snapshots kept alive for in-flight readers; last element is current.
    retained: Mutex<Vec<Arc<Policy>>>,
}

// SAFETY: `current` always points into an `Arc<Policy>` kept alive by
// `retained`, and the epoch protocol (below) guarantees a snapshot is only
// pruned once no reader can still dereference it. `Policy` itself is
// Send + Sync (immutable after publish).
unsafe impl Send for PolicyCell {}
unsafe impl Sync for PolicyCell {}

impl PolicyCell {
    /// A cell holding `initial`.
    pub fn new(initial: Arc<Policy>) -> Self {
        let ptr = Arc::as_ptr(&initial) as *mut Policy;
        PolicyCell {
            current: AtomicPtr::new(ptr),
            entries: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            retained: Mutex::new(vec![initial]),
        }
    }

    /// Runs `f` against the current snapshot without taking a lock.
    ///
    /// The snapshot cannot be reclaimed while `f` runs: the entry bump
    /// precedes the pointer load, so any writer observing `entries == exits`
    /// after publishing a replacement knows this reader either finished or
    /// started late enough to see the replacement. Keep `f` short — one
    /// batch's forward pass — since it pins the snapshot.
    pub fn with<R>(&self, f: impl FnOnce(&Policy) -> R) -> R {
        self.entries.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the pointer target is alive — it is only pruned by
        // `publish` after observing entries == exits, which cannot happen
        // while this reader is between its entry and exit bumps.
        let policy = unsafe { &*self.current.load(Ordering::SeqCst) };
        let result = f(policy);
        self.exits.fetch_add(1, Ordering::SeqCst);
        result
    }

    /// Version of the current snapshot.
    pub fn version(&self) -> u64 {
        self.with(|p| p.version)
    }

    /// A clone of the current snapshot's `Arc` (slow path: respawn, tests).
    pub fn load(&self) -> Arc<Policy> {
        let retained = self.retained.lock();
        Arc::clone(retained.last().expect("cell always retains its current snapshot"))
    }

    /// Publishes `next` as the current snapshot and prunes superseded ones
    /// when provably unobserved.
    ///
    /// The prune condition reads `entries` then `exits` *after* the pointer
    /// store. In the SeqCst total order: any reader whose entry bump we
    /// counted has also bumped `exits` (it finished), and any reader we did
    /// not count entered after our `entries` load, hence after our pointer
    /// store, hence loads `next` — never a pruned snapshot. If the counters
    /// disagree, pruning is simply deferred to a later publish; retention
    /// stays bounded by the number of swaps that race an in-flight pass.
    pub fn publish(&self, next: Arc<Policy>) {
        let mut retained = self.retained.lock();
        let ptr = Arc::as_ptr(&next) as *mut Policy;
        retained.push(next);
        self.current.store(ptr, Ordering::SeqCst);
        let entered = self.entries.load(Ordering::SeqCst);
        let exited = self.exits.load(Ordering::SeqCst);
        if entered == exited {
            let keep = retained.len() - 1;
            retained.drain(..keep);
        }
    }

    /// Snapshots currently kept alive (current + reader-pinned). Test probe.
    pub fn retained(&self) -> usize {
        self.retained.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn policy(version: u64, seed: u64) -> Arc<Policy> {
        Arc::new(Policy {
            version,
            mlp: Mlp::new(&[4, 8, 2], Activation::Relu, seed),
        })
    }

    #[test]
    fn publish_swaps_the_snapshot_readers_see() {
        let cell = PolicyCell::new(policy(1, 1));
        assert_eq!(cell.version(), 1);
        cell.publish(policy(2, 2));
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.load().version, 2);
    }

    #[test]
    fn quiescent_publishes_keep_retention_at_one() {
        let cell = PolicyCell::new(policy(0, 0));
        for v in 1..=100 {
            cell.publish(policy(v, v));
        }
        assert_eq!(cell.retained(), 1, "no readers in flight: only current survives");
        assert_eq!(cell.version(), 100);
    }

    #[test]
    fn from_blob_is_seed_independent() {
        let reference = Mlp::new(&[4, 8, 2], Activation::Relu, 99);
        let blob = ParamBlob { version: 7, params: reference.params().to_vec() };
        let p = Policy::from_blob(&[4, 8, 2], &blob);
        assert_eq!(p.version, 7);
        assert_eq!(p.mlp.params(), reference.params(), "set_params overwrites the init seed");
    }

    /// What the micro-batcher relies on: a request's logits do not depend on
    /// which other requests happened to share its flush.
    #[test]
    fn a_request_gets_the_same_logits_alone_and_co_batched() {
        let sizes = [24, 32, 32, 9];
        let policy = Policy { version: 1, mlp: Mlp::new(&sizes, Activation::Relu, 5) };
        let obs: Vec<f32> = (0..8 * sizes[0]).map(|i| ((i * 29 % 97) as f32 - 48.0) / 24.0).collect();
        let mut ws = tinynn::Workspace::new();
        let request = &obs[..sizes[0]];
        let alone: Vec<u32> =
            policy.mlp.forward_ws(request, 1, &mut ws).iter().map(|v| v.to_bits()).collect();
        for others in 1..=7 {
            let rows = 1 + others;
            // The request leads the batch, then trails it.
            let leading = &obs[..rows * sizes[0]];
            let logits = policy.mlp.forward_ws(leading, rows, &mut ws);
            let got: Vec<u32> = logits[..9].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, alone, "leading a batch of {rows}");
            let mut trailing = obs[sizes[0]..rows * sizes[0]].to_vec();
            trailing.extend_from_slice(request);
            let logits = policy.mlp.forward_ws(&trailing, rows, &mut ws);
            let got: Vec<u32> = logits[others * 9..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, alone, "trailing a batch of {rows}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit policy shape")]
    fn shape_mismatch_refuses_to_serve() {
        let blob = ParamBlob { version: 1, params: vec![0.0; 3] };
        Policy::from_blob(&[4, 8, 2], &blob);
    }

    #[test]
    fn concurrent_swaps_never_tear_and_reclamation_converges() {
        let cell = Arc::new(PolicyCell::new(policy(0, 0)));
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        cell.with(|p| {
                            // A torn or reclaimed snapshot would make these
                            // disagree (or crash under a sanitizer).
                            assert_eq!(p.mlp.input_dim(), 4);
                            assert!(p.version >= last, "versions move forward");
                            last = p.version;
                        });
                    }
                })
            })
            .collect();

        for v in 1..=500 {
            cell.publish(policy(v, v));
            if v % 97 == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // With readers gone, the next publish prunes everything stale.
        cell.publish(policy(501, 501));
        assert_eq!(cell.retained(), 1);
        assert_eq!(cell.version(), 501);
    }
}
