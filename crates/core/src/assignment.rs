//! Explorer→learner-shard assignment.
//!
//! Rollouts must spread across learner shards, and a respawned shard must
//! keep receiving the traffic its predecessor owned. The [`AssignmentTable`]
//! is the indirection that does both — a shared map from explorer index to
//! owning learner shard that explorers re-read *per rollout send* (the one
//! route for every shard count; a single learner is the one-shard table, and
//! under store-resident replay the owner's replay shard takes the rollout)
//! and learner shards re-read *per parameter broadcast*. Stable across shard
//! respawns: a restored shard re-binds the same `ProcessId`, so senders never
//! need to learn about the respawn. Elastic growth registers new explorers while those
//! reads go on. The invariants are that every explorer always has exactly one
//! owner, that a registration never moves an existing one, and that ownership
//! slices stay disjoint — which keeps each shard's `ParamBroadcaster`
//! base-ring private to the explorers it owns.

use parking_lot::RwLock;

/// Shared explorer→learner-shard ownership map.
///
/// Cloneable-by-`Arc` by callers; all methods take `&self`.
#[derive(Debug)]
pub struct AssignmentTable {
    /// `owner[e]` = learner shard owning explorer `e`.
    owner: RwLock<Vec<u32>>,
    shards: u32,
}

impl AssignmentTable {
    /// The initial contiguous assignment: explorer `e` belongs to shard
    /// `e * shards / num_explorers`, giving every shard a contiguous slice
    /// whose sizes differ by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `num_explorers < shards`.
    pub fn contiguous(num_explorers: u32, shards: u32) -> Self {
        assert!(shards > 0, "at least one learner shard");
        assert!(num_explorers >= shards, "every shard needs an explorer");
        let owner = (0..num_explorers)
            .map(|e| ((e as u64 * shards as u64) / num_explorers as u64) as u32)
            .collect();
        AssignmentTable { owner: RwLock::new(owner), shards }
    }

    /// Number of learner shards the table spreads over.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of explorers in the table.
    pub fn num_explorers(&self) -> u32 {
        self.owner.read().len() as u32
    }

    /// The shard currently owning `explorer`.
    ///
    /// # Panics
    ///
    /// Panics if `explorer` is out of range.
    pub fn shard_of(&self, explorer: u32) -> u32 {
        self.owner.read()[explorer as usize]
    }

    /// Explorer indices currently owned by `shard`, ascending.
    pub fn owned(&self, shard: u32) -> Vec<u32> {
        self.owner
            .read()
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(e, _)| e as u32)
            .collect()
    }

    /// Registers explorers up through index `explorer`, growing the table if
    /// needed (elastic pool growth: the supervisor spawns explorers beyond
    /// the configured count and each must have an owner before its first
    /// rollout resolves). Every new index joins the currently least-loaded
    /// shard, and no existing owner moves. Returns the shard owning
    /// `explorer`. Idempotent for indices already in the table.
    pub fn register(&self, explorer: u32) -> u32 {
        let mut owner = self.owner.write();
        if (explorer as usize) < owner.len() {
            return owner[explorer as usize];
        }
        let mut counts = vec![0u32; self.shards as usize];
        for &s in owner.iter() {
            counts[s as usize] += 1;
        }
        while owner.len() <= explorer as usize {
            let target = counts
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .map(|(s, _)| s as u32)
                .expect("shards > 0");
            counts[target as usize] += 1;
            owner.push(target);
        }
        owner[explorer as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_slices_are_balanced_and_disjoint() {
        let t = AssignmentTable::contiguous(10, 4);
        let sizes: Vec<usize> = (0..4).map(|s| t.owned(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&n| n == 2 || n == 3), "balanced: {sizes:?}");
        // Contiguous: each shard's owners form a run.
        for s in 0..4 {
            let owned = t.owned(s);
            for w in owned.windows(2) {
                assert_eq!(w[1], w[0] + 1, "shard {s} owns a contiguous slice");
            }
        }
        assert_eq!(t.shard_of(0), 0);
        assert_eq!(t.shard_of(9), 3);
    }

    #[test]
    fn single_shard_owns_everything() {
        let t = AssignmentTable::contiguous(5, 1);
        assert_eq!(t.owned(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.shard_of(3), 0);
    }

    #[test]
    fn register_grows_onto_least_loaded_shard() {
        let t = AssignmentTable::contiguous(3, 2); // shard 0 owns {0,1}, shard 1 owns {2}
        assert_eq!(t.register(3), 1, "new explorer joins the lighter shard");
        assert_eq!(t.register(4), 0, "a tie goes to the lower shard");
        assert_eq!(t.num_explorers(), 5);
        // Idempotent for known indices.
        assert_eq!(t.register(1), 0);
        assert_eq!(t.num_explorers(), 5);
        // A gap registers every intermediate index too.
        t.register(9);
        assert_eq!(t.num_explorers(), 10);
    }

    /// Elastic growth racing concurrent explorer sends and learner
    /// broadcasts: readers resolve destinations and owned slices while a
    /// writer thread registers explorers. Invariants: every resolved
    /// destination is a valid shard (no rollout is ever lost to an unowned
    /// index), a registration never moves an existing owner, and a newly
    /// registered explorer resolves at once.
    #[test]
    fn register_races_concurrent_sends_without_losing_rollouts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const GROWTH: u32 = 2_000;
        let t = Arc::new(AssignmentTable::contiguous(16, 4));
        let initial: Vec<u32> = (0..16).map(|e| t.shard_of(e)).collect();
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for e in 16..16 + GROWTH {
                    assert!(t.register(e) < 4);
                }
                stop.store(true, Ordering::Release);
            })
        };

        let readers: Vec<_> = (0..3u32)
            .map(|r| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let initial = initial.clone();
                std::thread::spawn(move || {
                    let mut resolved = 0u64;
                    // A single core can run the whole writer before a reader
                    // is scheduled: always take a minimum number of passes so
                    // both the contended and the quiescent regimes are
                    // exercised regardless of interleaving.
                    let mut passes = 0u32;
                    while passes < 50 || !stop.load(Ordering::Acquire) {
                        passes += 1;
                        for e in 0..16u32 {
                            assert!(t.shard_of((e + r) % 16) < 4);
                            assert_eq!(t.shard_of(e), initial[e as usize], "explorer {e} moved");
                            resolved += 1;
                        }
                        let newest = t.num_explorers() - 1;
                        assert!(t.shard_of(newest) < 4, "explorer {newest} resolves");
                        let owned = t.owned(r);
                        assert!(owned.windows(2).all(|w| w[0] < w[1]), "shard {r} owns an ascending set");
                        let original = (0..16).filter(|&e| initial[e as usize] == r);
                        assert!(original.into_iter().all(|e| owned.contains(&e)), "shard {r} kept its slice");
                    }
                    resolved
                })
            })
            .collect();

        writer.join().unwrap();
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made progress under contention");
        // After the race: exactly one owner per explorer, every registration
        // landed, and least-loaded growth kept the shards balanced.
        assert_eq!(t.num_explorers(), 16 + GROWTH);
        let sizes: Vec<usize> = (0..4).map(|s| t.owned(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>() as u32, t.num_explorers(), "ownership stays a partition");
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "balanced: {sizes:?}");
    }
}
