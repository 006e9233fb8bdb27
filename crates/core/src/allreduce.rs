//! Deterministic cross-learner gradient allreduce (ROADMAP item 2).
//!
//! The sync mode's core obligation is the PR 4 determinism story: *the same
//! seed must produce bit-identical parameters for 1, 2, and 4 learner
//! shards*. f32 addition is not associative, so "each shard reduces its own
//! minibatch, then shards combine" cannot work — the reduction tree would
//! change shape with the shard count. Instead every training round is
//! partitioned into [`GRAD_SLOTS`] fixed **gradient slots**, independent of
//! how many shards exist:
//!
//! * shard `s` of `S` computes one raw (pre-optimizer) gradient per slot in
//!   `slot_range(s, S)`, each scaled by the round's *global* row count;
//! * shards allgather the slot gradients as [`GradBlob`]s over the comm
//!   channel (`MessageKind::Gradient`, `worker` = slot index, `version` =
//!   round number);
//! * every shard folds the slots **flat, left to right, in slot order** —
//!   the same float additions in the same order no matter which shard
//!   computed which slot — and applies exactly one optimizer step per round.
//!
//! [`GradExchange`] is the per-shard state machine for that allgather: it
//! holds the current round's slot table, buffers gradients from peers that
//! have already raced ahead to a future round, and drops stale duplicates.
//! It is transport-agnostic: [`crate::shard::Lockstep`] moves `GradBlob`s in
//! and out of endpoints and owns the round around it.

use std::collections::BTreeMap;
use std::ops::Range;
use xingtian_algos::GradBlob;

/// Fixed number of gradient slots per sync training round. Shard counts must
/// divide this (enforced by `DeploymentConfig::validate`), so the legal
/// counts are 1, 2, and 4.
pub const GRAD_SLOTS: usize = 4;

/// The contiguous slot range owned by `shard` of `shards`.
///
/// # Panics
///
/// Panics unless `shards` divides [`GRAD_SLOTS`] and `shard < shards`.
pub fn slot_range(shard: u32, shards: u32) -> Range<usize> {
    assert!(shards > 0 && GRAD_SLOTS.is_multiple_of(shards as usize), "{shards} shards");
    assert!(shard < shards, "shard {shard} of {shards}");
    let per = GRAD_SLOTS / shards as usize;
    shard as usize * per..(shard as usize + 1) * per
}

/// The shard owning `slot` when `shards` shards split the round.
pub fn slot_owner(slot: usize, shards: u32) -> u32 {
    let per = GRAD_SLOTS / shards as usize;
    (slot / per) as u32
}

/// True when a relaxed-mode delta computed at `remote` version may still be
/// applied by a shard at `local` version; anything farther apart is shed,
/// `Algorithm::take_spent`-style (the sender's gate residual means the mass
/// is deferred, not lost).
pub fn within_skew(local: u64, remote: u64, max_skew: u64) -> bool {
    local.abs_diff(remote) <= max_skew
}

/// Per-shard allgather state for the sync allreduce.
#[derive(Debug)]
pub struct GradExchange {
    shard: u32,
    shards: u32,
    /// The round this shard is currently assembling.
    round: u64,
    /// `rounds[r][slot]` = the slot gradient, once seen. Peers may run up to
    /// one collect-phase ahead, so future rounds buffer here (BTreeMap keeps
    /// cleanup of old rounds ordered and cheap).
    rounds: BTreeMap<u64, Vec<Option<Vec<f32>>>>,
    /// Stale or duplicate blobs dropped so far.
    dropped: u64,
}

impl GradExchange {
    /// An exchange for `shard` of `shards`, starting at round 0.
    pub fn new(shard: u32, shards: u32) -> Self {
        assert!(shards > 0 && GRAD_SLOTS.is_multiple_of(shards as usize), "{shards} shards");
        GradExchange { shard, shards, round: 0, rounds: BTreeMap::new(), dropped: 0 }
    }

    /// The round currently being assembled.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The slot range this shard must compute locally each round.
    pub fn local_slots(&self) -> Range<usize> {
        slot_range(self.shard, self.shards)
    }

    /// Records a locally computed slot gradient for the current round.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not owned by this shard.
    pub fn offer_local(&mut self, slot: usize, grad: Vec<f32>) {
        assert!(self.local_slots().contains(&slot), "slot {slot} not local");
        let round = self.round;
        self.slot_table(round)[slot] = Some(grad);
    }

    /// The blob a peer expects for `slot` this round: `worker` carries the
    /// slot index, `version` the round number.
    pub fn blob_for(&self, slot: usize, grad: Vec<f32>) -> GradBlob {
        GradBlob { worker: slot as u32, version: self.round, grad }
    }

    /// Ingests a peer's slot gradient. Blobs for finished rounds (or slots
    /// already filled) are dropped; blobs for future rounds are buffered
    /// until this shard catches up.
    pub fn ingest(&mut self, blob: GradBlob) {
        let slot = blob.worker as usize;
        if blob.version < self.round || slot >= GRAD_SLOTS {
            self.dropped += 1;
            return;
        }
        let entry = &mut self.slot_table(blob.version)[slot];
        if entry.is_some() {
            self.dropped += 1;
            return;
        }
        *entry = Some(blob.grad);
    }

    /// True once every slot of the current round is present.
    pub fn ready(&self) -> bool {
        self.rounds
            .get(&self.round)
            .is_some_and(|slots| slots.iter().all(Option::is_some))
    }

    /// When the round is complete, folds the slots flat in slot order and
    /// advances to the next round. The returned gradient is bit-identical on
    /// every shard and for every legal shard count, because the additions
    /// are the same f32 operations in the same sequence.
    pub fn reduce(&mut self) -> Option<Vec<f32>> {
        if !self.ready() {
            return None;
        }
        let slots = self.rounds.remove(&self.round).expect("ready round present");
        let mut folded: Option<Vec<f32>> = None;
        for grad in slots.into_iter().flatten() {
            match &mut folded {
                None => folded = Some(grad),
                Some(acc) => {
                    assert_eq!(acc.len(), grad.len(), "slot gradient widths agree");
                    for (a, g) in acc.iter_mut().zip(&grad) {
                        *a += g;
                    }
                }
            }
        }
        self.round += 1;
        folded
    }

    /// Jumps the exchange to `round`, discarding anything buffered for
    /// earlier rounds. Used at startup (the first round is the algorithm's
    /// current parameter version) and when a respawned shard adopts a peer's
    /// parameter snapshot to rejoin the ring.
    pub fn fast_forward(&mut self, round: u64) {
        if round <= self.round {
            return;
        }
        self.round = round;
        self.rounds = self.rounds.split_off(&round);
    }

    /// The locally computed slot blobs of the *current* round, for
    /// retransmission to a rejoining peer (its first transmission died with
    /// the peer's old endpoint). Empty when the round has not been opened.
    pub fn local_blobs(&self) -> Vec<GradBlob> {
        let Some(slots) = self.rounds.get(&self.round) else { return Vec::new() };
        self.local_slots()
            .filter_map(|slot| {
                slots[slot].as_ref().map(|grad| GradBlob {
                    worker: slot as u32,
                    version: self.round,
                    grad: grad.clone(),
                })
            })
            .collect()
    }

    /// Stale/duplicate blobs dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn slot_table(&mut self, round: u64) -> &mut Vec<Option<Vec<f32>>> {
        self.rounds.entry(round).or_insert_with(|| vec![None; GRAD_SLOTS])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_grad(slot: usize) -> Vec<f32> {
        // Values chosen so that reduction-order changes would be visible in
        // the low mantissa bits.
        (0..6).map(|i| (slot as f32 + 1.0) * 0.1 + i as f32 * 1e-7).collect()
    }

    /// The same four slot gradients reduce to bit-identical sums no matter
    /// how the slots were split across 1, 2, or 4 shards.
    #[test]
    fn reduction_is_bit_identical_across_shard_counts() {
        let mut reference: Option<Vec<f32>> = None;
        for shards in [1u32, 2, 4] {
            // Assemble the round from shard 0's point of view: its own slots
            // locally, everyone else's via ingest, in worst-case order
            // (reversed).
            let mut ex = GradExchange::new(0, shards);
            for slot in ex.local_slots() {
                ex.offer_local(slot, slot_grad(slot));
            }
            for slot in (0..GRAD_SLOTS).rev() {
                if slot_owner(slot, shards) != 0 {
                    ex.ingest(GradBlob {
                        worker: slot as u32,
                        version: 0,
                        grad: slot_grad(slot),
                    });
                }
            }
            let folded = ex.reduce().expect("round complete");
            match &reference {
                None => reference = Some(folded),
                Some(r) => {
                    let bits: Vec<u32> = folded.iter().map(|f| f.to_bits()).collect();
                    let rbits: Vec<u32> = r.iter().map(|f| f.to_bits()).collect();
                    assert_eq!(bits, rbits, "{shards} shards diverged bitwise");
                }
            }
            assert_eq!(ex.round(), 1, "round advanced");
        }
    }

    #[test]
    fn future_rounds_buffer_and_stale_blobs_drop() {
        let mut ex = GradExchange::new(0, 2);
        // A peer already finished round 0 and races ahead: its round-1 slot
        // arrives before we have assembled round 0.
        ex.ingest(GradBlob { worker: 2, version: 1, grad: slot_grad(2) });
        ex.ingest(GradBlob { worker: 3, version: 1, grad: slot_grad(3) });
        assert!(!ex.ready());
        // Round 0 assembles and reduces.
        ex.offer_local(0, slot_grad(0));
        ex.offer_local(1, slot_grad(1));
        ex.ingest(GradBlob { worker: 2, version: 0, grad: slot_grad(2) });
        ex.ingest(GradBlob { worker: 3, version: 0, grad: slot_grad(3) });
        assert!(ex.reduce().is_some());
        // The buffered round-1 peer slots are already in place.
        ex.offer_local(0, slot_grad(0));
        ex.offer_local(1, slot_grad(1));
        assert!(ex.ready(), "buffered future-round slots count");
        assert!(ex.reduce().is_some());
        // Replays of a finished round are dropped, as are duplicates.
        ex.ingest(GradBlob { worker: 2, version: 0, grad: slot_grad(2) });
        ex.offer_local(0, slot_grad(0));
        ex.ingest(GradBlob { worker: 0, version: 2, grad: slot_grad(0) });
        assert_eq!(ex.dropped(), 2, "stale replay and duplicate dropped");
    }

    #[test]
    fn slot_ownership_partitions() {
        for shards in [1u32, 2, 4] {
            let mut seen = [false; GRAD_SLOTS];
            for s in 0..shards {
                for slot in slot_range(s, shards) {
                    assert!(!seen[slot], "slot {slot} owned twice");
                    seen[slot] = true;
                    assert_eq!(slot_owner(slot, shards), s);
                }
            }
            assert!(seen.iter().all(|&s| s), "all slots owned");
        }
    }

    #[test]
    fn fast_forward_discards_earlier_rounds_keeps_later() {
        let mut ex = GradExchange::new(0, 2);
        ex.ingest(GradBlob { worker: 2, version: 1, grad: slot_grad(2) });
        ex.ingest(GradBlob { worker: 2, version: 5, grad: slot_grad(2) });
        ex.fast_forward(5);
        assert_eq!(ex.round(), 5);
        ex.offer_local(0, slot_grad(0));
        ex.offer_local(1, slot_grad(1));
        ex.ingest(GradBlob { worker: 3, version: 5, grad: slot_grad(3) });
        assert!(ex.ready(), "round-5 buffer survived the jump");
        ex.fast_forward(3);
        assert_eq!(ex.round(), 5, "fast_forward never goes backwards");
    }

    #[test]
    fn skew_gate() {
        assert!(within_skew(10, 8, 2));
        assert!(within_skew(8, 10, 2));
        assert!(!within_skew(10, 7, 2));
    }
}
