//! The lockstep round between peer learner shards: the state the one learner
//! loop ([`crate::learner`]) advances under
//! [`crate::config::AllreduceMode::Sync`] **with peers**, and the round
//! itself, written once — the loop, the determinism harness
//! (`tests/multi_learner.rs`) and the `multilearner` bench all call
//! [`Lockstep::open_round`] and [`Lockstep::close_round`] over the round every
//! algorithm implements ([`Algorithm::slot_grad`] and its two siblings).
//!
//! The sync mode's obligation is bitwise determinism across shard counts: the
//! same seed must produce bit-identical parameters for 1, 2, and 4 shards.
//! f32 addition is not associative, so "each shard reduces its own minibatch,
//! then shards combine" cannot work — the reduction tree would change shape
//! with the shard count. Instead every round's global batch is split into
//! [`GRAD_SLOTS`] fixed **gradient slots**, independent of how many shards
//! exist:
//!
//! * shard `s` of `S` computes one raw (pre-optimizer) gradient per slot it
//!   owns, scaled by the round's *global* row count, with the loss
//!   contribution carried as one trailing element. The algorithm assigns
//!   rows to slots by the data, so a slot holds the same rows whichever
//!   shard grades it;
//! * the shards allgather the slot gradients as `GradBlob`s
//!   (`MessageKind::Gradient`, `worker` = slot index, `version` = round);
//! * every shard folds the slots flat, left to right, in slot order, and
//!   takes exactly one optimizer step.
//!
//! The same float additions happen in the same order on every shard and for
//! every legal shard count. A single learner's training session is the
//! one-slot case of the same round ([`Algorithm::try_train`]).
//!
//! Nothing here polls: a rollout grants the credit that opens a round, a peer
//! blob completes it, a snapshot fast-forwards it — all messages, so the
//! loop's blocking receive is the only wait. A shard that rejoins after a
//! crash announces itself with a hello, and only a hello does; any peer
//! answers with a full state snapshot (`MessageKind::Parameters`,
//! shard→shard) and a retransmission of its current round's slot blobs, and
//! the rejoiner loads the snapshot and jumps to its round. The snapshot is
//! the peer's whole [`LearnerState`], the value a checkpoint holds, so from
//! then on the rejoiner's optimizer steps are its peers', bit for bit. A
//! slot blob for a round already closed is late, not a rejoin — those
//! retransmissions do arrive after their round closed — and the slot table
//! drops it.
//!
//! Shutdown is symmetric without a wall clock: a round must close on every
//! shard or on none, or the shards exit one optimizer step apart. On shutdown
//! each shard sends its peers one [`FAREWELL`] carrying the first round it did
//! *not* announce, and never announces again. A shard holding round `r` open
//! closes it iff every peer's farewell exceeds `r` — the same predicate on
//! every shard, since closing `r` earlier needed every shard's blobs too —
//! waiting for those blobs as long as the channel takes (they are already
//! submitted), and abandons it at once otherwise. The farewell says only
//! *whether* to wait, not that the stream has ended. The channel keeps a
//! sender's messages to one destination in order whatever lists they are
//! addressed to, so the blobs a shard resends to a rejoiner unicast still
//! precede its farewell to every peer; the protocol does not rely on it.

use crate::learner::LearnerRun;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};
use xingtian_algos::api::{Algorithm, TrainReport};
use xingtian_algos::{GradBlob, LearnerState};
use xingtian_comm::Endpoint;
use xingtian_message::codec::Decode;
use xingtian_message::{Message, MessageKind, ProcessId, ProcessRole};
use xt_telemetry::{CounterHandle, HistogramHandle, Telemetry};

/// Fixed number of gradient slots per sync round. A sync deployment's shard
/// count must divide it (`DeploymentConfig::validate` derives the legal
/// counts from it), so the legal counts are 1, 2, and 4.
pub const GRAD_SLOTS: usize = 4;

/// Sentinel slot index of the startup announcement (`version` = the sender's
/// round), the one rejoin signal. Out of slot range, so the slot table never
/// mistakes it for a gradient.
pub const HELLO: u32 = u32::MAX;
/// Sentinel slot index of the shutdown announcement (`version` = the first
/// round the sender did not announce).
pub const FAREWELL: u32 = u32::MAX - 1;

/// How long a shard leaving the ring tolerates silence from peers it still
/// needs a farewell or vouched-for blobs from. Only a dead peer is ever
/// silent that long.
pub(crate) const DEAD_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// One shard's side of the allgather: the current round's slot table, plus
/// the rounds peers have already raced ahead to.
#[derive(Debug)]
struct SlotTable {
    /// The contiguous slots this shard computes every round.
    local: Range<usize>,
    /// The round being assembled.
    round: u64,
    /// `rounds[r][slot]` = the slot gradient, once seen. Peers may run up to
    /// one collect phase ahead, so future rounds buffer here.
    rounds: BTreeMap<u64, Vec<Option<Vec<f32>>>>,
}

impl SlotTable {
    /// The table of `shard` of `shards`, assembling `round` first.
    fn new(shard: u32, shards: u32, round: u64) -> Self {
        assert!(shards > 0 && GRAD_SLOTS.is_multiple_of(shards as usize), "{shards} shards");
        assert!(shard < shards, "shard {shard} of {shards}");
        let per = GRAD_SLOTS / shards as usize;
        let start = shard as usize * per;
        SlotTable { local: start..start + per, round, rounds: BTreeMap::new() }
    }

    fn slots(&mut self, round: u64) -> &mut Vec<Option<Vec<f32>>> {
        self.rounds.entry(round).or_insert_with(|| vec![None; GRAD_SLOTS])
    }

    /// Records a locally computed slot gradient for the current round.
    fn offer_local(&mut self, slot: usize, grad: Vec<f32>) {
        assert!(self.local.contains(&slot), "slot {slot} not local");
        let round = self.round;
        self.slots(round)[slot] = Some(grad);
    }

    /// Takes a peer's slot gradient. Blobs for finished rounds, out-of-range
    /// slots and slots already filled are dropped; blobs for future rounds
    /// buffer until this shard catches up.
    fn ingest(&mut self, blob: GradBlob) {
        let slot = blob.worker as usize;
        if blob.version < self.round || slot >= GRAD_SLOTS {
            return;
        }
        let entry = &mut self.slots(blob.version)[slot];
        if entry.is_none() {
            *entry = Some(blob.grad);
        }
    }

    /// True once every slot of the current round is present.
    fn ready(&self) -> bool {
        self.rounds.get(&self.round).is_some_and(|slots| slots.iter().all(Option::is_some))
    }

    /// When the round is complete, folds its slots flat in slot order and
    /// advances to the next round.
    fn reduce(&mut self) -> Option<Vec<f32>> {
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

    /// Jumps to `round`, discarding anything buffered for earlier rounds
    /// (a rejoining shard loading a peer's snapshot). Never goes backwards.
    fn fast_forward(&mut self, round: u64) {
        if round > self.round {
            self.round = round;
            self.rounds = self.rounds.split_off(&round);
        }
    }

    /// The locally computed slot blobs of the current round, for
    /// retransmission to a rejoining peer (its first transmission died with
    /// the peer's old endpoint). Empty when the round has not been opened.
    fn local_blobs(&self) -> Vec<GradBlob> {
        let Some(slots) = self.rounds.get(&self.round) else { return Vec::new() };
        self.local
            .clone()
            .filter_map(|slot| {
                let grad = slots[slot].clone()?;
                Some(GradBlob { worker: slot as u32, version: self.round, grad })
            })
            .collect()
    }
}

/// One shard's lockstep state.
#[derive(Debug)]
pub struct Lockstep {
    table: SlotTable,
    peers: Vec<ProcessId>,
    /// Set while this shard has announced its slots for the current round and
    /// is waiting on peers: the collect-phase start.
    open: Option<Instant>,
    /// Round at which we last answered a given rejoining peer.
    snapshot_sent: HashMap<u32, u64>,
    /// Peer shard → the first round it did not announce, once it has left.
    farewells: HashMap<u32, u64>,
    allreduce_hist: HistogramHandle,
    rounds_counter: CounterHandle,
}

impl Lockstep {
    /// The state of `shard` of `shards`, whose first round is `round` (the
    /// algorithm's parameter version).
    pub fn new(shard: u32, shards: u32, round: u64, telemetry: &Telemetry) -> Self {
        Lockstep {
            table: SlotTable::new(shard, shards, round),
            peers: (0..shards).filter(|&p| p != shard).map(ProcessId::learner).collect(),
            open: None,
            snapshot_sent: HashMap::new(),
            farewells: HashMap::new(),
            allreduce_hist: telemetry.histogram("learn.allreduce_ns"),
            rounds_counter: telemetry.counter(&format!("learn.shard{shard}.rounds")),
        }
    }

    /// The slots this shard grades every round (its credit's `local`).
    pub fn local_slots(&self) -> Range<usize> {
        self.table.local.clone()
    }

    fn tell_peers(&self, endpoint: &Endpoint, blob: &GradBlob) {
        if !self.peers.is_empty() {
            endpoint.send_encoded(self.peers.clone(), MessageKind::Gradient, blob);
        }
    }

    /// Announces this shard to the ring. On a fresh start every shard is at
    /// the same round and the answers are no-ops; a shard respawned by the
    /// supervisor instead learns the ring's real position — the peers answer
    /// with a state snapshot to load plus a retransmission of their
    /// current round's slot blobs (the originals died with our old endpoint).
    pub(crate) fn hello(&self, endpoint: &Endpoint) {
        let hello = GradBlob { worker: HELLO, version: self.table.round, grad: Vec::new() };
        self.tell_peers(endpoint, &hello);
    }

    /// The compute phase, after a credit for [`Lockstep::local_slots`]:
    /// grades every owned slot with `slot_grad(slot, out)` (as
    /// [`Algorithm::slot_grad`]), announces each to the peers and offers it
    /// to the local slot table.
    pub fn open_round(&mut self, endpoint: &Endpoint, mut slot_grad: impl FnMut(usize, &mut Vec<f32>) -> f32) {
        for slot in self.table.local.clone() {
            let mut grad = Vec::new();
            let loss = slot_grad(slot, &mut grad);
            // The loss rides as one trailing element, so the flat fold
            // reduces it bit-identically alongside the gradient.
            grad.push(loss);
            let blob = GradBlob { worker: slot as u32, version: self.table.round, grad };
            self.tell_peers(endpoint, &blob);
            self.table.offer_local(slot, blob.grad);
        }
        self.open = Some(Instant::now());
    }

    /// The collect phase's end: once every slot (local and peer) is present,
    /// folds them and takes exactly one optimizer step. The report of the
    /// session that step completes; `None` until then.
    pub fn close_round(&mut self, algorithm: &mut dyn Algorithm) -> Option<TrainReport> {
        let mut folded = self.table.reduce()?;
        let loss = folded.pop().expect("trailing loss element");
        if let Some(t_open) = self.open.take() {
            self.allreduce_hist.record_duration(t_open.elapsed());
        }
        self.rounds_counter.inc();
        algorithm.apply_reduced_grad(&mut folded, loss)
    }

    /// The loop's session producer: opens the next round once the algorithm
    /// grants a credit (never after a peer has left — no round can close
    /// again), closes the open one once it is complete.
    pub(crate) fn step(
        &mut self,
        endpoint: &Endpoint,
        algorithm: &mut dyn Algorithm,
        run: &mut LearnerRun,
    ) -> Option<TrainReport> {
        let idle = self.open.is_none() && self.farewells.is_empty();
        if idle && algorithm.take_round_credit(self.local_slots(), GRAD_SLOTS) {
            let t = Instant::now();
            self.open_round(endpoint, |slot, out| algorithm.slot_grad(slot, out));
            run.trained(t.elapsed());
        }
        let t = Instant::now();
        let report = self.close_round(algorithm)?;
        run.trained(t.elapsed());
        Some(report)
    }

    /// A `Gradient` message: a peer's farewell, a (re)join announcement to
    /// answer, or a slot blob.
    pub fn on_gradient(&mut self, msg: &Message, endpoint: &Endpoint, algorithm: &dyn Algorithm) {
        let Ok(blob) = GradBlob::from_bytes(&msg.body) else { return };
        let src = msg.header.src;
        if src.role == ProcessRole::Learner {
            if blob.worker == FAREWELL {
                self.farewells.insert(src.index, blob.version);
                return;
            }
            // A hello identifies a (re)joining peer. A slot blob for a round
            // this shard already closed does not: the blobs that answer the
            // startup hellos arrive late by design, and each would cost a
            // whole state for a peer that needs none. Answer as `hello`
            // expects, once per (peer, round).
            let round = self.table.round;
            if blob.worker == HELLO && self.snapshot_sent.insert(src.index, round) != Some(round) {
                endpoint.send_encoded(vec![src], MessageKind::Parameters, &algorithm.save_state());
                for local in self.table.local_blobs() {
                    endpoint.send_encoded(vec![src], MessageKind::Gradient, &local);
                }
            }
        }
        self.table.ingest(blob);
    }

    /// A `Parameters` message. Explorer-bound broadcasts never target a
    /// learner, so from a peer it is a snapshot of its whole state answering
    /// our stale announcement: load it and jump to the ring's round, after
    /// which this shard takes the same optimizer steps as its peers. A round
    /// we had opened is gone with the jump, so the gate re-arms instead of
    /// waiting on a round that can never close. True when the snapshot was
    /// loaded.
    pub(crate) fn on_snapshot(&mut self, msg: &Message, algorithm: &mut dyn Algorithm) -> bool {
        let Ok(state) = LearnerState::from_bytes(&msg.body) else { return false };
        let version = state.blob.version;
        if msg.header.src.role != ProcessRole::Learner || version <= self.table.round {
            return false;
        }
        if let Err(e) = algorithm.load_state(&state) {
            eprintln!("learner shard: peer snapshot refused: {e}");
            return false;
        }
        self.table.fast_forward(version);
        self.open = None;
        true
    }

    /// Tells the peers, once, the first round this shard did not announce.
    /// The caller never opens a round afterwards.
    pub(crate) fn farewell(&self, endpoint: &Endpoint) {
        let until = self.table.round + u64::from(self.open.is_some());
        self.tell_peers(endpoint, &GradBlob { worker: FAREWELL, version: until, grad: Vec::new() });
    }

    /// After the farewell: true while the open round may still close — it is
    /// incomplete and no peer has said it never announced it.
    pub(crate) fn awaits_peers(&self) -> bool {
        let round = self.table.round;
        self.open.is_some()
            && !self.table.ready()
            && self.farewells.values().all(|&until| until > round)
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

    fn peer_blob(slot: usize, round: u64) -> GradBlob {
        GradBlob { worker: slot as u32, version: round, grad: slot_grad(slot) }
    }

    /// The same four slot gradients reduce to bit-identical sums no matter
    /// how the slots were split across 1, 2, or 4 shards.
    #[test]
    fn reduction_is_bit_identical_across_shard_counts() {
        let mut reference: Option<Vec<u32>> = None;
        for shards in [1u32, 2, 4] {
            // Assemble the round from shard 0's point of view: its own slots
            // locally, everyone else's via ingest, in worst-case order
            // (reversed).
            let mut table = SlotTable::new(0, shards, 0);
            for slot in table.local.clone() {
                table.offer_local(slot, slot_grad(slot));
            }
            for slot in (table.local.end..GRAD_SLOTS).rev() {
                table.ingest(peer_blob(slot, 0));
            }
            let folded = table.reduce().expect("round complete");
            let bits: Vec<u32> = folded.iter().map(|f| f.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(&bits, r, "{shards} shards diverged bitwise"),
            }
            assert_eq!(table.round, 1, "round advanced");
        }
    }

    #[test]
    fn future_rounds_buffer_and_stale_blobs_drop() {
        let mut table = SlotTable::new(0, 2, 0);
        // A peer already finished round 0 and races ahead: its round-1 slot
        // arrives before we have assembled round 0.
        table.ingest(peer_blob(2, 1));
        table.ingest(peer_blob(3, 1));
        assert!(!table.ready());
        // Round 0 assembles and reduces.
        table.offer_local(0, slot_grad(0));
        table.offer_local(1, slot_grad(1));
        table.ingest(peer_blob(2, 0));
        table.ingest(peer_blob(3, 0));
        assert!(table.reduce().is_some());
        // The buffered round-1 peer slots are already in place.
        table.offer_local(0, slot_grad(0));
        table.offer_local(1, slot_grad(1));
        assert!(table.ready(), "buffered future-round slots count");
        assert!(table.reduce().is_some());
        // Replays of a finished round are dropped, as are duplicates.
        table.ingest(peer_blob(2, 0));
        assert!(!table.rounds.contains_key(&0), "stale replay dropped");
        table.offer_local(0, slot_grad(0));
        table.ingest(GradBlob { worker: 0, version: 2, grad: slot_grad(3) });
        assert_eq!(table.rounds[&2][0], Some(slot_grad(0)), "duplicate dropped");
    }

    #[test]
    fn slots_partition_across_shards() {
        for shards in [1u32, 2, 4] {
            let mut seen = [false; GRAD_SLOTS];
            for s in 0..shards {
                for slot in SlotTable::new(s, shards, 0).local {
                    assert!(!seen[slot], "slot {slot} owned twice");
                    seen[slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "all slots owned");
        }
    }

    #[test]
    fn fast_forward_discards_earlier_rounds_keeps_later() {
        let mut table = SlotTable::new(0, 2, 0);
        table.ingest(peer_blob(2, 1));
        table.ingest(peer_blob(2, 5));
        table.fast_forward(5);
        assert_eq!(table.round, 5);
        assert!(!table.rounds.contains_key(&1), "round-1 buffer discarded");
        table.offer_local(0, slot_grad(0));
        table.offer_local(1, slot_grad(1));
        table.ingest(peer_blob(3, 5));
        assert!(table.ready(), "round-5 buffer survived the jump");
        table.fast_forward(3);
        assert_eq!(table.round, 5, "fast_forward never goes backwards");
    }
}
