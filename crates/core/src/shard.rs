//! Lockstep gradient exchange between peer learner shards: the state the one
//! learner loop ([`crate::learner`]) advances under
//! [`crate::config::AllreduceMode::Sync`] **with peers**, and the round
//! itself, written once — the loop, the determinism harness
//! (`tests/multi_learner.rs`) and the `multilearner` bench all call
//! [`Lockstep::open_round`] and [`Lockstep::close_round`].
//!
//! The round's global batch is split into [`GRAD_SLOTS`] fixed slots, every
//! shard computes raw gradients for its owned slots (scaled by the *global*
//! row count, with the loss contribution carried as one trailing element),
//! the slot blobs are allgathered, folded flat in slot order, and exactly one
//! optimizer step applies the fold. The same float additions happen in the
//! same order on every shard and for every legal shard count, so the same
//! seed yields bit-identical parameters for 1, 2, and 4 shards.
//!
//! Nothing here polls: a rollout grants the credit that opens a round, a peer
//! blob completes it, a snapshot fast-forwards it — all messages, so the
//! loop's blocking receive is the only wait. A shard that rejoins after a
//! crash announces itself with a [`HELLO`] (or slot blobs for an old round);
//! any peer answers with a full parameter snapshot (`MessageKind::Parameters`,
//! shard→shard) that the rejoiner adopts via [`GradExchange::fast_forward`].
//!
//! Shutdown is symmetric without a wall clock: a round must close on every
//! shard or on none, or the shards exit one optimizer step apart. On shutdown
//! each shard sends its peers one [`FAREWELL`] carrying the first round it did
//! *not* announce, and never announces again. A shard holding round `r` open
//! closes it iff every peer's farewell exceeds `r` — the same predicate on
//! every shard, since closing `r` earlier needed every shard's blobs too —
//! waiting for those blobs as long as the channel takes (they are already
//! submitted), and abandons it at once otherwise. The farewell says only
//! *whether* to wait, not that the stream has ended: the channel orders a
//! sender's messages per destination list, and the blobs a shard resends to
//! a rejoiner travel unicast while its farewell goes to every peer, which on
//! a sharded router is another queue.

use crate::allreduce::{GradExchange, GRAD_SLOTS};
use crate::learner::LearnerRun;
use bytes::Bytes;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xingtian_algos::api::{Algorithm, ShardedSync, TrainReport};
use xingtian_algos::payload::ParamBlob;
use xingtian_algos::GradBlob;
use xingtian_comm::Endpoint;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Message, MessageKind, ProcessId, ProcessRole};
use xt_telemetry::{CounterHandle, HistogramHandle, Telemetry};

/// Sentinel slot index of the startup announcement (`version` = the sender's
/// round). Out of slot range, so `ingest` never mistakes it for a gradient.
pub const HELLO: u32 = u32::MAX;
/// Sentinel slot index of the shutdown announcement (`version` = the first
/// round the sender did not announce).
pub const FAREWELL: u32 = u32::MAX - 1;

/// How long a shard leaving the ring tolerates silence from peers it still
/// needs a farewell or vouched-for blobs from. Only a dead peer is ever
/// silent that long.
pub(crate) const DEAD_PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// One shard's lockstep state.
#[derive(Debug)]
pub struct Lockstep {
    exchange: GradExchange,
    peers: Vec<ProcessId>,
    /// Rows in a round's global batch (`slot_rows × GRAD_SLOTS`).
    global_rows: usize,
    /// This shard's share of them, for step accounting: every shard applies
    /// the same global batch, so reporting the full count S times would make
    /// goal semantics (and the controller's step sum) depend on the shard
    /// count.
    pub(crate) local_rows: usize,
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
    pub fn new(shard: u32, shards: u32, slot_rows: usize, round: u64, telemetry: &Telemetry) -> Self {
        let mut exchange = GradExchange::new(shard, shards);
        exchange.fast_forward(round);
        let global_rows = slot_rows * GRAD_SLOTS;
        Lockstep {
            exchange,
            peers: (0..shards).filter(|&p| p != shard).map(ProcessId::learner).collect(),
            global_rows,
            local_rows: global_rows / shards as usize,
            open: None,
            snapshot_sent: HashMap::new(),
            farewells: HashMap::new(),
            allreduce_hist: telemetry.histogram("learn.allreduce_ns"),
            rounds_counter: telemetry.counter(&format!("learn.shard{shard}.rounds")),
        }
    }

    fn tell_peers(&self, endpoint: &Endpoint, blob: &GradBlob) {
        if !self.peers.is_empty() {
            endpoint.send_to(self.peers.clone(), MessageKind::Gradient, Bytes::from(blob.to_bytes()));
        }
    }

    /// Announces this shard to the ring. On a fresh start every shard is at
    /// the same round and the answers are no-ops; a shard respawned by the
    /// supervisor instead learns the ring's real position — the peers answer
    /// with a parameter snapshot to adopt plus a retransmission of their
    /// current round's slot blobs (the originals died with our old endpoint).
    pub(crate) fn hello(&self, endpoint: &Endpoint) {
        let hello = GradBlob { worker: HELLO, version: self.exchange.round(), grad: Vec::new() };
        self.tell_peers(endpoint, &hello);
    }

    /// The compute phase: grades every owned slot with
    /// `slot_grad(slot, global_rows, out)` (the slot's raw gradient at
    /// `1 / global_rows` scale into `out`, its loss contribution returned),
    /// announces each to the peers and offers it to the local exchange.
    pub fn open_round(
        &mut self,
        endpoint: &Endpoint,
        mut slot_grad: impl FnMut(usize, usize, &mut Vec<f32>) -> f32,
    ) {
        for slot in self.exchange.local_slots() {
            let mut grad = Vec::new();
            let loss = slot_grad(slot, self.global_rows, &mut grad);
            // The loss rides as one trailing element, so the flat fold
            // reduces it bit-identically alongside the gradient.
            grad.push(loss);
            let blob = self.exchange.blob_for(slot, grad);
            self.tell_peers(endpoint, &blob);
            self.exchange.offer_local(slot, blob.grad);
        }
        self.open = Some(Instant::now());
    }

    /// The collect phase's end: once every slot (local and peer) is present,
    /// folds them and takes exactly one optimizer step. `None` until then.
    pub fn close_round(&mut self, sync: &mut dyn ShardedSync) -> Option<TrainReport> {
        let mut folded = self.exchange.reduce()?;
        let loss = folded.pop().expect("trailing loss element");
        if let Some(t_open) = self.open.take() {
            self.allreduce_hist.record_duration(t_open.elapsed());
        }
        self.rounds_counter.inc();
        Some(sync.apply_reduced_grad(&folded, self.global_rows, loss))
    }

    /// The loop's session producer: opens the next round once the algorithm
    /// grants a credit (never after a peer has left — no round can close
    /// again), closes the open one once it is complete.
    pub(crate) fn step(
        &mut self,
        endpoint: &Endpoint,
        sync: &mut dyn ShardedSync,
        run: &mut LearnerRun,
    ) -> Option<(usize, Vec<u32>)> {
        if self.open.is_none() && self.farewells.is_empty() && sync.take_round_credit() {
            let t = Instant::now();
            self.open_round(endpoint, |_, rows, out| sync.slot_grad(rows, out));
            run.trained(t.elapsed());
        }
        let t = Instant::now();
        let report = self.close_round(sync)?;
        run.trained(t.elapsed());
        Some((self.local_rows, report.notify))
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
            // A hello or a blob for a round the ring already finished
            // identifies a (re)joining peer — in steady state every blob is
            // needed to close its round, so nothing arrives late. Answer as
            // `hello` expects, once per (peer, round).
            let round = self.exchange.round();
            let rejoining = blob.worker as usize >= GRAD_SLOTS || blob.version < round;
            if rejoining && self.snapshot_sent.insert(src.index, round) != Some(round) {
                let snap = Bytes::from(algorithm.param_blob().to_bytes());
                endpoint.send_to(vec![src], MessageKind::Parameters, snap);
                for local in self.exchange.local_blobs() {
                    let body = Bytes::from(local.to_bytes());
                    endpoint.send_to(vec![src], MessageKind::Gradient, body);
                }
            }
        }
        self.exchange.ingest(blob);
    }

    /// A `Parameters` message. Explorer-bound broadcasts never target a
    /// learner, so from a peer it is a snapshot answering our stale
    /// announcement: adopt it and jump to the ring's round. A round we had
    /// opened is gone with the jump, so the gate re-arms instead of waiting on
    /// a round that can never close.
    pub(crate) fn on_snapshot(&mut self, msg: &Message, algorithm: &mut dyn Algorithm) {
        let Ok(blob) = ParamBlob::from_bytes(&msg.body) else { return };
        if msg.header.src.role == ProcessRole::Learner && blob.version > self.exchange.round() {
            algorithm.adopt_params(&blob.params, blob.version);
            self.exchange.fast_forward(blob.version);
            self.open = None;
        }
    }

    /// Tells the peers, once, the first round this shard did not announce.
    /// The caller never opens a round afterwards.
    pub(crate) fn farewell(&self, endpoint: &Endpoint) {
        let until = self.exchange.round() + u64::from(self.open.is_some());
        self.tell_peers(endpoint, &GradBlob { worker: FAREWELL, version: until, grad: Vec::new() });
    }

    /// After the farewell: true while the open round may still close — it is
    /// incomplete and no peer has said it never announced it.
    pub(crate) fn awaits_peers(&self) -> bool {
        let round = self.exchange.round();
        self.open.is_some()
            && !self.exchange.ready()
            && self.farewells.values().all(|&until| until > round)
    }
}
