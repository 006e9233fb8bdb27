//! Lockstep gradient exchange between peer learner shards.
//!
//! The sync half of [`LearnerProcess`] (see [`crate::learner`] for the
//! process itself and the relaxed discipline), entered only for
//! [`crate::config::AllreduceMode::Sync`] **with peers**: lockstep rounds
//! through [`GradExchange`]. The round's global batch is split into
//! [`GRAD_SLOTS`] fixed slots, every shard computes raw gradients for its
//! owned slots (scaled by the *global* row count, with the loss contribution
//! carried as one trailing element), the slot blobs are allgathered, folded
//! flat in slot order, and exactly one optimizer step applies the fold. The
//! same float additions happen in the same order on every shard and for every
//! legal shard count, so the same seed yields bit-identical parameters for 1,
//! 2, and 4 shards. A shard that rejoins after a crash announces itself by
//! sending slot blobs for an old round; any peer answers with a full
//! parameter snapshot (`MessageKind::Parameters`, shard→shard) that the
//! rejoiner adopts via [`GradExchange::fast_forward`].
//!
//! As in the relaxed discipline, the shard broadcasts fresh parameters to the
//! explorers it *currently* owns per the assignment table — a rebalanced or
//! re-owned explorer simply starts receiving from its new shard (the
//! broadcaster's per-explorer delta bookkeeping falls back to full-f32 for
//! first contact).

use crate::allreduce::{GradExchange, GRAD_SLOTS};
use crate::learner::{LearnerProcess, LearnerRun};
use crate::messages::{ControlCommand, ParamAck};
use crate::parameters::ParamBroadcaster;
use bytes::Bytes;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xingtian_algos::payload::{BatchDecoder, ParamBlob, RolloutStep};
use xingtian_algos::GradBlob;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Message, MessageKind, ProcessId, ProcessRole};

/// How long a sync-mode shard blocks per wait slice while its peers finish
/// their slots. Short enough that round completion is checked promptly,
/// long enough not to spin.
const SYNC_POLL: Duration = Duration::from_millis(2);

impl LearnerProcess {
    /// Runs lockstep rounds with `peers` (non-empty: a round with nobody to
    /// be in step with is the train-on-arrival loop's job) until shutdown.
    pub(crate) fn run_sync(&mut self, run: &mut LearnerRun, peers: &[ProcessId]) {
        let shards = self.table.shards();
        let telemetry = self.endpoint.telemetry();
        let wait_hist = telemetry.histogram("learner.wait_ns");
        let train_hist = telemetry.histogram("learn.train_ns");
        let decode_hist = telemetry.histogram("learn.decode_ns");
        let allreduce_hist = telemetry.histogram("learn.allreduce_ns");
        let sessions_counter = telemetry.counter("learner.train_sessions");
        let rounds_counter = telemetry.counter(&format!("learn.shard{}.rounds", self.shard));
        let mut decoder = BatchDecoder::new();
        let mut broadcaster = ParamBroadcaster::new(self.param_compression, telemetry);

        let mut exchange = GradExchange::new(self.shard, shards);
        exchange.fast_forward(self.algorithm.version());
        // Announce ourselves to the ring. On a fresh start every shard is at
        // round 0 and the answers are no-ops; a shard respawned by the
        // supervisor instead learns the ring's real position — the peers
        // answer with a parameter snapshot to adopt plus a retransmission of
        // their current round's slot blobs (the originals died with our old
        // endpoint). The sentinel slot index keeps `ingest` from mistaking
        // the hello for a gradient.
        let hello = GradBlob { worker: u32::MAX, version: exchange.round(), grad: Vec::new() };
        self.endpoint.send_to(peers.to_vec(), MessageKind::Gradient, Bytes::from(hello.to_bytes()));
        let global_rows = {
            let sync = self.algorithm.sharded_sync().expect(
                "sync allreduce requires a ShardedSync algorithm (checked by config validation)",
            );
            sync.slot_rows() * GRAD_SLOTS
        };
        // This shard's share of each round's global batch (for step
        // accounting: the shards together consume `global_rows` per round).
        let local_rows = global_rows / shards as usize;
        // Round at which we last answered a given rejoining peer — one
        // resync answer per (peer, round) is plenty.
        let mut snapshot_sent: HashMap<u32, u64> = HashMap::new();
        let mut steps: Vec<RolloutStep> = Vec::new();
        let mut grad: Vec<f32> = Vec::new();
        // Set while this shard has contributed its slots for the current
        // round and is waiting on peers; holds the round number and the
        // collect-phase start.
        let mut round_open: Option<(u64, Instant)> = None;
        // When the previous iteration made local progress, drain without
        // blocking; otherwise block one poll slice for peer traffic.
        let mut progressed = true;

        'outer: loop {
            if !progressed {
                let t0 = Instant::now();
                let msg = self.endpoint.recv_timeout(SYNC_POLL);
                run.waited += t0.elapsed();
                if let Some(msg) = msg {
                    if self.on_sync_message(
                        msg,
                        &mut exchange,
                        &mut decoder,
                        &decode_hist,
                        &mut broadcaster,
                        &mut snapshot_sent,
                    ) {
                        break 'outer;
                    }
                }
            }
            while let Some(msg) = self.endpoint.try_recv() {
                if self.on_sync_message(
                    msg,
                    &mut exchange,
                    &mut decoder,
                    &decode_hist,
                    &mut broadcaster,
                    &mut snapshot_sent,
                ) {
                    break 'outer;
                }
            }
            progressed = false;

            // A snapshot adoption fast-forwarded the exchange past a round we
            // had opened: that round's local slots are gone, so re-arm the
            // gate instead of waiting on a round that can never close.
            if let Some((r, _)) = round_open {
                if r != exchange.round() {
                    round_open = None;
                }
            }

            // Open the next round once the local gate has enough data.
            if round_open.is_none() {
                let sync = self.algorithm.sharded_sync().expect("checked above");
                if sync.take_round_credit() {
                    let t_compute = Instant::now();
                    for slot in exchange.local_slots() {
                        sync.sample_slot(&mut steps);
                        let loss = sync.grad_on_steps(&steps, global_rows, &mut grad);
                        // The loss rides as one trailing element, so the flat
                        // fold reduces it bit-identically alongside the
                        // gradient.
                        grad.push(loss);
                        let blob = exchange.blob_for(slot, grad.clone());
                        self.endpoint.send_to(
                            peers.to_vec(),
                            MessageKind::Gradient,
                            Bytes::from(blob.to_bytes()),
                        );
                        exchange.offer_local(slot, std::mem::take(&mut grad));
                    }
                    let dt = t_compute.elapsed();
                    run.outcome.train_time += dt;
                    train_hist.record_duration(dt);
                    round_open = Some((exchange.round(), Instant::now()));
                    progressed = true;
                }
            }

            // Close the round once every slot (local and peer) is present.
            if let Some((_, t_open)) = round_open {
                if exchange.ready() {
                    let mut folded = exchange.reduce().expect("ready round reduces");
                    let loss = folded.pop().expect("trailing loss element");
                    allreduce_hist.record_duration(t_open.elapsed());
                    let t_apply = Instant::now();
                    let report = self
                        .algorithm
                        .sharded_sync()
                        .expect("checked above")
                        .apply_reduced_grad(&folded, global_rows, loss);
                    let dt = t_apply.elapsed();
                    run.outcome.train_time += dt;
                    train_hist.record_duration(dt);
                    wait_hist.record_duration(run.waited);
                    sessions_counter.inc();
                    rounds_counter.inc();
                    // Report only this shard's share of the round: every
                    // shard applies the same global batch, so reporting the
                    // full count S times would make goal semantics (and the
                    // controller's step sum) depend on the shard count.
                    self.finish_session(run, &mut broadcaster, local_rows, report.notify);
                    round_open = None;
                    progressed = true;
                }
            }
        }
        // Symmetric shutdown: a round this shard has announced (blobs sent)
        // must close on every shard or on none, or final parameters would
        // differ by one optimizer step depending on who saw the shutdown
        // first. A shard never announces after shutdown, so the peers' slot
        // blobs for our open round are either already in flight (drain and
        // close) or will never come (grace expires and nobody closes it).
        if let Some((r, _)) = round_open {
            let deadline = Instant::now() + Duration::from_millis(300);
            while exchange.round() == r && !exchange.ready() && Instant::now() < deadline {
                if let Some(msg) = self.endpoint.recv_timeout(SYNC_POLL) {
                    if msg.header.kind == MessageKind::Gradient {
                        if let Ok(blob) = GradBlob::from_bytes(&msg.body) {
                            exchange.ingest(blob);
                        }
                    }
                }
            }
            if exchange.ready() {
                let mut folded = exchange.reduce().expect("ready round reduces");
                let loss = folded.pop().expect("trailing loss element");
                let report = self
                    .algorithm
                    .sharded_sync()
                    .expect("checked above")
                    .apply_reduced_grad(&folded, global_rows, loss);
                // Bookkeeping only: the controller and the explorers are
                // already shutting down, so no broadcast and no stats send.
                let _ = report;
                run.outcome.train_sessions += 1;
                run.outcome.steps_consumed += local_rows as u64;
                run.outcome.timeline.record(local_rows as u64);
                if let Some(ckpt) = &mut self.checkpointer {
                    ckpt.on_session(&self.algorithm.param_blob());
                }
            }
        }
        exchange.abandon();
    }

    /// Processes one sync-mode message. Returns `true` on shutdown.
    fn on_sync_message(
        &mut self,
        msg: Message,
        exchange: &mut GradExchange,
        decoder: &mut BatchDecoder,
        decode_hist: &xt_telemetry::HistogramHandle,
        broadcaster: &mut ParamBroadcaster,
        snapshot_sent: &mut HashMap<u32, u64>,
    ) -> bool {
        match msg.header.kind {
            MessageKind::Rollout => {
                let t0 = Instant::now();
                if let Ok(batch) = decoder.decode(&msg.body) {
                    self.algorithm.on_rollout(batch);
                }
                decode_hist.record_duration(t0.elapsed());
                // Recycle the step storage of batches the algorithm is done
                // with (DQN's store copies out at ingest, so that is at once).
                while let Some(spent) = self.algorithm.take_spent() {
                    decoder.recycle(spent);
                }
                false
            }
            MessageKind::Gradient => {
                if let Ok(blob) = GradBlob::from_bytes(&msg.body) {
                    let src = msg.header.src;
                    // A startup hello (sentinel slot) or a blob for a round
                    // the ring already finished identifies a (re)joining peer
                    // — in steady state every blob is needed to close its
                    // round, so nothing arrives late. Answer with a full
                    // parameter snapshot so it can adopt the ring's position,
                    // plus a retransmission of our current round's slot blobs
                    // (the originals may have died with its old endpoint).
                    let resync = blob.worker as usize >= GRAD_SLOTS
                        || blob.version < exchange.round();
                    if resync && src.role == ProcessRole::Learner {
                        let round = exchange.round();
                        if snapshot_sent.get(&src.index) != Some(&round) {
                            snapshot_sent.insert(src.index, round);
                            let snap = self.algorithm.param_blob();
                            self.endpoint.send_to(
                                vec![src],
                                MessageKind::Parameters,
                                Bytes::from(snap.to_bytes()),
                            );
                            for local in exchange.local_blobs() {
                                self.endpoint.send_to(
                                    vec![src],
                                    MessageKind::Gradient,
                                    Bytes::from(local.to_bytes()),
                                );
                            }
                        }
                    }
                    exchange.ingest(blob);
                }
                false
            }
            MessageKind::Parameters => {
                // A peer's snapshot answering our stale slot blobs: adopt it
                // and jump to the ring's round. (Explorer-bound broadcasts
                // never target a learner, so any Parameters here is
                // shard→shard.)
                if msg.header.src.role == ProcessRole::Learner {
                    if let Ok(blob) = ParamBlob::from_bytes(&msg.body) {
                        if blob.version > exchange.round() {
                            self.algorithm.adopt_params(&blob.params, blob.version);
                            exchange.fast_forward(blob.version);
                        }
                    }
                }
                false
            }
            MessageKind::ParamAck => {
                if let Ok(ack) = ParamAck::from_bytes(&msg.body) {
                    broadcaster.on_ack(&ack);
                }
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}
