//! The learner process: DNN training driven by rollout arrival.
//!
//! The trainer thread pops complete messages from its local receive buffer —
//! by the time it looks, the asynchronous channel has already moved rollouts
//! across processes and machines and staged them locally. The only waiting
//! the learner ever does is for data that has not been *produced* yet; that
//! wait is measured and reported as the paper's "actual wait" (Figs. 8–10).
//!
//! One process serves every shard count. A learner is shard `shard` of the
//! `table.shards()` the [`AssignmentTable`] spreads the explorer pool over;
//! the classic single learner is shard 0 of 1 and has no peers. With peers
//! the shards cooperate on one model by exchanging gradients over the
//! ordinary comm channel (`MessageKind::Gradient`) in one of two disciplines
//! selected by [`AllreduceMode`]:
//!
//! * **Relaxed** — the train-on-arrival loop below, plus gossip: each shard
//!   trains independently with [`Algorithm::try_train`] and offers its
//!   parameter *deltas* to its peers through the LAPG [`LazyGradGate`]
//!   (uploads only when the compensated delta beats the adaptive threshold —
//!   `comm.grad_skips` counts the saved sends). A receiving shard applies a
//!   delta only while the sender's version is within [`MAX_SKEW`] of its own;
//!   anything staler is shed (`learn.grad_shed`), trading determinism for
//!   never stalling the ring.
//! * **Sync** — lockstep rounds, see [`crate::shard`].
//!
//! Without peers both modes are the same train-on-arrival loop with nothing
//! to gossip: no gate, no delta, no `Gradient` traffic.

use crate::allreduce::within_skew;
use crate::assignment::AssignmentTable;
use crate::checkpoint::Checkpointer;
use crate::config::AllreduceMode;
use crate::messages::{ControlCommand, ParamAck, StatsMsg};
use crate::parameters::ParamBroadcaster;
use crate::stats::ThroughputTimeline;
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{BatchDecoder, ParamBlob};
use xingtian_algos::{GradBlob, LazyGradConfig, LazyGradGate};
use xingtian_comm::{Endpoint, ParamCompression, TransmissionStats};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Header, Message, MessageKind, ProcessId};

/// Maximum parameter-version distance a relaxed-mode delta may carry before
/// the receiving shard sheds it instead of applying it.
pub const MAX_SKEW: u64 = 8;

/// How many already-arrived messages one pass decodes before it trains. At
/// saturation every decoded rollout releases a store credit that un-blocks a
/// backpressured explorer, whose next rollout lands before the buffer
/// empties — an unbounded drain then decodes forever and never trains (a
/// livelock that reads as multi-second zero-throughput stalls at 64+
/// explorers). Sixteen messages per pass keeps the batch queue fed without
/// starving training.
const DRAIN_PER_PASS: usize = 16;

/// Configuration of one learner process (`ProcessId::learner(shard)`).
pub struct LearnerProcess {
    /// This learner's index in the learner group (0 for the single learner).
    pub shard: u32,
    /// Communication endpoint (`ProcessId::learner(shard)`).
    pub endpoint: Endpoint,
    /// The algorithm (replica) being trained.
    pub algorithm: Box<dyn Algorithm>,
    /// Live explorer→shard ownership, shared with the explorers' routing. Its
    /// shard count says how many peers this learner has.
    pub table: Arc<AssignmentTable>,
    /// Gradient-exchange discipline between peer shards.
    pub mode: AllreduceMode,
    /// Optional periodic checkpointing (paper §4.2).
    pub checkpointer: Option<Checkpointer>,
    /// Fault-injection kill switch, pulsed once per completed training
    /// session (`None` = not under chaos).
    pub probe: Option<xt_fault::ProcessProbe>,
    /// Parameter-broadcast encoding (delta/quantized frames with full-f32
    /// fallback; `FullF32` reproduces the plain-blob behavior).
    pub param_compression: ParamCompression,
}

/// What the learner reports when it shuts down.
#[derive(Debug)]
pub struct LearnerOutcome {
    /// Rollout steps consumed for training.
    pub steps_consumed: u64,
    /// Consumption timeline (steps/s series).
    pub timeline: ThroughputTimeline,
    /// Time blocked waiting for rollouts before each training session.
    pub wait_stats: TransmissionStats,
    /// Training sessions completed.
    pub train_sessions: u64,
    /// Total compute time spent inside `train`.
    pub train_time: Duration,
    /// Final trained parameters (flat), for PBT weight inheritance.
    pub final_params: Vec<f32>,
}

/// Per-run mutable state shared by both exchange disciplines.
pub(crate) struct LearnerRun {
    /// The outcome so far (`final_params` is filled in at exit).
    pub(crate) outcome: LearnerOutcome,
    /// Wait accumulated since the last completed training session.
    pub(crate) waited: Duration,
}

/// Where the train-on-arrival loop's incoming messages land.
struct Intake {
    /// Rollout messages decode into recycled step storage: batches the
    /// algorithm has fully consumed flow back through `take_spent` and serve
    /// the next decode without reallocating.
    decoder: BatchDecoder,
    /// The classic fetch→decode→re-insert stage. Store-resident replay
    /// deletes it: the learner then receives only ReplayNotice wakeups and
    /// this histogram stays empty.
    decode_hist: xt_telemetry::HistogramHandle,
    /// Parameter-plane encoder: ring of delta bases, per-explorer sent
    /// versions, error feedback for the quantized modes.
    broadcaster: ParamBroadcaster,
    gossip: Option<Gossip>,
}

/// Relaxed-mode delta gossip toward peer shards; exists only with peers.
struct Gossip {
    peers: Vec<ProcessId>,
    gate: LazyGradGate,
    /// Parameters at the previous offer, the baseline the next delta is
    /// measured against. Peer deltas are folded into it on apply so the
    /// gossip does not echo back what a peer just sent us.
    prev: Vec<f32>,
    shed_counter: xt_telemetry::CounterHandle,
    applied_counter: xt_telemetry::CounterHandle,
}

impl LearnerProcess {
    /// Runs the learner until the controller broadcasts shutdown.
    pub fn run(mut self) -> LearnerOutcome {
        // Give the algorithm the endpoint's telemetry so it can publish its
        // internal stage timings (e.g. DQN's `learn.sample_ns`).
        self.algorithm.attach_telemetry(self.endpoint.telemetry());
        let peers: Vec<ProcessId> = (0..self.table.shards())
            .filter(|&p| p != self.shard)
            .map(ProcessId::learner)
            .collect();
        let mut run = LearnerRun {
            outcome: LearnerOutcome {
                steps_consumed: 0,
                timeline: ThroughputTimeline::new(),
                wait_stats: TransmissionStats::new(),
                train_sessions: 0,
                train_time: Duration::ZERO,
                final_params: Vec::new(),
            },
            waited: Duration::ZERO,
        };
        // Lockstep rounds need someone to be in step with (and a
        // `ShardedSync` algorithm, which validation demands only of sharded
        // deployments); `Sync` is the config default, so a lone learner of
        // any algorithm lands in the train-on-arrival loop.
        if self.mode == AllreduceMode::Sync && !peers.is_empty() {
            self.run_sync(&mut run, &peers);
        } else {
            self.run_on_arrival(&mut run, peers);
        }
        run.outcome.final_params = self.algorithm.param_blob().params;
        run.outcome
    }

    /// Post-session bookkeeping shared by both loops: timeline, wait, the
    /// checkpoint→probe ordering, the parameter broadcast, and the stats
    /// report to the controller. `notify` is the session's
    /// `TrainReport::notify`.
    pub(crate) fn finish_session(
        &mut self,
        run: &mut LearnerRun,
        broadcaster: &mut ParamBroadcaster,
        steps_consumed: usize,
        notify: Vec<u32>,
    ) {
        run.outcome.train_sessions += 1;
        run.outcome.steps_consumed += steps_consumed as u64;
        run.outcome.timeline.record(steps_consumed as u64);
        run.outcome.wait_stats.record(run.waited);
        run.waited = Duration::ZERO;
        if let Some(ckpt) = &mut self.checkpointer {
            ckpt.on_session(&self.algorithm.param_blob());
        }
        // Chaos hook, deliberately *after* the checkpoint hook: a learner
        // killed on session N has persisted everything the checkpoint policy
        // says it should, so recovery measures the policy, not the kill's
        // timing luck.
        if let Some(probe) = &self.probe {
            probe.pulse();
        }
        // The one place the shard count is consulted. A lone learner numbers
        // explorers as the deployment does, so the algorithm's answer stands
        // (IMPALA answers only the sender). A peer shard's replica numbers
        // its slice locally (`0..owned`), so a due broadcast goes to whatever
        // the table says the shard owns *right now* instead.
        let notify = if self.table.shards() > 1 && !notify.is_empty() {
            self.table.owned(self.shard)
        } else {
            notify
        };
        if !notify.is_empty() {
            let blob = self.algorithm.param_blob();
            let enc = broadcaster.encode(&blob, &notify);
            let dst: Vec<ProcessId> = notify.iter().map(|&e| ProcessId::explorer(e)).collect();
            let mut header = Header::new(self.endpoint.pid(), dst, MessageKind::Parameters)
                .with_param_version(enc.version);
            header.compression = enc.compression;
            self.endpoint.send(Message::new(header, enc.body));
        }
        let stats = StatsMsg {
            source: StatsMsg::LEARNER,
            steps: steps_consumed as u64,
            episode_returns: Vec::new(),
        };
        self.endpoint.send_to(
            vec![ProcessId::controller(0)],
            MessageKind::Stats,
            Bytes::from(stats.to_bytes()),
        );
    }

    /// The train-on-arrival loop: block for a message, decode a bounded
    /// burst of what else has arrived, train while the algorithm has work.
    fn run_on_arrival(&mut self, run: &mut LearnerRun, peers: Vec<ProcessId>) {
        let telemetry = self.endpoint.telemetry();
        let wait_hist = telemetry.histogram("learner.wait_ns");
        let train_hist = telemetry.histogram("learn.train_ns");
        let sessions_counter = telemetry.counter("learner.train_sessions");
        let gossip = (!peers.is_empty()).then(|| {
            let mut gate = LazyGradGate::with_telemetry(LazyGradConfig::default(), telemetry);
            let prev = self.algorithm.param_blob().params;
            gate.observe_params(&prev);
            Gossip {
                peers,
                gate,
                prev,
                shed_counter: telemetry.counter("learn.grad_shed"),
                applied_counter: telemetry.counter("learn.grad_applied"),
            }
        });
        let mut intake = Intake {
            decoder: BatchDecoder::new(),
            decode_hist: telemetry.histogram("learn.decode_ns"),
            broadcaster: ParamBroadcaster::new(self.param_compression, telemetry),
            gossip,
        };

        'outer: loop {
            // Block for the next message, accounting the blocked time as wait.
            let t0 = Instant::now();
            let Some(msg) = self.endpoint.recv() else { break };
            run.waited += t0.elapsed();
            if self.on_message(msg, &mut intake) {
                break;
            }
            // Drain whatever else has already arrived — data already staged
            // locally costs no wait — up to the per-pass bound.
            for _ in 0..DRAIN_PER_PASS {
                let Some(extra) = self.endpoint.try_recv() else { break };
                if self.on_message(extra, &mut intake) {
                    break 'outer;
                }
            }
            // Train for as long as the algorithm has work.
            while let Some(report) = {
                let t = Instant::now();
                let r = self.algorithm.try_train();
                if r.is_some() {
                    let dt = t.elapsed();
                    run.outcome.train_time += dt;
                    train_hist.record_duration(dt);
                }
                r
            } {
                wait_hist.record_duration(run.waited);
                sessions_counter.inc();
                if let Some(gossip) = &mut intake.gossip {
                    gossip.offer(self.shard, &self.endpoint, self.algorithm.param_blob());
                }
                self.finish_session(
                    run,
                    &mut intake.broadcaster,
                    report.steps_consumed,
                    report.notify,
                );
            }
            // Recycle the step storage of batches the algorithm is done with.
            while let Some(spent) = self.algorithm.take_spent() {
                intake.decoder.recycle(spent);
            }
        }
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn on_message(&mut self, msg: Message, intake: &mut Intake) -> bool {
        match msg.header.kind {
            MessageKind::ParamAck => {
                if let Ok(ack) = ParamAck::from_bytes(&msg.body) {
                    intake.broadcaster.on_ack(&ack);
                }
                false
            }
            MessageKind::Rollout => {
                let t0 = Instant::now();
                if let Ok(batch) = intake.decoder.decode(&msg.body) {
                    self.algorithm.on_rollout(batch);
                }
                intake.decode_hist.record_duration(t0.elapsed());
                false
            }
            MessageKind::Gradient => {
                if let (Some(gossip), Ok(blob)) =
                    (&mut intake.gossip, GradBlob::from_bytes(&msg.body))
                {
                    gossip.apply(self.algorithm.as_mut(), &blob);
                }
                false
            }
            // Store-resident replay: the shard ingested a batch on our
            // behalf. Nothing to decode — falling through wakes the training
            // loop, which samples straight from the shared plane.
            MessageKind::ReplayNotice => false,
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}

impl Gossip {
    /// Offers the session's parameter movement to the LAPG gate; an accepted
    /// delta gossips to every peer shard.
    fn offer(&mut self, shard: u32, endpoint: &Endpoint, blob: ParamBlob) {
        self.gate.observe_params(&blob.params);
        if self.prev.len() == blob.params.len() {
            let delta: Vec<f32> = blob.params.iter().zip(&self.prev).map(|(n, p)| n - p).collect();
            if let Some(up) = self.gate.offer(&delta) {
                let gb = GradBlob { worker: shard, version: blob.version, grad: up };
                endpoint.send_to(
                    self.peers.clone(),
                    MessageKind::Gradient,
                    Bytes::from(gb.to_bytes()),
                );
            }
        }
        self.prev = blob.params;
    }

    /// Applies a peer's delta while it is within the skew bound.
    fn apply(&mut self, algorithm: &mut dyn Algorithm, blob: &GradBlob) {
        if !within_skew(algorithm.version(), blob.version, MAX_SKEW) {
            // Too stale (or too far ahead): shed. The sender's gate residual
            // keeps the mass for its next offer.
            self.shed_counter.inc();
            return;
        }
        let mut params = algorithm.param_blob().params;
        if params.len() != blob.grad.len() {
            return;
        }
        for (p, d) in params.iter_mut().zip(&blob.grad) {
            *p += d;
        }
        algorithm.load_params(&params);
        // Fold the peer delta into the offer baseline so our next delta is
        // our own movement only.
        if self.prev.len() == blob.grad.len() {
            for (p, d) in self.prev.iter_mut().zip(&blob.grad) {
                *p += d;
            }
        }
        self.applied_counter.inc();
    }
}
