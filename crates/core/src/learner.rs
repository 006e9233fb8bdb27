//! The learner process: DNN training driven by data arrival.
//!
//! The trainer thread pops complete messages from its local receive buffer —
//! by the time it looks, the asynchronous channel has already moved rollouts
//! across processes and machines and staged them locally. The only waiting
//! the learner ever does is for data that has not been *produced* yet; that
//! wait is measured and reported as the paper's "actual wait" (Figs. 8–10).
//!
//! One process and one loop serve every shard count and both
//! [`AllreduceMode`]s: block for a message, dispatch it and a bounded burst
//! of what else has arrived through the one `on_message`, complete every
//! session that is now possible, recycle spent batches. Recycling is where a
//! rollout is answered: every batch the algorithm hands back — trained, shed,
//! discarded as stale or copied into DQN's replay plane — sends its explorer
//! one [`MessageKind::RolloutAnswer`], the credit the explorer's flow control
//! waits on. A session's broadcast goes out before its batches are recycled,
//! so an explorer meets the parameters ahead of the answer. A learner is shard
//! `shard` of the `table.shards()` the [`AssignmentTable`] spreads the
//! explorer pool over; the classic single learner is shard 0 of 1. Peer
//! shards add an exchange discipline over the ordinary comm channel
//! (`MessageKind::Gradient`), a value chosen once in [`LearnerProcess::run`]
//! that contributes only how a session is produced, what a peer's message
//! means, and the startup and shutdown handshakes:
//!
//! * **alone** (no peers, either mode) — sessions come from
//!   [`Algorithm::try_train`], one-slot rounds; no gate, no delta, no
//!   `Gradient` traffic;
//! * **relaxed** — the same, plus delta gossip ([`crate::gossip`]);
//! * **sync** — the same round surface, with this shard's slots of a
//!   [`crate::shard::GRAD_SLOTS`]-slot round folded with its peers'
//!   ([`crate::shard`]).

use crate::assignment::AssignmentTable;
use crate::checkpoint::Checkpointer;
use crate::config::AllreduceMode;
use crate::gossip::Gossip;
use crate::messages::{ControlCommand, LearnerStats};
use crate::parameters::ParamBroadcaster;
use crate::shard::{Lockstep, DEAD_PEER_TIMEOUT};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_algos::api::{Algorithm, TrainReport};
use xingtian_algos::payload::{BatchDecoder, RolloutBatch};
use xingtian_comm::{Endpoint, ParamCompression, TransmissionStats};
use xingtian_message::codec::Decode;
use xingtian_message::{Message, MessageKind, ProcessId};
use xt_telemetry::{Histogram, ThroughputTimeline};

/// How many already-arrived messages one pass decodes before it trains (or
/// opens a lockstep round). At saturation every decoded rollout releases a
/// store credit that un-blocks a backpressured explorer, whose next rollout
/// lands before the buffer empties — an unbounded drain then decodes forever
/// and never trains (a livelock that reads as multi-second zero-throughput
/// stalls at 64+ explorers). Sixteen messages per pass keeps the batch queue
/// fed without starving training.
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
    /// Policy lag of every rollout decoded: the learner's parameter version
    /// at decode minus the version that generated the rollout.
    pub policy_lag: Histogram,
    /// Rollouts decoded, per source explorer.
    pub rollouts_by_explorer: BTreeMap<u32, u64>,
}

/// Per-run mutable state every discipline shares.
pub(crate) struct LearnerRun {
    /// The outcome so far (`final_params` is filled in at exit).
    outcome: LearnerOutcome,
    /// Wait accumulated since the last completed training session.
    waited: Duration,
    wait_hist: xt_telemetry::HistogramHandle,
    train_hist: xt_telemetry::HistogramHandle,
    sessions_counter: xt_telemetry::CounterHandle,
    /// Rollout messages decode into recycled step storage: batches the
    /// algorithm has fully consumed flow back through `take_spent` and serve
    /// the next decode without reallocating.
    decoder: BatchDecoder,
    /// The classic fetch→decode→re-insert stage. Store-resident replay
    /// deletes it: the learner then receives only `RolloutAnswer` wakeups and
    /// this histogram stays empty.
    decode_hist: xt_telemetry::HistogramHandle,
    /// `learner.policy_lag`, the telemetry twin of `outcome.policy_lag`.
    lag_hist: xt_telemetry::HistogramHandle,
    /// Parameter-plane encoder: ring of delta bases, per-explorer sent
    /// versions, error feedback for the quantized modes.
    broadcaster: ParamBroadcaster,
}

impl LearnerRun {
    /// Accounts `dt` of training compute (`learn.train_ns`).
    pub(crate) fn trained(&mut self, dt: Duration) {
        self.outcome.train_time += dt;
        self.train_hist.record_duration(dt);
    }

    /// Accounts one decoded rollout: its source, and its policy lag against
    /// the learner's parameter `version`.
    fn decoded(&mut self, batch: &RolloutBatch, version: u64) {
        let lag = version.saturating_sub(batch.param_version);
        self.outcome.policy_lag.record(lag);
        self.lag_hist.record(lag);
        *self.outcome.rollouts_by_explorer.entry(batch.explorer).or_insert(0) += 1;
    }
}

/// How this learner exchanges gradients with its peer shards — all that
/// differs between learners. Chosen once, from `(mode, peers)`.
enum Discipline {
    /// No peers (either mode): train on arrival, nothing to exchange.
    Alone,
    /// Relaxed: train on arrival, gossip parameter deltas.
    Gossip(Gossip),
    /// Sync: a session is a lockstep round.
    Lockstep(Lockstep),
}

impl LearnerProcess {
    /// Runs the learner until the supervisor sends it `Shutdown`: block for a
    /// message, dispatch it and a bounded burst of what else has arrived,
    /// complete every session the discipline can now produce, recycle.
    pub fn run(mut self) -> LearnerOutcome {
        // Give the algorithm the endpoint's telemetry so it can publish its
        // internal stage timings (e.g. DQN's `learn.sample_ns`).
        self.algorithm.attach_telemetry(self.endpoint.telemetry());
        let telemetry = self.endpoint.telemetry().clone();
        let shards = self.table.shards();
        // Lockstep rounds need someone to be in step with; `Sync` is the
        // config default, so a lone learner trains on arrival.
        let mut discipline = match self.mode {
            _ if shards == 1 => Discipline::Alone,
            AllreduceMode::Relaxed => {
                let params = self.algorithm.param_blob().params;
                Discipline::Gossip(Gossip::new(self.shard, shards, params, &telemetry))
            }
            AllreduceMode::Sync => {
                let lockstep = Lockstep::new(self.shard, shards, self.algorithm.version(), &telemetry);
                lockstep.hello(&self.endpoint);
                Discipline::Lockstep(lockstep)
            }
        };
        let mut run = LearnerRun {
            outcome: LearnerOutcome {
                steps_consumed: 0,
                timeline: ThroughputTimeline::new(),
                wait_stats: TransmissionStats::new(),
                train_sessions: 0,
                train_time: Duration::ZERO,
                final_params: Vec::new(),
                policy_lag: Histogram::new(),
                rollouts_by_explorer: BTreeMap::new(),
            },
            waited: Duration::ZERO,
            wait_hist: telemetry.histogram("learner.wait_ns"),
            train_hist: telemetry.histogram("learn.train_ns"),
            sessions_counter: telemetry.counter("learner.train_sessions"),
            decoder: BatchDecoder::new(),
            decode_hist: telemetry.histogram("learn.decode_ns"),
            lag_hist: telemetry.histogram("learner.policy_lag"),
            broadcaster: ParamBroadcaster::new(self.param_compression, &telemetry),
        };
        // Above version 0 at start means restored from a checkpoint. The
        // broadcast the dead incarnation owed may have died with it, and an
        // on-policy learner discards every rollout generated with older
        // parameters: announce the restored ones before waiting.
        if self.algorithm.version() > 0 {
            self.announce(&mut run);
        }

        let mut shutdown = false;
        while !shutdown {
            // Block for the next message, accounting the blocked time as
            // wait. Everything that can advance a discipline is a message — a
            // rollout or a replay shard's answer grants credit, a peer blob
            // completes a round, a snapshot fast-forwards it — so nothing
            // below polls.
            let t0 = Instant::now();
            let Some(msg) = self.endpoint.recv() else { break };
            run.waited += t0.elapsed();
            shutdown = self.on_message(msg, &mut run, &mut discipline);
            // Drain whatever else has already arrived — data already staged
            // locally costs no wait — up to the per-pass bound.
            for _ in 0..DRAIN_PER_PASS {
                if shutdown {
                    break;
                }
                let Some(extra) = self.endpoint.try_recv() else { break };
                shutdown = self.on_message(extra, &mut run, &mut discipline);
            }
            // Complete every session that is now possible (none on shutdown:
            // the supervisor has its goal, the explorers are leaving).
            if !shutdown {
                while let Some(report) = self.next_session(&mut run, &mut discipline) {
                    self.finish_session(&mut run, report);
                }
            }
            // Recycle the step storage of batches the algorithm is done with,
            // answering each one's source.
            while let Some(spent) = self.algorithm.take_spent() {
                let source = vec![ProcessId::explorer(spent.explorer)];
                self.endpoint.send_encoded(source, MessageKind::RolloutAnswer, &spent.explorer);
                run.decoder.recycle(spent);
            }
        }
        if let Discipline::Lockstep(lockstep) = &mut discipline {
            self.leave_ring(&mut run, lockstep);
        }
        run.outcome.final_params = self.algorithm.param_blob().params;
        run.outcome
    }

    /// Produces the next training session if the discipline can; its
    /// `steps_consumed` is this shard's share.
    fn next_session(&mut self, run: &mut LearnerRun, discipline: &mut Discipline) -> Option<TrainReport> {
        if let Discipline::Lockstep(lockstep) = discipline {
            return lockstep.step(&self.endpoint, self.algorithm.as_mut(), run);
        }
        let t = Instant::now();
        let report = self.algorithm.try_train()?;
        run.trained(t.elapsed());
        if let Discipline::Gossip(gossip) = discipline {
            gossip.offer(&self.endpoint, self.algorithm.param_blob());
        }
        Some(report)
    }

    /// Broadcasts the current parameters to every explorer this shard owns.
    fn announce(&self, run: &mut LearnerRun) {
        let owned = self.table.owned(self.shard);
        let dst = owned.iter().map(|&e| ProcessId::explorer(e)).collect();
        run.broadcaster.encode(&self.algorithm.param_blob(), &owned).send(&self.endpoint, dst);
    }

    /// A completed session's share of the outcome, and its checkpoint hook.
    fn record_session(&mut self, run: &mut LearnerRun, steps_consumed: usize) {
        run.outcome.train_sessions += 1;
        run.outcome.steps_consumed += steps_consumed as u64;
        run.outcome.timeline.record(steps_consumed as u64);
        run.outcome.wait_stats.record(run.waited);
        run.waited = Duration::ZERO;
        if let Some(ckpt) = &mut self.checkpointer {
            ckpt.on_session(|| self.algorithm.save_state());
        }
    }

    /// Post-session bookkeeping: instruments, outcome, the checkpoint→probe
    /// ordering, the report to the supervisor, and the parameter broadcast.
    fn finish_session(&mut self, run: &mut LearnerRun, TrainReport { steps_consumed, notify, version, .. }: TrainReport) {
        run.wait_hist.record_duration(run.waited);
        run.sessions_counter.inc();
        self.record_session(run, steps_consumed);
        // Chaos hook, deliberately *after* the checkpoint hook: a learner
        // killed on session N has persisted everything the checkpoint policy
        // says it should, so recovery measures the policy, not the kill's
        // timing luck.
        if let Some(probe) = &self.probe {
            probe.pulse();
        }
        // The report precedes the broadcast, so the supervisor has heard of
        // every version an explorer can hold from this incarnation.
        let stats = LearnerStats { steps: steps_consumed as u64, version };
        self.endpoint.send_encoded(vec![ProcessId::controller(0)], MessageKind::Stats, &stats);
        // The one place the shard count is consulted. A lone learner numbers
        // explorers as the deployment does, so the algorithm's list stands
        // (IMPALA broadcasts only to the sender). A peer shard's replica numbers
        // its slice locally (`0..owned`), so a due broadcast goes to whatever
        // the table says the shard owns *right now* instead.
        let notify = if self.table.shards() > 1 && !notify.is_empty() {
            self.table.owned(self.shard)
        } else {
            notify
        };
        if !notify.is_empty() {
            let blob = self.algorithm.param_blob();
            let dst = notify.iter().map(|&e| ProcessId::explorer(e)).collect();
            run.broadcaster.encode(&blob, &notify).send(&self.endpoint, dst);
        }
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn on_message(&mut self, msg: Message, run: &mut LearnerRun, discipline: &mut Discipline) -> bool {
        match (msg.header.kind, discipline) {
            (MessageKind::ParamAck, _) => {
                run.broadcaster.on_ack_message(&msg);
            }
            (MessageKind::Rollout, _) => {
                let t0 = Instant::now();
                if let Ok(batch) = run.decoder.decode(&msg.body) {
                    run.decoded(&batch, self.algorithm.version());
                    self.algorithm.on_rollout(batch);
                }
                run.decode_hist.record_duration(t0.elapsed());
            }
            (MessageKind::Gradient, Discipline::Gossip(gossip)) => {
                gossip.on_gradient(&msg, self.algorithm.as_mut());
            }
            (MessageKind::Gradient, Discipline::Lockstep(lockstep)) => {
                lockstep.on_gradient(&msg, &self.endpoint, self.algorithm.as_ref());
            }
            // A rejoined shard's explorers hold the checkpoint's parameters,
            // and an on-policy rollout made with those is discarded.
            (MessageKind::Parameters, Discipline::Lockstep(lockstep)) => {
                let loaded = lockstep.on_snapshot(&msg, self.algorithm.as_mut());
                if loaded {
                    self.announce(run);
                }
            }
            (MessageKind::Control, _) => {
                return ControlCommand::from_bytes(&msg.body) == Ok(ControlCommand::Shutdown);
            }
            // A replay shard ingested a rollout for us: nothing to decode, and
            // its answer goes on to the source at the learner's pace.
            (MessageKind::RolloutAnswer, _) => {
                if let Ok(source) = u32::from_bytes(&msg.body) {
                    self.endpoint.send_to(vec![ProcessId::explorer(source)], MessageKind::RolloutAnswer, msg.body);
                }
            }
            _ => {}
        }
        false
    }

    /// The lockstep shutdown handshake (see [`crate::shard`]): tell the peers
    /// what this shard announced, then close the open round iff every peer
    /// announced it too.
    fn leave_ring(&mut self, run: &mut LearnerRun, lockstep: &mut Lockstep) {
        lockstep.farewell(&self.endpoint);
        while lockstep.awaits_peers() {
            // Dead-peer fallback, never taken on the fault-free path: every
            // live peer says farewell, and blobs a farewell vouches for are
            // already submitted. Only a peer that died leaves us in silence.
            let Some(msg) = self.endpoint.recv_timeout(DEAD_PEER_TIMEOUT) else { break };
            if msg.header.kind == MessageKind::Gradient {
                lockstep.on_gradient(&msg, &self.endpoint, self.algorithm.as_ref());
            }
        }
        // Bookkeeping only: the supervisor has ended the run and the
        // explorers are shutting down, so no broadcast and no stats send.
        if let Some(report) = lockstep.close_round(self.algorithm.as_mut()) {
            self.record_session(run, report.steps_consumed);
        }
    }
}
