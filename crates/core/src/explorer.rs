//! The explorer process: environment interaction and rollout generation.
//!
//! An explorer owns one environment instance and one agent (the paper's
//! `Agent` class holding DNN copies). Its workhorse loop is fully
//! decentralized: it reacts to parameter messages whenever they arrive, steps
//! the environment otherwise, and puts a rollout batch into the object store
//! the instant `rollout_len` steps have accumulated — the router takes it from
//! there, so transmission overlaps the very next environment step (while the
//! store is full, the explorer waits in `send`). The one exception is flow
//! control: every rollout is answered once, with a
//! [`MessageKind::RolloutAnswer`] from the learner when the batch is handed
//! back for recycling, and an explorer with its window of rollouts unanswered
//! ([`MAX_INFLIGHT_BATCHES`], or one under [`SyncMode::OnPolicy`]) waits for
//! an answer before it steps again.

use crate::assignment::AssignmentTable;
use crate::messages::{ControlCommand, StatsMsg};
use crate::parameters::ParamReceiver;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Instant;
use gymlite::{Environment, EpisodeTracker};
use xingtian_algos::api::{Agent, SyncMode};
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_comm::Endpoint;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Message, MessageKind, ProcessId};
use xt_fault::{Accrual, DetectorConfig};
use xt_telemetry::CounterHandle;

/// How many rollouts an off-policy explorer may have unanswered before it
/// waits (source-side flow control); an on-policy explorer's window is one.
///
/// A rollout is answered when the process that took it hands it back for
/// recycling, whether it was trained, shed, discarded or ingested; a replay
/// shard's answer reaches the explorer through the learner. The window
/// bounds the rollouts parked anywhere between explorer and learner and,
/// with them, the policy lag of what the learner trains on.
pub const MAX_INFLIGHT_BATCHES: usize = 4;

/// Where an explorer's rollout batches go.
///
/// The classic deployments froze one [`ProcessId`] at build time; with
/// sharded learners the destination is re-read from the live
/// [`AssignmentTable`] before *every* send, so the table is the one source
/// of ownership and a learner shard respawning under supervision keeps its
/// traffic without restarting the explorer.
#[derive(Clone)]
pub enum RolloutRoute {
    /// Destination resolved once at deployment build (single learner, or the
    /// store-resident replay shard).
    Fixed(ProcessId),
    /// Destination looked up per batch in the shared assignment table.
    Assigned(Arc<AssignmentTable>),
}

impl RolloutRoute {
    /// The destination for `explorer`'s next batch.
    pub fn resolve(&self, explorer: u32) -> ProcessId {
        match self {
            RolloutRoute::Fixed(dst) => *dst,
            RolloutRoute::Assigned(table) => table.rollout_dst(explorer),
        }
    }
}

/// Configuration of one explorer process.
pub struct ExplorerProcess {
    /// Explorer index within the deployment.
    pub index: u32,
    /// Communication endpoint (`ProcessId::explorer(index)`).
    pub endpoint: Endpoint,
    /// The environment to interact with.
    pub env: Box<dyn Environment>,
    /// The agent choosing actions.
    pub agent: Box<dyn Agent>,
    /// Steps per rollout message.
    pub rollout_len: usize,
    /// Where rollout batches go: a fixed destination (classic), or the live
    /// assignment table (sharded learners).
    pub route: RolloutRoute,
    /// The deployment's synchronization discipline: it chooses the window.
    pub sync: SyncMode,
    /// Fault-injection kill switch, pulsed once per environment step
    /// (`None` = not under chaos).
    pub probe: Option<xt_fault::ProcessProbe>,
}

/// What an explorer reports when it shuts down.
#[derive(Debug)]
pub struct ExplorerOutcome {
    /// Episode statistics gathered over the explorer's lifetime.
    pub tracker: EpisodeTracker,
    /// Rollout batches sent.
    pub batches_sent: u64,
}

/// What arriving messages and the flow control change over one run.
struct Inbox {
    /// Parameter-plane decoder: the current reconstruction, updated in place
    /// from delta/quantized frames (or plain blobs).
    params: ParamReceiver,
    /// Rollouts sent and not yet answered.
    unanswered: usize,
    /// How many may be unanswered before the explorer waits.
    window: usize,
    /// The failure detector's accrual rule over the gaps between answers,
    /// under the detector's default tuning (`leash`): how long a live
    /// learner may leave this explorer waiting.
    answers: Accrual,
    leash: DetectorConfig,
    /// One count per wait, not per message handled during it: the gauge the
    /// elastic supervisor and the scale sweeps read is "how often did
    /// generation outpace its window".
    backpressure_waits: CounterHandle,
    answers_forgiven: CounterHandle,
}

impl ExplorerProcess {
    /// Runs the explorer until the controller broadcasts shutdown.
    pub fn run(mut self) -> ExplorerOutcome {
        let controller = ProcessId::controller(0);
        let mut tracker = EpisodeTracker::default();
        let telemetry = self.endpoint.telemetry().clone();
        let mut inbox = Inbox {
            params: ParamReceiver::new(),
            unanswered: 0,
            window: match self.sync {
                SyncMode::OnPolicy => 1,
                SyncMode::OffPolicy => MAX_INFLIGHT_BATCHES,
            },
            answers: Accrual::new(Instant::now()),
            leash: DetectorConfig::default(),
            backpressure_waits: telemetry.counter("explorer.backpressure_waits"),
            answers_forgiven: telemetry.counter("explorer.answers_forgiven"),
        };
        let mut steps: Vec<RolloutStep> = Vec::with_capacity(self.rollout_len);
        let batches_counter = telemetry.counter("explorer.batches_sent");
        let infer_hist = telemetry.histogram("learn.infer_ns");
        let mut batches_sent = 0u64;
        let mut steps_since_stats = 0u64;
        let mut returns_since_stats: Vec<f32> = Vec::new();
        let mut episodes_before = 0usize;
        let mut obs = self.env.reset();

        loop {
            // React to everything that has already arrived (parameters,
            // answers, control commands) without blocking.
            while let Some(msg) = self.endpoint.try_recv() {
                if self.handle_message(&msg, &mut inbox) {
                    return ExplorerOutcome { tracker, batches_sent };
                }
            }

            // Chaos hook: an armed probe panics here, mid-loop, exactly like
            // an organic crash would — the endpoint drops during unwind and
            // its broker's heartbeats stop listing it.
            if let Some(probe) = &self.probe {
                probe.pulse();
            }

            let t_act = std::time::Instant::now();
            let selection = self.agent.act(&obs);
            infer_hist.record_duration(t_act.elapsed());
            let step = self.env.step(selection.action);
            tracker.record_step(step.reward, step.done);
            steps_since_stats += 1;
            if tracker.episodes() > episodes_before {
                returns_since_stats.extend_from_slice(&tracker.returns()[episodes_before..]);
                episodes_before = tracker.episodes();
            }
            steps.push(RolloutStep {
                observation: std::mem::take(&mut obs),
                action: selection.action as u32,
                reward: step.reward,
                done: step.done,
                behavior_logits: selection.logits,
                value: selection.value,
                next_observation: self
                    .agent
                    .records_next_observation()
                    .then(|| step.observation.clone()),
            });
            obs = if step.done { self.env.reset() } else { step.observation };

            if steps.len() >= self.rollout_len {
                let batch = RolloutBatch {
                    explorer: self.index,
                    param_version: self.agent.param_version(),
                    steps: std::mem::take(&mut steps),
                    bootstrap_observation: obs.clone(),
                };
                // Aggressive push: the body goes into the store on this
                // thread (waiting at the gate while it is full) and the
                // router delivers it while the workhorse keeps going. The
                // destination is resolved now, not at build time.
                self.endpoint.send_to(
                    vec![self.route.resolve(self.index)],
                    MessageKind::Rollout,
                    Bytes::from(batch.to_bytes()),
                );
                batches_sent += 1;
                inbox.unanswered += 1;
                batches_counter.inc();
                steps.reserve(self.rollout_len);

                let stats = StatsMsg {
                    source: self.index,
                    steps: steps_since_stats,
                    episode_returns: std::mem::take(&mut returns_since_stats),
                };
                self.endpoint.send_to(vec![controller], MessageKind::Stats, Bytes::from(stats.to_bytes()));
                steps_since_stats = 0;

                if self.wait_for_answers(&mut inbox) {
                    return ExplorerOutcome { tracker, batches_sent };
                }
            }
        }
    }

    /// Source-side flow control after a rollout goes out: while the window
    /// is full, blocks in `recv`, handling what arrives meanwhile. Beyond it
    /// the explorer would only burn CPU producing data the saturated learner
    /// cannot consume yet (paper Fig. 11: throughput *plateaus* at
    /// saturation). An answer can be lost — to a dropped message, a
    /// partition, a learner restored from a checkpoint — so a wait longer
    /// than the failure detector's leash over the gaps between answers
    /// forgives them all. Returns `true` on shutdown.
    fn wait_for_answers(&mut self, inbox: &mut Inbox) -> bool {
        if inbox.unanswered < inbox.window {
            return false;
        }
        inbox.backpressure_waits.inc();
        let forgive_at = Instant::now() + inbox.answers.timeout(&inbox.leash);
        while inbox.unanswered >= inbox.window {
            let left = forgive_at.saturating_duration_since(Instant::now());
            match self.endpoint.recv_timeout(left) {
                Some(msg) if self.handle_message(&msg, inbox) => return true,
                Some(_) => {}
                // Closed before the deadline: nobody will answer.
                None if Instant::now() < forgive_at => return true,
                None => {
                    inbox.unanswered = 0;
                    inbox.answers_forgiven.inc();
                }
            }
        }
        false
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn handle_message(&mut self, msg: &Message, inbox: &mut Inbox) -> bool {
        match msg.header.kind {
            MessageKind::RolloutAnswer => {
                inbox.unanswered = inbox.unanswered.saturating_sub(1);
                inbox.answers.arrive(Instant::now(), &inbox.leash);
                false
            }
            MessageKind::Parameters => {
                let agent = &mut self.agent;
                inbox.params.on_parameters(&self.endpoint, self.index, msg, |blob| {
                    agent.apply_params(blob)
                });
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}
