//! The explorer process: environment interaction and rollout generation.
//!
//! An explorer owns one environment instance and one agent (the paper's
//! `Agent` class holding DNN copies). Its workhorse loop is fully
//! decentralized: it reacts to parameter messages whenever they arrive, steps
//! the environment otherwise, and pushes a rollout batch into its send buffer
//! the instant `rollout_len` steps have accumulated — the sender thread of the
//! endpoint takes it from there, so transmission overlaps the very next
//! environment step.

use crate::assignment::AssignmentTable;
use crate::messages::{ControlCommand, StatsMsg};
use crate::parameters::ParamReceiver;
use bytes::Bytes;
use std::sync::Arc;
use gymlite::{Environment, EpisodeTracker};
use xingtian_algos::api::{Agent, SyncMode};
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_comm::Endpoint;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Message, MessageKind, ProcessId};

/// How many rollout batches an explorer may have staged in its send buffer
/// before it pauses generation (source-side flow control).
pub const MAX_INFLIGHT_BATCHES: usize = 4;

/// Where an explorer's rollout batches go.
///
/// The classic deployments froze one [`ProcessId`] at build time; with
/// sharded learners the destination is re-read from the live
/// [`AssignmentTable`] before *every* send, so a rebalance (or a learner
/// shard respawning under supervision) redirects the very next batch without
/// restarting the explorer.
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
    /// The deployment's synchronization discipline.
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

impl ExplorerProcess {
    /// Runs the explorer until the controller broadcasts shutdown.
    pub fn run(mut self) -> ExplorerOutcome {
        let controller = ProcessId::controller(0);
        let mut tracker = EpisodeTracker::new(100);
        // Parameter-plane decoder: the current reconstruction, updated in
        // place from delta/quantized frames (or plain blobs).
        let mut params = ParamReceiver::new();
        let mut steps: Vec<RolloutStep> = Vec::with_capacity(self.rollout_len);
        let batches_counter = self.endpoint.telemetry().counter("explorer.batches_sent");
        let backpressure_counter = self.endpoint.telemetry().counter("explorer.backpressure_waits");
        let infer_hist = self.endpoint.telemetry().histogram("learn.infer_ns");
        let mut batches_sent = 0u64;
        let mut steps_since_stats = 0u64;
        let mut returns_since_stats: Vec<f32> = Vec::new();
        let mut episodes_before = 0usize;
        let mut obs = self.env.reset();

        loop {
            // React to everything that has already arrived (parameters,
            // control commands) without blocking.
            while let Some(msg) = self.endpoint.try_recv() {
                if self.handle_message(&msg, &mut params) {
                    return ExplorerOutcome { tracker, batches_sent };
                }
            }

            // Chaos hook: an armed probe panics here, mid-loop, exactly like
            // an organic crash would — the endpoint drops during unwind and
            // heartbeats stop.
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
                // Flow control: an explorer may run at most a few rollouts
                // ahead of the channel. Beyond that it would only burn CPU
                // producing data the saturated learner cannot consume yet
                // (paper Fig. 11: throughput *plateaus* at saturation). The
                // wait is idle, and control traffic stays live.
                if self.endpoint.send_backlog() >= MAX_INFLIGHT_BATCHES {
                    // One count per stalled rollout, not per spin: the gauge
                    // the elastic supervisor and the scale sweeps read is
                    // "how often did generation outpace the channel".
                    backpressure_counter.inc();
                }
                while self.endpoint.send_backlog() >= MAX_INFLIGHT_BATCHES {
                    while let Some(msg) = self.endpoint.try_recv() {
                        if self.handle_message(&msg, &mut params) {
                            return ExplorerOutcome { tracker, batches_sent };
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let sent_version = self.agent.param_version();
                let batch = RolloutBatch {
                    explorer: self.index,
                    param_version: sent_version,
                    steps: std::mem::take(&mut steps),
                    bootstrap_observation: obs.clone(),
                };
                // Aggressive push: the message is staged and the workhorse
                // keeps going; the sender thread transmits concurrently. The
                // destination is resolved now, not at build time.
                self.endpoint.send_to(
                    vec![self.route.resolve(self.index)],
                    MessageKind::Rollout,
                    Bytes::from(batch.to_bytes()),
                );
                batches_sent += 1;
                batches_counter.inc();
                steps.reserve(self.rollout_len);

                let stats = StatsMsg {
                    source: self.index,
                    steps: steps_since_stats,
                    episode_returns: std::mem::take(&mut returns_since_stats),
                };
                self.endpoint.send_to(vec![controller], MessageKind::Stats, Bytes::from(stats.to_bytes()));
                steps_since_stats = 0;

                if self.sync == SyncMode::OnPolicy {
                    // On-policy gate: wait for parameters newer than the ones
                    // that produced the batch just sent.
                    loop {
                        let Some(msg) = self.endpoint.recv() else {
                            return ExplorerOutcome { tracker, batches_sent };
                        };
                        if self.handle_message(&msg, &mut params) {
                            return ExplorerOutcome { tracker, batches_sent };
                        }
                        if self.agent.param_version() > sent_version {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn handle_message(&mut self, msg: &Message, params: &mut ParamReceiver) -> bool {
        match msg.header.kind {
            MessageKind::Parameters => {
                let agent = &mut self.agent;
                params.on_parameters(&self.endpoint, self.index, msg, |blob| agent.apply_params(blob));
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}
