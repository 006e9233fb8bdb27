//! The framework-facing algorithm contract.
//!
//! XingTian's researcher interface (paper §4.2) splits a DRL algorithm into a
//! learner-side `Algorithm` (how to organize received rollouts and update the
//! DNNs — `prepare_data` + `train`) and an explorer-side `Agent` (how to pick
//! actions and package environment feedback — `infer_action` +
//! `handle_env_feedback`). The same two traits are implemented here and are
//! consumed by *both* the XingTian framework and the baseline frameworks, so
//! every framework runs byte-identical algorithm logic and differs only in
//! communication management.
//!
//! `train` is [`Algorithm::try_train`], written once over the round every
//! algorithm implements: a credit, one raw gradient per slot, one optimizer
//! step on their sum. A single learner's rounds have one slot; sync-sharded
//! learners (`xingtian::shard`) split a round's fixed slots between them.

use crate::payload::{ParamBlob, RolloutBatch};
use crate::state::{LearnerState, StateError};
use std::cell::Cell;
use std::ops::Range;

/// How the learner and explorers synchronize: how many rollouts an explorer
/// may have unanswered. A rollout is answered when the process that took it
/// hands it back for recycling ([`Algorithm::take_spent`]), so the mode
/// chooses only the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// On-policy (PPO, A2C): one rollout at a time. The session that
    /// consumes it broadcasts its parameters before the rollout is handed
    /// back, so the next rollout is generated with them.
    OnPolicy,
    /// Off-policy (IMPALA, DQN, REINFORCE): a few rollouts ahead, generated
    /// with whatever parameters the explorer holds.
    OffPolicy,
}

/// Outcome of one training session.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Rollout steps consumed by this session (the unit of the paper's
    /// throughput metric).
    pub steps_consumed: usize,
    /// Scalar training loss (algorithm-specific composition).
    pub loss: f32,
    /// Parameter version after the update.
    pub version: u64,
    /// Explorers that should receive the new parameters now. Empty means "no
    /// broadcast due yet" (e.g. DQN broadcasts every few sessions).
    pub notify: Vec<u32>,
}

/// Learner-side algorithm logic.
pub trait Algorithm: Send {
    /// Ingests a rollout batch (the paper's `prepare_data`): replay-buffer
    /// insertion for DQN, accumulation for PPO/IMPALA.
    fn on_rollout(&mut self, batch: RolloutBatch);

    /// Hands back one rollout batch the algorithm is done with — trained,
    /// shed, discarded as stale, or copied into its own storage — so the
    /// framework can recycle its allocations into the receive path (see
    /// `BatchDecoder`) and answer the batch's source. Every batch given to
    /// [`Algorithm::on_rollout`] comes back exactly once. `None` when nothing
    /// is spent.
    fn take_spent(&mut self) -> Option<RolloutBatch>;

    /// Snapshot of all trainable parameters for broadcast.
    fn param_blob(&self) -> ParamBlob;

    /// Overwrites all trainable parameters and nothing else: PBT seeding a
    /// new population with the best one's weights (paper §4.3), and relaxed
    /// gossip mixing in a peer's delta. The version counter is left
    /// unchanged. A restore or a rejoin loads the whole state instead
    /// ([`Algorithm::load_state`]).
    ///
    /// # Panics
    ///
    /// Implementations panic if `params` has the wrong length.
    fn load_params(&mut self, params: &[f32]);

    /// Current parameter version.
    fn version(&self) -> u64;

    /// This learner's whole state as one value ([`LearnerState`]): the
    /// checkpoint file, and the snapshot a sync shard answers a rejoining
    /// peer with.
    fn save_state(&self) -> LearnerState;

    /// Loads a state [`Algorithm::save_state`] wrote — this learner's own or
    /// a peer replica's — so that training continues exactly as the saver's
    /// would have: a learner restored from a checkpoint, or a respawned
    /// learner shard rejoining the ring. Version included, so the loader's
    /// broadcasts are not stale to explorers that heard the saver. Staged or
    /// queued rollouts are handed back ([`Algorithm::take_spent`]); replay
    /// contents stay as they are.
    ///
    /// # Errors
    ///
    /// A state whose sections do not fit this learner is refused before
    /// anything is written.
    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError>;

    /// Hands the algorithm a telemetry handle so it can publish per-stage
    /// timings (e.g. DQN's `learn.sample_ns`) into the same registry as the
    /// framework's channel stages. The default keeps algorithms
    /// telemetry-free.
    fn attach_telemetry(&mut self, _telemetry: &xt_telemetry::Telemetry) {}

    /// The algorithm's synchronization discipline.
    fn sync_mode(&self) -> SyncMode;

    /// Human-readable algorithm name.
    fn name(&self) -> &str;

    /// Consumes one round credit when this learner holds the data of its
    /// `local` slots of a round of `slots` — warmup met, a full on-policy
    /// batch, enough queued rollouts — and fixes that data for the round;
    /// false (consuming nothing) when a round cannot start yet. A single
    /// learner's round is `(0..1, 1)`. Slots are assigned by the data (DQN's
    /// samples, A2C's explorer index, IMPALA's rollouts), not the shard count.
    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool;

    /// Computes the raw, pre-optimizer gradient of the credited round's slot
    /// `slot` at the current parameters into `out` (resized to the parameter
    /// count), scaled by `1 / the round's global rows`, and returns its loss
    /// at the same scale. No optimizer state is touched; sampling state may
    /// be (DQN under prioritized replay re-prioritizes the rows).
    fn slot_grad(&mut self, slot: usize, out: &mut Vec<f32>) -> f32;

    /// Takes one optimizer step on the round's folded gradient (its slot
    /// gradients summed in slot order; the step may clip it in place) and
    /// summed `loss`. Returns the report of the session this round completes
    /// — `steps_consumed` is this learner's share of its rows — or `None`
    /// while the session has rounds left (PPO's has one per minibatch). A
    /// session's batches are handed back ([`Algorithm::take_spent`]) only
    /// after its last step, so an on-policy broadcast precedes the answers.
    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport>;

    /// Runs one training session if enough data is staged, returning a report
    /// (the paper's `train`): one-slot rounds until one completes a session.
    /// Returns `None` when not ready (warmup not met, on-policy batch
    /// incomplete, ...). A warmed session reuses this thread's gradient
    /// buffer, so it allocates nothing itself.
    fn try_train(&mut self) -> Option<TrainReport> {
        thread_local!(static GRAD: Cell<Vec<f32>> = const { Cell::new(Vec::new()) });
        let (mut grad, mut report) = (GRAD.take(), None);
        while report.is_none() && self.take_round_credit(0..1, 1) {
            let loss = self.slot_grad(0, &mut grad);
            report = self.apply_reduced_grad(&mut grad, loss);
        }
        GRAD.set(grad);
        report
    }
}

/// An action choice plus the behavior-policy side information the learner
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSelection {
    /// The chosen action.
    pub action: usize,
    /// Behavior-policy logits (empty for value-based agents).
    pub logits: Vec<f32>,
    /// Behavior value estimate (0.0 for value-based agents).
    pub value: f32,
}

/// Explorer-side agent logic.
pub trait Agent: Send {
    /// Chooses an action for `observation` (the paper's `infer_action`).
    fn act(&mut self, observation: &[f32]) -> ActionSelection;

    /// Installs broadcast parameters (stale versions are ignored).
    fn apply_params(&mut self, blob: &ParamBlob);

    /// Version of the parameters currently in use.
    fn param_version(&self) -> u64;

    /// Whether this agent records full transitions (`next_observation`) in
    /// its rollout steps — true for replay-based algorithms.
    fn records_next_observation(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traits_are_object_safe() {
        fn _assert_algorithm(_: &dyn Algorithm) {}
        fn _assert_agent(_: &dyn Agent) {}
    }

    #[test]
    fn train_report_fields() {
        let r = TrainReport { steps_consumed: 500, loss: 0.5, version: 3, notify: vec![1, 2] };
        assert_eq!(r.steps_consumed, 500);
        assert_eq!(r.notify, vec![1, 2]);
    }
}
