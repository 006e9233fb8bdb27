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

use crate::payload::{ParamBlob, RolloutBatch};

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

    /// Runs one training session if enough data is staged, returning a report
    /// (the paper's `train`). Returns `None` when not ready (warmup not met,
    /// on-policy batch incomplete, ...).
    fn try_train(&mut self) -> Option<TrainReport>;

    /// Hands back one rollout batch the algorithm is done with — trained,
    /// shed, discarded as stale, or copied into its own storage — so the
    /// framework can recycle its allocations into the receive path (see
    /// `BatchDecoder`) and answer the batch's source. Every batch given to
    /// [`Algorithm::on_rollout`] comes back exactly once. `None` when nothing
    /// is spent.
    fn take_spent(&mut self) -> Option<RolloutBatch>;

    /// Snapshot of all trainable parameters for broadcast.
    fn param_blob(&self) -> ParamBlob;

    /// Overwrites all trainable parameters (used by PBT to seed a new
    /// population with the best population's weights, paper §4.3). The
    /// version counter is left unchanged.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params` has the wrong length.
    fn load_params(&mut self, params: &[f32]);

    /// Current parameter version.
    fn version(&self) -> u64;

    /// Like [`Algorithm::load_params`], but also jumps the version counter —
    /// used when an algorithm *adopts* another replica's state wholesale: a
    /// learner restored from a checkpoint, or a respawned learner shard
    /// taking a peer's parameter snapshot to rejoin the ring. Without the
    /// version jump the adopter would restart at version 0, its broadcasts
    /// would look stale to every explorer, and relaxed-mode skew gating
    /// would shed its gossip forever.
    fn adopt_params(&mut self, params: &[f32], version: u64) {
        self.load_params(params);
        let _ = version;
    }

    /// Hands the algorithm a telemetry handle so it can publish per-stage
    /// timings (e.g. DQN's `learn.sample_ns`) into the same registry as the
    /// framework's channel stages. The default keeps algorithms
    /// telemetry-free.
    fn attach_telemetry(&mut self, _telemetry: &xt_telemetry::Telemetry) {}

    /// The algorithm's synchronization discipline.
    fn sync_mode(&self) -> SyncMode;

    /// Human-readable algorithm name.
    fn name(&self) -> &str;

    /// Access to the lockstep multi-shard training surface, when the
    /// algorithm supports the deterministic cross-learner allreduce. The
    /// default opts out (sharded deployments then require the relaxed
    /// delta-exchange mode, which works through plain
    /// [`Algorithm::param_blob`] / [`Algorithm::load_params`]).
    fn sharded_sync(&mut self) -> Option<&mut dyn ShardedSync> {
        None
    }
}

/// The lockstep surface a sharded sync-allreduce learner drives instead of
/// [`Algorithm::try_train`].
///
/// One **round** replaces one training session: the round's global batch is
/// partitioned into a fixed number of *gradient slots* (independent of the
/// shard count; see `xingtian::shard`), each shard computes one raw
/// pre-optimizer gradient per owned slot, the slot gradients are allgathered
/// and folded in slot order, and exactly one optimizer step applies the fold.
/// Because every float operation happens in the same order regardless of how
/// slots were distributed, the same seed produces bit-identical parameters
/// for every legal shard count.
pub trait ShardedSync {
    /// Rows in one slot minibatch (the global round batch is
    /// `slot_rows × GRAD_SLOTS`).
    fn slot_rows(&self) -> usize;

    /// Consumes one round credit when enough data is staged (warmup met,
    /// enough fresh inserts, replay large enough) — the sharded analogue of
    /// the `try_train` gate. Returns false (consuming nothing) when a round
    /// cannot start yet.
    fn take_round_credit(&mut self) -> bool;

    /// Samples one slot minibatch of [`Self::slot_rows`] transitions from
    /// local storage, in the storage's own sampling mode, and computes its
    /// raw gradient at the current parameters into `out` (resized to the
    /// parameter count), every element scaled by `1 / global_rows`; returns
    /// the loss contribution at the same scale. No optimizer state is
    /// touched; sampling state may be (DQN under prioritized replay weights
    /// the rows and re-prioritizes them by their TD errors).
    fn slot_grad(&mut self, global_rows: usize, out: &mut Vec<f32>) -> f32;

    /// Applies one optimizer step with the fully folded round gradient and
    /// advances the session/version bookkeeping. `steps_represented` is the
    /// round's global row count; `loss` the folded loss.
    fn apply_reduced_grad(&mut self, grad: &[f32], steps_represented: usize, loss: f32)
        -> TrainReport;
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
