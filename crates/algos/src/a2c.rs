//! Advantage Actor-Critic (A2C; the synchronous variant of Mnih et al.
//! 2016's A3C) — actor-critic, on-policy.
//!
//! Part of the algorithm-zoo breadth the paper describes in §4.2. A2C shares
//! PPO's synchronous execution model (the learner waits for one rollout from
//! every explorer, trains, broadcasts) but performs a *single* vanilla
//! policy-gradient step on GAE advantages instead of PPO's clipped multi-
//! epoch surrogate — a useful ablation of how much the communication layer
//! contributes independent of the optimizer sophistication.
//! A round's slots are fixed by explorer index: explorer `e` of `E` lands in
//! slot `e · slots / E`, the floor formula of the contiguous shard
//! assignment, so a lockstep shard's slots hold exactly its own explorers.

use crate::actor_critic::{ActorCritic, Activations, GaeStage, SoftmaxAgent, Spec};
use crate::api::{Algorithm, SyncMode, TrainReport};
use crate::payload::{ParamBlob, RolloutBatch};
use crate::state::{LearnerState, StateError};
use std::ops::Range;
use xingtian_comm::pool::{shared_pool, WorkPool};

/// A2C hyperparameters.
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden widths of policy and value networks.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub lambda: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Gradient global-norm clip.
    pub max_grad_norm: f32,
    /// Number of explorers the learner waits for each iteration.
    pub num_explorers: u32,
    /// Steps per explorer rollout.
    pub rollout_len: usize,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl A2cConfig {
    /// Sensible defaults for the given environment dimensions.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        A2cConfig {
            obs_dim,
            num_actions,
            hidden: vec![64, 64],
            lr: 7e-4,
            gamma: 0.99,
            lambda: 0.95,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: 0.5,
            num_explorers: 4,
            rollout_len: 100,
            seed: 0,
        }
    }

    fn spec(&self) -> Spec<'_> {
        Spec {
            obs_dim: self.obs_dim,
            num_actions: self.num_actions,
            hidden: &self.hidden,
            seed: self.seed,
            lr: self.lr,
            entropy_coef: self.entropy_coef,
            value_coef: Some(self.value_coef),
            max_grad_norm: self.max_grad_norm,
        }
    }
}

/// Learner-side A2C.
#[derive(Debug)]
pub struct A2cAlgorithm {
    config: A2cConfig,
    core: ActorCritic,
    stage: GaeStage,
    /// The credited round's slot count.
    slots: usize,
}

impl A2cAlgorithm {
    /// Creates the learner state for `config`, sharding the policy-gradient
    /// step over the process-wide worker pool.
    pub fn new(config: A2cConfig) -> Self {
        Self::with_pool(config, Some(shared_pool()))
    }

    /// Like [`A2cAlgorithm::new`] but with an explicit worker pool; `None`
    /// computes every shard on the calling thread (bitwise-identical result).
    pub fn with_pool(config: A2cConfig, pool: Option<&'static WorkPool>) -> Self {
        let core = ActorCritic::new(config.spec(), pool);
        A2cAlgorithm {
            config,
            core,
            stage: GaeStage::default(),
            slots: 1,
        }
    }

    /// `explorer`'s slot of `slots` (one grown past `num_explorers` joins the last).
    fn slot_of(&self, explorer: u32, slots: usize) -> usize {
        let e = explorer as usize;
        (e * slots / self.config.num_explorers as usize).min(slots - 1)
    }
}

impl Algorithm for A2cAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.stage.offer(batch, self.core.version());
    }

    /// Open once every explorer of the `local` slots can have delivered.
    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool {
        let explorers = (0..self.config.num_explorers).filter(|&e| local.contains(&self.slot_of(e, slots))).count();
        self.slots = slots;
        self.stage.rows >= explorers * self.config.rollout_len
    }

    /// The vanilla policy gradient, −Â log π(a|s) − c_e H, and the critic
    /// regression to the GAE returns over the slot's explorers, advantages
    /// whitened per slot. A round's rows are one rollout per explorer (all
    /// staged, when one slot holds them); an empty slot is `-0.0`, a no-op.
    fn slot_grad(&mut self, slot: usize, out: &mut Vec<f32>) -> f32 {
        let slots = self.slots;
        let start = self.stage.batches.partition_point(|b| self.slot_of(b.explorer, slots) < slot);
        let end = self.stage.batches.partition_point(|b| self.slot_of(b.explorer, slots) <= slot);
        let Self { config, core, stage, .. } = self;
        if start == end {
            out.clear();
            out.resize(core.num_params(), -0.0);
            return -0.0;
        }
        let global_rows = if slots == 1 { stage.rows } else { config.num_explorers as usize * config.rollout_len };
        stage.fill(start..end, core, config.gamma, config.lambda);
        let GaeStage { obs, actions, advantages, returns, .. } = &*stage;
        core.grad(
            obs,
            global_rows,
            Activations::Fresh,
            |i| actions[i] as usize,
            |i, log_prob| (advantages[i] * log_prob, advantages[i]),
            |i| returns[i],
            out,
        )
    }

    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        self.core.apply(grad);
        Some(TrainReport {
            steps_consumed: self.stage.hand_back(),
            loss,
            version: self.core.advance_version(),
            notify: (0..self.config.num_explorers).collect(),
        })
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        self.stage.spent.pop()
    }

    fn param_blob(&self) -> ParamBlob {
        self.core.param_blob()
    }

    fn load_params(&mut self, params: &[f32]) {
        self.core.load_params(params);
    }

    fn version(&self) -> u64 {
        self.core.version()
    }

    fn save_state(&self) -> LearnerState {
        self.core.save_state()
    }

    /// Staged rollouts are stale once their parameters are replaced.
    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError> {
        self.core.load_state(state, 0, false)?;
        self.stage.hand_back();
        Ok(())
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OnPolicy
    }

    fn name(&self) -> &str {
        "A2C"
    }
}

impl SoftmaxAgent {
    /// Explorer-side A2C agent: samples the softmax policy, records logits
    /// and value estimates for the learner's GAE.
    pub fn a2c(config: &A2cConfig, explorer_seed: u64) -> Self {
        SoftmaxAgent::new(config.spec(), explorer_seed.wrapping_mul(0xA2C).wrapping_add(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::tests::action_prob;
    use crate::payload::RolloutStep;

    fn tiny_config() -> A2cConfig {
        let mut c = A2cConfig::new(3, 2);
        c.hidden = vec![16];
        c.num_explorers = 2;
        c.rollout_len = 8;
        c.lr = 1e-2;
        c
    }

    fn rollout(explorer: u32, version: u64, good_action: u32, len: usize) -> RolloutBatch {
        let steps = (0..len)
            .map(|i| {
                let action = (i % 2) as u32;
                RolloutStep {
                    observation: vec![0.1, -0.3, 0.5],
                    action,
                    reward: if action == good_action { 1.0 } else { 0.0 },
                    done: false,
                    behavior_logits: vec![0.0, 0.0],
                    value: 0.0,
                    next_observation: None,
                }
            })
            .collect();
        RolloutBatch { explorer, param_version: version, steps, bootstrap_observation: vec![0.1, -0.3, 0.5] }
    }

    #[test]
    fn waits_for_the_full_iteration_batch() {
        let c = tiny_config();
        let mut alg = A2cAlgorithm::new(c.clone());
        alg.on_rollout(rollout(0, 0, 1, 8));
        assert!(alg.try_train().is_none());
        alg.on_rollout(rollout(1, 0, 1, 8));
        let report = alg.try_train().expect("iteration complete");
        assert_eq!(report.steps_consumed, 16);
        assert_eq!(report.notify, vec![0, 1]);
    }

    #[test]
    fn rejects_stale_rollouts() {
        let mut alg = A2cAlgorithm::new(tiny_config());
        alg.on_rollout(rollout(0, 42, 1, 8));
        assert_eq!(alg.stage.rows, 0);
    }

    #[test]
    fn training_shifts_policy_toward_rewarded_action() {
        let mut c = tiny_config();
        c.gamma = 0.0;
        c.lambda = 0.0;
        let mut alg = A2cAlgorithm::new(c);
        let obs = [0.1, -0.3, 0.5];
        let before = action_prob(&alg.core, &obs, 1);
        for _ in 0..40 {
            let v = alg.version();
            alg.on_rollout(rollout(0, v, 1, 8));
            alg.on_rollout(rollout(1, v, 1, 8));
            alg.try_train().unwrap();
        }
        let after = action_prob(&alg.core, &obs, 1);
        assert!(after > before + 0.1, "P(a=1) should rise: {before} -> {after}");
    }

    #[test]
    fn load_params_round_trips() {
        let c = tiny_config();
        let mut a = A2cAlgorithm::new(c.clone());
        let b = A2cAlgorithm::new(A2cConfig { seed: 9, ..c });
        a.load_params(&b.param_blob().params);
        assert_eq!(a.param_blob().params, b.param_blob().params);
    }
}
