//! REINFORCE with a moving-average baseline (Williams 1992) — policy-based,
//! on-policy.
//!
//! The simplest member of the zoo (§4.2 classifies policy-based methods as
//! the first model-free family): no critic network at all. The learner
//! reassembles complete *episodes* from incoming rollout batches (episodes
//! may span several batches from the same explorer), computes Monte-Carlo
//! returns-to-go, subtracts a scalar moving-average baseline, and takes one
//! policy-gradient step per collected batch of episodes.

use crate::actor_critic::{ActorCritic, Activations, SoftmaxAgent, Spec};
use crate::api::{Algorithm, SyncMode, TrainReport};
use crate::gae::normalize;
use crate::payload::{ParamBlob, RolloutBatch, RolloutStep};
use crate::state::{LearnerState, StateError};
use std::collections::HashMap;
use std::ops::Range;
use xingtian_comm::pool::{shared_pool, WorkPool};

/// REINFORCE hyperparameters.
#[derive(Debug, Clone)]
pub struct ReinforceConfig {
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden widths of the policy network.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ for returns-to-go.
    pub gamma: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Gradient global-norm clip.
    pub max_grad_norm: f32,
    /// Complete episodes per training session.
    pub episodes_per_train: usize,
    /// Exponential decay of the scalar return baseline.
    pub baseline_decay: f32,
    /// Explorers to notify after each session.
    pub num_explorers: u32,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl ReinforceConfig {
    /// Sensible defaults for the given environment dimensions.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        ReinforceConfig {
            obs_dim,
            num_actions,
            hidden: vec![64],
            lr: 1e-3,
            gamma: 0.99,
            entropy_coef: 0.01,
            max_grad_norm: 1.0,
            episodes_per_train: 8,
            baseline_decay: 0.95,
            num_explorers: 1,
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
            value_coef: None,
            max_grad_norm: self.max_grad_norm,
        }
    }
}

/// Learner-side REINFORCE.
#[derive(Debug)]
pub struct ReinforceAlgorithm {
    config: ReinforceConfig,
    core: ActorCritic,
    /// Partial episodes keyed by explorer index (episodes can span batches).
    partial: HashMap<u32, Vec<RolloutStep>>,
    /// Completed episodes, oldest first.
    complete: Vec<Vec<RolloutStep>>,
    /// Batches emptied into episodes, waiting to be handed back.
    spent: Vec<RolloutBatch>,
    baseline: f32,
    baseline_initialized: bool,
    // Persistent session buffers.
    obs: Vec<f32>,
    actions: Vec<u32>,
    advantages: Vec<f32>,
}

impl ReinforceAlgorithm {
    /// Creates the learner state for `config`, sharding the policy-gradient
    /// step over the process-wide worker pool.
    pub fn new(config: ReinforceConfig) -> Self {
        Self::with_pool(config, Some(shared_pool()))
    }

    /// Like [`ReinforceAlgorithm::new`] but with an explicit worker pool;
    /// `None` computes every shard on the calling thread (bitwise-identical
    /// result).
    pub fn with_pool(config: ReinforceConfig, pool: Option<&'static WorkPool>) -> Self {
        let core = ActorCritic::new(config.spec(), pool);
        ReinforceAlgorithm {
            config,
            core,
            partial: HashMap::new(),
            complete: Vec::new(),
            spent: Vec::new(),
            baseline: 0.0,
            baseline_initialized: false,
            obs: Vec::new(),
            actions: Vec::new(),
            advantages: Vec::new(),
        }
    }
}

impl Algorithm for ReinforceAlgorithm {
    fn on_rollout(&mut self, mut batch: RolloutBatch) {
        let partial = self.partial.entry(batch.explorer).or_default();
        for step in batch.steps.drain(..) {
            let done = step.done;
            partial.push(step);
            if done {
                self.complete.push(std::mem::take(partial));
            }
        }
        self.spent.push(batch);
    }

    /// Stages a session's episodes once enough are complete: Monte-Carlo
    /// returns-to-go, less a moving-average baseline updated in episode
    /// order, whitened over the whole session.
    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool {
        assert_eq!((local, slots), (0..1, 1), "REINFORCE takes one-slot rounds");
        if self.complete.len() < self.config.episodes_per_train {
            return false;
        }
        let Self { config, complete, baseline, baseline_initialized, obs, actions, advantages, .. } = self;
        obs.clear();
        actions.clear();
        advantages.clear();
        for ep in complete.drain(..config.episodes_per_train) {
            let off = advantages.len();
            advantages.resize(off + ep.len(), 0.0);
            let rtg = &mut advantages[off..];
            let mut g = 0.0f32;
            for (r, s) in rtg.iter_mut().zip(&ep).rev() {
                g = s.reward + config.gamma * g;
                *r = g;
            }
            let episode_return = rtg.first().copied().unwrap_or(0.0);
            if *baseline_initialized {
                *baseline =
                    config.baseline_decay * *baseline + (1.0 - config.baseline_decay) * episode_return;
            } else {
                *baseline = episode_return;
                *baseline_initialized = true;
            }
            for (r, s) in rtg.iter_mut().zip(&ep) {
                assert_eq!(s.observation.len(), config.obs_dim, "ragged observations");
                obs.extend_from_slice(&s.observation);
                actions.push(s.action);
                *r -= *baseline;
            }
        }
        // Whiten the advantages across the batch: the scalar baseline centers
        // episode-level return differences, but within an episode the
        // return-to-go declines toward the end, which would systematically
        // penalize late-episode actions without this normalization.
        normalize(advantages);
        true
    }

    /// −Â log π(a|s) − c_e H: the vanilla policy gradient, no critic.
    fn slot_grad(&mut self, _slot: usize, out: &mut Vec<f32>) -> f32 {
        let Self { core, obs, actions, advantages, .. } = self;
        let (actions, advantages): (&[u32], &[f32]) = (actions, advantages);
        out.resize(core.num_params(), 0.0);
        core.policy_grad(
            obs,
            actions.len(),
            Activations::Fresh,
            |i| actions[i] as usize,
            |i, log_prob| (advantages[i] * log_prob, advantages[i]),
            out,
        )
    }

    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        self.core.apply(grad);
        Some(TrainReport {
            steps_consumed: self.actions.len(),
            loss,
            version: self.core.advance_version(),
            notify: (0..self.config.num_explorers).collect(),
        })
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        self.spent.pop()
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
        LearnerState { baseline: self.baseline_initialized.then_some(self.baseline), ..self.core.save_state() }
    }

    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError> {
        self.core.load_state(state, 0, true)?;
        (self.baseline, self.baseline_initialized) = (state.baseline.unwrap_or(0.0), state.baseline.is_some());
        Ok(())
    }

    fn sync_mode(&self) -> SyncMode {
        // Explorers keep a few rollouts ahead: REINFORCE tolerates mild lag
        // in practice because parameters are broadcast after every session,
        // and a session needs whole episodes, which span several rollouts.
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "REINFORCE"
    }
}

impl SoftmaxAgent {
    /// Explorer-side REINFORCE agent: samples the softmax policy; there is no
    /// critic, so the recorded value estimate is `0.0`.
    pub fn reinforce(config: &ReinforceConfig, explorer_seed: u64) -> Self {
        SoftmaxAgent::new(config.spec(), explorer_seed.wrapping_mul(0x4E1F).wrapping_add(11))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::tests::action_prob;

    fn tiny_config() -> ReinforceConfig {
        let mut c = ReinforceConfig::new(2, 2);
        c.hidden = vec![8];
        c.episodes_per_train = 2;
        c.lr = 5e-2;
        c.gamma = 0.0;
        c
    }

    fn episode_batch(explorer: u32, good_action: u32, len: usize, finish: bool) -> RolloutBatch {
        let steps = (0..len)
            .map(|i| {
                let action = (i % 2) as u32;
                RolloutStep {
                    observation: vec![0.4, -0.2],
                    action,
                    reward: if action == good_action { 1.0 } else { -1.0 },
                    done: finish && i == len - 1,
                    behavior_logits: vec![0.0, 0.0],
                    value: 0.0,
                    next_observation: None,
                }
            })
            .collect();
        RolloutBatch { explorer, param_version: 0, steps, bootstrap_observation: vec![] }
    }

    #[test]
    fn episodes_assemble_across_batches() {
        let mut alg = ReinforceAlgorithm::new(tiny_config());
        alg.on_rollout(episode_batch(0, 1, 4, false)); // first half
        assert_eq!(alg.complete.len(), 0);
        alg.on_rollout(episode_batch(0, 1, 4, true)); // completes one episode
        assert_eq!(alg.complete.len(), 1);
        assert!(alg.try_train().is_none(), "needs 2 episodes");
        alg.on_rollout(episode_batch(1, 1, 8, true));
        let report = alg.try_train().expect("two complete episodes");
        assert_eq!(report.steps_consumed, 16);
        assert_eq!(report.version, 1);
    }

    #[test]
    fn interleaved_explorers_keep_separate_episodes() {
        let mut alg = ReinforceAlgorithm::new(tiny_config());
        alg.on_rollout(episode_batch(0, 1, 3, false));
        alg.on_rollout(episode_batch(1, 1, 3, false));
        alg.on_rollout(episode_batch(0, 1, 3, true));
        alg.on_rollout(episode_batch(1, 1, 3, true));
        assert_eq!(alg.complete.len(), 2);
        let report = alg.try_train().unwrap();
        assert_eq!(report.steps_consumed, 12, "both episodes are 6 steps long");
    }

    #[test]
    fn baseline_tracks_episode_returns() {
        let mut alg = ReinforceAlgorithm::new(tiny_config());
        alg.on_rollout(episode_batch(0, 1, 4, true));
        alg.on_rollout(episode_batch(0, 1, 4, true));
        alg.try_train().unwrap();
        // γ=0 ⇒ episode return-to-go at t=0 equals the first reward (-1 for
        // action 0). The baseline must have moved off zero.
        assert!(alg.baseline != 0.0);
    }

    #[test]
    fn training_shifts_policy_toward_rewarded_action() {
        let mut alg = ReinforceAlgorithm::new(tiny_config());
        let obs = [0.4, -0.2];
        let before = action_prob(&alg.core, &obs, 1);
        for _ in 0..60 {
            alg.on_rollout(episode_batch(0, 1, 8, true));
            alg.on_rollout(episode_batch(1, 1, 8, true));
            alg.try_train().unwrap();
        }
        let after = action_prob(&alg.core, &obs, 1);
        assert!(after > before + 0.1, "P(a=1) should rise: {before} -> {after}");
    }
}
