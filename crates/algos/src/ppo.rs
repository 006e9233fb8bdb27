//! Proximal Policy Optimization (Schulman et al. 2017) — actor-critic,
//! on-policy.
//!
//! Execution model (paper Fig. 1(a) and §5.2): the learner waits for rollouts
//! from *all* explorers (batch = `num_explorers × rollout_len` steps), runs a
//! training iteration (GAE advantages + clipped surrogate over several
//! minibatch epochs), then broadcasts fresh parameters to every explorer, who
//! were waiting for them. XingTian still accelerates this on-policy loop
//! because fast explorers' transmissions overlap slow explorers' environment
//! interaction (paper §3.2.1).
//! A session is `epochs × ⌈rows / minibatch⌉` one-slot rounds, one optimizer
//! step per minibatch.

use crate::actor_critic::{ActorCritic, Activations, GaeStage, SoftmaxAgent, Spec};
use crate::api::{Algorithm, SyncMode, TrainReport};
use crate::batch::behavior_log_probs_into;
use crate::payload::{ParamBlob, RolloutBatch};
use crate::state::{rng_at, LearnerState, StateError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use xingtian_comm::pool::{shared_pool, WorkPool};

/// PPO hyperparameters.
#[derive(Debug, Clone)]
pub struct PpoConfig {
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
    /// Clipping radius ε of the surrogate objective.
    pub clip: f32,
    /// Optimization epochs per training iteration.
    pub epochs: usize,
    /// Minibatch size within an epoch.
    pub minibatch: usize,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Gradient global-norm clip.
    pub max_grad_norm: f32,
    /// Number of explorers (the learner waits for one batch from each;
    /// paper: 10).
    pub num_explorers: u32,
    /// Steps per explorer batch (paper: 200 for CartPole, 500 for Atari).
    pub rollout_len: usize,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl PpoConfig {
    /// Paper-shaped defaults for the given environment dimensions.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        PpoConfig {
            obs_dim,
            num_actions,
            hidden: vec![64, 64],
            lr: 3e-4,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            epochs: 4,
            minibatch: 256,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: 0.5,
            num_explorers: 10,
            rollout_len: 200,
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

/// Learner-side PPO.
#[derive(Debug)]
pub struct PpoAlgorithm {
    config: PpoConfig,
    core: ActorCritic,
    rng: StdRng,
    // Persistent iteration buffers — allocation-free after warmup.
    stage: GaeStage,
    behavior_lp: Vec<f32>,
    indices: Vec<usize>,
    mb_obs: Vec<f32>,
    /// Rounds done of the session in progress.
    session_round: Option<usize>,
}

impl PpoAlgorithm {
    /// Creates the learner state for `config`, sharding minibatch gradients
    /// over the process-wide worker pool.
    pub fn new(config: PpoConfig) -> Self {
        Self::with_pool(config, Some(shared_pool()))
    }

    /// Like [`PpoAlgorithm::new`] but with an explicit worker pool; `None`
    /// computes every shard on the calling thread (bitwise-identical result).
    pub fn with_pool(config: PpoConfig, pool: Option<&'static WorkPool>) -> Self {
        let core = ActorCritic::new(config.spec(), pool);
        let rng = StdRng::seed_from_u64(config.seed ^ 0x99);
        PpoAlgorithm {
            config,
            core,
            rng,
            stage: GaeStage::default(),
            behavior_lp: Vec::new(),
            indices: Vec::new(),
            mb_obs: Vec::new(),
            session_round: None,
        }
    }

    fn iteration_batch(&self) -> usize {
        self.config.num_explorers as usize * self.config.rollout_len
    }

    /// Minibatch rounds per epoch of the staged session.
    fn minibatches(&self) -> usize {
        self.indices.len().div_ceil(self.config.minibatch)
    }
}

impl Algorithm for PpoAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.stage.offer(batch, self.core.version());
    }

    /// Starts a session once the iteration batch is staged; every round of
    /// it then has a credit, and an epoch's first draws its shuffle.
    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool {
        assert_eq!((local, slots), (0..1, 1), "PPO takes one-slot rounds");
        let round = match self.session_round {
            Some(round) => round,
            None if self.stage.rows < self.iteration_batch() => return false,
            None => {
                let Self { config, core, stage, behavior_lp, indices, .. } = self;
                let n = stage.fill(0..stage.batches.len(), core, config.gamma, config.lambda);
                behavior_lp.clear();
                for b in &stage.batches {
                    behavior_log_probs_into(&b.steps, behavior_lp);
                }
                indices.clear();
                indices.extend(0..n);
                0
            }
        };
        if round.is_multiple_of(self.minibatches()) {
            self.indices.shuffle(&mut self.rng);
        }
        self.session_round = Some(round);
        true
    }

    /// The clipped-surrogate gradient of the round's minibatch.
    fn slot_grad(&mut self, _slot: usize, out: &mut Vec<f32>) -> f32 {
        let round = self.session_round.expect("a credited round");
        let mb = round % self.minibatches();
        let Self { config, core, stage, behavior_lp, indices, mb_obs, .. } = self;
        let idx = indices.chunks(config.minibatch).nth(mb).expect("minibatch in range");
        let GaeStage { obs, actions, advantages, returns, .. } = &*stage;
        let behavior_lp: &[f32] = behavior_lp;
        let (dim, clip) = (config.obs_dim, config.clip);
        mb_obs.clear();
        for &i in idx {
            mb_obs.extend_from_slice(&obs[i * dim..(i + 1) * dim]);
        }
        core.grad(
            mb_obs,
            idx.len(),
            Activations::Fresh,
            |row| actions[idx[row]] as usize,
            // Clipped surrogate min(ratio · Â, clip(ratio) · Â).
            |row, log_prob| {
                let i = idx[row];
                let adv = advantages[i];
                let ratio = (log_prob - behavior_lp[i]).exp();
                let clipped = ratio.clamp(1.0 - clip, 1.0 + clip);
                // Gradient flows through the unclipped ratio only when the
                // clipping is not actively binding against the objective:
                // d(ratio · Â)/d log π = Â · ratio.
                let active = !((ratio > 1.0 + clip && adv > 0.0) || (ratio < 1.0 - clip && adv < 0.0));
                ((ratio * adv).min(clipped * adv), if active { adv * ratio } else { 0.0 })
            },
            |row| returns[idx[row]],
            out,
        )
    }

    /// The session completes with its last minibatch, reporting its loss.
    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        self.core.apply(grad);
        let round = self.session_round.expect("a credited round") + 1;
        if round < self.config.epochs * self.minibatches() {
            self.session_round = Some(round);
            return None;
        }
        self.session_round = None;
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
        LearnerState { rngs: vec![self.rng.state()], ..self.core.save_state() }
    }

    /// A session in progress is abandoned: its staged rollouts go back.
    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError> {
        self.core.load_state(state, 1, false)?;
        self.rng = rng_at(state.rngs[0]);
        self.session_round = None;
        self.stage.hand_back();
        Ok(())
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OnPolicy
    }

    fn name(&self) -> &str {
        "PPO"
    }
}

impl SoftmaxAgent {
    /// Explorer-side PPO agent: samples from the softmax policy, records
    /// logits and the critic's value estimate for GAE at the learner.
    pub fn ppo(config: &PpoConfig, explorer_seed: u64) -> Self {
        SoftmaxAgent::new(config.spec(), explorer_seed.wrapping_mul(31).wrapping_add(7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::tests::action_prob;
    use crate::payload::RolloutStep;

    fn tiny_config() -> PpoConfig {
        let mut c = PpoConfig::new(3, 2);
        c.hidden = vec![16];
        c.num_explorers = 2;
        c.rollout_len = 8;
        c.minibatch = 8;
        c.epochs = 2;
        c
    }

    fn rollout(config: &PpoConfig, explorer: u32, version: u64, good_action: u32) -> RolloutBatch {
        // Reward 1 for `good_action`, 0 otherwise, alternating actions so both
        // appear in the behavior data.
        let steps = (0..config.rollout_len)
            .map(|i| {
                let action = (i % 2) as u32;
                RolloutStep {
                    observation: vec![0.2, -0.1, 0.4],
                    action,
                    reward: if action == good_action { 1.0 } else { 0.0 },
                    done: false,
                    behavior_logits: vec![0.0, 0.0],
                    value: 0.0,
                    next_observation: None,
                }
            })
            .collect();
        RolloutBatch { explorer, param_version: version, steps, bootstrap_observation: vec![0.2, -0.1, 0.4] }
    }

    #[test]
    fn waits_for_all_explorers() {
        let c = tiny_config();
        let mut alg = PpoAlgorithm::new(c.clone());
        alg.on_rollout(rollout(&c, 0, 0, 1));
        assert!(alg.try_train().is_none(), "only half the iteration batch");
        alg.on_rollout(rollout(&c, 1, 0, 1));
        let report = alg.try_train().expect("batch complete");
        assert_eq!(report.steps_consumed, 16);
        assert_eq!(report.notify, vec![0, 1], "on-policy broadcast to all");
        assert_eq!(report.version, 1);
    }

    #[test]
    fn stale_rollouts_are_rejected() {
        let c = tiny_config();
        let mut alg = PpoAlgorithm::new(c.clone());
        alg.on_rollout(rollout(&c, 0, 99, 1));
        assert_eq!(alg.stage.rows, 0, "wrong-version rollouts dropped");
    }

    #[test]
    fn training_shifts_policy_toward_rewarded_action() {
        // γ = λ = 0 isolates the per-action reward signal (contextual bandit),
        // so the surrogate direction is unambiguous.
        let mut c = tiny_config();
        c.gamma = 0.0;
        c.lambda = 0.0;
        c.lr = 1e-3;
        let mut alg = PpoAlgorithm::new(c.clone());
        let obs = [0.2, -0.1, 0.4];
        let before = action_prob(&alg.core, &obs, 1);
        for _ in 0..20 {
            let v = alg.version();
            alg.on_rollout(rollout(&c, 0, v, 1));
            alg.on_rollout(rollout(&c, 1, v, 1));
            alg.try_train().unwrap();
        }
        let after = action_prob(&alg.core, &obs, 1);
        assert!(after > before + 0.1, "P(a=1) should rise: {before} -> {after}");
    }
}
