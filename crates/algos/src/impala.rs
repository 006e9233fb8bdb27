//! IMPALA (Espeholt et al. 2018) — actor-critic, off-policy via V-trace.
//!
//! Execution model (paper Fig. 1(c) and §5.2): the learner trains as soon as
//! a batch from *any single* explorer arrives (batch = one rollout of 200/500
//! steps) and sends updated parameters back to exactly that explorer. Because
//! V-trace corrects for policy lag, explorers keep generating with stale
//! parameters — the asynchrony XingTian's aggressive push exploits for its
//! +70.71% throughput headline (paper Fig. 8). What paces them is the
//! framework's answer to each rollout, sent when the batch is handed back
//! through `take_spent`: a batch shed at `max_queue` is handed back at once,
//! so its explorer is answered without parameters.
//! A round's slot is one queued rollout, scaled by `1 / (slots × its rows)`,
//! so a round trains on the mean of its rollouts' mean gradients.

use crate::actor_critic::{ActorCritic, Activations, SoftmaxAgent, Spec};
use crate::api::{Algorithm, SyncMode, TrainReport};
use crate::batch::behavior_log_probs_into;
use crate::payload::{ParamBlob, RolloutBatch};
use crate::state::{LearnerState, StateError};
use crate::vtrace::{vtrace_into, VtraceInput};
use std::collections::VecDeque;
use std::ops::Range;
use xingtian_comm::pool::{shared_pool, WorkPool};

/// IMPALA hyperparameters.
#[derive(Debug, Clone)]
pub struct ImpalaConfig {
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
    /// V-trace ρ̄ truncation.
    pub rho_bar: f32,
    /// V-trace c̄ truncation.
    pub c_bar: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Gradient global-norm clip.
    pub max_grad_norm: f32,
    /// Maximum rollout batches queued at the learner. When production
    /// outruns training, the *oldest* (most stale) batch is dropped first —
    /// V-trace tolerates staleness, but unbounded queues would grow memory
    /// and policy lag without bound. A shed batch is handed back at once,
    /// which answers its explorer.
    pub max_queue: usize,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl ImpalaConfig {
    /// Paper-shaped defaults for the given environment dimensions.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        ImpalaConfig {
            obs_dim,
            num_actions,
            hidden: vec![64, 64],
            lr: 6e-4,
            gamma: 0.99,
            rho_bar: 1.0,
            c_bar: 1.0,
            entropy_coef: 0.01,
            value_coef: 0.5,
            max_grad_norm: 40.0,
            max_queue: 64,
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

/// Learner-side IMPALA.
#[derive(Debug)]
pub struct ImpalaAlgorithm {
    config: ImpalaConfig,
    core: ActorCritic,
    queue: VecDeque<RolloutBatch>,
    spent: Vec<RolloutBatch>,
    staging: Staging,
    /// The credited round's slot count, and the rollouts its slots took.
    slots: usize,
    round: Vec<RolloutBatch>,
}

/// Persistent staging buffers (SoA view of the current batch plus the
/// V-trace intermediates) — allocation-free after warmup.
#[derive(Debug, Default)]
struct Staging {
    obs: Vec<f32>,
    actions: Vec<u32>,
    rewards: Vec<f32>,
    dones: Vec<bool>,
    behavior_lp: Vec<f32>,
    values: Vec<f32>,
    target_lp: Vec<f32>,
    vs: Vec<f32>,
    pg_adv: Vec<f32>,
    fwd_out: Vec<f32>,
}

impl ImpalaAlgorithm {
    /// Creates the learner state for `config`, sharding the training step
    /// over the process-wide worker pool.
    pub fn new(config: ImpalaConfig) -> Self {
        Self::with_pool(config, Some(shared_pool()))
    }

    /// Like [`ImpalaAlgorithm::new`] but with an explicit worker pool; `None`
    /// computes every shard on the calling thread (bitwise-identical result).
    pub fn with_pool(config: ImpalaConfig, pool: Option<&'static WorkPool>) -> Self {
        let core = ActorCritic::new(config.spec(), pool);
        ImpalaAlgorithm {
            config,
            core,
            queue: VecDeque::new(),
            spent: Vec::new(),
            staging: Staging::default(),
            slots: 1,
            round: Vec::new(),
        }
    }
}

impl Algorithm for ImpalaAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        if batch.is_empty() {
            self.spent.push(batch);
            return;
        }
        self.queue.push_back(batch);
        while self.queue.len() > self.config.max_queue {
            if let Some(dropped) = self.queue.pop_front() {
                self.spent.push(dropped);
            }
        }
    }

    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool {
        // A round abandoned for a peer's snapshot hands its rollouts back.
        self.spent.append(&mut self.round);
        self.slots = slots;
        self.queue.len() >= local.len()
    }

    /// The V-trace actor-critic gradient of the oldest queued rollout.
    fn slot_grad(&mut self, _slot: usize, out: &mut Vec<f32>) -> f32 {
        let batch = self.queue.pop_front().expect("a credited rollout");
        let n = batch.len();
        let Self { config, core, staging, slots, .. } = self;
        let Staging { obs, actions, rewards, dones, behavior_lp, values, target_lp, vs, pg_adv, fwd_out } =
            staging;

        // Stage the batch as SoA buffers (reused across training steps).
        obs.clear();
        actions.clear();
        rewards.clear();
        dones.clear();
        behavior_lp.clear();
        for s in &batch.steps {
            assert_eq!(s.observation.len(), config.obs_dim, "ragged observations");
            obs.extend_from_slice(&s.observation);
            actions.push(s.action);
            rewards.push(s.reward);
            dones.push(s.done);
        }
        behavior_log_probs_into(&batch.steps, behavior_lp);
        let actions: &[u32] = actions;

        // Phase 1 (parallel): forward both nets, keeping the activations for
        // the backward phase. Each row emits [V(s_t), log π(a_t|s_t)] — the
        // inputs V-trace needs. Values come from the *current* value net
        // (V-trace requirement).
        if fwd_out.len() < n * 2 {
            fwd_out.resize(n * 2, 0.0);
        }
        core.evaluate(obs, n, |i| actions[i] as usize, &mut fwd_out[..n * 2]);
        values.resize(n, 0.0);
        target_lp.resize(n, 0.0);
        for i in 0..n {
            values[i] = fwd_out[i * 2];
            target_lp[i] = fwd_out[i * 2 + 1];
        }

        // Phase 2 (sequential): the V-trace recursion is a global backward
        // scan over the batch — inherently serial, one allocation-free pass.
        vs.resize(n, 0.0);
        pg_adv.resize(n, 0.0);
        vtrace_into(
            &VtraceInput {
                behavior_log_probs: behavior_lp,
                target_log_probs: target_lp,
                rewards,
                values,
                dones,
                bootstrap_value: core.bootstrap_value(&batch.bootstrap_observation),
                gamma: config.gamma,
                rho_bar: config.rho_bar,
                c_bar: config.c_bar,
            },
            vs,
            pg_adv,
        );
        let (pg_adv, vs): (&[f32], &[f32]) = (pg_adv, vs);

        // Phase 3 (parallel): policy gradient on the V-trace advantage and
        // critic regression to the V-trace targets, both back-propagated over
        // the phase-1 activations.
        let loss = core.grad(
            obs,
            n * *slots,
            Activations::Cached,
            |i| actions[i] as usize,
            |i, log_prob| (pg_adv[i] * log_prob, pg_adv[i]),
            |i| vs[i],
            out,
        );
        self.round.push(batch);
        loss
    }

    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        self.core.apply(grad);
        // Paper: "sends updated DNN parameters exactly to the explorers it
        // gets rollouts from".
        let notify = self.round.iter().map(|b| b.explorer).collect();
        let steps_consumed = self.round.iter().map(RolloutBatch::len).sum();
        self.spent.append(&mut self.round);
        Some(TrainReport { steps_consumed, loss, version: self.core.advance_version(), notify })
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
        self.core.save_state()
    }

    /// Queued rollouts, and those of a round abandoned for the load, go back.
    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError> {
        self.core.load_state(state, 0, false)?;
        self.spent.extend(self.queue.drain(..));
        self.spent.append(&mut self.round);
        Ok(())
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "IMPALA"
    }
}

impl SoftmaxAgent {
    /// Explorer-side IMPALA agent: samples the softmax policy, records
    /// behavior logits for V-trace. It installs the critic's parameters but
    /// records `value: 0.0`: V-trace re-evaluates every value under the
    /// learner's current critic, so nothing reads the explorer's estimate.
    pub fn impala(config: &ImpalaConfig, explorer_seed: u64) -> Self {
        let rng_seed = explorer_seed.wrapping_mul(0xC0FFEE).wrapping_add(13);
        SoftmaxAgent::new(config.spec(), rng_seed).without_value_estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor_critic::tests::action_prob;
    use crate::payload::RolloutStep;

    fn tiny_config() -> ImpalaConfig {
        let mut c = ImpalaConfig::new(3, 2);
        c.hidden = vec![16];
        c.lr = 1e-2;
        c
    }

    fn rollout(explorer: u32, good_action: u32, len: usize) -> RolloutBatch {
        let steps = (0..len)
            .map(|i| {
                let action = (i % 2) as u32;
                RolloutStep {
                    observation: vec![0.3, 0.1, -0.2],
                    action,
                    reward: if action == good_action { 1.0 } else { 0.0 },
                    done: false,
                    behavior_logits: vec![0.0, 0.0],
                    value: 0.0,
                    next_observation: None,
                }
            })
            .collect();
        RolloutBatch { explorer, param_version: 0, steps, bootstrap_observation: vec![0.3, 0.1, -0.2] }
    }

    #[test]
    fn trains_per_single_batch_and_notifies_source() {
        let mut alg = ImpalaAlgorithm::new(tiny_config());
        assert!(alg.try_train().is_none(), "no data yet");
        alg.on_rollout(rollout(5, 1, 16));
        let report = alg.try_train().expect("one batch is enough");
        assert_eq!(report.steps_consumed, 16);
        assert_eq!(report.notify, vec![5], "params go back to the source explorer");
        assert!(alg.try_train().is_none(), "queue drained");
    }

    #[test]
    fn queue_preserves_fifo_order() {
        let mut alg = ImpalaAlgorithm::new(tiny_config());
        alg.on_rollout(rollout(1, 0, 4));
        alg.on_rollout(rollout(2, 0, 4));
        assert_eq!(alg.queue.len(), 2);
        assert_eq!(alg.try_train().unwrap().notify, vec![1]);
        assert_eq!(alg.try_train().unwrap().notify, vec![2]);
    }

    #[test]
    fn stale_rollouts_are_still_consumed() {
        // Off-policy: a batch with an old param_version must still train.
        let mut alg = ImpalaAlgorithm::new(tiny_config());
        let mut b = rollout(0, 1, 8);
        b.param_version = 0;
        alg.on_rollout(b);
        alg.on_rollout(rollout(0, 1, 8)); // version still 0, learner now at 1
        assert!(alg.try_train().is_some());
        assert!(alg.try_train().is_some());
    }

    #[test]
    fn training_shifts_policy_toward_rewarded_action() {
        // γ = 0 isolates the per-action reward signal (contextual bandit), so
        // the policy-gradient direction is unambiguous.
        let mut c = tiny_config();
        c.gamma = 0.0;
        let mut alg = ImpalaAlgorithm::new(c);
        let obs = [0.3, 0.1, -0.2];
        let before = action_prob(&alg.core, &obs, 1);
        for _ in 0..60 {
            alg.on_rollout(rollout(0, 1, 32));
            alg.try_train().unwrap();
        }
        let after = action_prob(&alg.core, &obs, 1);
        assert!(after > before + 0.1, "P(a=1) should rise: {before} -> {after}");
    }

    #[test]
    fn queue_overflow_sheds_oldest() {
        let mut c = tiny_config();
        c.max_queue = 2;
        let mut alg = ImpalaAlgorithm::new(c);
        for e in 0..5 {
            alg.on_rollout(rollout(e, 0, 4));
        }
        assert_eq!(alg.queue.len(), 2);
        // The two newest batches (explorers 3 and 4) survive; the three shed
        // ones are already handed back.
        let shed: Vec<u32> = std::iter::from_fn(|| alg.take_spent()).map(|b| b.explorer).collect();
        assert_eq!(shed, vec![2, 1, 0]);
        assert_eq!(alg.try_train().unwrap().notify, vec![3]);
        assert_eq!(alg.try_train().unwrap().notify, vec![4]);
    }

    #[test]
    fn empty_batches_are_ignored() {
        let mut alg = ImpalaAlgorithm::new(tiny_config());
        alg.on_rollout(RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: vec![],
            bootstrap_observation: vec![],
        });
        assert_eq!(alg.queue.len(), 0);
    }
}
