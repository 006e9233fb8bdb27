//! The one policy-gradient core behind A2C, PPO, IMPALA and REINFORCE.
//!
//! The four algorithms are one family: a softmax policy, optionally a critic,
//! a policy-gradient step, a critic regression. Everything they share lives
//! here exactly once — the networks and their optimizers, the
//! `[policy | value]` flat parameter layout, the pool-sharded raw gradient
//! (`ActorCritic::grad` / `ActorCritic::policy_grad`) and its optimizer step
//! (`ActorCritic::apply`), GAE staging
//! (`GaeStage`) and the explorer-side [`SoftmaxAgent`]. What an algorithm
//! contributes is its rollout bookkeeping and one per-row expression: the
//! surrogate objective and the coefficient that multiplies `(δ_a − π)` in the
//! logit gradient (`Â` for A2C and REINFORCE, `Â·ratio` while PPO's clip is
//! not binding, the V-trace advantage for IMPALA). That expression is a
//! closure the step is monomorphized over, so the row loop inlines as if it
//! were written out per algorithm.

use crate::api::{ActionSelection, Agent};
use crate::gae::{gae_into, normalize, GaeInput};
use crate::par::{ParGrad, Shard};
use crate::payload::{ParamBlob, RolloutBatch};
use crate::state::{Layout, LearnerState, OptimizerState, StateError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use tinynn::ops::{row_stats, sample_categorical, softmax_row_into};
use tinynn::optim::{clip_global_norm, Adam};
use tinynn::{Activation, Mlp, Workspace};
use xingtian_comm::pool::WorkPool;

/// What a softmax-policy config says about its networks and their
/// optimization — the part of every such config the core needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spec<'a> {
    pub obs_dim: usize,
    pub num_actions: usize,
    /// Hidden widths, shared by the policy and the value network.
    pub hidden: &'a [usize],
    pub seed: u64,
    pub lr: f32,
    pub entropy_coef: f32,
    /// Scales the critic's gradient and its share of the reported loss.
    /// `None`: no value network at all (REINFORCE).
    pub value_coef: Option<f32>,
    pub max_grad_norm: f32,
}

/// The policy network, the optional value network, and the one definition of
/// the `[policy | value]` flat layout learners broadcast and agents install.
#[derive(Debug)]
struct Nets {
    policy: Mlp,
    value: Option<Mlp>,
}

impl Nets {
    fn new(spec: Spec<'_>) -> Self {
        let mlp = |outputs: usize, seed: u64| {
            let mut sizes = vec![spec.obs_dim];
            sizes.extend_from_slice(spec.hidden);
            sizes.push(outputs);
            Mlp::new(&sizes, Activation::Tanh, seed)
        };
        Nets {
            policy: mlp(spec.num_actions, spec.seed),
            value: spec.value_coef.map(|_| mlp(1, spec.seed ^ 0xF00D)),
        }
    }

    fn critic(&self) -> &Mlp {
        self.value.as_ref().expect("this algorithm was built without a critic")
    }

    fn flat(&self) -> Vec<f32> {
        let mut params = self.policy.params().to_vec();
        if let Some(value) = &self.value {
            params.extend_from_slice(value.params());
        }
        params
    }

    fn load(&mut self, params: &[f32]) {
        let np = self.policy.num_params();
        let nv = self.value.as_ref().map_or(0, Mlp::num_params);
        assert_eq!(params.len(), np + nv, "parameter count mismatch");
        self.policy.set_params(&params[..np]);
        if let Some(value) = &mut self.value {
            value.set_params(&params[np..]);
        }
    }
}

/// Where a step finds the batch's activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Activations {
    /// Forward the batch now.
    Fresh,
    /// [`ActorCritic::evaluate`] already forwarded this batch and the shard
    /// workspaces still hold it (policy in `ws_a`, value in `ws_b`): an
    /// algorithm whose targets need the whole batch's forward results first
    /// (V-trace) back-propagates over those instead of forwarding twice.
    Cached,
}

/// Learner-side state of a softmax-policy algorithm: networks, optimizers,
/// parameter version, and the pool-sharded training step, split into a
/// slot's raw gradient and the optimizer step on a round's.
#[derive(Debug)]
pub(crate) struct ActorCritic {
    nets: Nets,
    opt_policy: Adam,
    opt_value: Adam,
    entropy_coef: f32,
    value_coef: f32,
    max_grad_norm: f32,
    version: u64,
    pool: Option<&'static WorkPool>,
    par: ParGrad,
    /// Learner-level workspace for single-row forwards; the shard workspaces
    /// must keep their batch activations alive between phases.
    ws: Workspace,
}

impl ActorCritic {
    /// `pool = None` computes every shard on the calling thread
    /// (bitwise-identical result).
    pub(crate) fn new(spec: Spec<'_>, pool: Option<&'static WorkPool>) -> Self {
        let nets = Nets::new(spec);
        let opt_policy = Adam::new(nets.policy.num_params(), spec.lr);
        let opt_value = Adam::new(nets.value.as_ref().map_or(0, Mlp::num_params), spec.lr);
        ActorCritic {
            nets,
            opt_policy,
            opt_value,
            entropy_coef: spec.entropy_coef,
            value_coef: spec.value_coef.unwrap_or(0.0),
            max_grad_norm: spec.max_grad_norm,
            version: 0,
            pool,
            par: ParGrad::new(),
            ws: Workspace::new(),
        }
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Marks one finished training session; returns the new version.
    pub(crate) fn advance_version(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    pub(crate) fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: self.nets.flat() }
    }

    pub(crate) fn load_params(&mut self, params: &[f32]) {
        self.nets.load(params);
    }

    /// The shared sections of every softmax-policy state: the blob and both
    /// optimizers, policy first (REINFORCE's value optimizer is empty).
    pub(crate) fn save_state(&self) -> LearnerState {
        let optimizers = vec![OptimizerState::of(&self.opt_policy), OptimizerState::of(&self.opt_value)];
        LearnerState { blob: self.param_blob(), optimizers, ..LearnerState::default() }
    }

    /// Loads `state` if it fits this core plus the algorithm's own `rngs`
    /// streams and `baseline`, checked before anything is written.
    pub(crate) fn load_state(&mut self, state: &LearnerState, rngs: usize, baseline: bool) -> Result<(), StateError> {
        let widths = [self.opt_policy.moments().1.len(), self.opt_value.moments().1.len()];
        Layout { params: self.num_params(), optimizers: &widths, target: false, rngs, baseline }.check(state)?;
        self.nets.load(&state.blob.params);
        self.version = state.blob.version;
        state.optimizers[0].load_into(&mut self.opt_policy);
        state.optimizers[1].load_into(&mut self.opt_value);
        Ok(())
    }

    /// `V(s)` of the state a rollout segment stopped in, under the current
    /// value net; `0.0` for an empty observation (segment ended terminal).
    pub(crate) fn bootstrap_value(&mut self, observation: &[f32]) -> f32 {
        if observation.is_empty() {
            return 0.0;
        }
        self.nets.critic().forward_ws(observation, 1, &mut self.ws)[0]
    }

    /// Forwards both networks over `n` rows of `obs` (parallel over shards),
    /// writing `[V(s_t), log π(a_t|s_t)]` per row into `out` (`n × 2`) and
    /// leaving the activations in the shard workspaces for a following
    /// [`ActorCritic::grad`] with [`Activations::Cached`].
    pub(crate) fn evaluate<A>(&mut self, obs: &[f32], n: usize, action: A, out: &mut [f32])
    where
        A: Fn(usize) -> usize + Sync,
    {
        let (pnet, vnet) = (&self.nets.policy, self.nets.critic());
        let (dim, na) = (pnet.input_dim(), pnet.output_dim());
        assert_eq!(obs.len(), n * dim, "ragged observations");
        self.par.run(self.pool, n, out, 2, None, |rows, out_rows, shard, _grads| {
            let x = &obs[rows.start * dim..rows.end * dim];
            let rn = rows.len();
            let Shard { ws_a, ws_b, .. } = shard;
            let v = vnet.forward_ws(x, rn, ws_b);
            let logits = pnet.forward_ws(x, rn, ws_a);
            for (row, i) in rows.enumerate() {
                let zrow = &logits[row * na..(row + 1) * na];
                out_rows[row * 2] = v[row];
                out_rows[row * 2 + 1] = zrow[action(i)] - row_stats(zrow).log_z();
            }
            0.0
        });
    }

    /// Parameters of the flat `[policy | value]` layout.
    pub(crate) fn num_params(&self) -> usize {
        self.nets.policy.num_params() + self.nets.value.as_ref().map_or(0, Mlp::num_params)
    }

    /// The raw policy gradient over the rows of `obs` into `out`, sharded over
    /// the pool with deterministic reduction.
    ///
    /// `action(i)` is row `i`'s taken action. `surrogate(i, log π(a_i|s_i))`
    /// returns `(objective, coef)`: the row's term of the maximized objective
    /// and its derivative with respect to that log-probability. The minimized
    /// loss is `−(1/N) Σ objective_i − c_e (1/N) Σ H_i` over the round's
    /// `N = global_rows` rows, whose logit gradient is
    /// `−coef·(δ_a − π) + c_e·π(log π + H)` per row. Returns these rows' terms.
    pub(crate) fn policy_grad<A, S>(
        &mut self,
        obs: &[f32],
        global_rows: usize,
        activations: Activations,
        action: A,
        surrogate: S,
        out: &mut [f32],
    ) -> f32
    where
        A: Fn(usize) -> usize + Sync,
        S: Fn(usize, f32) -> (f32, f32) + Sync,
    {
        let Self { nets, entropy_coef: ec, pool, par, .. } = self;
        let pnet: &Mlp = &nets.policy;
        let (dim, na) = (pnet.input_dim(), pnet.output_dim());
        let (n, ec) = (obs.len() / dim, *ec);
        let inv_n = 1.0 / global_rows as f32;
        par.run(*pool, n, &mut [], 0, Some(out), |rows, _out, shard, grads| {
            let x = &obs[rows.start * dim..rows.end * dim];
            let rn = rows.len();
            let (ws_a, _, dlogits) = shard.scratch_for(rn * na);
            if activations == Activations::Fresh {
                pnet.forward_ws(x, rn, ws_a);
            }
            let logits = pnet.cached_output(ws_a, rn);
            let mut loss = 0.0f32;
            for (row, i) in rows.enumerate() {
                let zrow = &logits[row * na..(row + 1) * na];
                let stats = row_stats(zrow);
                let log_z = stats.log_z();
                let h = stats.entropy();
                let inv_sum = 1.0 / stats.sum;
                let a = action(i);
                let (objective, coef) = surrogate(i, zrow[a] - log_z);
                loss -= objective * inv_n;
                loss -= ec * h * inv_n;
                let drow = &mut dlogits[row * na..(row + 1) * na];
                for (j, (d, &z)) in drow.iter_mut().zip(zrow).enumerate() {
                    let p = (z - stats.max).exp() * inv_sum;
                    let indicator = if j == a { 1.0 } else { 0.0 };
                    // d/dlogits of −objective: −coef · (δ_aj − p_j);
                    // of −(c_e · H): +c_e · p_j (log p_j + H).
                    let g = -(coef * (indicator - p)) + ec * p * ((z - log_z) + h);
                    *d = g * inv_n;
                }
            }
            pnet.backward_ws(x, rn, dlogits, ws_a, grads);
            loss
        })
    }

    /// The gradient half of one actor-critic step: [`ActorCritic::policy_grad`],
    /// then the critic regression of `V(s_i)` to `target(i)` (its gradient
    /// carries `value_coef`), into `out` in the `[policy | value]` layout. The
    /// critic's gradient never reads the policy's parameters, so taking both
    /// before either net steps changes no bit. Returns
    /// `policy_loss + value_coef · value_loss`, the latter a mean squared error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn grad<A, S, T>(
        &mut self,
        obs: &[f32],
        global_rows: usize,
        activations: Activations,
        action: A,
        surrogate: S,
        target: T,
        out: &mut Vec<f32>,
    ) -> f32
    where
        A: Fn(usize) -> usize + Sync,
        S: Fn(usize, f32) -> (f32, f32) + Sync,
        T: Fn(usize) -> f32 + Sync,
    {
        out.resize(self.num_params(), 0.0);
        let (pgrad, vgrad) = out.split_at_mut(self.nets.policy.num_params());
        let policy_loss = self.policy_grad(obs, global_rows, activations, action, surrogate, pgrad);
        let Self { nets, value_coef: vc, pool, par, .. } = self;
        let vnet = nets.critic();
        let (dim, vc) = (vnet.input_dim(), *vc);
        let n = obs.len() / dim;
        let inv_n = 1.0 / global_rows as f32;
        let value_loss = par.run(*pool, n, &mut [], 0, Some(vgrad), |rows, _out, shard, grads| {
            let x = &obs[rows.start * dim..rows.end * dim];
            let rn = rows.len();
            let (ws_a, ws_b, dv) = shard.scratch_for(rn);
            // A cached value forward lives in `ws_b` (`ws_a` holds the
            // policy's); a fresh one reuses the workspace the policy
            // gradient just finished with.
            let ws = match activations {
                Activations::Fresh => {
                    vnet.forward_ws(x, rn, ws_a);
                    ws_a
                }
                Activations::Cached => ws_b,
            };
            let v = vnet.cached_output(ws, rn);
            let mut loss = 0.0f32;
            for (row, i) in rows.enumerate() {
                let d = v[row] - target(i);
                loss += d * d * inv_n;
                dv[row] = vc * 2.0 * d * inv_n;
            }
            vnet.backward_ws(x, rn, dv, ws, grads);
            loss
        });
        policy_loss + vc * value_loss
    }

    /// The apply half: per-net global-norm clip (in place), then Adam.
    pub(crate) fn apply(&mut self, grad: &mut [f32]) {
        let Self { nets, opt_policy, opt_value, max_grad_norm, .. } = self;
        let (pgrad, vgrad) = grad.split_at_mut(nets.policy.num_params());
        clip_global_norm(pgrad, *max_grad_norm);
        opt_policy.step(nets.policy.params_mut(), pgrad);
        if let Some(value) = &mut nets.value {
            clip_global_norm(vgrad, *max_grad_norm);
            opt_value.step(value.params_mut(), vgrad);
        }
    }
}

/// On-policy staging: a session's rollouts (in explorer order, whatever order
/// they arrived in) and `rows` until it completes, those handed back since,
/// and the flattened observations and actions with per-segment GAE
/// advantages and returns — allocation-free once grown to the iteration size.
#[derive(Debug, Default)]
pub(crate) struct GaeStage {
    pub batches: Vec<RolloutBatch>,
    pub rows: usize,
    pub spent: Vec<RolloutBatch>,
    pub obs: Vec<f32>,
    pub actions: Vec<u32>,
    /// Normalized over the whole iteration.
    pub advantages: Vec<f32>,
    pub returns: Vec<f32>,
    seg_rewards: Vec<f32>,
    seg_values: Vec<f32>,
    seg_dones: Vec<bool>,
}

impl GaeStage {
    /// Stages a rollout generated at `version`, after those of no higher
    /// explorer index; a stale one is unusable on-policy and goes back.
    pub(crate) fn offer(&mut self, batch: RolloutBatch, version: u64) {
        if batch.param_version != version {
            return self.spent.push(batch);
        }
        self.rows += batch.len();
        let at = self.batches.partition_point(|b| b.explorer <= batch.explorer);
        self.batches.insert(at, batch);
    }

    /// Hands every staged rollout back; returns their rows.
    pub(crate) fn hand_back(&mut self) -> usize {
        self.spent.append(&mut self.batches);
        std::mem::take(&mut self.rows)
    }

    /// Flattens `batches[range]` (one GAE segment each, with the behavior
    /// values the rollout recorded and the bootstrap value from `core`'s
    /// current value net) and returns the row count.
    pub(crate) fn fill(&mut self, range: Range<usize>, core: &mut ActorCritic, gamma: f32, lambda: f32) -> usize {
        let dim = core.nets.policy.input_dim();
        self.obs.clear();
        self.actions.clear();
        self.advantages.clear();
        self.returns.clear();
        for b in &self.batches[range] {
            self.seg_rewards.clear();
            self.seg_values.clear();
            self.seg_dones.clear();
            for s in &b.steps {
                assert_eq!(s.observation.len(), dim, "ragged observations");
                self.obs.extend_from_slice(&s.observation);
                self.actions.push(s.action);
                self.seg_rewards.push(s.reward);
                self.seg_values.push(s.value);
                self.seg_dones.push(s.done);
            }
            // `gae_into` writes straight into the iteration tail.
            let off = self.advantages.len();
            self.advantages.resize(off + b.steps.len(), 0.0);
            self.returns.resize(off + b.steps.len(), 0.0);
            gae_into(
                &GaeInput {
                    rewards: &self.seg_rewards,
                    values: &self.seg_values,
                    dones: &self.seg_dones,
                    bootstrap_value: core.bootstrap_value(&b.bootstrap_observation),
                    gamma,
                    lambda,
                },
                &mut self.advantages[off..],
                &mut self.returns[off..],
            );
        }
        normalize(&mut self.advantages);
        self.actions.len()
    }
}

/// Explorer-side agent of every softmax-policy algorithm: samples the
/// policy, and records the logits and, where GAE reads it, the critic's
/// value estimate. Built by the per-algorithm constructors
/// ([`SoftmaxAgent::ppo`], [`SoftmaxAgent::impala`], [`SoftmaxAgent::a2c`],
/// [`SoftmaxAgent::reinforce`]), which differ in how they mix the explorer
/// seed into the sampling RNG and in whether the value is recorded.
#[derive(Debug)]
pub struct SoftmaxAgent {
    nets: Nets,
    /// Whether `act` evaluates the critic. Always installs the full
    /// `[policy | value]` layout either way.
    records_value: bool,
    version: u64,
    rng: StdRng,
    ws: Workspace,
    probs: Vec<f32>,
}

impl SoftmaxAgent {
    /// An agent that records the critic's estimate of every state it acts
    /// in, when the spec has a critic.
    pub(crate) fn new(spec: Spec<'_>, rng_seed: u64) -> Self {
        SoftmaxAgent {
            nets: Nets::new(spec),
            records_value: spec.value_coef.is_some(),
            version: 0,
            rng: StdRng::seed_from_u64(rng_seed),
            ws: Workspace::new(),
            probs: vec![0.0; spec.num_actions],
        }
    }

    /// This agent with `value: 0.0` in every selection, for an algorithm
    /// whose learner recomputes values itself (IMPALA's V-trace evaluates
    /// the current critic): the critic forward per step would be read by
    /// nothing.
    pub(crate) fn without_value_estimates(self) -> Self {
        SoftmaxAgent { records_value: false, ..self }
    }
}

impl Agent for SoftmaxAgent {
    fn act(&mut self, observation: &[f32]) -> ActionSelection {
        // Workspace forward on the raw observation slice: the only heap
        // allocation is the logits vector the selection must own.
        let logits: Vec<f32> = self.nets.policy.forward_ws(observation, 1, &mut self.ws).to_vec();
        softmax_row_into(&logits, &mut self.probs);
        let action = sample_categorical(&self.probs, self.rng.gen::<f32>());
        let value = if self.records_value {
            self.nets.critic().forward_ws(observation, 1, &mut self.ws)[0]
        } else {
            0.0
        };
        ActionSelection { action, logits, value }
    }

    fn apply_params(&mut self, blob: &ParamBlob) {
        if blob.version <= self.version {
            return;
        }
        self.nets.load(&blob.params);
        self.version = blob.version;
    }

    fn param_version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::Algorithm;
    use crate::{
        A2cAlgorithm, A2cConfig, ImpalaAlgorithm, ImpalaConfig, PpoAlgorithm, PpoConfig,
        ReinforceAlgorithm, ReinforceConfig,
    };

    /// `π(action | observation)` under `core`'s current policy — what the
    /// per-algorithm "training shifts the policy" tests read.
    pub(crate) fn action_prob(core: &ActorCritic, observation: &[f32], action: usize) -> f32 {
        let mut ws = Workspace::new();
        let logits = core.nets.policy.forward_ws(observation, 1, &mut ws);
        let mut probs = vec![0.0; logits.len()];
        softmax_row_into(logits, &mut probs);
        probs[action]
    }

    // The clip bound is out of reach, so an applied step is unclipped.
    const SPEC: Spec<'static> = Spec {
        obs_dim: 3,
        num_actions: 4,
        hidden: &[5],
        seed: 11,
        lr: 0.0,
        entropy_coef: 0.05,
        value_coef: Some(0.5),
        max_grad_norm: 1e9,
    };
    const N: usize = 6;

    fn batch() -> (Vec<f32>, Vec<usize>, Vec<f32>) {
        let obs = (0..N * SPEC.obs_dim).map(|i| ((i * 7 % 11) as f32 - 5.0) / 5.0).collect();
        let actions = (0..N).map(|i| i % SPEC.num_actions).collect();
        let weights = (0..N).map(|i| (i as f32 - 2.5) / 2.0).collect();
        (obs, actions, weights)
    }

    /// Central differences of `loss` over every third parameter `params`
    /// exposes, against the `analytic` gradient (`scale` × d loss).
    fn assert_matches_finite_differences(
        core: &mut ActorCritic,
        params: fn(&mut ActorCritic) -> &mut [f32],
        loss: impl Fn(&mut ActorCritic) -> f32,
        analytic: &[f32],
        scale: f32,
    ) {
        let eps = 1e-2f32;
        for i in (0..analytic.len()).step_by(3) {
            let orig = params(core)[i];
            params(core)[i] = orig + eps;
            let up = loss(core);
            params(core)[i] = orig - eps;
            let down = loss(core);
            params(core)[i] = orig;
            let numeric = scale * (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 2e-3,
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn policy_gradient_matches_finite_differences() {
        // The vanilla surrogate Â · log π(a|s) (A2C, REINFORCE, IMPALA) plus
        // the entropy bonus.
        let (obs, actions, adv) = batch();
        let mut core = ActorCritic::new(SPEC, None);
        let mut analytic = vec![0.0; core.nets.policy.num_params()];
        let surrogate = |i: usize, lp: f32| (adv[i] * lp, adv[i]);
        core.policy_grad(&obs, N, Activations::Fresh, |i| actions[i], surrogate, &mut analytic);
        let loss = |core: &mut ActorCritic| {
            let mut scratch = vec![0.0; core.nets.policy.num_params()];
            core.policy_grad(&obs, N, Activations::Fresh, |i| actions[i], surrogate, &mut scratch)
        };
        assert_matches_finite_differences(&mut core, |c| c.nets.policy.params_mut(), loss, &analytic, 1.0);
    }

    #[test]
    fn critic_gradient_matches_finite_differences() {
        let (obs, actions, targets) = batch();
        let mut core = ActorCritic::new(SPEC, None);
        let np = core.nets.policy.num_params();
        let loss = |core: &mut ActorCritic| {
            let mut grad = Vec::new();
            core.grad(&obs, N, Activations::Fresh, |i| actions[i], |_, _| (0.0, 0.0), |i| targets[i], &mut grad)
        };
        let mut analytic = Vec::new();
        core.grad(&obs, N, Activations::Fresh, |i| actions[i], |_, _| (0.0, 0.0), |i| targets[i], &mut analytic);
        // The critic's gradient and its share of the loss both carry
        // `value_coef`; the policy's share does not depend on the critic.
        let critic: fn(&mut ActorCritic) -> &mut [f32] = |c| c.nets.value.as_mut().expect("a critic").params_mut();
        assert_matches_finite_differences(&mut core, critic, loss, &analytic[np..], 1.0);
    }

    #[test]
    fn cached_activations_give_the_fresh_step() {
        let (obs, actions, adv) = batch();
        let run = |activations: Activations| {
            let mut core = ActorCritic::new(Spec { lr: 1e-2, ..SPEC }, None);
            if activations == Activations::Cached {
                core.evaluate(&obs, N, |i| actions[i], &mut [0.0; N * 2]);
            }
            let surrogate = |i: usize, lp: f32| (adv[i] * lp, adv[i]);
            let mut grad = Vec::new();
            let loss = core.grad(&obs, N, activations, |i| actions[i], surrogate, |i| adv[i], &mut grad);
            core.apply(&mut grad);
            (loss, core.param_blob().params)
        };
        assert_eq!(run(Activations::Fresh), run(Activations::Cached));
    }

    #[test]
    fn agent_installs_the_learner_layout_and_ignores_stale_blobs() {
        for value_coef in [Some(0.5), None] {
            let spec = Spec { value_coef, ..SPEC };
            let learner = ActorCritic::new(Spec { seed: 99, ..spec }, None);
            let mut agent = SoftmaxAgent::new(spec, 1);
            let mut blob = learner.param_blob();
            blob.version = 3;
            agent.apply_params(&blob);
            assert_eq!(agent.param_version(), 3);
            assert_eq!(agent.nets.flat(), blob.params);
            blob.version = 2;
            blob.params.fill(0.0);
            agent.apply_params(&blob);
            assert_eq!(agent.param_version(), 3, "older blob ignored");
            assert_eq!(agent.nets.flat(), learner.param_blob().params);
            let sel = agent.act(&[0.1, 0.2, 0.3]);
            assert_eq!(sel.logits.len(), SPEC.num_actions);
            assert!(sel.action < SPEC.num_actions);
            assert_eq!(sel.value != 0.0, value_coef.is_some(), "a value estimate exactly with a critic");
        }
    }

    /// Only GAE reads an explorer's value estimate. IMPALA's agent acts and
    /// logs exactly like a critic-evaluating agent with its seed and records
    /// 0; PPO's and A2C's record the critic's estimate, bit for bit.
    #[test]
    fn agents_evaluate_the_critic_only_where_gae_reads_it() {
        let observations = [[0.1, 0.2, 0.3], [-0.4, 0.5, 0.0], [0.9, -0.8, 0.7]];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let impala = ImpalaConfig::new(3, 4);
        let mut skipping = SoftmaxAgent::impala(&impala, 1);
        let mut evaluating = SoftmaxAgent::impala(&impala, 1);
        evaluating.records_value = true;
        for obs in &observations {
            let (skipped, evaluated) = (skipping.act(obs), evaluating.act(obs));
            assert_eq!(skipped.action, evaluated.action);
            assert_eq!(bits(&skipped.logits), bits(&evaluated.logits));
            assert_eq!(skipped.value.to_bits(), 0.0f32.to_bits(), "IMPALA records no value");
            assert_ne!(evaluated.value, 0.0, "the critic was evaluated");
        }
        let (ppo, a2c) = (PpoConfig::new(3, 4), A2cConfig::new(3, 4));
        for (name, mut agent) in [("ppo", SoftmaxAgent::ppo(&ppo, 1)), ("a2c", SoftmaxAgent::a2c(&a2c, 1))] {
            for obs in &observations {
                let critic = agent.nets.critic().forward_ws(obs, 1, &mut Workspace::new())[0];
                let value = agent.act(obs).value;
                assert_eq!(value.to_bits(), critic.to_bits(), "{name} records the critic's estimate");
                assert_ne!(value, 0.0, "{name}");
            }
        }
    }

    #[test]
    fn every_algorithm_and_its_agent_share_one_layout() {
        let (ppo, impala) = (PpoConfig::new(3, 2), ImpalaConfig::new(3, 2));
        let (a2c, reinforce) = (A2cConfig::new(3, 2), ReinforceConfig::new(3, 2));
        let pairs: [(Box<dyn Algorithm>, SoftmaxAgent); 4] = [
            (Box::new(PpoAlgorithm::new(ppo.clone())), SoftmaxAgent::ppo(&ppo, 1)),
            (Box::new(ImpalaAlgorithm::new(impala.clone())), SoftmaxAgent::impala(&impala, 1)),
            (Box::new(A2cAlgorithm::new(a2c.clone())), SoftmaxAgent::a2c(&a2c, 1)),
            (Box::new(ReinforceAlgorithm::new(reinforce.clone())), SoftmaxAgent::reinforce(&reinforce, 1)),
        ];
        for (mut alg, mut agent) in pairs {
            let mut state = alg.save_state();
            state.blob = ParamBlob { version: 5, params: vec![0.25; state.blob.params.len()] };
            alg.load_state(&state).expect("its own layout");
            agent.apply_params(&alg.param_blob());
            assert_eq!(agent.param_version(), 5, "{}", alg.name());
            assert_eq!(agent.nets.flat(), alg.param_blob().params, "{}", alg.name());
        }
    }
}
