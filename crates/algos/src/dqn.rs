//! Deep Q-Networks (Mnih et al. 2013) — value-based, off-policy.
//!
//! Execution model (paper Fig. 1(b) and §5.2): a single explorer streams
//! rollout steps; the learner maintains the replay buffer, performs a training
//! session every `train_every_inserts` new steps once `warmup_steps` have been
//! collected, and broadcasts parameters every `broadcast_every` sessions.
//! In XingTian the replay store lives inside the learner's trainer thread, so
//! sampling is a local operation (§3.2.1); the baselines host the same store
//! behind an RPC boundary instead, and the store-resident placement shares it
//! with a replay service that ingests in the learner's stead.
//!
//! The training step runs on the allocation-free workspace path: sampled
//! transitions are gathered into a persistent [`TrainBufs`] staging arena
//! (structure-of-arrays), targets and gradients are computed in reused
//! buffers, and after warmup a session — uniform or prioritized — performs
//! zero heap allocations.
//!
//! A gradient is computed in one place, `staged_grad`: every slot of a
//! round samples its own `batch_size` rows, so a single learner's session
//! (one slot, `1 / batch_size` scale) and a lockstep shard's slot run the
//! same arithmetic.

use crate::api::{ActionSelection, Agent, Algorithm, SyncMode, TrainReport};
use crate::par::ParGrad;
use crate::payload::{ParamBlob, RolloutBatch, RolloutStep};
use crate::replay::{PlanePick, ReplayConfig, ReplayPlane, SampleSink};
use crate::state::{rng_at, Layout, LearnerState, OptimizerState, StateError, TargetState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use tinynn::ops::argmax;
use tinynn::optim::Adam;
use tinynn::{Activation, Mlp, Workspace};
use xt_telemetry::HistogramHandle;

/// DQN hyperparameters.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Observation dimensionality.
    pub obs_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden-layer widths of the Q network.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Replay-buffer capacity in steps (paper: 1,000,000).
    pub buffer_capacity: usize,
    /// Steps to collect before training starts (paper: 20,000).
    pub warmup_steps: u64,
    /// Inserts between training sessions (paper: 4).
    pub train_every_inserts: u64,
    /// Sampled batch size (paper: 32).
    pub batch_size: usize,
    /// Training sessions between target-network syncs.
    pub target_sync_every: u64,
    /// Training sessions between parameter broadcasts (paper: "every a few
    /// training sessions").
    pub broadcast_every: u64,
    /// Number of explorers to notify on broadcast (paper uses 1 for DQN).
    pub num_explorers: u32,
    /// Use Double DQN targets (van Hasselt et al. 2016): the online network
    /// selects the bootstrap action, the target network evaluates it.
    pub double: bool,
    /// Prioritized experience replay (Schaul et al. 2016): `Some((alpha,
    /// beta))` samples proportionally to TD error with importance weighting.
    pub prioritized: Option<(f64, f64)>,
    /// ε-greedy schedule: initial ε.
    pub epsilon_start: f32,
    /// ε-greedy schedule: final ε.
    pub epsilon_end: f32,
    /// Steps over which ε anneals linearly.
    pub epsilon_decay_steps: u64,
    /// RNG / initialization seed.
    pub seed: u64,
}

impl DqnConfig {
    /// A configuration with the paper's structure scaled to laptop budgets.
    pub fn new(obs_dim: usize, num_actions: usize) -> Self {
        DqnConfig {
            obs_dim,
            num_actions,
            hidden: vec![64, 64],
            lr: 1e-3,
            gamma: 0.99,
            buffer_capacity: 100_000,
            warmup_steps: 2_000,
            train_every_inserts: 4,
            batch_size: 32,
            target_sync_every: 100,
            broadcast_every: 10,
            num_explorers: 1,
            double: false,
            prioritized: None,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 20_000,
            seed: 0,
        }
    }

    fn q_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.obs_dim];
        sizes.extend_from_slice(&self.hidden);
        sizes.push(self.num_actions);
        sizes
    }
}

/// Persistent staging arena for the training step. All buffers grow once to
/// the batch high-water mark and are reused for every subsequent session, so
/// a warmed-up session touches the heap zero times.
#[derive(Debug, Default)]
struct TrainBufs {
    /// Flat `(n, obs_dim)` gather of sampled observations.
    obs: Vec<f32>,
    /// Flat `(n, obs_dim)` next observations (zeros where terminal — their
    /// target is masked anyway).
    next_obs: Vec<f32>,
    actions: Vec<u32>,
    rewards: Vec<f32>,
    dones: Vec<bool>,
    /// Bellman targets, one per row.
    targets: Vec<f32>,
    /// |TD error| per row — the new priorities under prioritized replay.
    td: Vec<f32>,
    /// Flat parameter gradients for the online network.
    grads: Vec<f32>,
    /// Importance weights (prioritized replay only).
    weights: Vec<f32>,
    /// Workspace for the target network's bootstrap forward.
    tgt_ws: Workspace,
    /// Workspace for the online network's bootstrap forward (Double DQN).
    online_ws: Workspace,
}

impl TrainBufs {
    fn clear(&mut self) {
        self.obs.clear();
        self.next_obs.clear();
        self.actions.clear();
        self.rewards.clear();
        self.dones.clear();
    }

    /// Replaces the staged transitions with `steps`.
    fn stage_steps(&mut self, steps: &[RolloutStep], dim: usize) {
        self.clear();
        for s in steps {
            self.stage_parts(&s.observation, s.next_observation.as_deref(), s.action, s.reward, s.done, dim);
        }
    }

    /// Appends one transition given as raw slices (the [`SampleSink`] path:
    /// the replay store gathers sampled transitions straight into the arena).
    fn stage_parts(
        &mut self,
        observation: &[f32],
        next_observation: Option<&[f32]>,
        action: u32,
        reward: f32,
        done: bool,
        dim: usize,
    ) {
        assert_eq!(observation.len(), dim, "ragged observations");
        self.obs.extend_from_slice(observation);
        match next_observation {
            Some(o) => {
                assert_eq!(o.len(), dim, "ragged next observations");
                self.next_obs.extend_from_slice(o);
            }
            None => self.next_obs.extend(std::iter::repeat_n(0.0, dim)),
        }
        self.actions.push(action);
        self.rewards.push(reward);
        self.dones.push(done);
    }
}

/// Points a [`SampleSink`] at the staging arena: every sampled transition
/// lands in [`TrainBufs`] with one copy and no intermediate batch.
struct StageSink<'a> {
    bufs: &'a mut TrainBufs,
    dim: usize,
}

impl SampleSink for StageSink<'_> {
    fn push_transition(
        &mut self,
        observation: &[f32],
        next_observation: Option<&[f32]>,
        action: u32,
        reward: f32,
        done: bool,
    ) {
        self.bufs.stage_parts(observation, next_observation, action, reward, done, self.dim);
    }

    fn push_weight(&mut self, weight: f32) {
        self.bufs.weights.push(weight);
    }
}

/// Bellman targets for the `n` staged transitions, written to `bufs.targets`.
/// Standard DQN takes `max_a Q_target(s', a)`; Double DQN selects the action
/// with the online network and evaluates it with the target network,
/// decoupling selection from evaluation. Pure forward math — every learner
/// shard holding the same parameters computes identical targets, which the
/// sync allreduce's bit-identity guarantee relies on.
fn bellman_targets(config: &DqnConfig, q: &Mlp, target: &Mlp, bufs: &mut TrainBufs, n: usize) {
    let TrainBufs { next_obs, rewards, dones, targets, tgt_ws, online_ws, .. } = bufs;
    let na = config.num_actions;
    targets.clear();
    let next_q_target = target.forward_ws(next_obs, n, tgt_ws);
    let next_q_online = config.double.then(|| q.forward_ws(next_obs, n, online_ws));
    for i in 0..n {
        if dones[i] {
            targets.push(rewards[i]);
            continue;
        }
        let bootstrap = match &next_q_online {
            Some(online) => {
                let a_star = argmax(&online[i * na..(i + 1) * na]);
                next_q_target[i * na + a_star]
            }
            None => {
                next_q_target[i * na..(i + 1) * na].iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            }
        };
        targets.push(rewards[i] + config.gamma * bootstrap);
    }
}

/// Learner-side DQN: the replay store, online and target Q networks.
pub struct DqnAlgorithm {
    config: DqnConfig,
    q: Mlp,
    target: Mlp,
    opt: Adam,
    /// Private to this learner, which then ingests from `on_rollout`
    /// ([`DqnAlgorithm::new`]), or shared with the replay service that
    /// ingests in its stead ([`DqnAlgorithm::with_plane`]).
    plane: Arc<ReplayPlane>,
    /// Identities of the last prioritized sample, for re-prioritization.
    picks: Vec<PlanePick>,
    bufs: TrainBufs,
    /// Inserts already spent on training sessions (the credit gate: a session
    /// runs while `total_inserted - inserts_consumed >= train_every_inserts`).
    inserts_consumed: u64,
    sessions: u64,
    version: u64,
    rng: StdRng,
    /// Batches the store copied out of, queued for decode-pool recycling.
    spent: Vec<RolloutBatch>,
    /// `learn.sample_ns`: time to gather a sampled minibatch into the arena.
    sample_hist: HistogramHandle,
    /// Fixed-order sharded gradient engine for the multi-learner slot path.
    par: ParGrad,
    /// The credited round: this learner's slots, and the round's slot count.
    round: (Range<usize>, usize),
}

impl DqnAlgorithm {
    /// Creates the learner state for `config` with the paper's in-learner
    /// replay placement (§3.2.1): a private store this learner ingests into.
    pub fn new(config: DqnConfig) -> Self {
        let rc = ReplayConfig {
            capacity: config.buffer_capacity,
            obs_dim: config.obs_dim,
            prioritized: config.prioritized.map(|(alpha, _)| alpha),
        };
        let plane = Arc::new(ReplayPlane::new(rc, &xt_telemetry::Telemetry::disabled()));
        DqnAlgorithm::with_plane(config, plane)
    }

    /// Creates the learner state for `config` sampling a shared `plane` —
    /// the store-resident placement, where a replay service ingests. The
    /// plane's sampling mode must match `config.prioritized`. The credit
    /// starts at the plane's inserts: a learner restored onto its shard's
    /// surviving plane trains on new data, not again on what its dead
    /// incarnation already spent.
    pub fn with_plane(config: DqnConfig, plane: Arc<ReplayPlane>) -> Self {
        assert_eq!(
            plane.prioritized(),
            config.prioritized.is_some(),
            "replay plane sampling mode must match DqnConfig::prioritized"
        );
        let q = Mlp::new(&config.q_sizes(), Activation::Relu, config.seed);
        let target = q.clone();
        let opt = Adam::new(q.num_params(), config.lr);
        let rng = StdRng::seed_from_u64(config.seed ^ 0xD0_0D);
        let inserts_consumed = plane.total_inserted();
        DqnAlgorithm {
            config,
            q,
            target,
            opt,
            plane,
            picks: Vec::new(),
            bufs: TrainBufs::default(),
            inserts_consumed,
            sessions: 0,
            version: 0,
            rng,
            spent: Vec::new(),
            sample_hist: HistogramHandle::default(),
            par: ParGrad::new(),
            round: (0..1, 1),
        }
    }

    /// Training sessions completed.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Runs one training session on an externally-sampled batch.
    ///
    /// XingTian samples the replay store locally (via
    /// [`Algorithm::try_train`]); baseline frameworks that host the store in
    /// a separate replay actor (as RLLib does) sample remotely and hand the
    /// batch to this method, so both run byte-identical update math.
    pub fn train_on_steps(&mut self, sampled: &[RolloutStep]) -> TrainReport {
        let mut grad = std::mem::take(&mut self.bufs.grads);
        let loss = self.grad_on_steps(sampled, sampled.len(), &mut grad);
        let report = self.apply_reduced_grad(&mut grad, loss).expect("a DQN round is a session");
        self.bufs.grads = grad;
        TrainReport { steps_consumed: sampled.len(), ..report }
    }

    /// Gathers a sampled minibatch of `batch_size` transitions straight into
    /// the staging arena — one copy from resident storage, no intermediate
    /// batch (`learn.sample_ns`).
    fn stage_sample(&mut self, prioritized: bool) {
        let t_sample = Instant::now();
        let DqnAlgorithm { config, plane, picks, bufs, rng, .. } = self;
        bufs.clear();
        bufs.weights.clear();
        let mut sink = StageSink { bufs, dim: config.obs_dim };
        if prioritized {
            let beta = config.prioritized.map_or(0.4, |(_, b)| b);
            plane.sample_prioritized(config.batch_size, beta, rng, &mut sink, picks);
        } else {
            plane.sample_uniform(config.batch_size, rng, &mut sink);
        }
        self.sample_hist.record_duration(t_sample.elapsed());
    }

    /// Computes the raw gradient of `steps` at the current parameters into
    /// `out` (resized to the parameter count), every element scaled by
    /// `1 / global_rows`, and returns the loss contribution at the same
    /// scale — [`Algorithm::slot_grad`] on caller-chosen rows instead of
    /// sampled ones, for harnesses that must hold slot data constant across
    /// shard counts. No optimizer state is touched.
    pub fn grad_on_steps(
        &mut self,
        steps: &[RolloutStep],
        global_rows: usize,
        out: &mut Vec<f32>,
    ) -> f32 {
        self.bufs.stage_steps(steps, self.config.obs_dim);
        self.staged_grad(steps.len(), global_rows, false, out)
    }

    /// The one DQN gradient, over the `n` staged transitions: a session's
    /// (`global_rows == n`) and a lockstep slot's alike. Each row's squared TD
    /// error is weighted by its importance weight from `bufs.weights` when
    /// `weighted`, and each row's |TD error| is left in `bufs.td` for
    /// re-prioritization.
    fn staged_grad(&mut self, n: usize, global_rows: usize, weighted: bool, out: &mut Vec<f32>) -> f32 {
        assert!(n > 0, "cannot take a gradient of an empty slot");
        assert!(global_rows >= n, "global rows cover the slot");
        let DqnAlgorithm { config, q, target, bufs, par, .. } = self;
        bellman_targets(config, q, target, bufs, n);
        let dim = config.obs_dim;
        let na = config.num_actions;
        let nparams = q.num_params();
        out.resize(nparams, 0.0);
        let TrainBufs { obs, actions, targets, weights, td, .. } = bufs;
        td.resize(n, 0.0);
        let scale = 1.0 / global_rows as f32;
        let q_ref: &Mlp = q;
        // ParGrad's fixed-order reduction keeps the gradient bitwise stable
        // for any worker count; a batch of ≤ 64 rows runs the single-shard
        // short circuit, writing straight into `out`.
        par.run(None, n, td, 1, Some(&mut out[..nparams]), |rows, td_rows, shard, g| {
            let m = rows.len();
            let obs_rows = &obs[rows.start * dim..rows.end * dim];
            let (ws_a, _, dout) = shard.scratch_for(m * na);
            dout.fill(0.0);
            let q_values = q_ref.forward_ws(obs_rows, m, ws_a);
            let mut loss = 0.0f32;
            for (j, i) in rows.clone().enumerate() {
                let a = actions[i] as usize;
                let w = if weighted { weights[i] } else { 1.0 };
                let diff = q_values[j * na + a] - targets[i];
                td_rows[j] = diff.abs();
                loss += w * diff * diff * scale;
                dout[j * na + a] = 2.0 * w * diff * scale;
            }
            q_ref.backward_ws(obs_rows, m, dout, ws_a, g);
            loss
        })
    }
}

impl Algorithm for DqnAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        // The store copies the usable transitions out (full, well-formed
        // ones only); the step storage goes back for recycling.
        self.plane.ingest_batch(&batch);
        self.spent.push(batch);
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        self.spent.pop()
    }

    fn attach_telemetry(&mut self, telemetry: &xt_telemetry::Telemetry) {
        self.sample_hist = telemetry.histogram("learn.sample_ns");
        // A private plane predates this telemetry; a shared one (never
        // uniquely held) was registered by the deployment that built it.
        if let Some(plane) = Arc::get_mut(&mut self.plane) {
            plane.attach_telemetry(telemetry);
        }
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: self.q.params().to_vec() }
    }

    fn load_params(&mut self, params: &[f32]) {
        self.q.set_params(params);
        self.target.set_params(params);
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn save_state(&self) -> LearnerState {
        LearnerState {
            blob: self.param_blob(),
            optimizers: vec![OptimizerState::of(&self.opt)],
            target: Some(TargetState { params: self.target.params().to_vec(), sessions: self.sessions }),
            rngs: vec![self.rng.state()],
            baseline: None,
        }
    }

    /// The replay plane and the credit count that indexes it
    /// (`inserts_consumed`) stay this learner's own.
    fn load_state(&mut self, state: &LearnerState) -> Result<(), StateError> {
        let n = self.q.num_params();
        Layout { params: n, optimizers: &[n], target: true, rngs: 1, baseline: false }.check(state)?;
        let target = state.target.as_ref().expect("a checked target net");
        self.q.set_params(&state.blob.params);
        self.target.set_params(&target.params);
        state.optimizers[0].load_into(&mut self.opt);
        (self.version, self.sessions) = (state.blob.version, target.sessions);
        self.rng = rng_at(state.rngs[0]);
        Ok(())
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "DQN"
    }

    /// The one credit gate (paper: one session per `train_every_inserts`
    /// new steps): open once warmup is met, enough fresh inserts arrived and
    /// a batch's worth is resident, whatever slots this learner grades.
    /// Arriving rollout batches can be larger than the gate, in which case
    /// several sessions run back to back — exactly what the paper's learner
    /// does when it catches up.
    fn take_round_credit(&mut self, local: Range<usize>, slots: usize) -> bool {
        let total_inserted = self.plane.total_inserted();
        if total_inserted < self.config.warmup_steps
            || total_inserted - self.inserts_consumed < self.config.train_every_inserts
            || self.plane.len() < self.config.batch_size
        {
            return false;
        }
        self.inserts_consumed += self.config.train_every_inserts;
        self.round = (local, slots);
        true
    }

    /// Samples `batch_size` rows in the plane's own mode, whichever slot it
    /// is. Under prioritized replay the rows are importance-weighted and
    /// re-prioritized by their fresh TD errors before this returns
    /// (wraparound-stale picks are skipped by the store); the optimizer step
    /// that follows never reads the plane.
    fn slot_grad(&mut self, _slot: usize, out: &mut Vec<f32>) -> f32 {
        let prioritized = self.plane.prioritized();
        self.stage_sample(prioritized);
        let n = self.config.batch_size;
        let loss = self.staged_grad(n, n * self.round.1, prioritized, out);
        if prioritized {
            self.plane.update_priorities(&self.picks, &self.bufs.td);
        }
        loss
    }

    /// The optimizer step, then session and version bump, target sync, and
    /// the broadcast schedule: every round is a session.
    fn apply_reduced_grad(&mut self, grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        let DqnAlgorithm { config, q, target, opt, sessions, version, round, .. } = self;
        assert_eq!(grad.len(), q.num_params(), "reduced gradient width");
        opt.step(q.params_mut(), grad);
        *sessions += 1;
        *version += 1;
        if sessions.is_multiple_of(config.target_sync_every) {
            target.set_params(q.params());
        }
        let notify = if sessions.is_multiple_of(config.broadcast_every) {
            (0..config.num_explorers).collect()
        } else {
            Vec::new()
        };
        let steps_consumed = config.batch_size * round.0.len();
        Some(TrainReport { steps_consumed, loss, version: *version, notify })
    }
}

/// Explorer-side DQN: an ε-greedy policy over a local Q-network copy.
#[derive(Debug)]
pub struct DqnAgent {
    config: DqnConfig,
    q: Mlp,
    ws: Workspace,
    version: u64,
    steps: u64,
    rng: StdRng,
}

impl DqnAgent {
    /// Creates the explorer state for `config` (seeded with `explorer_seed`
    /// so parallel explorers decorrelate their exploration noise).
    pub fn new(config: DqnConfig, explorer_seed: u64) -> Self {
        let q = Mlp::new(&config.q_sizes(), Activation::Relu, config.seed);
        let rng = StdRng::seed_from_u64(explorer_seed.wrapping_mul(0x9e3779b9).wrapping_add(1));
        DqnAgent { config, q, ws: Workspace::new(), version: 0, steps: 0, rng }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        let t = (self.steps as f32 / self.config.epsilon_decay_steps as f32).min(1.0);
        self.config.epsilon_start + t * (self.config.epsilon_end - self.config.epsilon_start)
    }
}

impl Agent for DqnAgent {
    fn act(&mut self, observation: &[f32]) -> ActionSelection {
        self.steps += 1;
        let eps = self.epsilon();
        let action = if self.rng.gen::<f32>() < eps {
            self.rng.gen_range(0..self.config.num_actions)
        } else {
            argmax(self.q.forward_ws(observation, 1, &mut self.ws))
        };
        ActionSelection { action, logits: Vec::new(), value: 0.0 }
    }

    fn apply_params(&mut self, blob: &ParamBlob) {
        if blob.version > self.version {
            self.q.set_params(&blob.params);
            self.version = blob.version;
        }
    }

    fn param_version(&self) -> u64 {
        self.version
    }

    fn records_next_observation(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::RolloutStep;

    fn tiny_config() -> DqnConfig {
        let mut c = DqnConfig::new(4, 2);
        c.hidden = vec![16];
        c.buffer_capacity = 1000;
        c.warmup_steps = 40;
        c.train_every_inserts = 4;
        c.batch_size = 8;
        c.broadcast_every = 2;
        c
    }

    fn transition(r: f32, done: bool) -> RolloutStep {
        RolloutStep {
            observation: vec![0.1, 0.2, 0.3, 0.4],
            action: 1,
            reward: r,
            done,
            behavior_logits: vec![],
            value: 0.0,
            next_observation: Some(vec![0.2, 0.3, 0.4, 0.5]),
        }
    }

    fn batch(n: usize) -> RolloutBatch {
        RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (0..n).map(|i| transition(i as f32 % 2.0, i % 7 == 6)).collect(),
            bootstrap_observation: vec![],
        }
    }

    #[test]
    fn no_training_before_warmup() {
        let mut alg = DqnAlgorithm::new(tiny_config());
        alg.on_rollout(batch(39));
        assert!(alg.try_train().is_none());
        alg.on_rollout(batch(8));
        let report = alg.try_train().expect("warmup met");
        assert_eq!(report.steps_consumed, 8);
        assert_eq!(report.version, 1);
    }

    #[test]
    fn ragged_rollout_is_rejected_at_ingest_not_at_sample_time() {
        // A wrong-length observation used to sit in the buffer until a
        // training session sampled it and panicked ("ragged observations").
        let mut alg = DqnAlgorithm::new(tiny_config());
        let telemetry = xt_telemetry::Telemetry::enabled();
        alg.attach_telemetry(&telemetry);
        let mut ragged = batch(48);
        ragged.steps[3].observation.pop();
        ragged.steps[5].next_observation = Some(vec![0.0; 9]);
        alg.on_rollout(ragged);
        assert_eq!(alg.plane.len(), 46, "the two ragged steps never land");
        assert_eq!(telemetry.counter("replay.rejected").get(), 2, "and the learner's telemetry says so");
        for _ in 0..11 {
            assert!(alg.try_train().is_some());
        }
        assert_eq!(alg.take_spent().map(|b| b.len()), Some(48), "storage comes back for recycling");
    }

    #[test]
    fn train_every_inserts_gates_sessions() {
        let mut alg = DqnAlgorithm::new(tiny_config());
        alg.on_rollout(batch(48));
        // 48 inserts at one session per 4 inserts = 12 back-to-back sessions.
        for _ in 0..12 {
            assert!(alg.try_train().is_some());
        }
        assert!(alg.try_train().is_none(), "credits exhausted");
        alg.on_rollout(batch(4));
        assert!(alg.try_train().is_some());
        assert!(alg.try_train().is_none());
    }

    /// A DQN built over a plane already holding inserts (a restore onto its
    /// shard's surviving store-resident plane) does not spend them again: no
    /// session runs until `train_every_inserts` new inserts arrive.
    #[test]
    fn a_dqn_over_a_populated_plane_trains_only_on_new_inserts() {
        let mut dead = DqnAlgorithm::new(tiny_config());
        dead.on_rollout(batch(48));
        let mut restored = DqnAlgorithm::with_plane(tiny_config(), dead.plane.clone());
        assert!(restored.try_train().is_none(), "48 resident inserts are no credit");
        restored.plane.ingest_batch(&batch(3));
        assert!(restored.try_train().is_none(), "3 new inserts are not a session's worth");
        restored.plane.ingest_batch(&batch(1));
        assert!(restored.try_train().is_some(), "the 4th new insert is");
        assert!(restored.try_train().is_none());
    }

    #[test]
    fn broadcast_every_other_session() {
        let mut alg = DqnAlgorithm::new(tiny_config());
        alg.on_rollout(batch(60));
        let r1 = alg.try_train().unwrap();
        assert!(r1.notify.is_empty(), "session 1 of 2");
        alg.on_rollout(batch(4));
        let r2 = alg.try_train().unwrap();
        assert_eq!(r2.notify, vec![0], "session 2 broadcasts");
    }

    #[test]
    fn learning_drives_q_toward_targets() {
        // A constant transition with reward 1 and done=true has target exactly 1.
        let mut c = tiny_config();
        c.warmup_steps = 10;
        c.lr = 5e-3;
        let mut alg = DqnAlgorithm::new(c);
        for _ in 0..20 {
            alg.on_rollout(RolloutBatch {
                explorer: 0,
                param_version: 0,
                steps: (0..10).map(|_| transition(1.0, true)).collect(),
                bootstrap_observation: vec![],
            });
        }
        let mut last_loss = f32::MAX;
        for _ in 0..200 {
            alg.inserts_consumed = alg.plane.total_inserted() - 4; // keep the gate open
            last_loss = alg.try_train().unwrap().loss;
        }
        assert!(last_loss < 0.01, "loss should approach 0, got {last_loss}");
        let q = alg.q.forward_ws(&[0.1, 0.2, 0.3, 0.4], 1, &mut Workspace::new())[1];
        assert!((q - 1.0).abs() < 0.15, "Q(s,1) ≈ 1, got {q}");
    }

    #[test]
    fn double_dqn_targets_use_online_selection() {
        // With a constant reward-1 terminal transition both variants share
        // the target; this test instead verifies Double DQN *trains* and its
        // loss decreases like the vanilla variant.
        let mut c = tiny_config();
        c.double = true;
        c.warmup_steps = 10;
        let mut alg = DqnAlgorithm::new(c);
        for _ in 0..20 {
            alg.on_rollout(RolloutBatch {
                explorer: 0,
                param_version: 0,
                steps: (0..10).map(|_| transition(1.0, true)).collect(),
                bootstrap_observation: vec![],
            });
        }
        let mut last = f32::MAX;
        for _ in 0..200 {
            alg.inserts_consumed = alg.plane.total_inserted() - 4;
            last = alg.try_train().unwrap().loss;
        }
        assert!(last < 0.05, "Double DQN converges on the toy target, got {last}");
    }

    #[test]
    fn prioritized_replay_trains_and_reprioritizes() {
        let mut c = tiny_config();
        c.prioritized = Some((0.6, 0.4));
        c.warmup_steps = 10;
        let mut alg = DqnAlgorithm::new(c);
        for _ in 0..10 {
            alg.on_rollout(RolloutBatch {
                explorer: 0,
                param_version: 0,
                steps: (0..10).map(|i| transition(i as f32 % 2.0, i % 3 == 2)).collect(),
                bootstrap_observation: vec![],
            });
        }
        let mut last = f32::MAX;
        for _ in 0..150 {
            alg.inserts_consumed = alg.plane.total_inserted() - 4;
            last = alg.try_train().unwrap().loss;
        }
        assert!(last.is_finite());
        assert!(last < 1.0, "PER training should reduce loss, got {last}");
        assert_eq!(alg.plane.len(), 100);
    }

    #[test]
    fn train_on_steps_is_a_one_slot_round_on_caller_rows() {
        // The externally-sampled entry point runs the lockstep round's math:
        // two identical learners fed the same batch, one through
        // `train_on_steps`, one through `grad_on_steps` + `apply_reduced_grad`,
        // end with identical parameters.
        let mut c = tiny_config();
        c.warmup_steps = 0;
        c.broadcast_every = 1_000_000;
        let steps: Vec<RolloutStep> = (0..8).map(|i| transition(i as f32 % 2.0, i % 3 == 2)).collect();
        let mut a = DqnAlgorithm::new(c.clone());
        let report = a.train_on_steps(&steps);
        assert_eq!(report.steps_consumed, 8);
        assert_eq!(report.version, 1);
        let mut b = DqnAlgorithm::new(c);
        let mut grad = Vec::new();
        let loss = b.grad_on_steps(&steps, 8, &mut grad);
        let r2 = b.apply_reduced_grad(&mut grad, loss).expect("a round is a session");
        assert_eq!(report.loss, r2.loss);
        assert_eq!(a.q.params(), b.q.params(), "entry points share update math");
    }

    #[test]
    fn a_session_is_a_one_slot_round() {
        // Two identically seeded learners take the same rollouts; one trains
        // through `try_train`, the other through the lockstep surface with a
        // single slot. At batch 24, `1 / 24` is inexact, so a session that
        // divided by `n` where the slot multiplies by `1 / n` would diverge.
        // Under prioritized replay both re-prioritize from the slot.
        for (batch_size, prioritized) in [(32, None), (24, None), (24, Some((0.6, 0.4)))] {
            let mut c = tiny_config();
            c.batch_size = batch_size;
            c.prioritized = prioritized;
            c.target_sync_every = 3;
            let mut session = DqnAlgorithm::new(c.clone());
            let mut round = DqnAlgorithm::new(c);
            let mut grad = Vec::new();
            for salt in 0..6 {
                let mut rollout = batch(40);
                for (i, s) in rollout.steps.iter_mut().enumerate() {
                    let x = ((i * 7 + salt * 13) % 17) as f32 / 17.0;
                    s.observation = vec![x, 1.0 - x, x * x, -x];
                    s.next_observation = Some(vec![1.0 - x, x, -x, x * x]);
                    s.action = (i % 2) as u32;
                }
                session.on_rollout(rollout.clone());
                round.on_rollout(rollout);
                while let Some(report) = session.try_train() {
                    assert!(round.take_round_credit(0..1, 1));
                    let loss = round.slot_grad(0, &mut grad);
                    let r2 = round.apply_reduced_grad(&mut grad, loss).expect("a round is a session");
                    assert_eq!((report.loss.to_bits(), report.version), (r2.loss.to_bits(), r2.version));
                }
                assert!(!round.take_round_credit(0..1, 1), "both learners hold the same credit");
            }
            assert!(session.sessions() > 30, "a real training run");
            let bits = |alg: &DqnAlgorithm| alg.q.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&session), bits(&round), "batch {batch_size}, {prioritized:?}");
        }
    }

    #[test]
    fn sharded_round_credit_mirrors_try_train_gate() {
        let mut alg = DqnAlgorithm::new(tiny_config());
        alg.on_rollout(batch(39));
        assert!(!alg.take_round_credit(0..2, 4), "warmup not met");
        alg.on_rollout(batch(9));
        assert!(alg.take_round_credit(0..2, 4));
        // 48 inserts at one credit per 4 = 12 credits total, 11 left.
        for _ in 0..11 {
            assert!(alg.take_round_credit(2..4, 4));
        }
        assert!(!alg.take_round_credit(0..1, 1), "credits exhausted");
    }

    #[test]
    fn slot_gradient_is_pure_and_reproducible() {
        let mut alg = DqnAlgorithm::new(tiny_config());
        let steps: Vec<RolloutStep> =
            (0..8).map(|i| transition(i as f32 % 2.0, i % 3 == 2)).collect();
        let v0 = alg.version();
        let params0 = alg.q.params().to_vec();
        let (mut g1, mut g2) = (Vec::new(), Vec::new());
        let l1 = alg.grad_on_steps(&steps, 32, &mut g1);
        let l2 = alg.grad_on_steps(&steps, 32, &mut g2);
        assert_eq!(l1.to_bits(), l2.to_bits(), "loss reproducible");
        let bits1: Vec<u32> = g1.iter().map(|f| f.to_bits()).collect();
        let bits2: Vec<u32> = g2.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits1, bits2, "gradient reproducible");
        assert_eq!(alg.version(), v0, "no optimizer state touched");
        assert_eq!(alg.q.params(), &params0[..], "parameters untouched");
        assert_eq!(g1.len(), alg.q.num_params());
    }

    #[test]
    fn sharded_round_applies_one_update_per_round() {
        // Drive two full rounds through the sharded surface: sample four
        // slots, fold their gradients flat, apply once. Version advances by
        // one per round and the parameters move.
        let mut alg = DqnAlgorithm::new(tiny_config());
        alg.on_rollout(batch(60));
        let params0 = alg.q.params().to_vec();
        let rows = alg.config.batch_size;
        for round in 1..=2u64 {
            assert!(alg.take_round_credit(0..4, 4));
            let mut folded: Vec<f32> = Vec::new();
            let mut loss = 0.0f32;
            for slot in 0..4 {
                let mut g = Vec::new();
                loss += alg.slot_grad(slot, &mut g);
                assert_eq!(alg.bufs.actions.len(), rows, "one slot's rows were staged");
                if folded.is_empty() {
                    folded = g;
                } else {
                    for (a, b) in folded.iter_mut().zip(&g) {
                        *a += b;
                    }
                }
            }
            let report = alg.apply_reduced_grad(&mut folded, loss).expect("a round is a session");
            assert_eq!(report.version, round);
            assert_eq!(report.steps_consumed, 4 * rows, "all four slots are this learner's");
            assert!(report.loss.is_finite());
        }
        assert_ne!(alg.q.params(), &params0[..], "parameters moved");
        assert_eq!(alg.sessions(), 2);
    }

    #[test]
    fn agent_epsilon_anneals() {
        let mut agent = DqnAgent::new(tiny_config(), 0);
        let e0 = agent.epsilon();
        for _ in 0..30_000 {
            agent.act(&[0.0; 4]);
        }
        assert!(e0 > 0.9);
        assert!((agent.epsilon() - 0.05).abs() < 1e-3);
    }

    #[test]
    fn agent_ignores_stale_params() {
        let mut agent = DqnAgent::new(tiny_config(), 0);
        let fresh = ParamBlob { version: 2, params: vec![0.5; agent.q.num_params()] };
        agent.apply_params(&fresh);
        assert_eq!(agent.param_version(), 2);
        let stale = ParamBlob { version: 1, params: vec![9.0; agent.q.num_params()] };
        agent.apply_params(&stale);
        assert_eq!(agent.param_version(), 2);
        assert_eq!(agent.q.params()[0], 0.5, "stale broadcast ignored");
    }

    #[test]
    fn greedy_agent_exploits_q() {
        let mut c = tiny_config();
        c.epsilon_start = 0.0;
        c.epsilon_end = 0.0;
        let mut agent = DqnAgent::new(c, 0);
        let x = [0.1, 0.2, 0.3, 0.4];
        let sel = agent.act(&x);
        assert_eq!(sel.action, argmax(agent.q.forward_ws(&x, 1, &mut Workspace::new())));
    }
}
