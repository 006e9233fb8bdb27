//! Deployment configuration.
//!
//! The paper's configuration file names the machines, where the learner runs,
//! how many explorers each machine hosts, and which algorithm classes to
//! instantiate (§3.2.2, §4.2). [`DeploymentConfig`] is the equivalent
//! structure, built in Rust and checked by [`DeploymentConfig::validate`].

use crate::checkpoint::CheckpointConfig;
use crate::shard::GRAD_SLOTS;
use netsim::ClusterSpec;
use xingtian_algos::{A2cConfig, DqnConfig, ImpalaConfig, PpoConfig, ReinforceConfig};
use xingtian_comm::CommConfig;

/// Which DRL algorithm to deploy, with its hyperparameters (all five train in
/// lockstep rounds; sync learner sharding takes DQN, A2C and IMPALA).
#[derive(Debug, Clone)]
pub enum AlgorithmSpec {
    /// Deep Q-Networks (value-based, off-policy).
    Dqn(DqnConfig),
    /// Proximal Policy Optimization (actor-critic, on-policy).
    Ppo(PpoConfig),
    /// IMPALA with V-trace (actor-critic, off-policy).
    Impala(ImpalaConfig),
    /// Synchronous advantage actor-critic (on-policy).
    A2c(A2cConfig),
    /// Episodic REINFORCE with a moving-average baseline (policy-based).
    Reinforce(ReinforceConfig),
}

impl AlgorithmSpec {
    /// PPO with paper-shaped defaults (dimensions filled in at deployment).
    pub fn ppo() -> Self {
        AlgorithmSpec::Ppo(PpoConfig::new(0, 0))
    }

    /// DQN with paper-shaped defaults (dimensions filled in at deployment).
    pub fn dqn() -> Self {
        AlgorithmSpec::Dqn(DqnConfig::new(0, 0))
    }

    /// IMPALA with paper-shaped defaults (dimensions filled in at deployment).
    pub fn impala() -> Self {
        AlgorithmSpec::Impala(ImpalaConfig::new(0, 0))
    }

    /// A2C with defaults (dimensions filled in at deployment).
    pub fn a2c() -> Self {
        AlgorithmSpec::A2c(A2cConfig::new(0, 0))
    }

    /// REINFORCE with defaults (dimensions filled in at deployment).
    pub fn reinforce() -> Self {
        AlgorithmSpec::Reinforce(ReinforceConfig::new(0, 0))
    }

    /// The algorithm's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmSpec::Dqn(_) => "DQN",
            AlgorithmSpec::Ppo(_) => "PPO",
            AlgorithmSpec::Impala(_) => "IMPALA",
            AlgorithmSpec::A2c(_) => "A2C",
            AlgorithmSpec::Reinforce(_) => "REINFORCE",
        }
    }
}

/// Who ingests into DQN's replay store (the store itself is the same
/// `xingtian_algos::ReplayPlane` either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayPlacement {
    /// The learner's trainer thread (classic XingTian, paper §3.2.1): every
    /// rollout message is fetched, decoded, and ingested into the learner's
    /// private store before sampling.
    #[default]
    InLearner,
    /// The communication layer, beside the object store: a replay shard
    /// service (`xt-replay`) ingests rollouts once into a shared store and
    /// the learner only samples it. Each learner shard has its own service
    /// and store: explorers owned by shard `s` address `ProcessId::replay(s)`,
    /// which feeds learner shard `s`.
    StoreResident,
}

/// How learner shards exchange gradients when `learner_shards > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllreduceMode {
    /// Deterministic lockstep: every shard contributes its slice of the
    /// round's fixed gradient-slot partition, all shards reduce the slots in
    /// the same fixed order, and one optimizer step is applied per round.
    /// Same seed and slot data → bit-identical parameters for 1, 2, and 4
    /// shards, and every shard of a run exits with the same parameters — a
    /// run with a restored shard too, which rejoins by loading a peer's whole
    /// state. DQN (under either replay placement and either sampling mode),
    /// A2C and IMPALA; the shard count must divide the slot count.
    #[default]
    Sync,
    /// Stale-tolerant delta exchange: each shard trains locally and gossips
    /// parameter deltas through a [`xingtian_algos::LazyGradGate`]; deltas
    /// arriving with too much version skew are shed. Trades the bitwise
    /// determinism story for near-linear throughput scaling. Any algorithm
    /// and any shard count up to the explorer count.
    Relaxed,
}

impl AllreduceMode {
    /// Stable lowercase name (telemetry / bench table labels).
    pub const fn name(self) -> &'static str {
        match self {
            AllreduceMode::Sync => "sync",
            AllreduceMode::Relaxed => "relaxed",
        }
    }
}

/// Complete description of one XingTian deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// The simulated cluster to deploy onto.
    pub cluster: ClusterSpec,
    /// Number of explorers hosted by each machine (`explorers_per_machine[m]`
    /// explorers run on machine `m`). Explorer indices are assigned machine by
    /// machine.
    pub explorers_per_machine: Vec<u32>,
    /// Machine hosting the learner (the center for data transmission).
    pub learner_machine: usize,
    /// Communication-channel configuration.
    pub comm: CommConfig,
    /// Environment name (see [`crate::deployment::build_env`]).
    pub env: String,
    /// Observation size override for synthetic environments (None = the
    /// environment's default; tests shrink it for speed).
    pub obs_dim_override: Option<usize>,
    /// Per-step emulation latency override in microseconds for synthetic
    /// environments (None = the environment's default; tests use Some(0)).
    pub step_latency_us: Option<u64>,
    /// The algorithm and its hyperparameters.
    pub algorithm: AlgorithmSpec,
    /// Where DQN's replay buffer lives (ignored by on-policy algorithms).
    pub replay: ReplayPlacement,
    /// Number of learner shards. 1 is the classic single learner (the same
    /// process, with no peers to exchange gradients with); more than 1
    /// splits the learner across shards that each own a slice
    /// of the explorer pool (via the relaxed assignment table) and exchange
    /// gradients per [`AllreduceMode`]. All shards run on `learner_machine`.
    pub learner_shards: usize,
    /// Gradient-exchange discipline between learner shards (ignored when
    /// `learner_shards == 1`).
    pub allreduce: AllreduceMode,
    /// Steps per rollout message (paper: 200 for CartPole, 500 for Atari).
    pub rollout_len: usize,
    /// Stop once the learner has consumed this many rollout steps.
    pub goal_steps: u64,
    /// Hard wall-clock cap in seconds (safety net for CI).
    pub max_seconds: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Periodic DNN checkpointing (paper §4.2 fault tolerance).
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional initial learner parameters (PBT seeds new populations with the
    /// best population's weights, paper §4.3).
    pub initial_params: Option<Vec<f32>>,
}

impl DeploymentConfig {
    /// A single-machine CartPole deployment with `explorers` explorers.
    pub fn cartpole(algorithm: AlgorithmSpec, explorers: u32) -> Self {
        DeploymentConfig {
            cluster: ClusterSpec::default(),
            explorers_per_machine: vec![explorers],
            learner_machine: 0,
            comm: CommConfig::default(),
            env: "CartPole".into(),
            obs_dim_override: None,
            step_latency_us: None,
            algorithm,
            replay: ReplayPlacement::InLearner,
            learner_shards: 1,
            allreduce: AllreduceMode::Sync,
            rollout_len: 200,
            goal_steps: 100_000,
            max_seconds: 600.0,
            seed: 0,
            checkpoint: None,
            initial_params: None,
        }
    }

    /// A single-machine synthetic-Atari deployment.
    pub fn atari(env: &str, algorithm: AlgorithmSpec, explorers: u32) -> Self {
        DeploymentConfig {
            cluster: ClusterSpec::default(),
            explorers_per_machine: vec![explorers],
            learner_machine: 0,
            comm: CommConfig::default(),
            env: env.into(),
            obs_dim_override: None,
            step_latency_us: None,
            algorithm,
            replay: ReplayPlacement::InLearner,
            learner_shards: 1,
            allreduce: AllreduceMode::Sync,
            rollout_len: 500,
            goal_steps: 200_000,
            max_seconds: 3600.0,
            seed: 0,
            checkpoint: None,
            initial_params: None,
        }
    }

    /// Sets the learner's step goal (builder style).
    pub fn with_goal_steps(mut self, steps: u64) -> Self {
        self.goal_steps = steps;
        self
    }

    /// Selects the parameter-broadcast encoding (builder style) — see
    /// [`xingtian_comm::ParamCompression`].
    pub fn with_param_compression(mut self, kind: xingtian_comm::ParamCompression) -> Self {
        self.comm = self.comm.with_param_compression(kind);
        self
    }

    /// Sets the wall-clock cap (builder style).
    pub fn with_max_seconds(mut self, secs: f64) -> Self {
        self.max_seconds = secs;
        self
    }

    /// Sets the rollout length (builder style).
    pub fn with_rollout_len(mut self, len: usize) -> Self {
        self.rollout_len = len;
        self
    }

    /// Sets the observation-size override (builder style).
    pub fn with_obs_dim(mut self, dim: usize) -> Self {
        self.obs_dim_override = Some(dim);
        self
    }

    /// Sets the synthetic-environment step-latency override (builder style).
    pub fn with_step_latency_us(mut self, us: u64) -> Self {
        self.step_latency_us = Some(us);
        self
    }

    /// Enables periodic checkpointing (builder style).
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets the base seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Moves DQN's replay buffer into the communication layer (builder
    /// style): explorers address rollouts to their owning learner shard's
    /// replay service, and each shard samples its service's plane.
    pub fn with_store_resident_replay(mut self) -> Self {
        self.replay = ReplayPlacement::StoreResident;
        self
    }

    /// Shards the learner across `shards` threads (builder style). Shard `s`
    /// owns a contiguous slice of the explorer pool through the assignment
    /// table and participates in the cross-learner gradient exchange.
    pub fn with_learner_shards(mut self, shards: usize) -> Self {
        self.learner_shards = shards;
        self
    }

    /// Selects the cross-shard gradient-exchange mode (builder style).
    pub fn with_allreduce(mut self, mode: AllreduceMode) -> Self {
        self.allreduce = mode;
        self
    }

    /// Caps each broker's object-store arena in bytes (builder style). Small
    /// caps are the deterministic backpressure lever for elastic-supervision
    /// tests: a full store parks senders and raises occupancy telemetry.
    pub fn with_store_capacity(mut self, bytes: usize) -> Self {
        self.comm = self.comm.with_store_capacity(bytes);
        self
    }

    /// Spreads explorers across `machines` machines (equal split, remainder on
    /// the earliest machines) and sizes the cluster accordingly.
    pub fn spread_across(mut self, machines: usize) -> Self {
        let total: u32 = self.explorers_per_machine.iter().sum();
        let base = total / machines as u32;
        let rem = total % machines as u32;
        self.explorers_per_machine =
            (0..machines as u32).map(|m| base + u32::from(m < rem)).collect();
        self.cluster.machines = machines;
        self
    }

    /// Total explorer count.
    pub fn total_explorers(&self) -> u32 {
        self.explorers_per_machine.iter().sum()
    }

    /// Machine hosting explorer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn explorer_machine(&self, index: u32) -> usize {
        let mut remaining = index;
        for (m, &count) in self.explorers_per_machine.iter().enumerate() {
            if remaining < count {
                return m;
            }
            remaining -= count;
        }
        panic!("explorer index {index} out of range ({} explorers)", self.total_explorers());
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.explorers_per_machine.len() != self.cluster.machines {
            return Err(format!(
                "explorers_per_machine has {} entries but the cluster has {} machines",
                self.explorers_per_machine.len(),
                self.cluster.machines
            ));
        }
        if self.learner_machine >= self.cluster.machines {
            return Err(format!(
                "learner machine {} out of range ({} machines)",
                self.learner_machine, self.cluster.machines
            ));
        }
        if self.total_explorers() == 0 {
            return Err("deployment needs at least one explorer".into());
        }
        if self.rollout_len == 0 {
            return Err("rollout_len must be positive".into());
        }
        // The supervisor ends the run this long after it starts, so the value
        // must be a duration the clock can reach.
        let deadline = std::time::Duration::try_from_secs_f64(self.max_seconds)
            .ok()
            .and_then(|d| std::time::Instant::now().checked_add(d));
        if deadline.is_none() {
            return Err(format!(
                "max_seconds must be a reachable, non-negative number of seconds (got {})",
                self.max_seconds
            ));
        }
        // Algorithm configs are public structs that nothing checks before
        // this point, and a zero here panics or livelocks the learner thread mid-run: `chunks(0)`; a
        // training gate that never closes; a session over zero rows; a queue
        // that sheds every batch on arrival.
        let zero = match &self.algorithm {
            AlgorithmSpec::Dqn(c) if c.train_every_inserts == 0 => Some("DqnConfig.train_every_inserts"),
            AlgorithmSpec::Dqn(c) if c.batch_size == 0 => Some("DqnConfig.batch_size"),
            AlgorithmSpec::Ppo(c) if c.minibatch == 0 => Some("PpoConfig.minibatch"),
            AlgorithmSpec::Ppo(c) if c.epochs == 0 => Some("PpoConfig.epochs"),
            AlgorithmSpec::Impala(c) if c.max_queue == 0 => Some("ImpalaConfig.max_queue"),
            AlgorithmSpec::Reinforce(c) if c.episodes_per_train == 0 => {
                Some("ReinforceConfig.episodes_per_train")
            }
            _ => None,
        };
        if let Some(field) = zero {
            return Err(format!("{field} must be positive"));
        }
        if self.replay == ReplayPlacement::StoreResident
            && !matches!(self.algorithm, AlgorithmSpec::Dqn(_))
        {
            return Err(format!(
                "store-resident replay requires DQN (got {}): only DQN has a replay buffer",
                self.algorithm.name()
            ));
        }
        if self.learner_shards == 0 {
            return Err("learner_shards must be positive".into());
        }
        if self.learner_shards > self.total_explorers() as usize {
            return Err(format!(
                "{} learner shards need at least as many explorers (got {}): every shard \
                 trains on the rollouts of the explorers it owns",
                self.learner_shards,
                self.total_explorers()
            ));
        }
        if self.learner_shards > 1 && self.allreduce == AllreduceMode::Sync {
            let reason = match self.algorithm {
                AlgorithmSpec::Ppo(_) => "a session is several optimizer steps, a lockstep round is one \
                     and its id is the parameter version a rejoining shard loads the ring's state at",
                AlgorithmSpec::Reinforce(_) => "its advantages are whitened over every episode of a session \
                     and its baseline runs over them in order, but a slot sees only its own episodes",
                _ => "",
            };
            if !reason.is_empty() {
                return Err(format!(
                    "sync allreduce cannot shard {}: {reason}; use AllreduceMode::Relaxed",
                    self.algorithm.name()
                ));
            }
            // Each round is partitioned into a fixed number of gradient slots
            // (crate::shard::GRAD_SLOTS) that the shard count must divide, or
            // slot ownership would differ across counts and the cross-count
            // bit-identity guarantee would not hold. Relaxed gossip has no
            // slots.
            if !GRAD_SLOTS.is_multiple_of(self.learner_shards) {
                return Err(format!(
                    "learner_shards must divide {GRAD_SLOTS} under sync allreduce (got {}): \
                     it partitions rounds into {GRAD_SLOTS} fixed gradient slots",
                    self.learner_shards
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explorer_machine_assignment() {
        let mut c = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 6);
        c.explorers_per_machine = vec![2, 3, 1];
        c.cluster.machines = 3;
        assert_eq!(c.explorer_machine(0), 0);
        assert_eq!(c.explorer_machine(1), 0);
        assert_eq!(c.explorer_machine(2), 1);
        assert_eq!(c.explorer_machine(4), 1);
        assert_eq!(c.explorer_machine(5), 2);
    }

    #[test]
    fn spread_across_balances() {
        let c = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 10).spread_across(4);
        assert_eq!(c.explorers_per_machine, vec![3, 3, 2, 2]);
        assert_eq!(c.cluster.machines, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut c = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 2);
        c.learner_machine = 5;
        assert!(c.validate().is_err());
        let mut c2 = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 0);
        c2.explorers_per_machine = vec![0];
        assert!(c2.validate().is_err());
    }

    #[test]
    fn max_seconds_that_cannot_be_a_deadline_is_rejected() {
        // NaN, a negative and an infinite value are no duration at all; 1e19 s
        // is one, but no clock reaches it.
        for secs in [f64::NAN, -1.0, f64::INFINITY, 1e19] {
            let c = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 1).with_max_seconds(secs);
            let err = c.validate().expect_err("an unreachable deadline must be rejected");
            assert!(err.contains("max_seconds"), "the error names the field: {err}");
        }
        for secs in [0.0, 3.0] {
            let c = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 1).with_max_seconds(secs);
            assert!(c.validate().is_ok(), "{secs} s is a deadline");
        }
    }

    #[test]
    fn zero_hyperparameters_that_would_wedge_the_learner_are_rejected() {
        let mut dqn_every = DqnConfig::new(0, 0);
        dqn_every.train_every_inserts = 0;
        let mut dqn_batch = DqnConfig::new(0, 0);
        dqn_batch.batch_size = 0;
        let mut ppo = PpoConfig::new(0, 0);
        ppo.minibatch = 0;
        let mut ppo_epochs = PpoConfig::new(0, 0);
        ppo_epochs.epochs = 0;
        let mut impala = ImpalaConfig::new(0, 0);
        impala.max_queue = 0;
        let mut reinforce = ReinforceConfig::new(0, 0);
        reinforce.episodes_per_train = 0;
        for (spec, field) in [
            (AlgorithmSpec::Dqn(dqn_every), "DqnConfig.train_every_inserts"),
            (AlgorithmSpec::Dqn(dqn_batch), "DqnConfig.batch_size"),
            (AlgorithmSpec::Ppo(ppo), "PpoConfig.minibatch"),
            (AlgorithmSpec::Ppo(ppo_epochs), "PpoConfig.epochs"),
            (AlgorithmSpec::Impala(impala), "ImpalaConfig.max_queue"),
            (AlgorithmSpec::Reinforce(reinforce), "ReinforceConfig.episodes_per_train"),
        ] {
            let err = DeploymentConfig::cartpole(spec, 2).validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn store_resident_replay_requires_dqn() {
        let ok = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 2).with_store_resident_replay();
        assert_eq!(ok.replay, ReplayPlacement::StoreResident);
        assert!(ok.validate().is_ok());
        let bad = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 2).with_store_resident_replay();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("requires DQN") && err.contains("only DQN has a replay buffer"), "{err}");
    }

    #[test]
    fn learner_shard_validation() {
        let ok = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 4).with_learner_shards(2);
        assert!(ok.validate().is_ok());
        let ok4 = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 8)
            .with_learner_shards(4)
            .with_allreduce(AllreduceMode::Relaxed);
        assert!(ok4.validate().is_ok());
        // Under sync, shard counts that do not divide GRAD_SLOTS break the
        // fixed-slot partition; relaxed gossip has no slots.
        for shards in [3, 8] {
            let bad = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 8).with_learner_shards(shards);
            assert!(bad.validate().unwrap_err().contains("gradient slots"), "{shards} shards");
            for spec in [AlgorithmSpec::dqn(), AlgorithmSpec::ppo()] {
                let relaxed = DeploymentConfig::cartpole(spec, 8)
                    .with_learner_shards(shards)
                    .with_allreduce(AllreduceMode::Relaxed);
                assert!(relaxed.validate().is_ok(), "{shards} relaxed shards");
            }
        }
        let zero = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 8).with_learner_shards(0);
        assert!(zero.validate().is_err());
        // Sync lockstep shards DQN, A2C and IMPALA; PPO and REINFORCE only
        // take one-slot rounds, each for its own reason. Relaxed delta
        // exchange takes any algorithm.
        for spec in [AlgorithmSpec::dqn(), AlgorithmSpec::a2c(), AlgorithmSpec::impala()] {
            let sync = DeploymentConfig::cartpole(spec, 4).with_learner_shards(2);
            assert!(sync.validate().is_ok(), "{}", sync.algorithm.name());
        }
        for (spec, reason) in
            [(AlgorithmSpec::ppo(), "several optimizer steps"), (AlgorithmSpec::reinforce(), "its own episodes")]
        {
            let sync = DeploymentConfig::cartpole(spec.clone(), 4).with_learner_shards(2);
            let err = sync.validate().unwrap_err();
            assert!(err.contains("cannot shard") && err.contains(reason), "{err}");
            let relaxed = DeploymentConfig::cartpole(spec, 4)
                .with_learner_shards(2)
                .with_allreduce(AllreduceMode::Relaxed);
            assert!(relaxed.validate().is_ok());
        }
        // Each shard needs at least one explorer to own, in either mode.
        for mode in [AllreduceMode::Sync, AllreduceMode::Relaxed] {
            let starved =
                DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 1).with_learner_shards(2).with_allreduce(mode);
            assert!(starved.validate().unwrap_err().contains("at least as many explorers"));
        }
        // Sync rounds take prioritized replay: each slot samples, weights and
        // re-prioritizes in its shard's plane.
        let mut per = DqnConfig::new(0, 0);
        per.prioritized = Some((0.6, 0.4));
        let sync_per = DeploymentConfig::cartpole(AlgorithmSpec::Dqn(per), 4).with_learner_shards(2);
        assert!(sync_per.validate().is_ok());
        // Store-resident replay shards with the learner: one service and
        // plane per shard, in either mode.
        for mode in [AllreduceMode::Sync, AllreduceMode::Relaxed] {
            let replayed = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 4)
                .with_learner_shards(2)
                .with_allreduce(mode)
                .with_store_resident_replay();
            assert!(replayed.validate().is_ok(), "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explorer_machine_out_of_range_panics() {
        let c = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 1);
        let _ = c.explorer_machine(1);
    }
}
