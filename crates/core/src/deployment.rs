//! The pieces every deployment is built from, and the plain entry points.
//!
//! The paper's launch sequence (§3.2.2) — create a broker per machine,
//! connect the broker fabric, start the learner and the explorers, then run
//! until the center controller (the supervising thread itself) broadcasts
//! shutdown — is built in exactly one place, [`Deployment::run_supervised`]
//! ([`crate::supervisor`]). [`Deployment::run`] is that graph under a policy
//! with nothing to supervise. "Processes" are threads here (see DESIGN.md §2
//! on the substitution), but the communication between them flows
//! exclusively through the asynchronous channel, never through shared state.

use crate::config::{AlgorithmSpec, DeploymentConfig, ReplayPlacement};
use crate::stats::RunReport;
use crate::supervisor::SupervisionConfig;
use gymlite::{AtariGame, CartPole, Environment, SynthAtari};
use std::sync::Arc;
use xingtian_algos::api::{Agent, Algorithm};
use xingtian_algos::{
    A2cAlgorithm, DqnAgent, DqnAlgorithm, ImpalaAlgorithm, PpoAlgorithm, ReinforceAlgorithm,
    ReplayConfig, ReplayPlane, SoftmaxAgent,
};
use xt_fault::FaultPlan;

/// Error launching or validating a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployError(String);

impl DeployError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        DeployError(msg.into())
    }
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deployment error: {}", self.0)
    }
}

impl std::error::Error for DeployError {}

/// Spawns a named process thread, turning OS-level spawn failure (thread
/// limits, exhausted stacks) into a [`DeployError`] the caller can surface
/// instead of a panic that takes the whole deployment down.
pub fn spawn_process<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>, DeployError> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(f)
        .map_err(|e| DeployError(format!("cannot spawn {name}: {e}")))
}

/// Builds the environment for one explorer, honoring the observation
/// override for synthetic games.
pub fn build_env(
    name: &str,
    seed: u64,
    obs_dim_override: Option<usize>,
    step_latency_us: Option<u64>,
) -> Result<Box<dyn Environment>, String> {
    // Classic-control environments step in nanoseconds; `step_latency_us`
    // must still pace them (a pacing knob that silently ignores some
    // environments makes every throughput experiment built on it a lie), so
    // they are wrapped in [`gymlite::env::Paced`] rather than returned raw.
    let pace = |env: Box<dyn Environment>| -> Box<dyn Environment> {
        match step_latency_us {
            Some(us) if us > 0 => Box::new(gymlite::env::Paced::new(env, us)),
            _ => env,
        }
    };
    let game = match name.to_ascii_lowercase().as_str() {
        "cartpole" => return Ok(pace(Box::new(CartPole::new(seed)))),
        "mountaincar" => return Ok(pace(Box::new(gymlite::MountainCar::new(seed)))),
        "beamrider" => AtariGame::BeamRider,
        "breakout" => AtariGame::Breakout,
        "qbert" => AtariGame::Qbert,
        "spaceinvaders" => AtariGame::SpaceInvaders,
        other => return Err(format!("unknown environment `{other}`")),
    };
    let mut cfg = game.config();
    if let Some(dim) = obs_dim_override {
        cfg = cfg.with_obs_dim(dim);
    }
    if let Some(us) = step_latency_us {
        cfg = cfg.with_step_latency_us(us);
    }
    Ok(Box::new(SynthAtari::with_config(cfg, seed)))
}

/// `spec` with the environment's dimensions and the deployment-wide counts
/// filled in (each algorithm's config takes the subset it has fields for).
fn sized_spec(
    spec: &AlgorithmSpec,
    obs_dim: usize,
    num_actions: usize,
    num_explorers: u32,
    rollout_len: usize,
    seed: u64,
) -> AlgorithmSpec {
    let mut spec = spec.clone();
    match &mut spec {
        AlgorithmSpec::Dqn(c) => {
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.num_explorers = num_explorers;
            c.seed = seed;
        }
        AlgorithmSpec::Ppo(c) => {
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.num_explorers = num_explorers;
            c.rollout_len = rollout_len;
            c.seed = seed;
        }
        AlgorithmSpec::Impala(c) => {
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.seed = seed;
        }
        AlgorithmSpec::A2c(c) => {
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.num_explorers = num_explorers;
            c.rollout_len = rollout_len;
            c.seed = seed;
        }
        AlgorithmSpec::Reinforce(c) => {
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.num_explorers = num_explorers;
            c.seed = seed;
        }
    }
    spec
}

/// Fills environment dimensions and deployment-wide counts into the
/// algorithm spec, returning the learner-side algorithm.
pub fn build_algorithm(
    spec: &AlgorithmSpec,
    obs_dim: usize,
    num_actions: usize,
    num_explorers: u32,
    rollout_len: usize,
    seed: u64,
) -> Box<dyn Algorithm> {
    build_algorithm_with_replay(spec, obs_dim, num_actions, num_explorers, rollout_len, seed, None)
}

/// Builds the shared replay plane when `config` places DQN's replay in the
/// store (`None` for in-learner replay, where the learner owns a private
/// one — validation guarantees StoreResident only occurs with DQN, whose
/// buffer sizing it mirrors).
pub fn build_replay_plane(
    config: &DeploymentConfig,
    obs_dim: usize,
    telemetry: &xt_telemetry::Telemetry,
) -> Option<Arc<ReplayPlane>> {
    if config.replay != ReplayPlacement::StoreResident {
        return None;
    }
    let AlgorithmSpec::Dqn(c) = &config.algorithm else { return None };
    let rc = match c.prioritized {
        Some((alpha, _)) => ReplayConfig::prioritized(c.buffer_capacity, obs_dim, alpha),
        None => ReplayConfig::uniform(c.buffer_capacity, obs_dim),
    };
    Some(Arc::new(ReplayPlane::new(rc, telemetry)))
}

/// Like [`build_algorithm`], but hands DQN the shared replay `plane` when
/// one exists — at first spawn and on every learner restore (the rebuilt
/// learner must keep sampling the plane that survived its death).
pub fn build_algorithm_with_replay(
    spec: &AlgorithmSpec,
    obs_dim: usize,
    num_actions: usize,
    num_explorers: u32,
    rollout_len: usize,
    seed: u64,
    plane: Option<&Arc<ReplayPlane>>,
) -> Box<dyn Algorithm> {
    match sized_spec(spec, obs_dim, num_actions, num_explorers, rollout_len, seed) {
        AlgorithmSpec::Dqn(c) => match plane {
            Some(plane) => Box::new(DqnAlgorithm::with_plane(c, plane.clone())),
            None => Box::new(DqnAlgorithm::new(c)),
        },
        AlgorithmSpec::Ppo(c) => Box::new(PpoAlgorithm::new(c)),
        AlgorithmSpec::Impala(c) => Box::new(ImpalaAlgorithm::new(c)),
        AlgorithmSpec::A2c(c) => Box::new(A2cAlgorithm::new(c)),
        AlgorithmSpec::Reinforce(c) => Box::new(ReinforceAlgorithm::new(c)),
    }
}

/// Builds the explorer-side agent matching `spec`.
pub fn build_agent(
    spec: &AlgorithmSpec,
    obs_dim: usize,
    num_actions: usize,
    num_explorers: u32,
    rollout_len: usize,
    seed: u64,
    explorer_index: u32,
) -> Box<dyn Agent> {
    let index = u64::from(explorer_index);
    match sized_spec(spec, obs_dim, num_actions, num_explorers, rollout_len, seed) {
        AlgorithmSpec::Dqn(c) => Box::new(DqnAgent::new(c, index)),
        AlgorithmSpec::Ppo(c) => Box::new(SoftmaxAgent::ppo(&c, index)),
        AlgorithmSpec::Impala(c) => Box::new(SoftmaxAgent::impala(&c, index)),
        AlgorithmSpec::A2c(c) => Box::new(SoftmaxAgent::a2c(&c, index)),
        AlgorithmSpec::Reinforce(c) => Box::new(SoftmaxAgent::reinforce(&c, index)),
    }
}

/// A fully-wired XingTian deployment.
pub struct Deployment;

impl Deployment {
    /// Runs `config` to completion (goal steps or wall-clock cap) and returns
    /// the measurements.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the configuration is inconsistent or names
    /// an unknown environment, or if a process died during the run.
    pub fn run(config: DeploymentConfig) -> Result<RunReport, DeployError> {
        Deployment::run_with_telemetry(config, xt_telemetry::Telemetry::disabled())
    }

    /// Like [`Deployment::run`], but threads `telemetry` through every broker
    /// and endpoint so the run records message-lifecycle events and metrics.
    ///
    /// All brokers share the one handle, and callers who want NIC transfer
    /// events on the same timeline as endpoint events should build it from
    /// the cluster clock:
    /// `Telemetry::with_time_source(cap, cluster.time_source())`.
    ///
    /// This is [`Deployment::run_supervised`] with nothing to supervise: the
    /// [`SupervisionConfig::unsupervised`] policy, no faults, and any process
    /// death an error instead of a line in the recovery report.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the configuration is inconsistent or names
    /// an unknown environment, or if a process died during the run.
    pub fn run_with_telemetry(
        config: DeploymentConfig,
        telemetry: xt_telemetry::Telemetry,
    ) -> Result<RunReport, DeployError> {
        let plan = FaultPlan::seeded(config.seed);
        let (report, recovery) =
            Deployment::run_supervised(config, SupervisionConfig::unsupervised(), plan, telemetry)?;
        recovery.undegraded()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_env_respects_override() {
        let env = build_env("Qbert", 0, Some(64), Some(0)).unwrap();
        assert_eq!(env.observation_dim(), 64);
        let cp = build_env("CartPole", 0, Some(64), Some(0)).unwrap();
        assert_eq!(cp.observation_dim(), 4, "CartPole ignores the override");
    }

    #[test]
    fn build_env_unknown_errors() {
        assert!(build_env("Pong", 0, None, None).is_err());
    }

    #[test]
    fn algorithm_and_agent_dimensions_agree() {
        let spec = AlgorithmSpec::impala();
        let alg = build_algorithm(&spec, 8, 3, 4, 16, 1);
        let agent = build_agent(&spec, 8, 3, 4, 16, 1, 0);
        assert_eq!(alg.param_blob().params.len(), {
            // Agent must accept the learner's blob without panicking.
            let mut a = agent;
            let blob = xingtian_algos::ParamBlob { version: 1, params: alg.param_blob().params };
            a.apply_params(&blob);
            blob.params.len()
        });
    }
}
