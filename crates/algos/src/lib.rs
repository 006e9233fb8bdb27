//! DRL algorithm zoo for the XingTian reproduction.
//!
//! The paper's framework exposes four researcher-facing classes (§4.2):
//! `Environment`, `Model`, `Algorithm`, and `Agent`. The environment lives in
//! [`gymlite`]; this crate provides the other three for the three evaluated
//! algorithms:
//!
//! * **DQN** (value-based, off-policy) — [`dqn`], sampling the one [`replay`]
//!   store uniformly or by priority;
//! * **PPO** (actor-critic, on-policy) — [`ppo`], with [`gae`]
//!   generalized-advantage estimation and the clipped surrogate objective;
//! * **IMPALA** (actor-critic, off-policy) — [`impala`], with [`vtrace`]
//!   off-policy corrections;
//! * **A2C** (actor-critic, on-policy) — [`a2c`], synchronous vanilla policy
//!   gradient on GAE advantages;
//! * **REINFORCE** (policy-based, on-policy) — [`reinforce`], episodic
//!   Monte-Carlo policy gradient with a moving-average baseline.
//!
//! The last four are one family — a softmax policy, optionally a critic, a
//! policy-gradient step, a critic regression — and share one core,
//! [`actor_critic`]: the networks and optimizers, the `[policy | value]`
//! parameter layout, the pool-sharded training step, GAE staging, and the one
//! explorer-side [`SoftmaxAgent`]. Each algorithm module keeps its config, its
//! rollout bookkeeping, and the one per-row surrogate expression it
//! contributes.
//!
//! DQN additionally supports Double-DQN targets and prioritized replay
//! (`DqnConfig::double` / `DqnConfig::prioritized`), rounding out the zoo the
//! paper describes.
//!
//! The framework-facing contract is in [`api`]: a learner-side
//! [`api::Algorithm`] (the paper's `prepare_data` + `train`) and an
//! explorer-side [`api::Agent`] (the paper's `infer_action` +
//! `handle_env_feedback`). [`payload`] defines the wire format of rollout
//! batches and parameter blobs so that any communication substrate — the
//! XingTian channel or a baseline framework — can move them.

pub mod a2c;
pub mod actor_critic;
pub mod api;
pub mod batch;
pub mod dqn;
pub mod gae;
pub mod impala;
pub mod lazy;
pub mod par;
pub mod payload;
pub mod ppo;
pub mod reinforce;
pub mod replay;
pub mod state;
pub mod sumtree;
pub mod vtrace;

pub use a2c::{A2cAlgorithm, A2cConfig};
pub use actor_critic::SoftmaxAgent;
pub use api::{ActionSelection, Agent, Algorithm, SyncMode, TrainReport};
pub use dqn::{DqnAgent, DqnAlgorithm, DqnConfig};
pub use impala::{ImpalaAlgorithm, ImpalaConfig};
pub use lazy::{GradBlob, LazyGradConfig, LazyGradGate};
pub use par::{ParGrad, Shard};
pub use payload::{BatchDecoder, ParamBlob, RolloutBatch, RolloutStep};
pub use ppo::{PpoAlgorithm, PpoConfig};
pub use reinforce::{ReinforceAlgorithm, ReinforceConfig};
pub use state::{LearnerState, OptimizerState, StateError, TargetState};
pub use replay::{PlanePick, ReplayConfig, ReplayIntegrity, ReplayPlane, SampleSink, StepSink};
