//! XingTian: a DRL framework that co-designs communication and computation.
//!
//! This crate is the Rust reproduction of the framework described in
//! *Optimizing Communication in Deep Reinforcement Learning with XingTian*
//! (Middleware '22). The design principles (paper §3.1):
//!
//! * **Decentralized computation** — no task graph, no central scheduler.
//!   Explorer and learner workhorse threads are driven purely by the arrival
//!   of the data they await, and publish what they produce immediately.
//! * **Asynchronous, aggressive communication** — the sender initiates every
//!   transfer the moment data exist (see [`xingtian_comm`]), hiding
//!   serialization, compression, and NIC transfer behind computation.
//!
//! The crate wires the communication channel to the algorithm zoo:
//!
//! * [`config`] — deployment description (machines, explorer placement,
//!   algorithm, goals);
//! * [`explorer`] / [`learner`] — the two workhorse processes. One learner
//!   process and one learner loop serve every shard count and both allreduce
//!   modes; peer shards only add an exchange discipline the loop advances —
//!   [`gossip`] (relaxed parameter deltas) or [`shard`] (lockstep rounds of
//!   fixed gradient slots, folded in slot order);
//! * [`deployment`] — the environment/algorithm/agent builders and the plain
//!   entry points [`Deployment::run`] / [`Deployment::run_with_telemetry`],
//!   which return a [`stats::RunReport`];
//! * [`dummy`] — the paper's dummy DRL algorithm (§5.1) for measuring raw
//!   data-transmission efficiency;
//! * [`pbt`] — population-based training on top of isolated broker sets
//!   (paper §4.3);
//! * [`checkpoint`] — periodic DNN checkpoints for fault tolerance (paper
//!   §4.2);
//! * [`supervisor`] — the one process graph: [`Deployment::run_supervised`]
//!   builds brokers and processes, is their center controller (it counts the
//!   statistics toward the goal and sends the one shutdown, paper §3.2.2),
//!   supervises them (heartbeat-driven failure detection, respawn, checkpoint
//!   restore, injected faults) and joins them.
//!   The plain entry points are this graph under
//!   [`SupervisionConfig::unsupervised`]: no heartbeats, hence zero budgets.
//!
//! # Examples
//!
//! Train PPO on CartPole with four explorers on one simulated machine:
//!
//! ```no_run
//! use xingtian::config::{AlgorithmSpec, DeploymentConfig};
//! use xingtian::deployment::Deployment;
//!
//! let config = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 4)
//!     .with_goal_steps(50_000);
//! let report = Deployment::run(config).expect("deployment runs");
//! println!("throughput: {:.0} steps/s", report.mean_throughput());
//! ```

pub mod assignment;
pub mod checkpoint;
pub mod config;
pub mod deployment;
pub mod dummy;
pub mod elastic;
pub mod explorer;
pub mod gossip;
pub mod learner;
pub mod messages;
pub mod parameters;
pub mod pbt;
pub mod shard;
pub mod stats;
pub mod supervisor;

pub use config::{AlgorithmSpec, DeploymentConfig};
pub use elastic::{ElasticConfig, ElasticController, ElasticDecision};
pub use deployment::Deployment;
pub use parameters::{EncodedBroadcast, IngestOutcome, ParamBroadcaster, ParamReceiver};
pub use stats::RunReport;
pub use supervisor::{RecoveryReport, SupervisionConfig};
