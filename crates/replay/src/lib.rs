//! Store-resident replay plane (xt-replay).
//!
//! XingTian's learner owns its replay buffer: every rollout message is fetched
//! from the object store, decoded, and re-inserted into a buffer inside the
//! trainer thread before a single transition can be sampled (paper §3.2.1).
//! That fetch → decode → re-insert stage is pure data motion — the bytes were
//! already resident on the learner's machine, inside the communication
//! layer's sharded object store.
//!
//! This crate moves replay's *ingest* into the communication layer. The
//! store itself — [`xingtian_algos::ReplayPlane`], the same SoA arenas, ring
//! and sum tree an in-learner DQN owns privately — is shared between a shard
//! service beside the object store and the learner:
//!
//! * [`run_replay_service`] ingests each rollout batch **once**, straight
//!   off the wire (decoded with the same recycled-buffer
//!   [`xingtian_algos::BatchDecoder`] the learner uses), and answers each to
//!   the learner, which wakes and passes the answer on to the explorer;
//! * the learner's DQN samples the shared plane directly — a single copy
//!   from arena slots into its training buffers.

pub mod service;

pub use service::{run_replay_service, ReplayOutcome};
