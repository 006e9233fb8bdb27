//! Fault injection, failure detection, and recovery primitives (`xt-fault`).
//!
//! The paper argues (§4.2) that periodic DNN checkpoints give DRL "sufficient
//! fault tolerance … without significant overheads" — but exercising that
//! claim requires making things fail on purpose and noticing when they do.
//! This crate supplies the three layers the supervised deployment in
//! `xingtian::supervisor` is built from:
//!
//! * **Injection** ([`plan`], [`inject`]) — a seeded, deterministic
//!   [`FaultPlan`] of the four faults the chaos suite runs: machine
//!   partitions that [`netsim::Cluster`] executes on the virtual clock,
//!   per-route drop and (optionally windowed) delay rules the comm channel
//!   executes through its [`xingtian_comm::RouteInjector`] hook on producer
//!   and uplink threads, and kill switches that take processes down at a
//!   precise point ([`probe`]). The same seed always produces the same
//!   chaos, so chaos runs are reproducible and their regressions
//!   bisectable.
//! * **Detection** ([`detect`]) — a heartbeat-fed accrual failure detector.
//!   Each broker sends a monitor endpoint one
//!   [`xingtian_message::MessageKind::Heartbeat`] per interval listing its live
//!   endpoints (see `xingtian_comm::HeartbeatConfig`); the detector tracks
//!   the inter-arrival times of the pids it watches and declares one down
//!   when its silence exceeds an adaptive timeout, publishing
//!   [`xt_telemetry::EventKind::ProcessDown`]/[`ProcessUp`] events and
//!   counters. Its timeout rule, [`Accrual`], is also what tells an IMPALA
//!   explorer that the answers it waits for were lost.
//! * **Recovery support** ([`probe`]) — [`ProcessProbe`] kill switches that
//!   workhorse loops pulse; a triggered probe panics the process exactly the
//!   way an organic bug would, which is what the supervisor catches and
//!   recovers from.
//!
//! The crate deliberately contains *no* respawn logic: supervision needs the
//! deployment wiring (environments, agents, checkpoints) and therefore lives
//! in the core crate. `xt-fault` is mechanism and measurement.
//!
//! [`ProcessUp`]: xt_telemetry::EventKind::ProcessUp
//! [`FaultPlan`]: plan::FaultPlan
//! [`ProcessProbe`]: probe::ProcessProbe
//! [`Accrual`]: detect::Accrual

pub mod detect;
pub mod inject;
pub mod plan;
pub mod probe;

pub use detect::{Accrual, DetectorConfig, FailureDetector, Liveness, LivenessTransition};
pub use inject::PlanInjector;
pub use plan::{FaultPlan, KillSpec, KillTrigger, RouteRule};
pub use probe::ProcessProbe;
