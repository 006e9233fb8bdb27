//! The center controller: statistics collection and goal-driven shutdown.
//!
//! The controller is algorithm-agnostic (paper §3.2.2): it watches the stats
//! stream from workhorse threads, and when the training goal is achieved —
//! the learner has consumed enough rollout steps, the wall-clock cap is hit,
//! or the deployment tells it to give up — it broadcasts a shutdown command
//! to every process and the deployment winds down.

use crate::messages::{ControlCommand, StatsMsg};
use bytes::Bytes;
use std::time::{Duration, Instant};
use xingtian_comm::Endpoint;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{MessageKind, ProcessId};

/// Configuration of the center controller.
pub struct ControllerProcess {
    /// Communication endpoint (`ProcessId::controller(0)`).
    pub endpoint: Endpoint,
    /// Stop once the learner reports this many consumed steps.
    pub goal_steps: u64,
    /// Stop after this much wall-clock time regardless of progress.
    pub max_duration: Duration,
    /// Explorer count (for the shutdown broadcast).
    pub num_explorers: u32,
    /// Learner-shard count (for the shutdown broadcast).
    pub num_learner_shards: u32,
}

/// What the controller reports when the run ends.
#[derive(Debug)]
pub struct ControllerOutcome {
    /// Steps the learner reported consuming.
    pub learner_steps: u64,
    /// Environment steps explorers reported taking.
    pub explorer_steps: u64,
    /// Episode returns collected from explorer stats, in arrival order.
    pub episode_returns: Vec<f32>,
    /// True if the run ended by reaching the step goal (false = deadline or
    /// an early shutdown).
    pub goal_reached: bool,
}

impl ControllerProcess {
    /// Runs the controller until the goal or deadline, then broadcasts
    /// shutdown.
    pub fn run(self) -> ControllerOutcome {
        let start = Instant::now();
        let mut learner_steps = 0u64;
        let mut explorer_steps = 0u64;
        let mut episode_returns = Vec::new();
        let goal_reached;

        loop {
            if learner_steps >= self.goal_steps {
                goal_reached = true;
                break;
            }
            if start.elapsed() >= self.max_duration {
                goal_reached = false;
                break;
            }
            let Some(msg) = self.endpoint.recv_timeout(Duration::from_millis(50)) else {
                continue;
            };
            // The deployment giving up on the run (a process it could not
            // replace died) ends it like the deadline does: broadcast below.
            if msg.header.kind == MessageKind::Control
                && matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            {
                goal_reached = false;
                break;
            }
            if msg.header.kind != MessageKind::Stats {
                continue;
            }
            let Ok(stats) = StatsMsg::from_bytes(&msg.body) else { continue };
            if stats.source == StatsMsg::LEARNER {
                learner_steps += stats.steps;
            } else {
                explorer_steps += stats.steps;
                episode_returns.extend_from_slice(&stats.episode_returns);
            }
        }

        // Broadcast shutdown to every learner shard and every explorer.
        let mut dst: Vec<ProcessId> = (0..self.num_explorers).map(ProcessId::explorer).collect();
        dst.extend((0..self.num_learner_shards.max(1)).map(ProcessId::learner));
        self.endpoint.send_to(dst, MessageKind::Control, Bytes::from(ControlCommand::Shutdown.to_bytes()));

        ControllerOutcome { learner_steps, explorer_steps, episode_returns, goal_reached }
    }
}
