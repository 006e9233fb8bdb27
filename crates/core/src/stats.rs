//! Run-level measurements: run reports over `xt-telemetry`'s throughput
//! timelines.

use std::collections::BTreeMap;
use std::time::Duration;
use xingtian_comm::TransmissionStats;
use xt_telemetry::{Histogram, ThroughputTimeline};

/// What the store-resident replay plane did over one run, summed over the
/// learner shards' replay services (`None` on the classic in-learner
/// placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Rollout batches the replay shards ingested.
    pub batches_ingested: u64,
    /// Transitions ingested (post eligibility filter).
    pub steps_ingested: u64,
    /// Transitions resident in the plane at shutdown.
    pub resident: usize,
    /// Arena slots whose write never completed — anything nonzero is a torn
    /// ingest.
    pub dangling_slots: usize,
}

/// Everything a deployment run produces for analysis.
#[derive(Debug)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Environment name.
    pub env: String,
    /// Rollout steps the learners consumed: every shard and incarnation, a
    /// killed one by the steps its `LearnerStats` reported.
    pub steps_consumed: u64,
    /// Environment steps the explorers reported taking, as the supervisor
    /// tallied their stats when the run ended (at the goal, the moment it
    /// was met): generated, against `steps_consumed`.
    pub steps_generated: u64,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Learner consumption timeline.
    pub timeline: ThroughputTimeline,
    /// Time the learner spent blocked waiting for rollouts before each
    /// training session ("actual wait", Figs. 8–10).
    pub learner_wait: TransmissionStats,
    /// Producer-to-learner transmission latency of rollout messages.
    pub rollout_latency: std::sync::Arc<TransmissionStats>,
    /// Policy lag of the rollouts the learner decoded: its parameter version
    /// at decode minus the version that generated the rollout. With sharded
    /// or restored learners, shard 0's last incarnation, like `timeline`.
    pub policy_lag: Histogram,
    /// Rollouts the learner decoded per source explorer (shard 0's last
    /// incarnation): an explorer missing here sent it nothing.
    pub rollouts_by_explorer: BTreeMap<u32, u64>,
    /// Returns of all completed episodes, from the explorers' own trackers:
    /// explorer slots in index order, each slot's incarnations oldest first.
    pub episode_returns: Vec<f32>,
    /// Training sessions completed.
    pub train_sessions: u64,
    /// Mean training-session compute time.
    pub mean_train_time: Duration,
    /// Final trained parameters (flat), for PBT weight inheritance. With
    /// sharded learners this is shard 0's parameters.
    pub final_params: Vec<f32>,
    /// Final parameters of every learner shard, in shard order (empty for the
    /// classic single-learner path). Under the sync allreduce all entries are
    /// bit-identical — the determinism tests assert on exactly this.
    pub learner_shard_params: Vec<Vec<f32>>,
    /// Store-resident replay plane measurements (`None` for in-learner
    /// replay and non-DQN algorithms).
    pub replay: Option<ReplayReport>,
    /// Messages the brokers dropped over the run (dead uplinks, shutdown
    /// sheds). The scale sweeps assert this stays 0 — a drop at 1K explorers
    /// means the fabric, not the workload, lost data.
    pub dropped_messages: u64,
}

impl RunReport {
    /// Mean learner throughput in rollout steps per second.
    pub fn mean_throughput(&self) -> f64 {
        if self.wall_time.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        self.steps_consumed as f64 / self.wall_time.as_secs_f64()
    }

    /// Mean return over the final `window` episodes (the paper's convergence
    /// metric), or `None` if no episode completed.
    pub fn final_return(&self, window: usize) -> Option<f32> {
        if self.episode_returns.is_empty() {
            return None;
        }
        let tail = &self.episode_returns[self.episode_returns.len().saturating_sub(window)..];
        Some(tail.iter().sum::<f32>() / tail.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_totals_and_series() {
        let mut t = ThroughputTimeline::new();
        t.record_at(0.5, 100);
        t.record_at(1.5, 300);
        t.record_at(1.9, 100);
        assert_eq!(t.total_steps(), 500);
        let series = t.series(1.0);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], (0.0, 100.0));
        assert_eq!(series[1], (1.0, 400.0));
    }

    #[test]
    fn empty_timeline_is_zero() {
        let t = ThroughputTimeline::new();
        assert_eq!(t.mean_throughput(), 0.0);
        assert!(t.series(1.0).is_empty());
    }

    #[test]
    fn final_return_windows() {
        let report = RunReport {
            algorithm: "PPO".into(),
            env: "CartPole".into(),
            steps_consumed: 0,
            steps_generated: 0,
            wall_time: Duration::from_secs(1),
            timeline: ThroughputTimeline::new(),
            learner_wait: TransmissionStats::new(),
            rollout_latency: std::sync::Arc::new(TransmissionStats::new()),
            policy_lag: Histogram::new(),
            rollouts_by_explorer: BTreeMap::new(),
            episode_returns: vec![1.0, 2.0, 3.0, 4.0],
            train_sessions: 0,
            mean_train_time: Duration::ZERO,
            final_params: Vec::new(),
            learner_shard_params: Vec::new(),
            replay: None,
            dropped_messages: 0,
        };
        assert_eq!(report.final_return(2), Some(3.5));
        assert_eq!(report.final_return(100), Some(2.5));
    }
}
