//! Episode-return statistics.
//!
//! The paper measures convergence as "the average episode return received by
//! the explorers after the learner trains the DNNs consuming a certain number
//! of rollout steps" (§5.2.1). [`EpisodeTracker`] accumulates the per-episode
//! returns that metric averages.

/// Accumulates episode returns.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTracker {
    returns: Vec<f32>,
    current_return: f32,
    total_steps: u64,
}

impl EpisodeTracker {
    /// Records one environment step of the in-progress episode.
    pub fn record_step(&mut self, reward: f32, done: bool) {
        self.current_return += reward;
        self.total_steps += 1;
        if done {
            self.returns.push(self.current_return);
            self.current_return = 0.0;
        }
    }

    /// Number of completed episodes.
    pub fn episodes(&self) -> usize {
        self.returns.len()
    }

    /// Total environment steps recorded (including the in-progress episode).
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// All completed episode returns, in order.
    pub fn returns(&self) -> &[f32] {
        &self.returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_episode_not_counted() {
        let mut t = EpisodeTracker::default();
        t.record_step(1.0, false);
        t.record_step(1.0, false);
        assert_eq!(t.episodes(), 0);
        assert_eq!(t.total_steps(), 2);
        t.record_step(1.0, true);
        assert_eq!(t.returns(), &[3.0]);
        t.record_step(5.0, true);
        assert_eq!(t.returns(), &[3.0, 5.0]);
        assert_eq!(t.episodes(), 2);
    }
}
