//! Helpers for turning rollout batches into training arrays.

use crate::payload::RolloutStep;
use tinynn::ops::row_stats;

/// Appends one log-probability per step to `out` — the allocation-free
/// staging path (no per-step matrices, one fused [`row_stats`] pass each).
///
/// # Panics
///
/// Panics if any step lacks behavior logits.
pub fn behavior_log_probs_into(steps: &[RolloutStep], out: &mut Vec<f32>) {
    out.reserve(steps.len());
    for s in steps {
        assert!(
            !s.behavior_logits.is_empty(),
            "behavior logits required (actor-critic rollouts record them)"
        );
        out.push(s.behavior_logits[s.action as usize] - row_stats(&s.behavior_logits).log_z());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(obs: Vec<f32>, action: u32, logits: Vec<f32>) -> RolloutStep {
        RolloutStep {
            observation: obs,
            action,
            reward: 0.0,
            done: false,
            behavior_logits: logits,
            value: 0.0,
            next_observation: None,
        }
    }

    #[test]
    fn behavior_log_probs_into_appends_the_log_softmax_of_the_taken_action() {
        let steps = vec![step(vec![0.0], 1, vec![1.0, 3.0]), step(vec![0.0], 0, vec![-0.5, 0.25])];
        let mut out = vec![7.0f32]; // pre-existing content is preserved
        behavior_log_probs_into(&steps, &mut out);
        assert_eq!(out[0], 7.0);
        // log softmax of [1, 3] at index 1 = -ln(1 + e^{-2}); of
        // [-0.5, 0.25] at index 0 = -ln(1 + e^{0.75}).
        assert!((out[1] + (1.0f32 + (-2.0f32).exp()).ln()).abs() < 1e-5);
        assert!((out[2] + (1.0f32 + 0.75f32.exp()).ln()).abs() < 1e-5);
    }
}
