//! Property-based tests of the RL math kernels and data structures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xingtian_algos::gae::{gae, normalize, GaeInput};
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::sumtree::SumTree;
use xingtian_algos::vtrace::{vtrace, VtraceInput};
use xingtian_algos::{ReplayConfig, ReplayPlane, SampleSink, StepSink};
use xt_telemetry::Telemetry;

/// `pushes` storable one-float transitions, one rollout batch each (so ring
/// wraparound happens across ingest calls as well as inside one).
fn ingest(plane: &ReplayPlane, pushes: usize) {
    for i in 0..pushes {
        let step = RolloutStep {
            observation: vec![i as f32],
            action: 0,
            reward: i as f32,
            done: true,
            behavior_logits: vec![],
            value: 0.0,
            next_observation: None,
        };
        let batch = RolloutBatch { explorer: 0, param_version: 0, steps: vec![step], bootstrap_observation: vec![] };
        assert_eq!(plane.ingest_batch(&batch), 1);
    }
}

/// Keeps a prioritized sample's importance weights.
#[derive(Default)]
struct Weights(Vec<f32>);

impl SampleSink for Weights {
    fn push_transition(&mut self, _o: &[f32], _n: Option<&[f32]>, _a: u32, _r: f32, _d: bool) {}
    fn push_weight(&mut self, weight: f32) {
        self.0.push(weight);
    }
}

fn segment() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<bool>, f32)> {
    (1usize..64).prop_flat_map(|n| {
        (
            proptest::collection::vec(-5.0f32..5.0, n),
            proptest::collection::vec(-5.0f32..5.0, n),
            proptest::collection::vec(any::<bool>(), n),
            -5.0f32..5.0,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vtrace_on_policy_equals_gae_lambda_one(
        (rewards, values, dones, boot) in segment(),
        gamma in 0.0f32..1.0,
    ) {
        // With π == µ and ρ̄ = c̄ = ∞, V-trace targets are the n-step returns,
        // which equal GAE(λ=1) advantages + values.
        let n = rewards.len();
        let logp = vec![-0.5f32; n];
        let vt = vtrace(&VtraceInput {
            behavior_log_probs: &logp,
            target_log_probs: &logp,
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: boot,
            gamma,
            rho_bar: f32::INFINITY,
            c_bar: f32::INFINITY,
        });
        let g = gae(&GaeInput {
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: boot,
            gamma,
            lambda: 1.0,
        });
        for (i, (adv, v)) in g.advantages.iter().zip(&values).enumerate() {
            let expect = adv + v;
            prop_assert!((vt.vs[i] - expect).abs() < 1e-3,
                "i={i}: vtrace {} vs gae {}", vt.vs[i], expect);
        }
    }

    #[test]
    fn vtrace_outputs_are_finite(
        (rewards, values, dones, boot) in segment(),
        gamma in 0.0f32..1.0,
        offpolicy in -2.0f32..2.0,
    ) {
        let n = rewards.len();
        let behavior = vec![-0.7f32; n];
        let target: Vec<f32> = behavior.iter().map(|b| b + offpolicy).collect();
        let vt = vtrace(&VtraceInput {
            behavior_log_probs: &behavior,
            target_log_probs: &target,
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: boot,
            gamma,
            rho_bar: 1.0,
            c_bar: 1.0,
        });
        prop_assert!(vt.vs.iter().all(|v| v.is_finite()));
        prop_assert!(vt.pg_advantages.iter().all(|a| a.is_finite()));
    }

    #[test]
    fn gae_is_zero_for_perfect_value_function(
        n in 1usize..32,
        gamma in 0.1f32..0.99,
        lambda in 0.0f32..1.0,
    ) {
        // If V exactly satisfies the Bellman identity for constant reward r,
        // every TD error is zero, so every advantage is zero.
        let r = 1.0f32;
        let v = r / (1.0 - gamma); // fixed point of V = r + γV
        let rewards = vec![r; n];
        let values = vec![v; n];
        let dones = vec![false; n];
        let out = gae(&GaeInput {
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: v,
            gamma,
            lambda,
        });
        for a in &out.advantages {
            prop_assert!(a.abs() < 1e-3, "advantage {a} should vanish");
        }
    }

    #[test]
    fn normalize_bounds_mean_and_std(mut v in proptest::collection::vec(-1e3f32..1e3, 2..128)) {
        normalize(&mut v);
        let n = v.len() as f32;
        let mean = v.iter().sum::<f32>() / n;
        prop_assert!(mean.abs() < 1e-2, "mean {mean}");
        prop_assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn replay_never_exceeds_capacity(capacity in 1usize..64, pushes in 0usize..256) {
        let b = ReplayPlane::new(ReplayConfig::uniform(capacity, 1), &Telemetry::disabled());
        ingest(&b, pushes);
        prop_assert_eq!(b.len(), pushes.min(capacity));
        prop_assert_eq!(b.total_inserted(), pushes as u64);
        prop_assert_eq!(b.integrity().dangling_slots, 0);
        // Exactly the newest `len` transitions are resident.
        if pushes > 0 {
            let mut steps = Vec::new();
            b.sample_uniform(32, &mut StdRng::seed_from_u64(0), &mut StepSink(&mut steps));
            prop_assert!(steps.iter().all(|s| s.reward >= (pushes - b.len()) as f32));
        }
    }

    #[test]
    fn prioritized_sampling_is_always_in_range(
        capacity in 1usize..64,
        pushes in 1usize..128,
        batch in 1usize..32,
    ) {
        let b = ReplayPlane::new(ReplayConfig::prioritized(capacity, 1, 0.6), &Telemetry::disabled());
        ingest(&b, pushes);
        let mut view = Weights::default();
        let mut picks = Vec::new();
        b.sample_prioritized(batch, 0.4, &mut StdRng::seed_from_u64(0), &mut view, &mut picks);
        prop_assert_eq!((picks.len(), view.0.len()), (batch, batch));
        for (pick, weight) in picks.iter().zip(&view.0) {
            prop_assert!(pick.slot < b.len());
            prop_assert!((0.0..=1.0 + 1e-6).contains(weight));
            prop_assert!(pick.seq < pushes as u64);
        }
    }

    #[test]
    fn sum_tree_total_matches_leaf_sum(
        updates in proptest::collection::vec((0usize..32, 0.0f64..100.0), 1..64),
    ) {
        let mut t = SumTree::new(32);
        let mut leaves = vec![0.0f64; t.capacity()];
        for (i, p) in updates {
            t.set(i, p);
            leaves[i] = p;
        }
        let sum: f64 = leaves.iter().sum();
        prop_assert!((t.total() - sum).abs() < 1e-6);
        // Every sampled mass maps to a leaf with positive priority.
        if sum > 0.0 {
            for k in 0..16 {
                let mass = sum * (k as f64 + 0.5) / 16.0;
                let leaf = t.find(mass);
                prop_assert!(leaves[leaf] > 0.0, "found empty leaf {leaf}");
            }
        }
    }
}
