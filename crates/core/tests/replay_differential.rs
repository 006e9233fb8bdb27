//! Differential proof that replay *placement* changes who calls ingest but
//! not what gets trained: a DQN that ingests into its private store from
//! `on_rollout` (the paper's in-learner placement) and a DQN that only samples
//! a shared store a replay service ingests into (store-resident) must, fed
//! the identical seeded rollout stream, produce bit-identical losses,
//! versions, and final parameters.
//!
//! Both placements run the one `ReplayPlane`; what this holds fixed is that
//! nothing about DQN depends on which thread fed it, or on whether the batch
//! crossed the wire codec first.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::Deployment;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{BatchDecoder, RolloutBatch, RolloutStep};
use xingtian_algos::{DqnAlgorithm, DqnConfig, ReplayConfig, ReplayPlane};
use xingtian_message::codec::Encode;

const OBS_DIM: usize = 4;
const NUM_ACTIONS: usize = 3;

/// Deterministic rollout batch: every field seeded, next observations always
/// present (DQN's eligibility filter keeps full transitions only).
fn make_batch(rng: &mut StdRng, explorer: u32, steps: usize) -> RolloutBatch {
    let steps = (0..steps)
        .map(|_| {
            let observation: Vec<f32> = (0..OBS_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let next: Vec<f32> = (0..OBS_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            RolloutStep {
                observation,
                action: rng.gen_range(0..NUM_ACTIONS as u32),
                reward: rng.gen_range(-1.0..1.0),
                done: rng.gen_bool(0.08),
                behavior_logits: Vec::new(),
                value: 0.0,
                next_observation: Some(next),
            }
        })
        .collect();
    RolloutBatch { explorer, param_version: 0, steps, bootstrap_observation: vec![0.0; OBS_DIM] }
}

fn small_config(prioritized: Option<(f64, f64)>) -> DqnConfig {
    let mut c = DqnConfig::new(OBS_DIM, NUM_ACTIONS);
    c.hidden = vec![16];
    c.buffer_capacity = 256; // 12 batches x 64 steps = 768 inserts: 2 wraparounds
    c.warmup_steps = 64;
    c.train_every_inserts = 16;
    c.batch_size = 16;
    c.target_sync_every = 5;
    c.broadcast_every = 3;
    c.prioritized = prioritized;
    c.seed = 42;
    c
}

/// Feeds the identical seeded stream to both placements, training in
/// lockstep, and asserts bitwise-identical trajectories.
fn assert_placements_identical(prioritized: Option<(f64, f64)>) {
    let config = small_config(prioritized);
    let mut in_learner = DqnAlgorithm::new(config.clone());

    let telemetry = xt_telemetry::Telemetry::disabled();
    let rc = match prioritized {
        Some((alpha, _)) => ReplayConfig::prioritized(config.buffer_capacity, OBS_DIM, alpha),
        None => ReplayConfig::uniform(config.buffer_capacity, OBS_DIM),
    };
    let plane = Arc::new(ReplayPlane::new(rc, &telemetry));
    let mut store = DqnAlgorithm::with_plane(config, plane.clone());
    let mut decoder = BatchDecoder::new();

    let mut stream = StdRng::seed_from_u64(7);
    let mut sessions = 0u32;
    for round in 0..12 {
        let batch = make_batch(&mut stream, round % 2, 64);
        // Store-resident: the service decodes the batch off the wire, ingests
        // it into the shared plane and recycles it; the learner never sees it.
        let decoded = decoder.decode(&batch.to_bytes()).expect("round trip");
        assert_eq!(plane.ingest_batch(&decoded), 64);
        decoder.recycle(decoded);
        // In-learner: the learner thread ingests.
        in_learner.on_rollout(batch);
        loop {
            let a = in_learner.try_train();
            let b = store.try_train();
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "round {round}: placements disagree on training readiness"
            );
            let (Some(a), Some(b)) = (a, b) else { break };
            sessions += 1;
            assert_eq!(a.steps_consumed, b.steps_consumed);
            assert_eq!(a.version, b.version);
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "round {round} session {sessions}: losses diverge ({} vs {})",
                a.loss,
                b.loss
            );
            assert_eq!(a.notify, b.notify);
        }
        // Recycle spent batches like the learner loop does.
        assert!(in_learner.take_spent().is_some(), "in-learner ingest hands the batch back");
        assert!(store.take_spent().is_none(), "the sampling-only learner holds no batches");
    }
    assert!(sessions > 20, "expected a real training run, got {sessions} sessions");
    assert_eq!(plane.integrity().dangling_slots, 0);

    let pa = in_learner.param_blob();
    let pb = store.param_blob();
    assert_eq!(pa.version, pb.version);
    assert_eq!(pa.params.len(), pb.params.len());
    for (i, (x, y)) in pa.params.iter().zip(&pb.params).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "parameter {i} diverges: {x} vs {y}");
    }
}

#[test]
fn uniform_dqn_is_trajectory_identical_across_placements() {
    assert_placements_identical(None);
}

#[test]
fn prioritized_dqn_is_trajectory_identical_across_placements() {
    assert_placements_identical(Some((0.6, 0.4)));
}

#[test]
fn store_resident_deployment_trains_end_to_end() {
    let mut c = DqnConfig::new(0, 0); // dimensions filled in at deployment
    c.buffer_capacity = 8_192;
    c.warmup_steps = 400;
    c.train_every_inserts = 8;
    c.batch_size = 32;
    let config = DeploymentConfig::cartpole(AlgorithmSpec::Dqn(c), 2)
        .with_rollout_len(50)
        .with_goal_steps(2_000)
        .with_max_seconds(30.0)
        .with_seed(3)
        .with_store_resident_replay();
    let report = Deployment::run(config).expect("store-resident deployment runs");
    let replay = report.replay.expect("store-resident run must report replay measurements");
    assert!(replay.batches_ingested > 0, "the shard service ingested nothing");
    assert!(replay.steps_ingested > 0);
    assert!(replay.resident > 0);
    assert_eq!(replay.dangling_slots, 0, "torn ingest left dangling arena slots");
    assert!(report.steps_consumed >= 2_000, "goal not reached: {}", report.steps_consumed);
    assert!(report.train_sessions > 0);
}

#[test]
fn in_learner_deployment_reports_no_replay_plane() {
    let config = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 1)
        .with_rollout_len(50)
        .with_goal_steps(500)
        .with_max_seconds(30.0);
    let report = Deployment::run(config).expect("classic deployment runs");
    assert!(report.replay.is_none());
}
