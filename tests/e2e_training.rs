//! End-to-end training runs across the full stack: environments → agents →
//! the asynchronous channel → the learner → parameter broadcast, driven by
//! the controller to a step goal.

use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::explorer::MAX_INFLIGHT_BATCHES;
use xingtian::Deployment;

/// Mean CartPole return of a uniform-random policy (measured ≈ 20-25).
const RANDOM_BASELINE: f32 = 25.0;

fn finish(config: DeploymentConfig) -> xingtian::RunReport {
    Deployment::run(config).expect("deployment should run to completion")
}

#[test]
fn impala_learns_cartpole_end_to_end() {
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
            .with_rollout_len(100)
            .with_goal_steps(40_000)
            .with_max_seconds(120.0),
    );
    assert!(report.steps_consumed >= 40_000);
    assert!(report.train_sessions >= 100);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "IMPALA should beat random play, got {ret}");
}

#[test]
fn ppo_learns_cartpole_end_to_end() {
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 4)
            .with_rollout_len(100)
            .with_goal_steps(40_000)
            .with_max_seconds(180.0),
    );
    assert!(report.steps_consumed >= 40_000);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "PPO should beat random play, got {ret}");
}

/// DQN's goals: the explorer waits on the learner's answers, so it steps the
/// environment about once per consumed row ÷ 8 (32 rows per session, one
/// session per 4 inserts). 60 000 rows is ≈ 7 500 environment steps, past
/// the 4 000-step exploration decay.
const DQN_GOAL: u64 = 60_000;

#[test]
fn dqn_learns_cartpole_end_to_end() {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 1)
        .with_rollout_len(4)
        .with_goal_steps(DQN_GOAL)
        .with_max_seconds(180.0);
    if let AlgorithmSpec::Dqn(c) = &mut config.algorithm {
        c.warmup_steps = 500;
        c.buffer_capacity = 50_000;
        c.epsilon_decay_steps = 4_000;
    }
    let report = finish(config);
    assert!(report.steps_consumed >= DQN_GOAL);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "DQN should beat random play, got {ret}");
}

#[test]
fn a2c_learns_cartpole_end_to_end() {
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::a2c(), 4)
            .with_rollout_len(100)
            .with_goal_steps(40_000)
            .with_max_seconds(180.0),
    );
    assert!(report.steps_consumed >= 40_000);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "A2C should beat random play, got {ret}");
}

#[test]
fn reinforce_learns_cartpole_end_to_end() {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::reinforce(), 2)
        .with_rollout_len(100)
        .with_goal_steps(30_000)
        .with_max_seconds(180.0);
    if let AlgorithmSpec::Reinforce(c) = &mut config.algorithm {
        c.episodes_per_train = 4;
        c.lr = 3e-3;
    }
    let report = finish(config);
    assert!(report.steps_consumed >= 30_000);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "REINFORCE should beat random play, got {ret}");
}

#[test]
fn double_dqn_with_prioritized_replay_learns_cartpole() {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 1)
        .with_rollout_len(4)
        .with_goal_steps(DQN_GOAL)
        .with_max_seconds(180.0);
    if let AlgorithmSpec::Dqn(c) = &mut config.algorithm {
        c.double = true;
        c.prioritized = Some((0.6, 0.4));
        c.warmup_steps = 500;
        c.buffer_capacity = 50_000;
        c.epsilon_decay_steps = 4_000;
    }
    let report = finish(config);
    assert!(report.steps_consumed >= DQN_GOAL);
    let ret = report.final_return(100).expect("episodes completed");
    assert!(ret > RANDOM_BASELINE, "DDQN+PER should beat random play, got {ret}");
}

#[test]
fn on_policy_learner_waits_are_recorded() {
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 2)
            .with_rollout_len(50)
            .with_goal_steps(2_000)
            .with_max_seconds(60.0),
    );
    // Every PPO training session records a wait sample and rollout messages
    // record their transmission latency.
    assert!(report.learner_wait.len() as u64 >= report.train_sessions);
    assert!(!report.rollout_latency.is_empty());
    assert!(report.mean_train_time.as_nanos() > 0);
}

/// Store-resident replay with many explorers: each answer the learner passes
/// on lets an explorer send another rollout, which the shard ingests and
/// answers back, so the learner's inbox may never empty. Its drain counts
/// those answers against the per-pass bound, so it still trains, and the run
/// reaches its goal long before the deadline.
#[test]
fn store_resident_replay_trains_under_32_explorers() {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 32)
        .with_rollout_len(4)
        .with_step_latency_us(0)
        .with_goal_steps(20_000)
        .with_max_seconds(60.0)
        .with_store_resident_replay();
    if let AlgorithmSpec::Dqn(c) = &mut config.algorithm {
        c.hidden = vec![32];
        c.warmup_steps = 500;
    }
    let report = finish(config);
    assert!(report.steps_consumed >= 20_000, "consumed {}", report.steps_consumed);
    assert!(report.wall_time.as_secs_f64() < 30.0, "took {:?}", report.wall_time);
}

/// An on-policy explorer is released by the learner's answer alone, so the
/// parameters broadcast ahead of that answer must reach it first on a
/// sharded router too. Otherwise it generates its next rollout with the old
/// parameters, and PPO discards it as stale: every rollout decoded here is
/// generated by the learner's current parameters.
#[test]
fn on_policy_rollouts_are_fresh_on_a_sharded_router() {
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 2)
            .with_router_shards(2)
            .with_rollout_len(50)
            .with_goal_steps(5_000)
            .with_max_seconds(60.0),
    );
    assert!(report.steps_consumed >= 5_000);
    assert!(!report.policy_lag.is_empty());
    assert_eq!(report.policy_lag.max(), 0, "a rollout was generated with stale parameters");
}

/// IMPALA explorers generate only what the learner trains on. Four unpaced
/// explorers outrun one learner here; each may have `MAX_INFLIGHT_BATCHES`
/// rollouts the learner has not answered, so that is all the generated steps
/// may exceed the consumed ones by.
///
/// The bound is on the goal, not on `steps_consumed`: `steps_generated` is
/// the controller's tally at the moment the learner reached the goal, and
/// the learner goes on to train whatever is queued ahead of its shutdown.
/// Explorers paced only by the store's capacity gate generate 1.5–3.3 times
/// this goal in an optimised build, and the
/// learner trains on all of it before it reads the shutdown, so
/// `steps_consumed` keeps up.
#[test]
fn impala_explorers_generate_no_more_than_the_learner_consumes() {
    const EXPLORERS: u64 = 4;
    const ROLLOUT_LEN: u64 = 25;
    const GOAL: u64 = 20_000;
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::impala(), EXPLORERS as u32)
            .with_rollout_len(ROLLOUT_LEN as usize)
            .with_step_latency_us(0)
            .with_goal_steps(GOAL)
            .with_max_seconds(60.0),
    );
    assert!(report.steps_consumed >= GOAL);
    let slack = EXPLORERS * MAX_INFLIGHT_BATCHES as u64 * ROLLOUT_LEN;
    assert!(
        report.steps_generated <= GOAL + slack,
        "generated {} steps for a {GOAL}-step goal (allowed {slack} more; {} consumed by shutdown)",
        report.steps_generated,
        report.steps_consumed
    );
}

#[test]
fn checkpoints_are_written_and_restorable() {
    use xingtian::checkpoint::{load_latest, CheckpointConfig};
    let dir = std::env::temp_dir().join(format!("xt-e2e-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
        .with_rollout_len(50)
        .with_goal_steps(3_000)
        .with_max_seconds(60.0)
        .with_checkpoint(CheckpointConfig::new(&dir, 5));
    let report = finish(config);
    let blob = load_latest(&dir).expect("a checkpoint was written");
    assert!(blob.version > 0);
    assert_eq!(blob.params.len(), report.final_params.len());

    // Restoring the checkpoint into a fresh deployment must work end to end.
    let mut restore = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
        .with_rollout_len(50)
        .with_goal_steps(500)
        .with_max_seconds(60.0);
    restore.initial_params = Some(blob.params);
    let restored = finish(restore);
    assert!(restored.steps_consumed >= 500);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deployment_respects_wall_clock_cap() {
    // An unreachable goal must still terminate via the deadline.
    let report = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::impala(), 1)
            .with_rollout_len(50)
            .with_goal_steps(u64::MAX / 2)
            .with_max_seconds(3.0),
    );
    assert!(report.wall_time.as_secs_f64() < 30.0, "deadline enforced");
}

#[test]
fn warm_start_carries_learning_forward() {
    // Train a first stage, then a second stage seeded with its weights; the
    // second stage must start from trained behavior (PBT's weight
    // inheritance, paper §4.3).
    let first = finish(
        DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
            .with_rollout_len(100)
            .with_goal_steps(40_000)
            .with_max_seconds(120.0),
    );
    let first_return = first.final_return(100).unwrap();
    let mut second_config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
        .with_rollout_len(100)
        .with_goal_steps(4_000)
        .with_max_seconds(60.0)
        .with_seed(99);
    second_config.initial_params = Some(first.final_params);
    let second = finish(second_config);
    let early_return = second.final_return(1000).unwrap();
    assert!(
        early_return > RANDOM_BASELINE.min(first_return * 0.3),
        "warm-started run should act trained from the start: {early_return} (stage 1 ended at {first_return})"
    );
}
