//! Multi-learner sharded training: the determinism and equivalence contracts.
//!
//! The sync allreduce's core promise is PR 4's bitwise-determinism story
//! extended across shard counts: the same seed and the same round data must
//! produce bit-identical parameters whether 1, 2, or 4 shards split the
//! work. That is proven here at the harness level — the learner loop's own
//! lockstep round (`Lockstep` + DQN) driven over real broker endpoints with
//! controlled slot data, in the style of `tests/param_plane.rs` — because an end-to-end
//! deployment cannot hold replay contents constant across shard counts
//! (each shard owns a different explorer slice). What a deployment *can*
//! promise is that all shards of one sync run agree bitwise at exit, and
//! that the opt-in relaxed mode stays in the same reward band as the classic
//! single learner.

use netsim::Cluster;
use std::time::Duration;
use xingtian::config::{AllreduceMode, AlgorithmSpec, DeploymentConfig};
use xingtian::shard::Lockstep;
use xingtian::Deployment;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::RolloutStep;
use xingtian_algos::{DqnAlgorithm, DqnConfig};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::{MessageKind, ProcessId};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 6;
const N_ACTIONS: usize = 3;
const BATCH: usize = 16;
const ROUNDS: u64 = 12;

/// Deterministic pseudo-random vector (xorshift; no RNG crate state shared
/// with the algorithm under test).
fn seeded(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// The controlled slot minibatch for (round, slot): identical for every
/// shard count, which is exactly what a deployment cannot guarantee and a
/// determinism proof must.
fn slot_steps(round: u64, slot: usize) -> Vec<RolloutStep> {
    (0..BATCH)
        .map(|row| {
            let tag = round * 1_000 + slot as u64 * 100 + row as u64;
            RolloutStep {
                observation: seeded(OBS_DIM, tag * 2 + 1),
                action: (tag % N_ACTIONS as u64) as u32,
                reward: (tag % 7) as f32 - 3.0,
                done: tag.is_multiple_of(11),
                behavior_logits: Vec::new(),
                value: 0.0,
                next_observation: Some(seeded(OBS_DIM, tag * 2 + 2)),
            }
        })
        .collect()
}

fn shard_algorithm() -> DqnAlgorithm {
    let mut c = DqnConfig::new(OBS_DIM, N_ACTIONS);
    c.batch_size = BATCH;
    c.seed = 23;
    DqnAlgorithm::new(c)
}

/// Runs `ROUNDS` sync-allreduce rounds across `shards` learner replicas over
/// real broker endpoints — the rounds a deployment's learner loop runs
/// (`Lockstep::open_round` / `close_round`), graded on the controlled slot
/// data instead of sampled slots — and returns every replica's final
/// parameters.
fn run_sync_harness(shards: u32) -> Vec<Vec<f32>> {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let eps: Vec<_> = (0..shards).map(|s| broker.endpoint(ProcessId::learner(s))).collect();
    let mut algs: Vec<DqnAlgorithm> = (0..shards).map(|_| shard_algorithm()).collect();
    let mut rings: Vec<Lockstep> = (0..shards)
        .map(|s| Lockstep::new(s, shards, BATCH, 0, &Telemetry::disabled()))
        .collect();

    for round in 0..ROUNDS {
        for s in 0..shards as usize {
            let alg = &mut algs[s];
            rings[s].open_round(&eps[s], |slot, rows, grad| {
                alg.grad_on_steps(&slot_steps(round, slot), rows, grad)
            });
        }
        for s in 0..shards as usize {
            while rings[s].close_round(&mut algs[s]).is_none() {
                let msg = eps[s]
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("shard {s} starved in round {round}"));
                assert_eq!(msg.header.kind, MessageKind::Gradient);
                rings[s].on_gradient(&msg, &eps[s], &algs[s]);
            }
        }
    }
    let params: Vec<Vec<f32>> = algs.iter().map(|a| a.param_blob().params).collect();
    drop(eps);
    broker.shutdown();
    params
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// The tentpole determinism contract: the same seed and the same round data
/// yield bit-identical parameters for 1, 2, and 4 shards, and every shard of
/// one run agrees with every other.
#[test]
fn sync_allreduce_is_bit_identical_across_1_2_4_shards() {
    let mut reference: Option<Vec<u32>> = None;
    for shards in [1u32, 2, 4] {
        let all = run_sync_harness(shards);
        assert_eq!(all.len(), shards as usize);
        for (s, params) in all.iter().enumerate() {
            assert!(!params.is_empty());
            assert_eq!(
                bits(params),
                bits(&all[0]),
                "shard {s} of {shards} diverged from shard 0"
            );
        }
        match &reference {
            None => reference = Some(bits(&all[0])),
            Some(r) => assert_eq!(&bits(&all[0]), r, "{shards} shards diverged from 1 shard"),
        }
    }
}

fn sharded_dqn(shards: usize, mode: AllreduceMode) -> DeploymentConfig {
    let mut c = DqnConfig::new(0, 0); // dimensions filled in at deployment
    c.buffer_capacity = 8_192;
    c.warmup_steps = 200;
    c.train_every_inserts = 8;
    c.batch_size = 32;
    DeploymentConfig::cartpole(AlgorithmSpec::Dqn(c), 4)
        .with_rollout_len(25)
        .with_goal_steps(2_000)
        .with_max_seconds(60.0)
        .with_seed(29)
        .with_learner_shards(shards)
        .with_allreduce(mode)
}

/// End-to-end sync run: both shards train real rollout data and exit with
/// bit-identical parameters — the symmetric shutdown drain means a round
/// either closes on every shard or on none.
#[test]
fn deployment_sync_shards_agree_bitwise_at_exit() {
    let report = Deployment::run(sharded_dqn(2, AllreduceMode::Sync))
        .expect("2-shard sync deployment runs");
    assert!(report.steps_consumed >= 2_000, "consumed {}", report.steps_consumed);
    assert!(report.train_sessions > 0);
    assert_eq!(report.learner_shard_params.len(), 2);
    let [a, b] = &report.learner_shard_params[..] else { unreachable!() };
    assert!(!a.is_empty());
    assert_eq!(bits(a), bits(b), "sync shards must exit bit-identical");
}

/// A lockstep shard is the only drain of the rollouts addressed to it, so it
/// must never wait at the data-lane gate to hand its gradient to the ring.
/// With a store that a few rollouts fill and one-message receive buffers, so
/// explorers park in `send`, a two-shard sync run still closes its rounds and
/// exits; a wedged run is reported, not waited out.
#[test]
fn lockstep_rounds_close_when_rollouts_fill_the_store() {
    let mut config = sharded_dqn(2, AllreduceMode::Sync).with_max_seconds(30.0).with_store_capacity(8 << 10);
    config.comm.endpoint_recv_bytes = Some(1);
    let (done_tx, done) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done_tx.send(Deployment::run(config).expect("2-shard sync deployment runs"));
    });
    let report = done
        .recv_timeout(Duration::from_secs(60))
        .expect("the run wedged: a shard is parked at the gate with its own rollouts");
    runner.join().expect("the deployment thread");
    assert!(report.steps_consumed >= 2_000, "consumed {}", report.steps_consumed);
    assert!(report.wall_time < Duration::from_secs(20), "took {:?}", report.wall_time);
    assert_eq!(report.dropped_messages, 0);
    let [a, b] = &report.learner_shard_params[..] else { panic!("two shards") };
    assert_eq!(bits(a), bits(b), "sync shards must exit bit-identical");
}

fn mean(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "run produced no complete episodes");
    xs.iter().sum::<f32>() / xs.len() as f32
}

fn assert_in_band(tag: &str, sharded: &[f32], baseline: &[f32]) {
    let ratio = mean(sharded) / mean(baseline);
    assert!(
        (0.5..=2.0).contains(&ratio),
        "{tag}: relaxed sharding changed learning: {:.1} vs {:.1}",
        mean(sharded),
        mean(baseline)
    );
}

/// Relaxed mode trades determinism for throughput, not for learning: a
/// 2-shard relaxed DQN run lands in the same reward band as the classic
/// single learner under the same seed.
#[test]
fn relaxed_dqn_matches_single_learner_reward_band() {
    let baseline =
        Deployment::run(sharded_dqn(1, AllreduceMode::Sync)).expect("classic deployment runs");
    let sharded = Deployment::run(sharded_dqn(2, AllreduceMode::Relaxed))
        .expect("relaxed sharded deployment runs");
    assert!(baseline.steps_consumed >= 2_000);
    assert!(sharded.steps_consumed >= 2_000);
    assert!(sharded.train_sessions > 0);
    assert_eq!(sharded.learner_shard_params.len(), 2);
    assert_in_band("dqn", &sharded.episode_returns, &baseline.episode_returns);
}

fn sharded_ppo(shards: usize) -> DeploymentConfig {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 4)
        .with_rollout_len(50)
        .with_goal_steps(2_000)
        .with_max_seconds(60.0)
        .with_seed(31)
        .with_learner_shards(shards);
    if shards > 1 {
        config = config.with_allreduce(AllreduceMode::Relaxed);
    }
    config
}

/// On-policy algorithms shard too (relaxed mode only): each PPO shard's
/// batch gate spans just its owned explorers, and the delta gossip keeps the
/// replicas close enough that learning stays in the classic band.
#[test]
fn relaxed_ppo_matches_single_learner_reward_band() {
    let baseline = Deployment::run(sharded_ppo(1)).expect("classic PPO deployment runs");
    let sharded = Deployment::run(sharded_ppo(2)).expect("relaxed sharded PPO runs");
    assert!(baseline.steps_consumed >= 2_000);
    assert!(sharded.steps_consumed >= 2_000, "consumed {}", sharded.steps_consumed);
    assert!(sharded.train_sessions > 0);
    assert_in_band("ppo", &sharded.episode_returns, &baseline.episode_returns);
}
