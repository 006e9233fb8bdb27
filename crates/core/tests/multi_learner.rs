//! Multi-learner sharded training: the determinism and equivalence contracts.
//!
//! The sync allreduce's core promise is the bitwise-determinism story
//! extended across shard counts: the same seed and the same round data must
//! produce bit-identical parameters whether 1, 2, or 4 shards split the
//! work. That is proven here at the harness level — the learner loop's own
//! lockstep round (`Lockstep` + DQN, A2C or IMPALA) driven over real broker
//! endpoints with controlled slot data, in the style of
//! `tests/param_plane.rs` — because an end-to-end deployment cannot hold
//! replay contents or arrival order constant across shard counts (each shard
//! owns a different explorer slice). What a deployment *can*
//! promise is that all shards of one sync run agree bitwise at exit, and
//! that the opt-in relaxed mode stays in the same reward band as the classic
//! single learner.

use bytes::Bytes;
use netsim::Cluster;
use std::ops::Range;
use std::time::Duration;
use xingtian::config::{AllreduceMode, AlgorithmSpec, DeploymentConfig};
use xingtian::shard::{Lockstep, GRAD_SLOTS, HELLO};
use xingtian::stats::RunReport;
use xingtian::supervisor::{RecoveryReport, SupervisionConfig};
use xingtian::Deployment;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{
    A2cAlgorithm, A2cConfig, DqnAlgorithm, DqnConfig, GradBlob, ImpalaAlgorithm, ImpalaConfig, LearnerState,
};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{MessageKind, ProcessId};
use xt_fault::FaultPlan;
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

/// Explorers of the A2C harness: two per slot (`e · 4 / 8`).
const EXPLORERS: u32 = 8;

/// The controlled actor-critic rollout of `explorer` for `round`.
fn rollout(round: u64, explorer: u32, param_version: u64) -> RolloutBatch {
    let steps = slot_steps(round, explorer as usize)
        .into_iter()
        .map(|s| RolloutStep {
            behavior_logits: s.observation[..N_ACTIONS].to_vec(),
            value: s.reward * 0.1,
            next_observation: None,
            ..s
        })
        .collect();
    RolloutBatch { explorer, param_version, steps, bootstrap_observation: seeded(OBS_DIM, round + 7) }
}

/// A replica replaced mid-run: before round `round`, shard `shard`'s replica
/// is dropped, and a fresh build loads the state shard `from` saves then —
/// its own (a restore) or a peer's (a rejoin).
#[derive(Debug, Clone, Copy)]
struct Restore {
    round: u64,
    shard: usize,
    from: usize,
}

/// Runs `ROUNDS` sync-allreduce rounds across `shards` learner replicas over
/// real broker endpoints — the rounds a deployment's learner loop runs
/// (`Lockstep::open_round` / `close_round`) — and returns every replica's
/// final parameters. `stage(replica, round, local)` hands a shard the data of
/// its slots; `grade(replica, round, slot, out)` computes a slot gradient.
fn run_sync_harness<A: Algorithm>(
    shards: u32,
    restore: Option<Restore>,
    build: impl Fn() -> A,
    stage: impl Fn(&mut A, u64, Range<usize>),
    grade: impl Fn(&mut A, u64, usize, &mut Vec<f32>) -> f32,
) -> Vec<Vec<f32>> {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let eps: Vec<_> = (0..shards).map(|s| broker.endpoint(ProcessId::learner(s))).collect();
    let mut algs: Vec<A> = (0..shards).map(|_| build()).collect();
    let mut rings: Vec<Lockstep> = (0..shards).map(|s| Lockstep::new(s, shards, 0, &Telemetry::disabled())).collect();

    for round in 0..ROUNDS {
        if let Some(Restore { shard, from, .. }) = restore.filter(|r| r.round == round) {
            let state = LearnerState::from_bytes(&algs[from].save_state().to_bytes()).expect("a state decodes");
            algs[shard] = build();
            algs[shard].load_state(&state).expect("a replica's state loads into a fresh one");
        }
        for s in 0..shards as usize {
            let alg = &mut algs[s];
            stage(alg, round, rings[s].local_slots());
            rings[s].open_round(&eps[s], |slot, grad| grade(alg, round, slot, grad));
        }
        for s in 0..shards as usize {
            while rings[s].close_round(&mut algs[s]).is_none() {
                let msg = eps[s]
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("shard {s} starved in round {round}"));
                assert_eq!(msg.header.kind, MessageKind::Gradient);
                rings[s].on_gradient(&msg, &eps[s], &algs[s]);
            }
            while algs[s].take_spent().is_some() {}
        }
    }
    let params: Vec<Vec<f32>> = algs.iter().map(|a| a.param_blob().params).collect();
    drop(eps);
    broker.shutdown();
    params
}

/// DQN graded on the controlled slot minibatch instead of sampled slots.
fn dqn_harness(shards: u32, restore: Option<Restore>) -> Vec<Vec<f32>> {
    run_sync_harness(
        shards,
        restore,
        shard_algorithm,
        |_, _, _| {},
        |alg, round, slot, grad| alg.grad_on_steps(&slot_steps(round, slot), BATCH * GRAD_SLOTS, grad),
    )
}

/// A2C over eight explorers: a shard receives the rollouts of the explorers
/// of its slots, latest explorer first, and grades through the round surface.
fn a2c_harness(shards: u32, restore: Option<Restore>) -> Vec<Vec<f32>> {
    let build = || {
        let mut c = A2cConfig::new(OBS_DIM, N_ACTIONS);
        (c.num_explorers, c.rollout_len, c.seed) = (EXPLORERS, BATCH, 23);
        A2cAlgorithm::with_pool(c, None)
    };
    let stage = |alg: &mut A2cAlgorithm, round, local: Range<usize>| {
        for e in (0..EXPLORERS).rev().filter(|&e| local.contains(&(e as usize * GRAD_SLOTS / EXPLORERS as usize))) {
            alg.on_rollout(rollout(round, e, alg.version()));
        }
        assert!(alg.take_round_credit(local, GRAD_SLOTS), "the slots' explorers have all delivered");
    };
    run_sync_harness(shards, restore, build, stage, |alg, _, slot, grad| alg.slot_grad(slot, grad))
}

/// IMPALA: a shard queues one rollout per slot it owns, in slot order.
fn impala_harness(shards: u32, restore: Option<Restore>) -> Vec<Vec<f32>> {
    let build = || {
        let mut c = ImpalaConfig::new(OBS_DIM, N_ACTIONS);
        c.seed = 23;
        ImpalaAlgorithm::with_pool(c, None)
    };
    let stage = |alg: &mut ImpalaAlgorithm, round, local: Range<usize>| {
        for slot in local.clone() {
            alg.on_rollout(rollout(round, slot as u32, 0));
        }
        assert!(alg.take_round_credit(local, GRAD_SLOTS), "one rollout per slot is queued");
    };
    run_sync_harness(shards, restore, build, stage, |alg, _, slot, grad| alg.slot_grad(slot, grad))
}

type Harness = fn(u32, Option<Restore>) -> Vec<Vec<f32>>;
const HARNESSES: [(&str, Harness); 3] = [("dqn", dqn_harness), ("a2c", a2c_harness), ("impala", impala_harness)];

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// The tentpole determinism contract: the same seed and the same round data
/// yield bit-identical parameters for 1, 2, and 4 shards, and every shard of
/// one run agrees with every other — for DQN, A2C and IMPALA.
#[test]
fn sync_allreduce_is_bit_identical_across_1_2_4_shards() {
    for (name, harness) in HARNESSES {
        let mut reference: Option<Vec<u32>> = None;
        for shards in [1u32, 2, 4] {
            let all = harness(shards, None);
            assert_eq!(all.len(), shards as usize);
            for (s, params) in all.iter().enumerate() {
                assert!(!params.is_empty());
                assert_eq!(bits(params), bits(&all[0]), "{name}: shard {s} of {shards} diverged from shard 0");
            }
            match &reference {
                None => reference = Some(bits(&all[0])),
                Some(r) => assert_eq!(&bits(&all[0]), r, "{name}: {shards} shards diverged from 1 shard"),
            }
        }
    }
}

/// Restoring a learner and rejoining a ring are one operation: halfway
/// through, the last shard's replica is replaced by a fresh build that loads
/// (a) its own saved state or (b) a peer's, and every shard still ends bitwise
/// equal to the fault-free run — for DQN, A2C and IMPALA at 2 and 4 shards.
#[test]
fn a_replica_restored_mid_run_ends_bitwise_equal_to_the_fault_free_run() {
    for (name, harness) in HARNESSES {
        for shards in [2u32, 4] {
            let fault_free = bits(&harness(shards, None)[0]);
            let shard = shards as usize - 1;
            for (case, from) in [("its own state", shard), ("a peer's state", 0)] {
                let restored = harness(shards, Some(Restore { round: ROUNDS / 2, shard, from }));
                for (s, params) in restored.iter().enumerate() {
                    assert_eq!(bits(params), fault_free, "{name}, {shards} shards, {case}: shard {s} diverged");
                }
            }
        }
    }
}

/// A slot blob for a round this shard has already closed is late, not a
/// rejoin: the blobs that answer the startup hellos arrive after their round
/// closed, and answering each with a whole state would cost a snapshot per
/// late blob. Only a hello is answered.
#[test]
fn only_a_hello_is_answered_with_a_snapshot() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let peer = broker.endpoint(ProcessId::learner(0));
    let shard = broker.endpoint(ProcessId::learner(1));
    let algorithm = shard_algorithm();
    let mut ring = Lockstep::new(1, 2, 1, &Telemetry::disabled());
    let deliver = |ring: &mut Lockstep, blob: GradBlob| {
        assert!(peer.send_to(vec![ProcessId::learner(1)], MessageKind::Gradient, Bytes::from(blob.to_bytes())));
        let msg = shard.recv_timeout(Duration::from_secs(5)).expect("the blob arrives");
        ring.on_gradient(&msg, &shard, &algorithm);
    };

    // A late round-0 slot blob from learner(0): answered with nothing, so a
    // marker sent after it is learner(0)'s next message.
    deliver(&mut ring, GradBlob { worker: 0, version: 0, grad: vec![0.5; 4] });
    assert!(shard.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"marker")));
    let next = peer.recv_timeout(Duration::from_secs(5)).expect("the marker arrives");
    assert_eq!(next.header.kind, MessageKind::Rollout, "a late blob was answered");
    assert_eq!(&next.body[..], b"marker");

    // A hello at round 0 still gets the snapshot.
    deliver(&mut ring, GradBlob { worker: HELLO, version: 0, grad: Vec::new() });
    let answer = peer.recv_timeout(Duration::from_secs(5)).expect("the snapshot arrives");
    assert_eq!(answer.header.kind, MessageKind::Parameters);
    drop((peer, shard));
    broker.shutdown();
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

/// Sync rounds take prioritized replay: every slot samples importance-
/// weighted rows from its shard's private plane and re-prioritizes them, and
/// the one reduced step keeps the shards bit-identical.
#[test]
fn sync_shards_with_prioritized_replay_agree_bitwise_at_exit() {
    let mut config = sharded_dqn(2, AllreduceMode::Sync);
    if let AlgorithmSpec::Dqn(c) = &mut config.algorithm {
        c.prioritized = Some((0.6, 0.4));
    }
    let report = Deployment::run(config).expect("2-shard sync PER deployment runs");
    assert!(report.steps_consumed >= 2_000, "consumed {}", report.steps_consumed);
    let [a, b] = &report.learner_shard_params[..] else { panic!("two shards") };
    assert!(!a.is_empty());
    assert_eq!(bits(a), bits(b), "sync shards must exit bit-identical");
}

/// A run with nothing to supervise that reports its leaks too.
fn run_quiet(config: DeploymentConfig) -> (RunReport, RecoveryReport) {
    Deployment::run_supervised(config, SupervisionConfig::unsupervised(), FaultPlan::seeded(1), Telemetry::disabled())
        .expect("deployment runs")
}

/// Sync rounds take A2C and IMPALA: A2C's slots group explorers by index,
/// so each shard's round waits for exactly the explorers it owns; IMPALA's
/// take one queued rollout each. Both reach the goal with nothing dropped or
/// leaked, and their shards exit bit-identical.
#[test]
fn sync_a2c_and_impala_shards_agree_bitwise_at_exit() {
    for spec in [AlgorithmSpec::a2c(), AlgorithmSpec::impala()] {
        let config = DeploymentConfig::cartpole(spec, 4)
            .with_rollout_len(25)
            .with_goal_steps(2_000)
            .with_max_seconds(60.0)
            .with_seed(37)
            .with_learner_shards(2);
        let name = config.algorithm.name();
        let (report, recovery) = run_quiet(config);
        assert!(report.steps_consumed >= 2_000, "{name}: consumed {}", report.steps_consumed);
        assert_eq!(report.dropped_messages, 0, "{name}");
        assert_eq!(recovery.leaked_objects, 0, "{name}");
        let [a, b] = &report.learner_shard_params[..] else { panic!("{name}: two shards") };
        assert!(!a.is_empty());
        assert_eq!(bits(a), bits(b), "{name}: sync shards must exit bit-identical");
    }
}

/// Store-resident replay shards with the learner: learner shard `s` samples
/// the plane its own replay service ingests. A sync round needs a credit
/// from both planes, so reaching the goal proves both services ingested.
#[test]
fn store_resident_replay_runs_one_service_per_shard() {
    for mode in [AllreduceMode::Sync, AllreduceMode::Relaxed] {
        let (report, recovery) = run_quiet(sharded_dqn(2, mode).with_store_resident_replay());
        assert!(report.steps_consumed >= 2_000, "{mode:?}: consumed {}", report.steps_consumed);
        assert_eq!(report.dropped_messages, 0, "{mode:?}");
        assert_eq!(recovery.leaked_objects, 0, "{mode:?}");
        assert_eq!(recovery.dangling_replay_slots, 0, "{mode:?}");
        let replay = report.replay.expect("store-resident runs report replay");
        assert!(replay.batches_ingested > 0 && replay.resident > 0, "{mode:?}: {replay:?}");
        let [a, b] = &report.learner_shard_params[..] else { panic!("two shards") };
        if mode == AllreduceMode::Sync {
            assert_eq!(bits(a), bits(b), "sync shards must exit bit-identical");
        }
    }
}

/// Relaxed gossip has no gradient slots, so any shard count up to the
/// explorer count runs: three shards over four explorers, PPO and DQN.
#[test]
fn three_relaxed_shards_reach_the_goal() {
    let mut ppo = sharded_ppo(3);
    ppo.allreduce = AllreduceMode::Relaxed;
    for config in [sharded_dqn(3, AllreduceMode::Relaxed), ppo] {
        let name = config.algorithm.name();
        let (report, recovery) = run_quiet(config);
        assert!(report.steps_consumed >= 2_000, "{name}: consumed {}", report.steps_consumed);
        assert!(report.train_sessions > 0, "{name}");
        assert_eq!(report.dropped_messages, 0, "{name}");
        assert_eq!(recovery.leaked_objects, 0, "{name}");
        assert_eq!(report.learner_shard_params.len(), 3, "{name}");
        assert!(report.learner_shard_params.iter().flatten().all(|p| p.is_finite()), "{name}");
    }
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
