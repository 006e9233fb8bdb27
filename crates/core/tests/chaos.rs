//! Chaos integration tests: deterministic fault plans driven through
//! supervised deployments.
//!
//! Every test uses a fixed seed and asserts on *eventual* recovery facts —
//! which processes died, which were respawned, that training made progress,
//! and that the brokers' object stores drained to empty — not on exact
//! timings, which vary with scheduling.

use std::time::Duration;
use xingtian::checkpoint::CheckpointConfig;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::Deployment;
use xingtian::explorer::MAX_INFLIGHT_BATCHES;
use xingtian::supervisor::SupervisionConfig;
use xingtian_message::{MessageKind, ProcessId};
use xt_fault::{FaultPlan, KillTrigger, Liveness, LivenessTransition, RouteRule};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xt-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// True if `transitions` contains a Down for `pid` followed (later in the
/// published order) by an Up for the same pid.
fn down_then_up(transitions: &[LivenessTransition], pid: ProcessId) -> bool {
    let down_at = transitions
        .iter()
        .position(|t| t.pid == pid && t.liveness == Liveness::Down);
    match down_at {
        Some(i) => transitions[i + 1..]
            .iter()
            .any(|t| t.pid == pid && t.liveness == Liveness::Alive),
        None => false,
    }
}

/// The capstone scenario: a 2-machine × 8-explorer deployment where one
/// explorer is killed mid-run, the non-learner machine is partitioned away
/// for a window, and rollouts suffer random drops — all from one seeded
/// plan. The run must detect both failures, respawn the victim, and keep
/// training on whatever survives, without leaking a single store object.
#[test]
fn kill_and_partition_two_machine_deployment() {
    const VICTIM: u32 = 1; // machine 0, so the kill and the partition don't overlap
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 8)
        .spread_across(2)
        .with_rollout_len(25)
        .with_goal_steps(u64::MAX) // duration-bounded: chaos timeline fits in the window
        .with_max_seconds(2.5)
        // Paced steps put the timeline in the plan's hands, not the host's:
        // the victim's 400th step falls at 0.2–0.3 s and its detection before
        // the partition opens at 0.6 s, and the event volume is a function of
        // the step rate (8 explorers × 2 k steps/s) instead of how fast `act` is.
        .with_step_latency_us(500)
        .with_seed(7);
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15);
    let plan = FaultPlan::seeded(7)
        .with_kill(ProcessId::explorer(VICTIM), KillTrigger::AfterSteps(400))
        .isolating_machine(1, 2, 600_000_000, 1_200_000_000)
        .with_rule(RouteRule::any().on_kind(MessageKind::Rollout).dropping(0.05));
    // The event ring drops oldest, so it must hold the whole run for the
    // mid-run ProcessDown events asserted below to still be in it.
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 18);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry.clone())
            .expect("supervised run completes");

    // Training progressed despite a death, a partition, and rollout drops.
    assert!(
        report.steps_consumed > 500,
        "training should progress under chaos, consumed only {}",
        report.steps_consumed
    );
    // The killed explorer was detected and respawned exactly once.
    assert_eq!(recovery.explorer_respawns, vec![VICTIM]);
    assert!(
        down_then_up(&recovery.transitions, ProcessId::explorer(VICTIM)),
        "victim must be seen down then up: {:?}",
        recovery.transitions
    );
    // At least one partitioned explorer (machine 1 hosts indices 4..8) was
    // declared down by heartbeat silence and recovered when the link healed —
    // without ever being respawned (it was alive the whole time).
    assert!(
        (4..8).any(|i| down_then_up(&recovery.transitions, ProcessId::explorer(i))),
        "a partitioned explorer must be seen down then up: {:?}",
        recovery.transitions
    );
    for i in 4..8 {
        assert!(
            !recovery.explorer_respawns.contains(&i),
            "partitioned-but-alive explorer {i} must not be respawned"
        );
    }
    // Everyone recovered by the end; nothing left in any store.
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    // The detector published its events into telemetry too.
    assert!(telemetry.counter("fault.process_down").get() >= 2);
    assert!(telemetry.counter("fault.process_up").get() >= 2);
    // The ring is evidence only if it evicted nothing.
    assert_eq!(telemetry.dropped_events(), 0, "event ring too small for the run");
    let events = telemetry.events();
    assert!(events.iter().any(|e| e.kind == xt_telemetry::EventKind::ProcessDown));
    assert!(events.iter().any(|e| e.kind == xt_telemetry::EventKind::ProcessUp));
}

/// Learner recovery: a learner killed after its fifth training session is
/// detected, restored from the newest checkpoint, and finishes the run.
#[test]
fn learner_restored_from_checkpoint_after_kill() {
    let dir = tmpdir("learner-restore");
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 4)
        .with_rollout_len(25)
        .with_goal_steps(4_000)
        .with_max_seconds(60.0)
        .with_seed(11)
        .with_checkpoint(CheckpointConfig::new(&dir, 1));
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15);
    let plan = FaultPlan::seeded(11)
        .with_kill(ProcessId::learner(0), KillTrigger::AfterSteps(5));
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 14);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry)
            .expect("supervised run completes");

    assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 1);
    // Checkpointing ran every session and the kill fired after session 5, so
    // the restore had a checkpoint to load.
    let restored = recovery.restored_param_version.expect("restored from a checkpoint");
    assert!(restored >= 1, "restored version {restored}");
    assert!(
        down_then_up(&recovery.transitions, ProcessId::learner(0)),
        "learner must be seen down then up: {:?}",
        recovery.transitions
    );
    // The second incarnation trained on to the goal (the supervisor sums
    // steps across incarnations; the report counts joined incarnations).
    assert!(report.train_sessions >= 1);
    assert!(report.steps_consumed > 0);
    // The dead incarnation took the answers owed to every explorer's
    // in-flight rollouts with it. No explorer stays wedged on them: each
    // sent the restored learner more than the at most MAX_INFLIGHT_BATCHES
    // rollouts it could have had in flight at the kill.
    for e in 0..4 {
        let heard = report.rollouts_by_explorer.get(&e).copied().unwrap_or(0);
        assert!(
            heard > MAX_INFLIGHT_BATCHES as u64,
            "explorer {e} sent the restored learner {heard} rollouts: {:?}",
            report.rollouts_by_explorer
        );
    }
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    let _ = std::fs::remove_dir_all(&dir);
}

/// On-policy learner recovery: a PPO or A2C explorer blocks after every
/// rollout until parameters newer than that rollout's arrive, and the
/// learner killed after its fifth session took that session's broadcast
/// with it. The restored learner announces its checkpointed state before it
/// waits for rollouts, so the explorers resume and the run ends at its goal,
/// not at its deadline — also when the checkpoint lags: taken every third
/// session, it holds v3 while the explorers hold v4, and the restore
/// announces above every version the dead learner reported.
#[test]
fn on_policy_learner_restored_from_checkpoint_reaches_the_goal() {
    const GOAL: u64 = 4_000;
    const DEADLINE: f64 = 20.0;
    let runs = [("ppo", AlgorithmSpec::ppo()), ("a2c", AlgorithmSpec::a2c())]
        .into_iter()
        .flat_map(|(alg, algorithm)| [1, 3].map(|every| (alg, algorithm.clone(), every)));
    for (alg, algorithm, every) in runs {
        let name = format!("{alg}, checkpoint every {every}");
        let dir = tmpdir(&format!("on-policy-restore-{alg}-{every}"));
        let config = DeploymentConfig::cartpole(algorithm, 2)
            .with_rollout_len(25)
            .with_goal_steps(GOAL)
            .with_max_seconds(DEADLINE)
            .with_seed(17)
            .with_checkpoint(CheckpointConfig::new(&dir, every));
        let plan =
            FaultPlan::seeded(17).with_kill(ProcessId::learner(0), KillTrigger::AfterSteps(5));

        let (report, recovery) = Deployment::run_supervised(
            config,
            SupervisionConfig::with_heartbeat_interval_ms(15),
            plan,
            xt_telemetry::Telemetry::with_capacity(1 << 14),
        )
        .expect("supervised run completes");

        assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 1, "{name}");
        // The session-5 checkpoint, or the v3 one announced above the v4 the
        // dead learner reported: v5 either way.
        assert_eq!(recovery.restored_param_version, Some(5), "{name}: restored at v5");
        assert!(
            down_then_up(&recovery.transitions, ProcessId::learner(0)),
            "{name}: learner must be seen down then up: {:?}",
            recovery.transitions
        );
        // The killed incarnation's five sessions (2 explorers × 25 steps
        // each) died with its thread; the restored one trained the rest.
        assert!(
            report.steps_consumed >= GOAL - 5 * 2 * 25,
            "{name}: the restored learner consumed {} steps",
            report.steps_consumed
        );
        assert!(
            report.wall_time.as_secs_f64() < DEADLINE / 2.0,
            "{name}: the run took {:?} of its {DEADLINE} s deadline",
            report.wall_time
        );
        assert!(recovery.down_at_exit.is_empty(), "{name}: down at exit: {:?}", recovery.down_at_exit);
        assert_eq!(recovery.leaked_objects, 0, "{name}: object store leak");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A supervised run with an empty fault plan behaves exactly like a plain
/// run, for every algorithm and both DQN replay placements: no respawns, no
/// liveness transitions, no drops, no leaks, and every rollout answered
/// before the leash ran out.
#[test]
fn supervised_run_without_faults_is_quiet() {
    let mut dqn = xingtian_algos::DqnConfig::new(0, 0);
    dqn.hidden = vec![32];
    dqn.warmup_steps = 200;
    let runs = [
        ("impala", AlgorithmSpec::impala(), false),
        ("ppo", AlgorithmSpec::ppo(), false),
        ("a2c", AlgorithmSpec::a2c(), false),
        ("reinforce", AlgorithmSpec::reinforce(), false),
        ("dqn", AlgorithmSpec::Dqn(dqn.clone()), false),
        ("dqn store-resident", AlgorithmSpec::Dqn(dqn), true),
    ];
    for (name, algorithm, store_resident) in runs {
        let mut config = DeploymentConfig::cartpole(algorithm, 2)
            .with_rollout_len(25)
            .with_goal_steps(1_500)
            .with_max_seconds(30.0)
            .with_seed(3);
        if store_resident {
            config = config.with_store_resident_replay();
        }
        let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 12);
        let (report, recovery) = Deployment::run_supervised(
            config,
            SupervisionConfig::default(),
            FaultPlan::seeded(3),
            telemetry.clone(),
        )
        .expect("supervised run completes");

        assert!(report.steps_consumed >= 1_500, "{name}: consumed {}", report.steps_consumed);
        assert!(recovery.explorer_respawns.is_empty(), "{name}");
        assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 0, "{name}");
        assert!(recovery.transitions.is_empty(), "{name}: transitions: {:?}", recovery.transitions);
        assert!(recovery.down_at_exit.is_empty(), "{name}");
        assert_eq!(recovery.leaked_objects, 0, "{name}");
        assert_eq!(report.dropped_messages, 0, "{name}: a quiet run drops nothing");
        assert_eq!(telemetry.counter("explorer.answers_forgiven").get(), 0, "{name}");
    }
}

/// Explorers parked in `send` at a full store still leave. Eight IMPALA
/// explorers share a store that holds a few rollouts, so most of them wait
/// at the data-lane gate while the learner keeps broadcasting parameters to
/// them; the run reaches its goal, every process exits well inside
/// `max_seconds`, and nothing is dropped or left in a store.
#[test]
fn explorers_parked_at_a_full_store_still_leave() {
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 8)
        .with_rollout_len(25)
        .with_goal_steps(20_000)
        .with_max_seconds(30.0)
        .with_seed(5)
        .with_store_capacity(4 << 10);
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 16);
    let started = std::time::Instant::now();
    let (report, recovery) =
        Deployment::run_supervised(config, SupervisionConfig::default(), FaultPlan::seeded(5), telemetry.clone())
            .expect("supervised run completes");
    let elapsed = started.elapsed();

    assert!(report.steps_consumed >= 20_000, "consumed {}", report.steps_consumed);
    assert!(elapsed < Duration::from_secs(10), "processes took {elapsed:?} to leave");
    // The store counts every insert that found the data lane full, once.
    let waits = telemetry.counter("comm.gate_waits").get();
    assert!(waits > 0, "no explorer waited at the gate");
    assert_eq!(report.dropped_messages, 0, "a parked explorer's rollout was dropped");
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert!(recovery.transitions.is_empty(), "a parked explorer looked down: {:?}", recovery.transitions);
    assert!(recovery.down_at_exit.is_empty());
}

/// Every endpoint a process can address is registered before that process
/// is spawned, so a fault-free run drops nothing — however early its first
/// message goes out. Store-resident DQN with 4-step rollouts and unpaced
/// steps sends its first `Stats` to the supervisor within microseconds of
/// the explorer thread starting; were the supervisor's endpoint registered
/// after the explorers were spawned, that message could find no
/// route and count as an unknown-destination drop. The wide observation and
/// the four explorers are what make the old ordering lose the race often
/// (about three deployments in four here, one in thirteen at 512 wide); the
/// thin network and the tiny goal keep 64 deployments to a few seconds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "64 deployments of a 4096-wide DQN: seconds optimised, many minutes not; ci.sh runs it in release"
)]
fn fault_free_supervised_runs_drop_nothing() {
    for seed in 0..64 {
        let mut dqn = xingtian_algos::DqnConfig::new(0, 0);
        dqn.hidden = vec![32];
        dqn.buffer_capacity = 1_024;
        dqn.warmup_steps = 64;
        dqn.train_every_inserts = 8;
        dqn.batch_size = 32;
        let config = DeploymentConfig::atari("BeamRider", AlgorithmSpec::Dqn(dqn), 4)
            .with_obs_dim(4_096)
            .with_rollout_len(4)
            .with_step_latency_us(0)
            .with_goal_steps(128)
            .with_max_seconds(30.0)
            .with_seed(seed)
            .with_store_resident_replay();
        let (report, recovery) = Deployment::run_supervised(
            config,
            SupervisionConfig::default(),
            FaultPlan::seeded(seed),
            xt_telemetry::Telemetry::disabled(),
        )
        .expect("supervised run completes");

        assert!(report.steps_consumed >= 128, "run {seed}: consumed {}", report.steps_consumed);
        assert_eq!(report.dropped_messages, 0, "run {seed}: a fault-free run dropped a message");
        assert_eq!(recovery.leaked_objects, 0, "run {seed}: object store leak");
        assert!(
            recovery.transitions.is_empty(),
            "run {seed}: liveness transitions in a quiet run: {:?}",
            recovery.transitions
        );
    }
}

/// Zero respawn budget, no beacons: an explorer that dies is not replaced.
/// The run reaches its goal on the survivors, the report names the explorer
/// it lost, and the mapping `Deployment::run` applies turns that into the
/// error a plain run has always returned for a dead explorer.
#[test]
fn unsupervised_explorer_death_degrades_and_fails_a_plain_run() {
    const VICTIM: u32 = 1;
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 3)
        .with_rollout_len(25)
        .with_goal_steps(4_000)
        .with_max_seconds(60.0)
        .with_seed(5);
    let plan = FaultPlan::seeded(5)
        .with_kill(ProcessId::explorer(VICTIM), KillTrigger::AfterSteps(300));

    let (report, recovery) = Deployment::run_supervised(
        config,
        SupervisionConfig::unsupervised(),
        plan,
        xt_telemetry::Telemetry::disabled(),
    )
    .expect("the run survives an explorer");

    assert!(report.steps_consumed >= 4_000, "consumed {}", report.steps_consumed);
    assert_eq!(recovery.degraded_explorers, vec![VICTIM]);
    assert!(recovery.explorer_respawns.is_empty(), "a zero budget never respawns");
    assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 0);
    // No beacons, so no detector: nothing to publish, nobody "down".
    assert!(recovery.transitions.is_empty());
    assert!(recovery.down_at_exit.is_empty());
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    let err = recovery.undegraded().expect_err("a plain run reports the dead explorer");
    assert!(err.to_string().contains("[1]"), "error names the explorer: {err}");
}

/// Zero restore budget: a learner death ends the run, and the error comes
/// back within a few poll periods — the graph is wound down at once, not
/// when the run's `max_seconds` deadline (30 s here) finally expires.
#[test]
fn unsupervised_learner_death_is_reported_promptly() {
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 2)
        .with_rollout_len(25)
        .with_goal_steps(u64::MAX)
        .with_max_seconds(30.0)
        .with_seed(9);
    let plan = FaultPlan::seeded(9).with_kill(ProcessId::learner(0), KillTrigger::AfterSteps(3));

    let start = std::time::Instant::now();
    let err = Deployment::run_supervised(
        config,
        SupervisionConfig::unsupervised(),
        plan,
        xt_telemetry::Telemetry::disabled(),
    )
    .expect_err("a learner death with no restore budget fails the run");

    assert!(err.to_string().contains("out of restore budget"), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "reported after {:?}, not promptly",
        start.elapsed()
    );
}

/// Store-resident replay under chaos: a DQN deployment whose replay lives in
/// the communication layer, with one explorer killed mid-run and the learner
/// killed after its fifth training session. The plane must survive the
/// learner restore (experience outlives the crashed incarnation), and at exit
/// the audit must find zero leaked store objects AND zero dangling replay
/// arena slots — a crash mid-ingest may never leave a torn transition behind.
#[test]
fn store_resident_replay_survives_kills_without_leaks() {
    const VICTIM: u32 = 1;
    let dir = tmpdir("replay-chaos");
    let mut dqn = xingtian_algos::DqnConfig::new(0, 0);
    dqn.buffer_capacity = 8_192;
    dqn.warmup_steps = 400;
    dqn.train_every_inserts = 8;
    dqn.batch_size = 32;
    let config = DeploymentConfig::cartpole(AlgorithmSpec::Dqn(dqn), 4)
        .with_rollout_len(25)
        .with_goal_steps(1_500)
        .with_max_seconds(60.0)
        .with_seed(13)
        .with_checkpoint(CheckpointConfig::new(&dir, 1))
        .with_store_resident_replay();
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15);
    // The explorers generate only what the learner answers, about 8 rollouts
    // each toward this goal, so the explorer dies inside its first window.
    let plan = FaultPlan::seeded(13)
        .with_kill(ProcessId::explorer(VICTIM), KillTrigger::AfterSteps(60))
        .with_kill(ProcessId::learner(0), KillTrigger::AfterSteps(5));
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 16);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry)
            .expect("supervised run completes");

    // Both victims were detected and recovered.
    assert_eq!(recovery.explorer_respawns, vec![VICTIM]);
    assert!(down_then_up(&recovery.transitions, ProcessId::explorer(VICTIM)));
    assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 1);
    assert!(down_then_up(&recovery.transitions, ProcessId::learner(0)));
    // The restored learner trained on experience that survived its
    // predecessor: the run reached its goal.
    assert!(report.steps_consumed >= 1_500, "consumed {}", report.steps_consumed);
    // The replay plane stayed coherent through both crashes.
    let replay = report.replay.expect("store-resident run reports replay");
    assert!(replay.batches_ingested > 0);
    assert!(replay.resident > 0, "plane emptied");
    assert_eq!(replay.dangling_slots, 0, "torn ingest left dangling slots");
    // Nothing leaked anywhere: stores drained, no process still down.
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared 2-shard DQN chaos config: 4 explorers, shard 0 owns {0,1} and
/// shard 1 owns {2,3} via the assignment table.
fn sharded_dqn_chaos(mode: xingtian::config::AllreduceMode, dir: &std::path::Path) -> DeploymentConfig {
    let mut dqn = xingtian_algos::DqnConfig::new(0, 0);
    dqn.buffer_capacity = 8_192;
    dqn.warmup_steps = 200;
    dqn.train_every_inserts = 8;
    dqn.batch_size = 32;
    DeploymentConfig::cartpole(AlgorithmSpec::Dqn(dqn), 4)
        .with_rollout_len(25)
        .with_goal_steps(2_000)
        .with_max_seconds(60.0)
        .with_seed(19)
        .with_checkpoint(CheckpointConfig::new(dir, 1))
        .with_learner_shards(2)
        .with_allreduce(mode)
}

/// Kill-one-learner-shard, sync ring: shard 1 dies after its third training
/// round, the supervisor restores it from its own checkpoint subdirectory,
/// and it rejoins the allreduce ring — announced by its startup hello, the
/// surviving shard answers with a snapshot of its whole state plus a
/// retransmission of its open round's slot blobs, and lockstep resumes. The
/// snapshot carries the optimizer moments, target net and session count, so
/// the shards take identical steps from then on and exit bit-identical, as a
/// fault-free sync run does. DQN, and on-policy A2C checkpointing every other
/// round: its restored shard is a round behind the ring, loads the snapshot,
/// and must hand its explorers the loaded parameters, or every rollout they
/// make is stale.
#[test]
fn killed_learner_shard_rejoins_sync_allreduce_ring() {
    let dir = tmpdir("shard-sync-rejoin");
    let dqn = sharded_dqn_chaos(xingtian::config::AllreduceMode::Sync, &dir);
    let a2c_dir = tmpdir("shard-sync-rejoin-a2c");
    let a2c = DeploymentConfig { algorithm: AlgorithmSpec::a2c(), ..dqn.clone() }
        .with_checkpoint(CheckpointConfig::new(&a2c_dir, 2));
    for (config, dir) in [(dqn, dir), (a2c, a2c_dir)] {
        shard_rejoins_sync_allreduce_ring(config, dir);
    }
}

fn shard_rejoins_sync_allreduce_ring(config: DeploymentConfig, dir: std::path::PathBuf) {
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15);
    let plan = FaultPlan::seeded(19)
        .with_kill(ProcessId::learner(1), KillTrigger::AfterSteps(3));
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 16);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry.clone())
            .expect("supervised run completes");

    // The ring resumed after the restore: the supervisor's step sum reached
    // the goal. (The report's own sum runs slightly short of the goal: the
    // killed incarnation's share died with its thread.)
    assert!(report.steps_consumed >= 1_500, "consumed {}", report.steps_consumed);
    // Exactly shard 1 was restored, from a real checkpoint.
    assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 1);
    assert_eq!(recovery.learner_shard_restores, vec![0, 1]);
    assert!(recovery.restored_param_version.expect("restored from checkpoint") >= 1);
    assert!(
        down_then_up(&recovery.transitions, ProcessId::learner(1)),
        "shard 1 must be seen down then up: {:?}",
        recovery.transitions
    );
    // The liveness transitions are role-tagged: the learner-shard death is
    // visible without scanning explorer noise.
    assert!(!recovery.learner_transitions().is_empty());
    assert!(telemetry.counter("fault.process_down.learner").get() >= 1);
    assert!(telemetry.counter("fault.process_up.learner").get() >= 1);
    // The restored shard rejoined the *ring*, not just the deployment: the
    // kill fired on its third closed round, so any count beyond that proves
    // rounds closed in lockstep again after the restore (a round cannot
    // close without every shard's slots).
    let rounds0 = telemetry.counter("learn.shard0.rounds").get();
    let rounds1 = telemetry.counter("learn.shard1.rounds").get();
    assert!(rounds1 > 3, "restored shard closed no rounds after rejoining: {rounds1}");
    assert!(rounds0 > 3, "surviving shard never resumed: {rounds0}");
    assert_eq!(report.learner_shard_params.len(), 2);
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (p0, p1) = (bits(&report.learner_shard_params[0]), bits(&report.learner_shard_params[1]));
    let differing = p0.iter().zip(&p1).filter(|(a, b)| a != b).count();
    assert_eq!(differing, 0, "shards exit {differing} of {} parameters apart", p0.len());
    // Nothing leaked, nothing dangling, nobody down.
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert_eq!(report.replay.as_ref().map_or(0, |r| r.dangling_slots), 0, "dangling replay arena slots");
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-one-learner-shard, relaxed mode: the surviving shard never stalls —
/// its owned explorers keep feeding it and it keeps training right through
/// the outage — and the restored shard resumes delta gossip from its
/// checkpointed version.
#[test]
fn killed_learner_shard_relaxed_peers_keep_training() {
    let dir = tmpdir("shard-relaxed-kill");
    // Longer goal than the sync variant: a relaxed survivor trains right
    // through the outage, and a 2k-step run can reach the goal before the
    // detector even confirms the death — the restore needs runway.
    let config =
        sharded_dqn_chaos(xingtian::config::AllreduceMode::Relaxed, &dir).with_goal_steps(8_000);
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15);
    let plan = FaultPlan::seeded(23)
        .with_kill(ProcessId::learner(1), KillTrigger::AfterSteps(3));
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 16);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry.clone())
            .expect("supervised run completes");

    assert!(report.steps_consumed >= 1_500, "consumed {}", report.steps_consumed);
    assert!(report.train_sessions > 3, "peers kept training through the outage");
    assert_eq!(recovery.learner_shard_restores.iter().sum::<u32>(), 1);
    assert_eq!(recovery.learner_shard_restores, vec![0, 1]);
    assert!(down_then_up(&recovery.transitions, ProcessId::learner(1)));
    assert!(telemetry.counter("fault.process_down.learner").get() >= 1);
    // No explorer was ever respawned: the assignment table kept routing
    // their rollouts to the (eventually restored) shard endpoint.
    assert!(recovery.explorer_respawns.is_empty());
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert_eq!(report.replay.as_ref().map_or(0, |r| r.dangling_slots), 0, "dangling replay arena slots");
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI `chaos` smoke stage: a seeded kill-one-explorer run on the virtual
/// clock (cross-machine transfers advance simulated time instead of
/// sleeping), bounded in wall time by the run's `max_seconds` deadline.
#[test]
fn chaos_smoke_kill_one_explorer_virtual_clock() {
    const VICTIM: u32 = 2;
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), 4)
        .spread_across(2)
        .with_rollout_len(25)
        .with_goal_steps(5_000)
        .with_max_seconds(30.0)
        // Paced steps order the run by the plan: the victim's 500th step falls
        // at 0.5 s with ~2 000 steps consumed, and the other 3 000 take the
        // survivors 0.75 s more — fifteen detector timeouts (50 ms), so the
        // respawn cannot lose a race against the goal however fast `act` is.
        .with_step_latency_us(1_000)
        .with_seed(42);
    config.cluster.virtual_time = true;
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(10);
    let plan = FaultPlan::seeded(42)
        .with_kill(ProcessId::explorer(VICTIM), KillTrigger::AfterSteps(500));

    let start = std::time::Instant::now();
    let (report, recovery) = Deployment::run_supervised(
        config,
        supervision,
        plan,
        xt_telemetry::Telemetry::with_capacity(1 << 14),
    )
    .expect("supervised run completes");

    assert!(report.steps_consumed >= 5_000, "goal reached: {}", report.steps_consumed);
    assert_eq!(recovery.explorer_respawns, vec![VICTIM]);
    assert!(down_then_up(&recovery.transitions, ProcessId::explorer(VICTIM)));
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "smoke run must stay well inside its wall-time bound"
    );
}
