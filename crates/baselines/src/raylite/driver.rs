//! The centralized driver: task graph + pull-based data movement.
//!
//! One driver function per algorithm family, matching how RLLib's execution
//! plans differ (synchronous iterations for PPO, an async actor-learner loop
//! for IMPALA, a replay-actor pipeline for DQN) while all of them keep
//! communication strictly on the critical path.

use crate::costs::CostModel;
use crate::rpc;
use crate::raylite::worker::{RolloutWorker, WorkerRequest, WorkerResponse};
use bytes::Bytes;
use gymlite::EpisodeTracker;
use netsim::{Cluster, MachineId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::{build_agent, build_algorithm, build_env};
use xingtian::stats::RunReport;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::RolloutBatch;
use xingtian_algos::{DqnAlgorithm, ReplayConfig, ReplayPlane, StepSink};
use xingtian_comm::TransmissionStats;
use xingtian_message::codec::{Decode, Encode};
use xt_telemetry::{EventKind, HistogramHandle, Telemetry, ThroughputTimeline};

struct Driver {
    cluster: Cluster,
    costs: CostModel,
    learner_machine: MachineId,
    worker_machines: Vec<MachineId>,
    requests: Vec<Sender<WorkerRequest>>,
    responses: Receiver<WorkerResponse>,
    goal_steps: u64,
    deadline: Instant,
    rollout_len: usize,
    timeline: ThroughputTimeline,
    wait_stats: TransmissionStats,
    pull_stats: std::sync::Arc<TransmissionStats>,
    telemetry: Telemetry,
    /// Synthetic message ids for lifecycle events: raylite pulls have no
    /// channel headers, so the driver mints one id per pull.
    next_msg_id: std::sync::atomic::AtomicU64,
    wait_hist: HistogramHandle,
    pull_hist: HistogramHandle,
    steps_consumed: u64,
    train_sessions: u64,
    train_time: Duration,
}

impl Driver {
    fn done(&self) -> bool {
        self.steps_consumed >= self.goal_steps || Instant::now() >= self.deadline
    }

    /// Pulls a staged worker response onto the driver (critical path).
    fn pull_payload(&self, resp: &WorkerResponse) -> Bytes {
        let id = self.next_msg_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let len = resp.payload.len() as u64;
        self.telemetry.emit(EventKind::SendEnqueued, id, len);
        self.telemetry.emit(EventKind::Routed, id, 1);
        let t0 = Instant::now();
        let bytes = rpc::pull(&self.cluster, resp.machine, self.learner_machine, &resp.payload, &self.costs);
        self.pull_stats.record(t0.elapsed());
        self.pull_hist.record_duration(t0.elapsed());
        self.telemetry.emit(EventKind::Fetched, id, bytes.len() as u64);
        bytes
    }

    fn record_train(&mut self, steps: usize, wait: Duration, train_elapsed: Duration) {
        self.train_sessions += 1;
        self.train_time += train_elapsed;
        self.steps_consumed += steps as u64;
        self.timeline.record(steps as u64);
        self.wait_stats.record(wait);
        self.wait_hist.record_duration(wait);
    }

    /// Trains every session `alg` can run now, charging `wait` and the
    /// elapsed time to the first, then drops the batches it is done with:
    /// raylite decodes every pull afresh, so nothing recycles them, and a
    /// batch left with the algorithm stays alive until the run ends. Returns
    /// whether any session asked for a broadcast.
    fn train_ready(&mut self, alg: &mut dyn Algorithm, wait: Duration) -> bool {
        let t = Instant::now();
        let mut first = true;
        let mut notify = false;
        while let Some(report) = alg.try_train() {
            let elapsed = if first { t.elapsed() } else { Duration::ZERO };
            self.record_train(report.steps_consumed, if first { wait } else { Duration::ZERO }, elapsed);
            first = false;
            notify |= !report.notify.is_empty();
        }
        while alg.take_spent().is_some() {}
        notify
    }
}

/// Runs a DRL algorithm under the RLLib-style architecture.
///
/// # Errors
///
/// Returns a description of the failure if the configuration is invalid.
pub fn run_raylite(config: DeploymentConfig, costs: CostModel) -> Result<RunReport, String> {
    run_raylite_with_telemetry(config, costs, Telemetry::disabled())
}

/// Like [`run_raylite`], but records pull lifecycle events and learner-wait /
/// pull-latency histograms into `telemetry` so raylite runs produce the same
/// per-stage breakdowns as XingTian runs.
///
/// # Errors
///
/// Returns a description of the failure if the configuration is invalid.
pub fn run_raylite_with_telemetry(
    config: DeploymentConfig,
    costs: CostModel,
    telemetry: Telemetry,
) -> Result<RunReport, String> {
    config.validate()?;
    let probe = build_env(&config.env, 0, config.obs_dim_override, config.step_latency_us)?;
    let obs_dim = probe.observation_dim();
    let num_actions = probe.num_actions();
    drop(probe);
    let num_workers = config.total_explorers();

    let cluster = Cluster::new(config.cluster.clone());
    let (resp_tx, resp_rx) = channel();
    let mut requests = Vec::new();
    let mut worker_handles = Vec::new();
    for i in 0..num_workers {
        let (req_tx, req_rx) = channel();
        requests.push(req_tx);
        let worker = RolloutWorker {
            index: i,
            machine: config.explorer_machine(i),
            env: build_env(
                &config.env,
                config.seed.wrapping_mul(1000).wrapping_add(u64::from(i)),
                config.obs_dim_override,
                config.step_latency_us,
            )?,
            agent: build_agent(
                &config.algorithm,
                obs_dim,
                num_actions,
                num_workers,
                config.rollout_len,
                config.seed,
                i,
            ),
            requests: req_rx,
            responses: resp_tx.clone(),
        };
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("ray-worker-{i}"))
                .spawn(move || worker.run())
                .expect("spawn worker"),
        );
    }
    drop(resp_tx);

    let mut driver = Driver {
        cluster,
        costs,
        learner_machine: config.learner_machine,
        worker_machines: (0..num_workers).map(|i| config.explorer_machine(i)).collect(),
        requests,
        responses: resp_rx,
        goal_steps: config.goal_steps,
        deadline: Instant::now() + Duration::from_secs_f64(config.max_seconds),
        rollout_len: config.rollout_len,
        timeline: ThroughputTimeline::new(),
        wait_stats: TransmissionStats::new(),
        pull_stats: std::sync::Arc::new(TransmissionStats::new()),
        next_msg_id: std::sync::atomic::AtomicU64::new(1),
        wait_hist: telemetry.histogram("learner.wait_ns"),
        pull_hist: telemetry.histogram("raylite.pull_ns"),
        telemetry,
        steps_consumed: 0,
        train_sessions: 0,
        train_time: Duration::ZERO,
    };

    let start = Instant::now();
    match &config.algorithm {
        AlgorithmSpec::Ppo(_) | AlgorithmSpec::A2c(_) => {
            let alg = build_algorithm(
                &config.algorithm,
                obs_dim,
                num_actions,
                num_workers,
                config.rollout_len,
                config.seed,
            );
            run_sync_iterations(&mut driver, alg)?;
        }
        AlgorithmSpec::Impala(_) | AlgorithmSpec::Reinforce(_) => {
            let alg = build_algorithm(
                &config.algorithm,
                obs_dim,
                num_actions,
                num_workers,
                config.rollout_len,
                config.seed,
            );
            run_async_loop(&mut driver, alg)?;
        }
        AlgorithmSpec::Dqn(c) => {
            let mut c = c.clone();
            c.obs_dim = obs_dim;
            c.num_actions = num_actions;
            c.num_explorers = num_workers;
            c.seed = config.seed;
            run_replay_pipeline(&mut driver, c)?;
        }
    }
    let wall_time = start.elapsed();

    // Tear down workers and gather episode statistics.
    for tx in &driver.requests {
        let _ = tx.send(WorkerRequest::Shutdown);
    }
    let mut episode_returns = Vec::new();
    let mut steps_generated = 0;
    for handle in worker_handles {
        let tracker: EpisodeTracker = handle.join().map_err(|_| "worker panicked".to_string())?;
        episode_returns.extend_from_slice(tracker.returns());
        steps_generated += tracker.total_steps();
    }

    let mean_train_time = if driver.train_sessions > 0 {
        driver.train_time / driver.train_sessions as u32
    } else {
        Duration::ZERO
    };
    Ok(RunReport {
        algorithm: format!("{} (raylite)", config.algorithm.name()),
        env: config.env,
        steps_consumed: driver.steps_consumed,
        steps_generated,
        wall_time,
        timeline: driver.timeline,
        learner_wait: driver.wait_stats,
        rollout_latency: driver.pull_stats,
        policy_lag: Default::default(),
        rollouts_by_explorer: Default::default(),
        episode_returns,
        train_sessions: driver.train_sessions,
        mean_train_time,
        final_params: Vec::new(),
        learner_shard_params: Vec::new(),
        replay: None,
        dropped_messages: 0,
    })
}

/// PPO: synchronous iterations — broadcast weights, schedule sampling on all
/// workers, pull every result, then train.
fn run_sync_iterations(driver: &mut Driver, mut alg: Box<dyn Algorithm>) -> Result<(), String> {
    let n = driver.requests.len();
    let mut pending_weights: Option<Bytes> = None;
    while !driver.done() {
        let iteration_start = Instant::now();
        for w in 0..n {
            // Weight distribution is a blocking push per worker, on the
            // driver's critical path.
            let weights = pending_weights.as_ref().map(|b| {
                rpc::push(&driver.cluster, driver.learner_machine, worker_machine(driver, w), b, &driver.costs)
            });
            driver.requests[w]
                .send(WorkerRequest::Sample { weights, steps: driver.rollout_len })
                .map_err(|_| "worker channel closed".to_string())?;
        }
        for _ in 0..n {
            let resp = driver.responses.recv().map_err(|_| "workers gone".to_string())?;
            let bytes = driver.pull_payload(&resp);
            let batch = RolloutBatch::from_bytes(&bytes).map_err(|e| e.to_string())?;
            alg.on_rollout(batch);
        }
        // Everything since the iteration started — worker compute plus all
        // transmission — stood between the learner and this training session.
        if driver.train_ready(alg.as_mut(), iteration_start.elapsed()) {
            pending_weights = Some(Bytes::from(alg.param_blob().to_bytes()));
        }
    }
    Ok(())
}

/// IMPALA: the driver keeps one sampling task outstanding per worker, trains
/// on whichever result it pulls next, and pushes weights back to that worker.
fn run_async_loop(driver: &mut Driver, mut alg: Box<dyn Algorithm>) -> Result<(), String> {
    let n = driver.requests.len();
    for w in 0..n {
        driver.requests[w]
            .send(WorkerRequest::Sample { weights: None, steps: driver.rollout_len })
            .map_err(|_| "worker channel closed".to_string())?;
    }
    while !driver.done() {
        let t0 = Instant::now();
        let Ok(resp) = driver.responses.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        let bytes = driver.pull_payload(&resp);
        let batch = RolloutBatch::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let wait = t0.elapsed();
        alg.on_rollout(batch);
        driver.train_ready(alg.as_mut(), wait);
        // Push fresh weights to the worker we just consumed, then reschedule
        // it — both on the critical path.
        let blob = Bytes::from(alg.param_blob().to_bytes());
        let pushed = rpc::push(
            &driver.cluster,
            driver.learner_machine,
            resp.machine,
            &blob,
            &driver.costs,
        );
        driver.requests[resp.worker as usize]
            .send(WorkerRequest::Sample { weights: Some(pushed), steps: driver.rollout_len })
            .map_err(|_| "worker channel closed".to_string())?;
    }
    Ok(())
}

/// DQN: a single worker streams small step batches through the driver into a
/// replay *actor* (separate thread); every training session pulls its sampled
/// batch back across that RPC boundary — the paper's Fig. 9 contrast with
/// XingTian's in-learner buffer.
fn run_replay_pipeline(driver: &mut Driver, config: xingtian_algos::DqnConfig) -> Result<(), String> {
    enum ReplayRequest {
        Insert(Bytes),
        Sample(usize),
        Shutdown,
    }
    let (replay_tx, replay_rx) = channel::<ReplayRequest>();
    let (sample_tx, sample_rx) = channel::<Bytes>();
    let store = ReplayConfig::uniform(config.buffer_capacity, config.obs_dim);
    // The data lives with the actor; the driver reads only its counts (what
    // `add_batch` futures would tell a Ray driver) to gate training.
    let resident = Arc::new(ReplayPlane::new(store, &Telemetry::disabled()));
    let buffer = Arc::clone(&resident);
    let seed = config.seed;
    let actor = std::thread::Builder::new()
        .name("ray-replay-actor".into())
        .spawn(move || {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xACC);
            while let Ok(req) = replay_rx.recv() {
                match req {
                    ReplayRequest::Insert(bytes) => {
                        if let Ok(batch) = RolloutBatch::from_bytes(&bytes) {
                            buffer.ingest_batch(&batch);
                        }
                    }
                    ReplayRequest::Sample(n) => {
                        let mut steps = Vec::with_capacity(n);
                        buffer.sample_uniform(n, &mut rng, &mut StepSink(&mut steps));
                        let batch = RolloutBatch {
                            explorer: 0,
                            param_version: 0,
                            steps,
                            bootstrap_observation: Vec::new(),
                        };
                        if sample_tx.send(Bytes::from(batch.to_bytes())).is_err() {
                            break;
                        }
                    }
                    ReplayRequest::Shutdown => break,
                }
            }
        })
        .expect("spawn replay actor");

    let mut alg = DqnAlgorithm::new(config.clone());
    // The worker streams rollout fragments large enough to amortize task
    // round trips (RLLib samples in `rollout_fragment_length` chunks); each
    // fragment then funds `fragment / train_every_inserts` training sessions.
    let fragment = (config.train_every_inserts as usize * 8).max(config.batch_size);
    let sessions_per_fragment = fragment / config.train_every_inserts as usize;
    let mut pending_weights: Option<Bytes> = None;
    // Keep one sampling task outstanding so generation pipelines with the
    // driver's replay/training work.
    driver.requests[0]
        .send(WorkerRequest::Sample { weights: None, steps: fragment })
        .map_err(|_| "worker channel closed".to_string())?;
    while !driver.done() {
        let resp = driver.responses.recv().map_err(|_| "workers gone".to_string())?;
        let weights = pending_weights.take().map(|b| {
            rpc::push(&driver.cluster, driver.learner_machine, worker_machine(driver, 0), &b, &driver.costs)
        });
        driver.requests[0]
            .send(WorkerRequest::Sample { weights, steps: fragment })
            .map_err(|_| "worker channel closed".to_string())?;
        let bytes = driver.pull_payload(&resp);
        // Forward into the replay actor: another store copy + RPC hop.
        let staged = rpc::push(&driver.cluster, driver.learner_machine, driver.learner_machine, &bytes, &driver.costs);
        replay_tx.send(ReplayRequest::Insert(staged)).map_err(|_| "replay actor gone".to_string())?;

        // The learner's own gate (`try_train`), on what the actor accepted
        // so far — the insert above may still be in flight.
        if resident.total_inserted() < config.warmup_steps || resident.len() < config.batch_size {
            continue;
        }
        for _ in 0..sessions_per_fragment {
            if driver.done() {
                break;
            }
            let t0 = Instant::now();
            replay_tx.send(ReplayRequest::Sample(config.batch_size)).map_err(|_| "replay actor gone".to_string())?;
            let sampled = sample_rx.recv().map_err(|_| "replay actor gone".to_string())?;
            // The sampled batch crosses the actor/driver RPC boundary — the
            // 62 ms "Sample & Trans." of the paper's Fig. 9(b).
            let sampled = rpc::pull(&driver.cluster, driver.learner_machine, driver.learner_machine, &sampled, &driver.costs);
            driver.pull_stats.record(t0.elapsed());
            let batch = RolloutBatch::from_bytes(&sampled).map_err(|e| e.to_string())?;
            let wait = t0.elapsed();
            let t = Instant::now();
            let report = alg.train_on_steps(&batch.steps);
            driver.record_train(report.steps_consumed, wait, t.elapsed());
            if !report.notify.is_empty() {
                pending_weights = Some(Bytes::from(
                    xingtian_algos::api::Algorithm::param_blob(&alg).to_bytes(),
                ));
            }
        }
    }
    let _ = replay_tx.send(ReplayRequest::Shutdown);
    let _ = actor.join();
    Ok(())
}

fn worker_machine(driver: &Driver, w: usize) -> MachineId {
    driver.worker_machines[w]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian::config::AlgorithmSpec;

    fn quick(alg: AlgorithmSpec) -> DeploymentConfig {
        DeploymentConfig::cartpole(alg, 2)
            .with_rollout_len(32)
            .with_goal_steps(512)
            .with_max_seconds(30.0)
    }

    #[test]
    fn ppo_runs_to_goal() {
        let report = run_raylite(quick(AlgorithmSpec::ppo()), CostModel::zero_overhead()).unwrap();
        assert!(report.steps_consumed >= 512, "{}", report.steps_consumed);
        assert!(report.train_sessions >= 1);
        assert!(!report.episode_returns.is_empty());
    }

    #[test]
    fn impala_runs_to_goal() {
        let report = run_raylite(quick(AlgorithmSpec::impala()), CostModel::zero_overhead()).unwrap();
        assert!(report.steps_consumed >= 512);
        assert!(report.learner_wait.len() as u64 >= report.train_sessions);
    }

    #[test]
    fn dqn_runs_to_goal() {
        let mut config = DeploymentConfig::cartpole(AlgorithmSpec::dqn(), 1)
            .with_rollout_len(4)
            .with_goal_steps(256)
            .with_max_seconds(30.0);
        if let AlgorithmSpec::Dqn(c) = &mut config.algorithm {
            c.warmup_steps = 64;
            c.buffer_capacity = 4096;
            c.hidden = vec![16];
        }
        let report = run_raylite(config, CostModel::zero_overhead()).unwrap();
        assert!(report.steps_consumed >= 256);
        assert!(report.train_sessions >= 8);
    }

    /// Trains one batch per session and hands each back.
    #[derive(Default)]
    struct HandsBack {
        queued: Vec<RolloutBatch>,
        spent: Vec<RolloutBatch>,
    }

    impl Algorithm for HandsBack {
        fn on_rollout(&mut self, batch: RolloutBatch) {
            self.queued.push(batch);
        }

        fn take_round_credit(&mut self, _local: std::ops::Range<usize>, _slots: usize) -> bool {
            !self.queued.is_empty()
        }

        fn slot_grad(&mut self, _slot: usize, _out: &mut Vec<f32>) -> f32 {
            0.0
        }

        fn apply_reduced_grad(&mut self, _grad: &mut [f32], _loss: f32) -> Option<xingtian_algos::TrainReport> {
            let batch = self.queued.pop().expect("a credited round");
            let notify = vec![batch.explorer];
            self.spent.push(batch);
            Some(xingtian_algos::TrainReport { steps_consumed: 1, loss: 0.0, version: 0, notify })
        }

        fn take_spent(&mut self) -> Option<RolloutBatch> {
            self.spent.pop()
        }

        fn param_blob(&self) -> xingtian_algos::payload::ParamBlob {
            xingtian_algos::payload::ParamBlob { version: 0, params: Vec::new() }
        }

        fn load_params(&mut self, _params: &[f32]) {}

        fn version(&self) -> u64 {
            0
        }

        fn save_state(&self) -> xingtian_algos::LearnerState {
            xingtian_algos::LearnerState::default()
        }

        fn load_state(&mut self, _: &xingtian_algos::LearnerState) -> Result<(), xingtian_algos::StateError> {
            Ok(())
        }

        fn sync_mode(&self) -> xingtian_algos::SyncMode {
            xingtian_algos::SyncMode::OffPolicy
        }

        fn name(&self) -> &str {
            "hands-back"
        }
    }

    /// Regression: both driver loops trained without collecting what the
    /// algorithm was done with, so every batch of a run stayed alive until
    /// the run ended.
    #[test]
    fn trained_batches_are_not_kept_alive() {
        let telemetry = Telemetry::disabled();
        let mut driver = Driver {
            cluster: Cluster::single(),
            costs: CostModel::zero_overhead(),
            learner_machine: 0,
            worker_machines: Vec::new(),
            requests: Vec::new(),
            responses: channel().1,
            goal_steps: u64::MAX,
            deadline: Instant::now(),
            rollout_len: 1,
            timeline: ThroughputTimeline::new(),
            wait_stats: TransmissionStats::new(),
            pull_stats: Arc::new(TransmissionStats::new()),
            next_msg_id: std::sync::atomic::AtomicU64::new(1),
            wait_hist: telemetry.histogram("learner.wait_ns"),
            pull_hist: telemetry.histogram("raylite.pull_ns"),
            telemetry,
            steps_consumed: 0,
            train_sessions: 0,
            train_time: Duration::ZERO,
        };
        let mut alg = HandsBack::default();
        for explorer in 0..3 {
            let batch = RolloutBatch { explorer, param_version: 0, steps: Vec::new(), bootstrap_observation: Vec::new() };
            alg.on_rollout(batch);
        }
        assert!(driver.train_ready(&mut alg, Duration::ZERO), "the sessions asked for a broadcast");
        assert_eq!(driver.train_sessions, 3);
        assert!(alg.spent.is_empty(), "{} spent batches left with the algorithm", alg.spent.len());
    }
}
