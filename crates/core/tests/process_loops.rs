//! Unit-level tests of the explorer and learner process loops, driven with
//! scripted agents/algorithms over a real channel.

use bytes::Bytes;
use netsim::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian::assignment::AssignmentTable;
use xingtian::config::AllreduceMode;
use xingtian::controller::ControllerProcess;
use xingtian::explorer::{ExplorerProcess, RolloutRoute, MAX_INFLIGHT_BATCHES};
use xingtian::learner::LearnerProcess;
use xingtian::messages::ControlCommand;
use xingtian_algos::api::{ActionSelection, Agent, Algorithm, ShardedSync, SyncMode, TrainReport};
use xingtian_algos::payload::{ParamBlob, RolloutBatch, RolloutStep};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId};

/// An agent that always picks action 0 and tracks applied parameter versions.
struct ScriptedAgent {
    version: u64,
}

impl Agent for ScriptedAgent {
    fn act(&mut self, _observation: &[f32]) -> ActionSelection {
        ActionSelection { action: 0, logits: vec![0.0, 0.0], value: 0.0 }
    }

    fn apply_params(&mut self, blob: &ParamBlob) {
        if blob.version > self.version {
            self.version = blob.version;
        }
    }

    fn param_version(&self) -> u64 {
        self.version
    }
}

/// An algorithm that counts consumed batches and replies to the source.
struct CountingAlgorithm {
    queued: Vec<RolloutBatch>,
    version: u64,
    consumed: Arc<AtomicUsize>,
    sync: SyncMode,
    /// Batches received so far, and how many of them had been received when
    /// the first session trained (`usize::MAX` until one does).
    received: usize,
    received_at_first_train: Arc<AtomicUsize>,
}

impl Algorithm for CountingAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.received += 1;
        self.queued.push(batch);
    }

    fn try_train(&mut self) -> Option<TrainReport> {
        let batch = self.queued.pop()?;
        let _ = self.received_at_first_train.compare_exchange(
            usize::MAX,
            self.received,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.version += 1;
        self.consumed.fetch_add(batch.len(), Ordering::Relaxed);
        Some(TrainReport {
            steps_consumed: batch.len(),
            loss: 0.0,
            version: self.version,
            notify: vec![batch.explorer],
        })
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: vec![0.5; 4] }
    }

    fn load_params(&mut self, _params: &[f32]) {}

    fn version(&self) -> u64 {
        self.version
    }

    fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn explorer_learner_pair_round_trips_until_shutdown() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));
    let controller_ep = broker.endpoint(ProcessId::controller(0));
    let consumed = Arc::new(AtomicUsize::new(0));

    let learner = LearnerProcess {
        shard: 0,
        endpoint: learner_ep,
        algorithm: Box::new(CountingAlgorithm {
            queued: Vec::new(),
            version: 0,
            consumed: Arc::clone(&consumed),
            sync: SyncMode::OffPolicy,
            received: 0,
            received_at_first_train: Arc::new(AtomicUsize::new(usize::MAX)),
        }),
        table: Arc::new(AssignmentTable::contiguous(1, 1)),
        mode: AllreduceMode::Sync, // the config default: no peers, so no lockstep rounds
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    };
    let learner_thread = std::thread::spawn(move || learner.run());

    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(gymlite::CartPole::new(0)),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 25,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OffPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // The controller stops the run once the learner reports 500 steps.
    let outcome = ControllerProcess {
        endpoint: controller_ep,
        goal_steps: 500,
        max_duration: Duration::from_secs(30),
        num_explorers: 1,
        num_learner_shards: 1,
    }
    .run();
    assert!(outcome.goal_reached, "goal should be reached well before the deadline");

    let learner_outcome = learner_thread.join().unwrap();
    let explorer_outcome = explorer_thread.join().unwrap();
    assert!(learner_outcome.steps_consumed >= 500);
    assert_eq!(learner_outcome.steps_consumed as usize, consumed.load(Ordering::Relaxed));
    assert!(explorer_outcome.batches_sent >= 20, "25-step batches toward a 500-step goal");
    assert!(explorer_outcome.tracker.total_steps() >= 500);
    broker.shutdown();
}

/// PR 9's livelock fix holds for every train-on-arrival learner, peer shards
/// included: a pass decodes a bounded burst and then trains, so sessions
/// advance while the inbox is never empty. The inbox here is pre-filled
/// deeper than the run can drain before its first session — the standing
/// backlog of a producer that outruns the drain — with the shutdown command
/// queued behind it. An unbounded drain decodes the whole backlog, meets the
/// shutdown inside the drain, and exits having trained nothing.
#[test]
fn relaxed_shard_trains_while_its_inbox_is_never_empty() {
    const BACKLOG: usize = 512;
    // An unbounded receive buffer, so the whole backlog is staged locally
    // (the default keeps all but 8 in the ID queue, and a drain that outruns
    // the receiver thread would see a momentarily empty buffer).
    let comm = CommConfig { endpoint_recv_capacity: None, ..CommConfig::default() };
    let broker = Broker::new(0, Cluster::single(), comm);
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    // Everything the shard addresses has a route: its gossip peer, the
    // controller it reports to, the explorer it owns.
    let _peer_ep = broker.endpoint(ProcessId::learner(1));
    let _controller_ep = broker.endpoint(ProcessId::controller(0));
    let producer_ep = broker.endpoint(ProcessId::explorer(0));

    let step = RolloutStep {
        observation: vec![0.0; 4],
        action: 0,
        reward: 1.0,
        done: false,
        behavior_logits: Vec::new(),
        value: 0.0,
        next_observation: None,
    };
    let batch = RolloutBatch { explorer: 0, param_version: 0, steps: vec![step], bootstrap_observation: Vec::new() };
    let body = Bytes::from(batch.to_bytes());
    for _ in 0..BACKLOG {
        producer_ep.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, body.clone());
    }
    producer_ep.send_to(
        vec![ProcessId::learner(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while learner_ep.pending() < BACKLOG + 1 {
        assert!(std::time::Instant::now() < deadline, "backlog never staged");
        std::thread::yield_now();
    }

    let consumed = Arc::new(AtomicUsize::new(0));
    let received_at_first_train = Arc::new(AtomicUsize::new(usize::MAX));
    let outcome = LearnerProcess {
        shard: 0,
        endpoint: learner_ep,
        algorithm: Box::new(CountingAlgorithm {
            queued: Vec::new(),
            version: 0,
            consumed: Arc::clone(&consumed),
            sync: SyncMode::OffPolicy,
            received: 0,
            received_at_first_train: Arc::clone(&received_at_first_train),
        }),
        table: Arc::new(AssignmentTable::contiguous(2, 2)),
        mode: AllreduceMode::Relaxed,
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    }
    .run();

    // One blocking receive plus a 16-message burst, then the first session —
    // with the rest of the backlog still waiting.
    let first = received_at_first_train.load(Ordering::Relaxed);
    assert!(first <= 17, "first session only after {first} of {BACKLOG} messages were drained");
    // Every pass trained what it decoded; only the burst that met the
    // shutdown command went untrained.
    assert!(
        outcome.train_sessions as usize >= BACKLOG - 17,
        "trained {} sessions over a {BACKLOG}-message backlog",
        outcome.train_sessions
    );
    assert_eq!(outcome.steps_consumed as usize, consumed.load(Ordering::Relaxed));
    drop(producer_ep);
    broker.shutdown();
}

/// A lockstep algorithm that never has a round to open; `held` mirrors how
/// many spent batches it is still holding for the loop to collect.
struct HoardingSync {
    spent: Vec<RolloutBatch>,
    held: Arc<AtomicUsize>,
}

impl Algorithm for HoardingSync {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.spent.push(batch);
        self.held.store(self.spent.len(), Ordering::Relaxed);
    }

    fn try_train(&mut self) -> Option<TrainReport> {
        None
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        let batch = self.spent.pop();
        self.held.store(self.spent.len(), Ordering::Relaxed);
        batch
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: 0, params: vec![0.5; 4] }
    }

    fn load_params(&mut self, _params: &[f32]) {}

    fn version(&self) -> u64 {
        0
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "hoarding"
    }

    fn sharded_sync(&mut self) -> Option<&mut dyn ShardedSync> {
        Some(self)
    }
}

impl ShardedSync for HoardingSync {
    fn slot_rows(&self) -> usize {
        1
    }

    fn take_round_credit(&mut self) -> bool {
        false
    }

    fn sample_slot(&mut self, _out: &mut Vec<RolloutStep>) {
        unreachable!("no round ever opens")
    }

    fn grad_on_steps(&mut self, _steps: &[RolloutStep], _global_rows: usize, _out: &mut Vec<f32>) -> f32 {
        unreachable!("no round ever opens")
    }

    fn apply_reduced_grad(&mut self, _grad: &[f32], _steps_represented: usize, _loss: f32) -> TrainReport {
        unreachable!("no round ever opens")
    }
}

/// Regression: the lockstep loop handed rollouts to the algorithm and never
/// collected what it was done with, so an algorithm that sheds every batch
/// through `take_spent` (DQN: its store copies out at ingest) kept every
/// decoded rollout for the life of the shard.
#[test]
fn sync_shard_collects_spent_batches() {
    const ROLLOUTS: usize = 64;
    let comm = CommConfig { endpoint_recv_capacity: None, ..CommConfig::default() };
    let broker = Broker::new(0, Cluster::single(), comm);
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let _peer_ep = broker.endpoint(ProcessId::learner(1));
    let producer_ep = broker.endpoint(ProcessId::explorer(0));

    let step = RolloutStep {
        observation: vec![0.0; 4],
        action: 0,
        reward: 1.0,
        done: false,
        behavior_logits: Vec::new(),
        value: 0.0,
        next_observation: Some(vec![0.0; 4]),
    };
    let batch = RolloutBatch { explorer: 0, param_version: 0, steps: vec![step], bootstrap_observation: Vec::new() };
    let body = Bytes::from(batch.to_bytes());
    for _ in 0..ROLLOUTS {
        producer_ep.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, body.clone());
    }
    producer_ep.send_to(
        vec![ProcessId::learner(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );

    let held = Arc::new(AtomicUsize::new(usize::MAX));
    LearnerProcess {
        shard: 0,
        endpoint: learner_ep,
        algorithm: Box::new(HoardingSync { spent: Vec::new(), held: Arc::clone(&held) }),
        table: Arc::new(AssignmentTable::contiguous(2, 2)),
        mode: AllreduceMode::Sync,
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    }
    .run();

    assert_eq!(held.load(Ordering::Relaxed), 0, "spent batches left with the algorithm at shutdown");
    drop(producer_ep);
    broker.shutdown();
}

#[test]
fn on_policy_explorer_waits_for_fresh_parameters() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));

    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(gymlite::CartPole::new(1)),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 10,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OnPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // Exactly one batch arrives, then the explorer blocks on parameters.
    let first = learner_ep.recv_timeout(Duration::from_secs(10)).expect("first batch");
    assert_eq!(first.header.kind, MessageKind::Rollout);
    assert!(
        learner_ep.recv_timeout(Duration::from_millis(300)).is_none(),
        "on-policy gate must hold without new parameters"
    );

    // Fresh parameters release the gate for exactly one more batch.
    let blob = ParamBlob { version: 1, params: vec![0.0; 4] };
    learner_ep.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, Bytes::from(blob.to_bytes()));
    // The explorer's `ParamAck` arrives on this endpoint too: only a rollout
    // shows the gate opened (and must be in hand before the shutdown below,
    // which could otherwise overtake the second batch).
    let deadline = Instant::now() + Duration::from_secs(10);
    let released =
        std::iter::from_fn(|| learner_ep.recv_timeout(deadline.saturating_duration_since(Instant::now())))
            .any(|m| m.header.kind == MessageKind::Rollout);
    assert!(released, "gate released by the broadcast");

    // Shutdown ends the explorer even while it is gated.
    learner_ep.send_to(
        vec![ProcessId::explorer(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );
    let outcome = explorer_thread.join().unwrap();
    assert!(outcome.batches_sent >= 2);
    drop(learner_ep);
    broker.shutdown();
}

#[test]
fn explorer_flow_control_caps_the_send_backlog() {
    // No learner consumes, so the store fills and the backlog must plateau at
    // the flow-control limit instead of growing unboundedly.
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    // A learner endpoint exists (so routing works) but never receives.
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));

    // Atari observations make batches big enough to fill the 128 MiB store.
    let env = gymlite::SynthAtari::with_config(
        gymlite::AtariGame::Qbert.config().with_obs_dim(84 * 84).with_step_latency_us(0),
        0,
    );
    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(env),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 500,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OffPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // Give it time to run far ahead if flow control were broken (an
    // unbounded pipeline generates roughly 10 batches/s here).
    std::thread::sleep(Duration::from_secs(8));
    learner_ep.send_to(
        vec![ProcessId::explorer(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );
    // "Kill" the wedged learner: closing its endpoint drains the credits it
    // was sitting on, releasing any sender blocked on the full store so the
    // explorer can shut down cleanly.
    drop(learner_ep);
    let outcome = explorer_thread.join().unwrap();
    // The store admits ~9 × 14 MiB bodies, the learner's bounded receive
    // buffer 8 more, the send-side gate 4; allow slack for in-hand messages.
    let ceiling = (128 / 14) + 8 + MAX_INFLIGHT_BATCHES as u64 + 4;
    assert!(
        outcome.batches_sent <= ceiling,
        "explorer ran ahead: {} batches (ceiling {ceiling})",
        outcome.batches_sent
    );
    broker.shutdown();
}
