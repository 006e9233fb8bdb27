//! Unit-level tests of the explorer and learner process loops, driven with
//! scripted agents/algorithms over a real channel. The window tests script
//! the learner side by hand: it is the test that answers, or does not
//! answer, an explorer's rollouts.

use bytes::Bytes;
use netsim::Cluster;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian::assignment::AssignmentTable;
use xingtian::config::AllreduceMode;
use xingtian::explorer::{ExplorerOutcome, ExplorerProcess, RolloutRoute, MAX_INFLIGHT_BATCHES};
use xingtian::learner::LearnerProcess;
use xingtian::messages::{ControlCommand, LearnerStats};
use xingtian::shard::{FAREWELL, GRAD_SLOTS};
use xingtian_algos::api::{ActionSelection, Agent, Algorithm, SyncMode, TrainReport};
use xingtian_algos::payload::{ParamBlob, RolloutBatch, RolloutStep};
use xingtian_algos::{DqnAlgorithm, DqnConfig, GradBlob, LearnerState, StateError};
use xingtian_comm::{Broker, CommConfig, Endpoint, InjectDecision, RouteInjector};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Header, Message, MessageKind, ProcessId, ProcessRole};

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

/// An algorithm that counts consumed batches and replies to the source: every
/// received batch grants one round credit, whatever the round's slots.
struct CountingAlgorithm {
    queued: Vec<RolloutBatch>,
    /// The credited round's batch, until its round applies.
    round: Option<RolloutBatch>,
    spent: Vec<RolloutBatch>,
    version: u64,
    consumed: Arc<AtomicUsize>,
    /// Batches received so far, and how many of them had been received when
    /// the first session trained (`usize::MAX` until one does).
    received: usize,
    received_at_first_train: Arc<AtomicUsize>,
}

impl CountingAlgorithm {
    fn new(consumed: &Arc<AtomicUsize>, received_at_first_train: &Arc<AtomicUsize>) -> Self {
        CountingAlgorithm {
            queued: Vec::new(),
            round: None,
            spent: Vec::new(),
            version: 0,
            consumed: Arc::clone(consumed),
            received: 0,
            received_at_first_train: Arc::clone(received_at_first_train),
        }
    }

    fn first_train(&self) {
        let _ = self.received_at_first_train.compare_exchange(
            usize::MAX,
            self.received,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

impl Algorithm for CountingAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.received += 1;
        self.queued.push(batch);
    }

    fn take_round_credit(&mut self, _local: Range<usize>, _slots: usize) -> bool {
        self.round = self.queued.pop();
        self.round.is_some()
    }

    fn slot_grad(&mut self, _slot: usize, out: &mut Vec<f32>) -> f32 {
        self.first_train();
        out.resize(4, 0.0);
        0.0
    }

    fn apply_reduced_grad(&mut self, _grad: &mut [f32], loss: f32) -> Option<TrainReport> {
        let batch = self.round.take().expect("a credited round");
        self.version += 1;
        self.consumed.fetch_add(batch.len(), Ordering::Relaxed);
        let report =
            TrainReport { steps_consumed: batch.len(), loss, version: self.version, notify: vec![batch.explorer] };
        self.spent.push(batch);
        Some(report)
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        self.spent.pop()
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: vec![0.5; 4] }
    }

    fn load_params(&mut self, _params: &[f32]) {}

    fn save_state(&self) -> LearnerState {
        LearnerState { blob: self.param_blob(), ..LearnerState::default() }
    }

    fn load_state(&mut self, _: &LearnerState) -> Result<(), StateError> {
        Ok(())
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
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
        algorithm: Box::new(CountingAlgorithm::new(&consumed, &Arc::new(AtomicUsize::new(usize::MAX)))),
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
        route: RolloutRoute { table: Arc::new(AssignmentTable::contiguous(1, 1)), role: ProcessRole::Learner },
        sync: SyncMode::OffPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // The test is the center controller: it sums the learner's `Stats` until
    // they report 500 steps, then sends both processes `Shutdown`.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut learner_steps = 0u64;
    while learner_steps < 500 && Instant::now() < deadline {
        let Some(msg) = controller_ep.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        else {
            continue;
        };
        if (msg.header.kind, msg.header.src) == (MessageKind::Stats, ProcessId::learner(0)) {
            learner_steps += LearnerStats::from_bytes(&msg.body).expect("a learner's Stats body").steps;
        }
    }
    assert!(learner_steps >= 500, "goal should be reached well before the deadline");
    controller_ep.send_to(
        vec![ProcessId::explorer(0), ProcessId::learner(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );

    let learner_outcome = learner_thread.join().unwrap();
    let explorer_outcome = explorer_thread.join().unwrap();
    assert!(learner_outcome.steps_consumed >= 500);
    assert_eq!(learner_outcome.steps_consumed as usize, consumed.load(Ordering::Relaxed));
    assert!(explorer_outcome.batches_sent >= 20, "25-step batches toward a 500-step goal");
    assert!(explorer_outcome.tracker.total_steps() >= 500);
    broker.shutdown();
}

/// PR 9's livelock fix holds for every learner, peer shards of either
/// discipline included: a pass decodes a bounded burst and then advances the
/// discipline, so sessions (relaxed) and rounds (lockstep) start while the
/// inbox is never empty. The inbox here is pre-filled deeper than the run can
/// drain before its first session — the standing backlog of a producer that
/// outruns the drain — with the shutdown command queued behind it. An
/// unbounded drain decodes the whole backlog, meets the shutdown inside the
/// drain, and exits having trained (or announced) nothing.
#[test]
fn relaxed_shard_trains_while_its_inbox_is_never_empty() {
    for mode in [AllreduceMode::Relaxed, AllreduceMode::Sync] {
        shard_under_a_never_empty_inbox(mode);
    }
}

fn shard_under_a_never_empty_inbox(mode: AllreduceMode) {
    const BACKLOG: usize = 512;
    // An unbounded receive buffer, so the whole backlog is staged locally
    // (the default keeps all but 8 in the ID queue, and a drain that outruns
    // the receiver thread would see a momentarily empty buffer).
    let comm = CommConfig { endpoint_recv_bytes: None, ..CommConfig::default() };
    let broker = Broker::new(0, Cluster::single(), comm);
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    // Everything the shard addresses has a route: its peer, the controller
    // it reports to, the explorer it owns and answers.
    let peer_ep = broker.endpoint(ProcessId::learner(1));
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
    // Behind the shutdown, the peer's farewell: it never announced round 0,
    // so a lockstep shard holding that round open abandons it at once
    // instead of waiting out the dead-peer fallback.
    let farewell = GradBlob { worker: FAREWELL, version: 0, grad: Vec::new() };
    peer_ep.send_to(vec![ProcessId::learner(0)], MessageKind::Gradient, Bytes::from(farewell.to_bytes()));

    let consumed = Arc::new(AtomicUsize::new(0));
    let received_at_first_train = Arc::new(AtomicUsize::new(usize::MAX));
    let outcome = LearnerProcess {
        shard: 0,
        endpoint: learner_ep,
        algorithm: Box::new(CountingAlgorithm::new(&consumed, &received_at_first_train)),
        table: Arc::new(AssignmentTable::contiguous(2, 2)),
        mode,
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    }
    .run();

    // One blocking receive plus a 16-message burst, then the first session
    // (or the first round's slot gradients) — with the rest of the backlog
    // still waiting.
    let first = received_at_first_train.load(Ordering::Relaxed);
    assert!(first <= 17, "{mode:?}: first session only after {first} of {BACKLOG} messages were drained");
    if mode == AllreduceMode::Relaxed {
        // Every pass trained what it decoded; only the burst that met the
        // shutdown command went untrained.
        assert!(
            outcome.train_sessions as usize >= BACKLOG - 17,
            "trained {} sessions over a {BACKLOG}-message backlog",
            outcome.train_sessions
        );
        assert_eq!(outcome.steps_consumed as usize, consumed.load(Ordering::Relaxed));
    } else {
        // The round was announced: slot blobs, not just the hello and the
        // farewell, reached the peer.
        let announced = std::iter::from_fn(|| peer_ep.recv_timeout(Duration::from_secs(10)))
            .take(3)
            .filter_map(|m| GradBlob::from_bytes(&m.body).ok())
            .filter(|b| (b.worker as usize) < GRAD_SLOTS && b.version == 0)
            .count();
        assert!(announced > 0, "the lockstep shard never announced its first round");
    }
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

    fn take_round_credit(&mut self, _local: Range<usize>, _slots: usize) -> bool {
        false
    }

    fn slot_grad(&mut self, _slot: usize, _out: &mut Vec<f32>) -> f32 {
        unreachable!("no round ever opens")
    }

    fn apply_reduced_grad(&mut self, _grad: &mut [f32], _loss: f32) -> Option<TrainReport> {
        unreachable!("no round ever opens")
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

    fn save_state(&self) -> LearnerState {
        LearnerState { blob: self.param_blob(), ..LearnerState::default() }
    }

    fn load_state(&mut self, _: &LearnerState) -> Result<(), StateError> {
        Ok(())
    }

    fn version(&self) -> u64 {
        0
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "hoarding"
    }
}

/// Regression: the lockstep loop handed rollouts to the algorithm and never
/// collected what it was done with, so an algorithm that sheds every batch
/// through `take_spent` (DQN: its store copies out at ingest) kept every
/// decoded rollout for the life of the shard. Each collected batch is also
/// answered, once.
#[test]
fn sync_shard_collects_spent_batches() {
    const ROLLOUTS: usize = 64;
    let comm = CommConfig { endpoint_recv_bytes: None, ..CommConfig::default() };
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
    let answers = std::iter::from_fn(|| producer_ep.recv_timeout(Duration::from_millis(200)))
        .filter(|m| m.header.kind == MessageKind::RolloutAnswer)
        .count();
    assert_eq!(answers, ROLLOUTS, "one answer per rollout");
    drop(producer_ep);
    broker.shutdown();
}

/// Delays every `Gradient` delivery to learner shard 1.
#[derive(Debug)]
struct SlowGradientsToShardOne(Duration);

impl RouteInjector for SlowGradientsToShardOne {
    fn decide(&self, header: &Header, dst: ProcessId) -> InjectDecision {
        if header.kind == MessageKind::Gradient && dst == ProcessId::learner(1) {
            InjectDecision::Delay(self.0)
        } else {
            InjectDecision::Deliver
        }
    }
}

/// ROADMAP 8a: a round closes on every shard or on none, decided by messages
/// and not by a clock. Shard 0 closes round 0 at once; shard 1's copies of
/// shard 0's blobs are still in a slow channel when both read the shutdown.
/// A wall-clock grace shorter than the channel (the old 300 ms) abandons the
/// round on shard 1 only, and the shards exit one optimizer step apart.
#[test]
fn sync_shards_leave_the_ring_together_when_gradients_are_slow() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    broker.set_injector(Arc::new(SlowGradientsToShardOne(Duration::from_millis(900))));
    let controller_ep = broker.endpoint(ProcessId::controller(0));
    let producer_ep = broker.endpoint(ProcessId::explorer(0));
    // Exactly one round credit per shard: one 40-step rollout meets the
    // warmup and the insert gate once.
    let mut config = DqnConfig::new(4, 2);
    config.hidden = vec![16];
    config.warmup_steps = 40;
    config.train_every_inserts = 40;
    config.batch_size = 8;
    let initial = DqnAlgorithm::new(config.clone()).param_blob().params;
    let table = Arc::new(AssignmentTable::contiguous(2, 2));
    let shards: Vec<_> = (0..2)
        .map(|shard| {
            let learner = LearnerProcess {
                shard,
                endpoint: broker.endpoint(ProcessId::learner(shard)),
                algorithm: Box::new(DqnAlgorithm::new(config.clone())),
                table: Arc::clone(&table),
                mode: AllreduceMode::Sync,
                checkpointer: None,
                probe: None,
                param_compression: xingtian_comm::ParamCompression::default(),
            };
            std::thread::spawn(move || learner.run())
        })
        .collect();

    let step = |i: usize| RolloutStep {
        observation: vec![i as f32 * 0.01; 4],
        action: (i % 2) as u32,
        reward: 1.0,
        done: false,
        behavior_logits: Vec::new(),
        value: 0.0,
        next_observation: Some(vec![i as f32 * 0.01 + 0.005; 4]),
    };
    let batch = RolloutBatch {
        explorer: 0,
        param_version: 0,
        steps: (0..40).map(step).collect(),
        bootstrap_observation: Vec::new(),
    };
    let learners = vec![ProcessId::learner(0), ProcessId::learner(1)];
    producer_ep.send_to(learners.clone(), MessageKind::Rollout, Bytes::from(batch.to_bytes()));
    // Shard 0's session report: it has closed round 0 (shard 1's blobs are
    // not delayed). Shard 1 cannot have — its copies of shard 0's are.
    let stats = controller_ep.recv_timeout(Duration::from_secs(10)).expect("shard 0 closes round 0");
    assert_eq!((stats.header.kind, stats.header.src), (MessageKind::Stats, ProcessId::learner(0)));
    producer_ep.send_to(learners, MessageKind::Control, Bytes::from(ControlCommand::Shutdown.to_bytes()));

    let outcomes: Vec<_> = shards.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(outcomes[0].train_sessions, 1);
    assert_eq!(outcomes[1].train_sessions, 1, "shard 1 abandoned the round shard 0 closed");
    assert_ne!(outcomes[0].final_params, initial, "the round moved the parameters");
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&outcomes[0].final_params), bits(&outcomes[1].final_params));
    drop((controller_ep, producer_ep));
    broker.shutdown();
}

/// How long a scripted learner watches for a rollout that must not come:
/// half the failure detector's 500 ms floor, which is the answer leash until
/// the explorer has seen two answers.
const HOLD: Duration = Duration::from_millis(250);

/// The window each discipline gives an explorer.
const WINDOWS: [(SyncMode, usize); 2] =
    [(SyncMode::OnPolicy, 1), (SyncMode::OffPolicy, MAX_INFLIGHT_BATCHES)];

/// An explorer on CartPole, 10-step rollouts, addressed to `learner(0)` —
/// which the test scripts, and must register first.
fn scripted_explorer(broker: &Broker, sync: SyncMode) -> std::thread::JoinHandle<ExplorerOutcome> {
    let explorer = ExplorerProcess {
        index: 0,
        endpoint: broker.endpoint(ProcessId::explorer(0)),
        env: Box::new(gymlite::CartPole::new(2)),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 10,
        route: RolloutRoute { table: Arc::new(AssignmentTable::contiguous(1, 1)), role: ProcessRole::Learner },
        sync,
        probe: None,
    };
    std::thread::spawn(move || explorer.run())
}

/// The next rollout to reach `learner` within `within` (anything else that
/// arrives is skipped).
fn next_rollout(learner: &Endpoint, within: Duration) -> Option<Message> {
    let deadline = Instant::now() + within;
    std::iter::from_fn(|| learner.recv_timeout(deadline.saturating_duration_since(Instant::now())))
        .find(|m| m.header.kind == MessageKind::Rollout)
}

/// The scripted learner hands one rollout back: explorer 0's answer.
fn answer(learner: &Endpoint) {
    learner.send_to(vec![ProcessId::explorer(0)], MessageKind::RolloutAnswer, Bytes::from_static(&[0; 4]));
}

/// Parameters of `version` to explorer 0, which answer nothing.
fn announce(learner: &Endpoint, version: u64) {
    let blob = ParamBlob { version, params: vec![0.0; 4] };
    learner.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, Bytes::from(blob.to_bytes()));
}

fn shut_down(learner: &Endpoint) {
    let body = Bytes::from(ControlCommand::Shutdown.to_bytes());
    learner.send_to(vec![ProcessId::explorer(0)], MessageKind::Control, body);
}

fn telemetry_broker() -> (Broker, xt_telemetry::Telemetry) {
    let telemetry = xt_telemetry::Telemetry::enabled();
    let broker = Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
    (broker, telemetry)
}

#[test]
fn on_policy_explorer_waits_for_fresh_parameters() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = scripted_explorer(&broker, SyncMode::OnPolicy);

    // Exactly one batch arrives, then the explorer waits for its answer.
    let first = next_rollout(&learner, Duration::from_secs(10)).expect("first batch");
    assert_eq!(RolloutBatch::from_bytes(&first.body).unwrap().param_version, 0);
    assert!(next_rollout(&learner, HOLD).is_none(), "on-policy gate must hold without an answer");

    // A session broadcasts before it hands its batches back, and
    // per-(src,dst) FIFO delivers the parameters ahead of the answer: the
    // rollout the answer releases is generated with them.
    announce(&learner, 1);
    answer(&learner);
    let second = next_rollout(&learner, Duration::from_secs(10)).expect("gate released by the answer");
    assert_eq!(RolloutBatch::from_bytes(&second.body).unwrap().param_version, 1, "generated with v1");

    // Shutdown ends the explorer even while it is gated.
    shut_down(&learner);
    let outcome = explorer.join().unwrap();
    assert_eq!(outcome.batches_sent, 2);
    drop(learner);
    broker.shutdown();
}

/// The flow-control window against a learner the test scripts, at window 1
/// (on-policy) and window 4 (off-policy): the window's rollouts go out and
/// the next is held; a `Parameters` message alone releases nothing; each
/// answer releases exactly one; a silent learner is forgiven once, no sooner
/// than 400 ms, which reopens the whole window; a shutdown reaches a waiting
/// explorer.
#[test]
fn explorer_window_table() {
    for (sync, window) in WINDOWS {
        each_answer_releases_one_rollout(sync, window);
        a_silent_learner_is_forgiven_once_per_leash(sync, window);
        a_waiting_explorer_shuts_down(sync, window);
    }
}

fn each_answer_releases_one_rollout(sync: SyncMode, window: usize) {
    let (broker, telemetry) = telemetry_broker();
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = scripted_explorer(&broker, sync);

    for i in 0..window {
        assert!(next_rollout(&learner, Duration::from_secs(10)).is_some(), "window {window}: rollout {i} never came");
    }
    announce(&learner, 2);
    assert!(next_rollout(&learner, HOLD).is_none(), "window {window}: a rollout went out past a full window");
    for i in 0..2 {
        answer(&learner);
        assert!(
            next_rollout(&learner, Duration::from_secs(10)).is_some(),
            "window {window}: answer {i} released nothing"
        );
        assert!(next_rollout(&learner, HOLD).is_none(), "window {window}: answer {i} released two");
    }

    shut_down(&learner);
    let outcome = explorer.join().unwrap();
    assert_eq!(outcome.batches_sent, window as u64 + 2, "window {window}");
    // The window's last rollout and each one an answer released waited once.
    assert_eq!(telemetry.counter("explorer.backpressure_waits").get(), 3, "window {window}");
    assert_eq!(telemetry.counter("explorer.answers_forgiven").get(), 0, "window {window}");
    drop(learner);
    broker.shutdown();
}

fn a_silent_learner_is_forgiven_once_per_leash(sync: SyncMode, window: usize) {
    let (broker, telemetry) = telemetry_broker();
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = scripted_explorer(&broker, sync);

    for _ in 0..window {
        next_rollout(&learner, Duration::from_secs(10)).expect("the window's rollouts");
    }
    let waiting = Instant::now();
    next_rollout(&learner, Duration::from_secs(10)).expect("forgiveness releases the next");
    // With no answer gaps yet, the leash is the detector's 500 ms floor
    // (less the window's last rollout's own delivery time).
    let waited = waiting.elapsed();
    assert!(waited >= Duration::from_millis(400), "window {window}: forgiven after only {waited:?}");
    assert_eq!(telemetry.counter("explorer.answers_forgiven").get(), 1, "window {window}");
    // The reset reopened the whole window.
    for i in 1..window {
        assert!(
            next_rollout(&learner, HOLD).is_some(),
            "window {window}: rollout {i} of the reopened window never came"
        );
    }
    assert_eq!(
        telemetry.counter("explorer.answers_forgiven").get(),
        1,
        "window {window}: forgiven again within the leash"
    );

    shut_down(&learner);
    explorer.join().unwrap();
    drop(learner);
    broker.shutdown();
}

fn a_waiting_explorer_shuts_down(sync: SyncMode, window: usize) {
    let (broker, telemetry) = telemetry_broker();
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = scripted_explorer(&broker, sync);

    for _ in 0..window {
        next_rollout(&learner, Duration::from_secs(10)).expect("the window's rollouts");
    }
    // It counts the wait as it starts it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while telemetry.counter("explorer.backpressure_waits").get() == 0 {
        assert!(Instant::now() < deadline, "window {window}: the explorer never waited");
        std::thread::yield_now();
    }
    shut_down(&learner);
    let outcome = explorer.join().unwrap();
    // Had it waited out the leash it would have forgiven the window and
    // sent one more before reading the shutdown.
    assert_eq!(outcome.batches_sent, window as u64, "window {window}");
    assert_eq!(telemetry.counter("explorer.answers_forgiven").get(), 0, "window {window}");
    drop(learner);
    broker.shutdown();
}
