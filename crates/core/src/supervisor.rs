//! The deployment graph and its supervisor: spawn, the center controller,
//! failure detection, process recovery, join.
//!
//! [`Deployment::run_supervised`] is the one place the training plane is
//! built — the paper's launch sequence (§3.2.2: brokers, fabric, learner,
//! explorers, run until the center controller broadcasts shutdown) — and its
//! calling thread is that center controller. Its one endpoint,
//! `ProcessId::controller(0)`, receives every process's `Stats` (a learner's
//! steps count toward the goal, an explorer's toward
//! [`RunReport::steps_generated`]), and the same thread sends the one
//! `Shutdown` to every explorer and learner shard when the run ends: at the
//! goal, at the `max_seconds` deadline, or at a death past its budget.
//!
//! It also carries the fault-tolerance layer the paper attributes to the
//! framework (§4.2): the calling thread owns every workhorse `JoinHandle`,
//! one heartbeat per broker per period — the pids of its live endpoints —
//! reaches the same endpoint and feeds an [`xt_fault::FailureDetector`] that
//! watches the learners and explorers, and dead processes are respawned onto
//! fresh endpoints whose routes propagate live through the broker fabric.
//! What a given run gets of that is set by its heartbeat period, not by a
//! second code path: a zero period creates no beacons and no detector and
//! leaves a zero budget, which never respawns
//! ([`SupervisionConfig::unsupervised`], which is [`Deployment::run`]).
//!
//! Division of authority, deliberately split:
//!
//! * the **detector** is advisory — it watches heartbeat silence and publishes
//!   liveness transitions to telemetry. Silence can mean a dead process *or* a
//!   severed link; the two are indistinguishable from the supervisor's chair.
//! * the **supervisor** respawns only on proof of death: a `JoinHandle` that
//!   joins with `Err` (the thread panicked and fully unwound, so its endpoint
//!   is deregistered). Respawning a merely-partitioned process would register
//!   a duplicate endpoint and corrupt routing. With a detector, the respawn
//!   itself additionally waits for it to confirm the death, so recovery
//!   provably flows injection → detection → recovery and telemetry always
//!   shows the `ProcessDown` before the respawned process's `ProcessUp`.
//!
//! Recovery paths:
//!
//! * **Explorer death** — respawn with a fresh endpoint (same `ProcessId`,
//!   new generation seed). Registration re-propagates the route to every
//!   peer broker, so cross-machine senders recover automatically. Budget
//!   exhausted → degrade: training continues on the survivors and the
//!   explorer is listed in [`RecoveryReport::degraded_explorers`].
//! * **Learner death** — rebuild the algorithm, load its whole state from the
//!   newest restorable checkpoint ([`crate::checkpoint::load_latest_state`]
//!   falls back through older files) at a version above every one the dead
//!   incarnation reported, respawn. Rollouts buffered for the dead
//!   incarnation are consumed by the new one; batches staler than the
//!   restored parameters are ordinary off-policy data, and spent batches are
//!   shed through `Algorithm::take_spent` recycling as usual. Budget
//!   exhausted → the run is wound down and returns the error.

use crate::assignment::AssignmentTable;
use crate::checkpoint::{load_latest_state, CheckpointConfig, Checkpointer};
use crate::config::{AllreduceMode, DeploymentConfig};
use crate::deployment::{
    build_agent, build_algorithm_with_replay, build_env, build_replay_plane, spawn_process,
    DeployError,
};
use crate::elastic::{ElasticConfig, ElasticController, ElasticDecision};
use crate::explorer::{ExplorerOutcome, ExplorerProcess, RolloutRoute};
use crate::learner::{LearnerOutcome, LearnerProcess};
use crate::messages::{ControlCommand, LearnerStats};
use crate::stats::{ReplayReport, RunReport};
use crate::Deployment;
use netsim::Cluster;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xingtian_algos::ReplayPlane;
use xingtian_comm::{connect_brokers, Broker, Endpoint};
use xingtian_message::codec::Decode;
use xingtian_message::{Message, MessageKind, ProcessId, ProcessRole};
use xt_fault::{DetectorConfig, FailureDetector, FaultPlan, LivenessTransition};

/// How many times one explorer may be respawned, and one learner shard
/// restored from checkpoint, in a supervised run (an unsupervised one: 0).
const RECOVERY_BUDGET: u32 = 2;

/// The tick of a run without beacons: as often as a default-period run's.
const UNSUPERVISED_POLL_MS: u64 = 5;

/// Supervision policy for [`Deployment::run_supervised`]. Everything else —
/// detector tuning, poll period, respawn and restore budgets — follows from
/// the heartbeat period.
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Heartbeat beacon period (milliseconds). Nonzero: every broker beacons
    /// its live endpoints to the supervisor's endpoint,
    /// `ProcessId::controller(0)`, at this period, a failure detector
    /// tuned to it ([`DetectorConfig::for_interval_ms`]) watches the learners
    /// and explorers, the supervisor ticks four times per period, and each
    /// explorer may be respawned and each learner shard restored
    /// [`RECOVERY_BUDGET`] times. Zero: no beacons and no detector, a 5 ms
    /// tick, and no respawn or restore — a respawn would wait only for proof
    /// of death, and there is no budget for one.
    pub heartbeat_interval_ms: u64,
    /// Elastic explorer-pool policy (`None` = the pool stays at the
    /// configured size).
    pub elastic: Option<ElasticConfig>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig::with_heartbeat_interval_ms(20)
    }
}

impl SupervisionConfig {
    /// A supervised policy beaconing every `interval_ms`.
    pub fn with_heartbeat_interval_ms(interval_ms: u64) -> Self {
        SupervisionConfig { heartbeat_interval_ms: interval_ms, elastic: None }
    }

    /// The policy with nothing to supervise — what [`Deployment::run`] runs
    /// under. No beacons, no respawn or restore budget, no elastic pool: an
    /// explorer death degrades the run ([`RecoveryReport::degraded_explorers`])
    /// and a learner death ends it, reported within a poll period.
    pub fn unsupervised() -> Self {
        SupervisionConfig::with_heartbeat_interval_ms(0)
    }

    /// Enables the elastic explorer pool (builder style).
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = Some(elastic);
        self
    }
}

/// What the supervisor did over one run, alongside the usual [`RunReport`].
#[derive(Debug)]
pub struct RecoveryReport {
    /// Indices of explorers that were respawned, in respawn order (an index
    /// appears once per respawn).
    pub explorer_respawns: Vec<u32>,
    /// Indices of explorers that died and were *not* replaced — out of
    /// respawn budget, unspawnable, or panicked during shutdown. Training
    /// carried on without them.
    pub degraded_explorers: Vec<u32>,
    /// How many times a learner (any shard) was restored from checkpoint.
    pub learner_restores: u32,
    /// Restore count per learner shard, in shard order (length 1 for the
    /// classic single-learner deployment).
    pub learner_shard_restores: Vec<u32>,
    /// Parameter version the last learner restored from a checkpoint started
    /// at: the checkpoint's, or one above every version that shard had
    /// reported, whichever is higher (a lockstep shard keeps the
    /// checkpoint's and loads the ring's state on rejoining).
    pub restored_param_version: Option<u64>,
    /// Liveness transitions the failure detector published, in order.
    pub transitions: Vec<LivenessTransition>,
    /// Processes the failure detector still considered down when the run
    /// ended (degraded explorers, or partitioned processes whose beats never
    /// resumed). Always empty without a detector.
    pub down_at_exit: Vec<ProcessId>,
    /// Objects left in the brokers' stores after every process exited —
    /// anything nonzero is a leak.
    pub leaked_objects: usize,
    /// Replay-arena slots whose write never completed when the run ended
    /// (always 0 for in-learner replay) — anything nonzero is a torn ingest
    /// left behind by a crash.
    pub dangling_replay_slots: usize,
    /// Explorers the elastic mode spawned beyond the configured pool (0 when
    /// elastic supervision is off).
    pub elastic_spawns: u32,
    /// Elastic explorers retired after the backpressure signal cleared.
    pub elastic_retires: u32,
    /// Largest explorer-pool size reached (the configured count when elastic
    /// supervision is off).
    pub peak_explorer_pool: u32,
}

impl RecoveryReport {
    /// The failure signal of a run that promised no recovery
    /// ([`Deployment::run`]): an explorer that died is an error, not a
    /// degradation to carry on from.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] naming the degraded explorers, if any.
    pub fn undegraded(&self) -> Result<(), DeployError> {
        if self.degraded_explorers.is_empty() {
            return Ok(());
        }
        Err(DeployError::new(format!("explorer threads panicked: {:?}", self.degraded_explorers)))
    }

    /// The liveness transitions of learner shards only.
    pub fn learner_transitions(&self) -> Vec<LivenessTransition> {
        self.transitions.iter().filter(|t| t.pid.role == ProcessRole::Learner).copied().collect()
    }
}

/// Handle and bookkeeping for one supervised thread slot — an explorer, a
/// learner shard (the classic deployment is the one-shard case), a serving
/// replica's loop or parameter sink — and the one reap/respawn state machine
/// ([`Slot::reap`]) their supervisors run.
pub struct Slot<T> {
    handle: Option<JoinHandle<T>>,
    /// Times the slot was respawned (for a learner: restored).
    respawns: u32,
    /// Outcomes of every finished incarnation, oldest first (episode stats
    /// and learner work accumulate across respawns; a learner's final
    /// parameters and timeline come from the last).
    pub outcomes: Vec<T>,
    /// Death is proven but the respawn waits for the failure detector to
    /// publish the matching `ProcessDown` first.
    awaiting_detection: bool,
    /// A targeted shutdown is in flight: the slot must not be respawned.
    retired: bool,
}

/// What one [`Slot::reap`] tick found.
#[derive(Debug)]
pub enum Reap {
    /// No transition: running, awaiting the detector, or gone since earlier.
    Unchanged,
    /// The thread returned normally and stays down (shutdown reached it).
    Left,
    /// Died within budget, death published: the caller owes
    /// [`Slot::restart`] incarnation number `generation` (1 = first respawn).
    Respawn { generation: u32 },
    /// Died out of budget, or retired. Reported once.
    Exhausted,
}

impl<T> Slot<T> {
    /// A slot running its first incarnation.
    pub fn new(handle: JoinHandle<T>) -> Self {
        Slot {
            handle: Some(handle),
            respawns: 0,
            outcomes: Vec::new(),
            awaiting_detection: false,
            retired: false,
        }
    }

    /// Joins the slot's thread — if it has finished, or unconditionally when
    /// `wait` — keeping a normal exit's outcome. `Some(Err(()))` proves the
    /// thread panicked and fully unwound: its endpoint is deregistered, so
    /// the same `ProcessId` can re-register safely.
    pub fn join(&mut self, wait: bool) -> Option<Result<(), ()>> {
        let handle = self.handle.take_if(|h| wait || h.is_finished())?;
        Some(handle.join().map(|outcome| self.outcomes.push(outcome)).map_err(drop))
    }

    /// One supervision tick. Joins the thread if it finished: a panic is
    /// proof of death, and so is a return whose outcome `died` says was not
    /// an orderly exit. A death within `budget` waits until
    /// `death_published` (the detector announced it, so telemetry shows the
    /// `ProcessDown` before the next `ProcessUp`), then asks for the respawn.
    /// A zero budget never respawns.
    pub fn reap(
        &mut self,
        budget: u32,
        died: impl FnOnce(&T) -> bool,
        death_published: impl FnOnce() -> bool,
    ) -> Reap {
        if let Some(joined) = self.join(false) {
            if joined.is_ok() && !self.outcomes.last().is_some_and(died) {
                return Reap::Left;
            }
            if self.retired || self.respawns >= budget {
                return Reap::Exhausted;
            }
            self.awaiting_detection = true;
        }
        if self.awaiting_detection && death_published() {
            self.awaiting_detection = false;
            self.respawns += 1;
            return Reap::Respawn { generation: self.respawns };
        }
        Reap::Unchanged
    }

    /// Installs the incarnation a [`Reap::Respawn`] asked for.
    pub fn restart(&mut self, handle: JoinHandle<T>) {
        self.handle = Some(handle);
    }
}

impl Deployment {
    /// Builds the deployment graph for `config` — brokers, fabric, replay
    /// service, learner shards, explorers — and runs it with the calling
    /// thread as its center controller, under `supervision`: failure
    /// detection, panic recovery with respawn, and fault injection from
    /// `plan`. This is the only code that spawns and
    /// joins the training-plane processes; [`Deployment::run`] calls it with
    /// [`SupervisionConfig::unsupervised`] and an empty plan.
    ///
    /// Pass [`FaultPlan::seeded`] with no faults for plain supervised
    /// operation, or a populated plan for a chaos run — the plan's link
    /// schedule runs on the cluster's virtual clock, its route rules are
    /// installed on every broker, and its kill switches are armed inside the
    /// matching processes.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the configuration is invalid, a process
    /// cannot be (re)spawned, or a learner dies past its restore budget.
    pub fn run_supervised(
        config: DeploymentConfig,
        supervision: SupervisionConfig,
        plan: FaultPlan,
        telemetry: xt_telemetry::Telemetry,
    ) -> Result<(RunReport, RecoveryReport), DeployError> {
        config.validate().map_err(DeployError::new)?;
        let dims = build_env(&config.env, 0, config.obs_dim_override, config.step_latency_us)
            .map_err(DeployError::new)?;
        let obs_dim = dims.observation_dim();
        let num_actions = dims.num_actions();
        drop(dims);
        let num_explorers = config.total_explorers();
        let shards = config.learner_shards as u32;

        let cluster = Cluster::new(config.cluster.clone());
        // A zero beacon period is the field's degenerate value: no beacons,
        // hence no detector to feed.
        let interval_ms = supervision.heartbeat_interval_ms;
        let mut comm = config.comm.clone();
        if interval_ms > 0 {
            comm = comm.with_heartbeat(interval_ms, ProcessId::controller(0));
        }
        let brokers: Vec<Broker> = (0..cluster.len())
            .map(|m| Broker::with_telemetry(m, cluster.clone(), comm.clone(), telemetry.clone()))
            .collect();
        // Connect the fabric first: endpoints registered afterwards propagate
        // their routes to every peer broker live, so deployments can grow
        // (or restart processes) without re-running a table merge.
        connect_brokers(&brokers);
        let learner_broker = &brokers[config.learner_machine];
        // Elastic explorers have indices beyond the configured placement
        // table; they round-robin over the cluster's machines instead.
        let machine_of = |i: u32| -> usize {
            if i < num_explorers {
                config.explorer_machine(i)
            } else {
                i as usize % cluster.len()
            }
        };

        // Every endpoint a process can address is registered before that
        // process is spawned, or its first message is an unknown-destination
        // drop. The supervisor's own comes first of all: every process
        // reports stats to it, and a broker beacons to it as soon as it has a
        // live endpoint to list, within one interval of its registration.
        // Then the replay service, the learner shards (which greet their
        // peers at startup), and the explorers. Threads start in the paper's
        // order — (replay service,) learners, explorers — and only the replay
        // service, which speaks when spoken to, starts before the
        // registrations are complete.
        let start = Instant::now();
        let inbox = learner_broker.endpoint(ProcessId::controller(0));
        // Store-resident replay: one service per learner shard, beside the
        // learner's broker. Replay shard `s` ingests into plane `s`, which
        // learner shard `s` samples, and answers learner `s`. A service
        // outlives learner incarnations — experience survives a learner
        // crash. Beacons list its endpoint like every other, but the detector
        // does not watch it: there is no respawning it.
        let planes: Vec<Arc<ReplayPlane>> =
            (0..shards).filter_map(|_| build_replay_plane(&config, obs_dim, &telemetry)).collect();
        let mut replay_services = Vec::with_capacity(planes.len());
        for (s, plane) in (0..shards).zip(&planes) {
            let ep = learner_broker.endpoint(ProcessId::replay(s));
            let plane = plane.clone();
            replay_services.push(spawn_process(format!("xt-replay-{s}"), move || {
                xt_replay::run_replay_service(ep, plane, ProcessId::learner(s))
            })?);
        }
        let learner_eps: Vec<Endpoint> =
            (0..shards).map(|s| learner_broker.endpoint(ProcessId::learner(s))).collect();
        let explorer_eps: Vec<Endpoint> = (0..num_explorers)
            .map(|i| brokers[machine_of(i)].endpoint(ProcessId::explorer(i)))
            .collect();
        plan.install(&cluster, &brokers);

        // The detector exists exactly when something beacons to it, and
        // watches what the supervisor can respawn: the learner shards and the
        // explorers. Without one there is nothing to drain, sweep, or forget,
        // and proof of death (a join that returned `Err`) is all a respawn
        // waits for.
        let detector = (interval_ms > 0).then(|| {
            FailureDetector::new(DetectorConfig::for_interval_ms(interval_ms), telemetry.clone())
        });
        if let Some(detector) = &detector {
            detector.watch_many(
                (0..shards)
                    .map(ProcessId::learner)
                    .chain((0..num_explorers).map(ProcessId::explorer)),
            );
        }
        let observe = |msg: &Message| {
            if let Some(detector) = &detector {
                detector.observe_message(msg);
            }
        };
        let forget = |pid: ProcessId| {
            if let Some(detector) = &detector {
                detector.forget(pid);
            }
        };
        let death_published = |pid: ProcessId| {
            detector.as_ref().is_none_or(|d| d.liveness(pid) == Some(xt_fault::Liveness::Down))
        };
        // The supervisor's own voice on the channel.
        let send_shutdown = |dst: Vec<ProcessId>| {
            inbox.send_encoded(dst, MessageKind::Control, &ControlCommand::Shutdown);
        };
        // Rollouts follow the live assignment table to the owning shard's
        // learner, or its replay service: the destination is resolved per
        // batch, so elastic growth and shard respawns need no explorer
        // restart.
        let table = Arc::new(AssignmentTable::contiguous(num_explorers, shards));
        let role = if planes.is_empty() { ProcessRole::Learner } else { ProcessRole::Replay };
        let route = RolloutRoute { table: table.clone(), role };

        // Algorithm replica for one learner shard, at first spawn and on
        // every restore. Replicas are all seeded identically (the sync
        // allreduce requires identical initial parameters) and sized to the
        // explorer slice the shard owns at build — under sync, the whole pool,
        // whose explorer indices fix a round's slots (A2C). A restored learner
        // re-attaches to its shard's surviving replay plane: everything
        // ingested before the crash is sampleable the moment it completes.
        let sync = config.allreduce == AllreduceMode::Sync;
        let sized_to: Vec<u32> =
            (0..shards).map(|s| if sync { num_explorers } else { table.owned(s).len() as u32 }).collect();
        let build_shard_algorithm = |shard: u32| -> Box<dyn xingtian_algos::api::Algorithm> {
            let mut algorithm = build_algorithm_with_replay(
                &config.algorithm,
                obs_dim,
                num_actions,
                sized_to[shard as usize],
                config.rollout_len,
                config.seed,
                planes.get(shard as usize),
            );
            if let Some(params) = &config.initial_params {
                algorithm.load_params(params);
            }
            algorithm
        };
        // One learner checkpoints into the configured directory itself; peer
        // shards each own a `shard{s}` sub-directory of it.
        let checkpoint_dir = |base: &Path, shard: u32| -> PathBuf {
            if shards > 1 {
                base.join(format!("shard{shard}"))
            } else {
                base.to_path_buf()
            }
        };
        let spawn_learner = |shard: u32,
                             algorithm: Box<dyn xingtian_algos::api::Algorithm>,
                             endpoint: Endpoint,
                             probe: Option<xt_fault::ProcessProbe>|
         -> Result<JoinHandle<LearnerOutcome>, DeployError> {
            let checkpointer = match &config.checkpoint {
                Some(c) => {
                    let c = CheckpointConfig { dir: checkpoint_dir(&c.dir, shard), ..c.clone() };
                    Some(
                        Checkpointer::new(c).map_err(|e| {
                            DeployError::new(format!("cannot set up checkpoints: {e}"))
                        })?,
                    )
                }
                None => None,
            };
            let (table, mode) = (table.clone(), config.allreduce);
            let param_compression = config.comm.param_compression;
            spawn_process(format!("xt-learner-{shard}"), move || {
                LearnerProcess {
                    shard,
                    endpoint,
                    algorithm,
                    table,
                    mode,
                    checkpointer,
                    probe,
                    param_compression,
                }
                .run()
            })
        };
        let algorithms: Vec<_> = (0..shards).map(build_shard_algorithm).collect();
        let sync = algorithms[0].sync_mode();
        let algo_name = algorithms[0].name().to_string();
        let spawn_explorer = |i: u32,
                              generation: u32,
                              endpoint: Endpoint,
                              probe: Option<xt_fault::ProcessProbe>|
         -> Result<JoinHandle<ExplorerOutcome>, DeployError> {
            // Each incarnation explores from a distinct seed so a respawned
            // explorer does not re-walk its predecessor's exact trajectory.
            let seed = config
                .seed
                .wrapping_mul(1000)
                .wrapping_add(u64::from(i))
                .wrapping_add(u64::from(generation).wrapping_mul(0x9E37_79B9));
            let env = build_env(&config.env, seed, config.obs_dim_override, config.step_latency_us)
                .map_err(DeployError::new)?;
            let agent = build_agent(
                &config.algorithm,
                obs_dim,
                num_actions,
                num_explorers,
                config.rollout_len,
                config.seed,
                i,
            );
            let rollout_len = config.rollout_len;
            let route = route.clone();
            spawn_process(format!("xt-explorer-{i}"), move || {
                ExplorerProcess {
                    index: i,
                    endpoint,
                    env,
                    agent,
                    rollout_len,
                    route,
                    sync,
                    probe,
                }
                .run()
            })
        };

        let mut rollout_latency_src = learner_eps[0].delivery_stats_arc();
        let mut learner_slots: Vec<Slot<LearnerOutcome>> = Vec::with_capacity(shards as usize);
        for ((s, algorithm), endpoint) in (0..shards).zip(algorithms).zip(learner_eps) {
            let probe = Some(plan.probe_for(ProcessId::learner(s), Some(cluster.time_source())));
            learner_slots.push(Slot::new(spawn_learner(s, algorithm, endpoint, probe)?));
        }
        let mut slots: Vec<Slot<ExplorerOutcome>> = Vec::with_capacity(num_explorers as usize);
        for (i, endpoint) in (0..num_explorers).zip(explorer_eps) {
            let probe = Some(plan.probe_for(ProcessId::explorer(i), Some(cluster.time_source())));
            slots.push(Slot::new(spawn_explorer(i, 0, endpoint, probe)?));
        }

        let mut explorer_respawns: Vec<u32> = Vec::new();
        let mut degraded_explorers: Vec<u32> = Vec::new();
        let mut learner_restores = 0u32;
        let mut restored_param_version: Option<u64> = None;
        // A death the policy cannot absorb: supervision stops, the graph is
        // wound down and joined as usual, and this is what the run returns.
        let mut fatal: Option<DeployError> = None;
        // The center controller's tallies: learner steps toward the goal, and
        // explorer steps generated until the run ends.
        let mut learner_steps = 0u64;
        let mut steps_generated = 0u64;
        // Per shard, the highest version its incarnations reported or were
        // restored at: every version an explorer can hold from it.
        let mut announced = vec![0u64; shards as usize];
        let lockstep = config.allreduce == AllreduceMode::Sync && shards > 1;
        // `validate` has checked that this is a duration.
        let max_duration = Duration::from_secs_f64(config.max_seconds);

        // Elastic pool state: the elastic controller tracks intent; `slots`
        // beyond `num_explorers` are the elastic incarnations it materialized.
        let mut elastic =
            supervision.elastic.clone().map(|cfg| ElasticController::new(cfg, num_explorers));
        let mut elastic_spawns = 0u32;
        let mut elastic_retires = 0u32;
        let mut peak_explorer_pool = num_explorers;

        // ---- Supervision loop -------------------------------------------
        // The inbox is read until each tick, and the goal is checked on every
        // learner report, so the run ends the moment the goal is met; the
        // deadline, detector sweep, join-handle reaping and elastic control
        // happen once per tick. `budget` is the respawns per explorer and the
        // restores per learner shard.
        let (poll_ms, budget) = match interval_ms {
            0 => (UNSUPERVISED_POLL_MS, 0),
            interval => ((interval / 4).max(1), RECOVERY_BUDGET),
        };
        let poll = Duration::from_millis(poll_ms);
        'supervise: loop {
            // 1. Read the inbox until the tick: a `Stats` body is one step
            // count, and its sender's role says whose; beats feed the detector.
            let tick = Instant::now() + poll;
            let until_tick = || tick.saturating_duration_since(Instant::now());
            while let Some(msg) = inbox.recv_timeout(until_tick()) {
                if msg.header.kind == MessageKind::Stats {
                    if msg.header.src.role == ProcessRole::Learner {
                        let stats = LearnerStats::from_bytes(&msg.body).unwrap_or_default();
                        let heard = &mut announced[msg.header.src.index as usize];
                        *heard = (*heard).max(stats.version);
                        learner_steps += stats.steps;
                        if learner_steps >= config.goal_steps {
                            break 'supervise;
                        }
                    } else {
                        steps_generated += u64::from_bytes(&msg.body).unwrap_or(0);
                    }
                } else {
                    observe(&msg);
                }
                if until_tick().is_zero() {
                    break;
                }
            }

            // 2. The deadline ends the run like the goal does; otherwise
            // sweep for silence.
            if start.elapsed() >= max_duration {
                break;
            }
            if let Some(detector) = &detector {
                detector.sweep();
            }

            // 3. Reap dead explorers. The respawn of a proven death is
            // deferred until the detector (if any) publishes it. A zero
            // budget never respawns: the explorer is recorded as degraded
            // and training continues on the survivors.
            for (i, slot) in slots.iter_mut().enumerate() {
                let i_u32 = i as u32;
                let pid = ProcessId::explorer(i_u32);
                match slot.reap(budget, |_| false, || death_published(pid)) {
                    Reap::Unchanged => {}
                    // Normal exit (shutdown reached it).
                    Reap::Left => forget(pid),
                    Reap::Exhausted => {
                        eprintln!("supervisor: explorer {i_u32} out of respawn budget, degrading");
                        degraded_explorers.push(i_u32);
                    }
                    Reap::Respawn { generation } => {
                        let endpoint = brokers[machine_of(i_u32)].endpoint(pid);
                        match spawn_explorer(i_u32, generation, endpoint, None) {
                            Ok(h) => {
                                explorer_respawns.push(i_u32);
                                slot.restart(h);
                            }
                            Err(e) => {
                                eprintln!(
                                    "supervisor: cannot respawn explorer {i_u32} (degrading): {e}"
                                );
                                degraded_explorers.push(i_u32);
                            }
                        }
                    }
                }
            }

            // 4. Reap dead learner shards: once the death is published,
            // restore that shard from its own checkpoint directory and
            // respawn it. Surviving shards keep training meanwhile; the
            // rejoiner re-enters the gradient exchange on its first send
            // (sync mode loads a peer's state snapshot, relaxed mode just
            // resumes gossip within the skew bound).
            for (s, slot) in learner_slots.iter_mut().enumerate() {
                let s_u32 = s as u32;
                let pid = ProcessId::learner(s_u32);
                match slot.reap(budget, |_| false, || death_published(pid)) {
                    Reap::Unchanged => continue,
                    Reap::Left => {
                        forget(pid);
                        continue;
                    }
                    Reap::Exhausted => {
                        fatal = Some(DeployError::new(format!(
                            "learner shard {s_u32} died and is out of restore budget"
                        )));
                        break 'supervise;
                    }
                    Reap::Respawn { .. } => learner_restores += 1,
                }
                // The restored learner loads its checkpointed state, or its
                // fresh one without a checkpoint. Its first announcement must
                // outrank every version its dead incarnation reported, or
                // explorers holding those ignore it and on-policy learners
                // discard their rollouts as stale. A lockstep shard instead
                // keeps the checkpoint's version and loads the ring's state
                // from a peer's snapshot.
                let mut algorithm = build_shard_algorithm(s_u32);
                let restored = match &config.checkpoint {
                    Some(c) => load_latest_state(checkpoint_dir(&c.dir, s_u32))
                        .and_then(|state| algorithm.load_state(&state).map_err(|e| e.to_string())),
                    None => Err("checkpointing disabled".to_string()),
                };
                if let Err(e) = &restored {
                    eprintln!("supervisor: learner shard {s_u32} restarting from scratch ({e})");
                }
                if !lockstep {
                    if algorithm.version() <= announced[s] {
                        let mut state = algorithm.save_state();
                        state.blob.version = announced[s] + 1;
                        algorithm.load_state(&state).expect("a learner loads its own state");
                    }
                    announced[s] = algorithm.version();
                }
                if restored.is_ok() {
                    restored_param_version = Some(algorithm.version());
                }
                let endpoint = learner_broker.endpoint(pid);
                if s_u32 == 0 {
                    rollout_latency_src = endpoint.delivery_stats_arc();
                }
                match spawn_learner(s_u32, algorithm, endpoint, None) {
                    Ok(h) => slot.restart(h),
                    Err(e) => {
                        fatal = Some(e);
                        break 'supervise;
                    }
                }
            }

            // 5. Elastic pool control: fold the brokers' *data-plane* store
            // occupancy — the channel's in-flight backpressure signal — into
            // the watermark policy and execute its decision. Control-plane
            // traffic (parameter broadcasts, stats) bypasses the capacity
            // gate and is excluded, so a chatty learner cannot pin the
            // signal above the low watermark and stall the drain.
            if let Some(ctl) = elastic.as_mut() {
                let occupancy =
                    brokers.iter().map(|b| b.store().data_occupancy()).fold(0.0f64, f64::max);
                match ctl.decide(occupancy) {
                    ElasticDecision::Grow(n) => {
                        for _ in 0..n {
                            let i = slots.len() as u32;
                            let pid = ProcessId::explorer(i);
                            // Owner first, then endpoint, then spawn: the new
                            // explorer's first rollout must resolve an owner
                            // and its first heartbeat must find the detector
                            // already watching.
                            table.register(i);
                            if let Some(detector) = &detector {
                                detector.watch(pid);
                            }
                            let endpoint = brokers[machine_of(i)].endpoint(pid);
                            match spawn_explorer(i, 0, endpoint, None) {
                                Ok(h) => {
                                    elastic_spawns += 1;
                                    slots.push(Slot::new(h));
                                }
                                Err(e) => {
                                    forget(pid);
                                    eprintln!("supervisor: cannot grow explorer pool: {e}");
                                }
                            }
                        }
                        peak_explorer_pool = peak_explorer_pool.max(slots.len() as u32);
                    }
                    ElasticDecision::Shrink(n) => {
                        // Retire the highest-index live elastic explorers
                        // with a targeted shutdown, unwatched from now on:
                        // the beats their brokers list until the shutdown
                        // lands are ignored, and the ordinary reap path
                        // joins them.
                        let mut remaining = n;
                        for i in (num_explorers as usize..slots.len()).rev() {
                            if remaining == 0 {
                                break;
                            }
                            let slot = &mut slots[i];
                            if slot.retired || slot.handle.is_none() {
                                continue;
                            }
                            slot.retired = true;
                            elastic_retires += 1;
                            remaining -= 1;
                            forget(ProcessId::explorer(i as u32));
                            send_shutdown(vec![ProcessId::explorer(i as u32)]);
                        }
                    }
                    ElasticDecision::Hold => {}
                }
            }
        }

        // The one broadcast, whatever ended the run: every explorer slot —
        // respawned and elastic ones included, none is spawned after this —
        // and every learner shard.
        let mut dst: Vec<ProcessId> = (0..slots.len() as u32).map(ProcessId::explorer).collect();
        dst.extend((0..shards).map(ProcessId::learner));
        send_shutdown(dst);

        // Final joins. Post-shutdown panics are possible (a probe can fire on
        // the last pulse before the command is handled) — they degrade, never
        // respawn.
        for (s, slot) in learner_slots.iter_mut().enumerate() {
            if slot.join(true) == Some(Err(())) {
                fatal.get_or_insert(DeployError::new(format!(
                    "learner shard {s} panicked during shutdown"
                )));
            }
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.join(true) == Some(Err(())) {
                eprintln!("supervisor: explorer {i} panicked during shutdown");
                degraded_explorers.push(i as u32);
            }
        }
        let wall_time = start.elapsed();

        // The replay services stop only after every producer and consumer
        // has joined: a closed endpoint still delivers every rollout already
        // routed to it, so those get ingested, and each
        // plane's torn-write audit runs on its final state. The report sums
        // the shards.
        let mut replay: Option<ReplayReport> = None;
        for ((s, handle), plane) in (0..shards).zip(replay_services).zip(&planes) {
            learner_broker.close_endpoint(ProcessId::replay(s));
            let Ok(outcome) = handle.join() else {
                fatal.get_or_insert(DeployError::new("replay service thread panicked"));
                continue;
            };
            let integrity = plane.integrity();
            let total = replay.get_or_insert_with(ReplayReport::default);
            total.batches_ingested += outcome.batches_ingested;
            total.steps_ingested += outcome.steps_ingested;
            total.resident += integrity.resident;
            total.dangling_slots += integrity.dangling_slots;
        }

        // Everything has exited; the stores should drain to empty as receiver
        // and uplink threads finish in-flight work. The first look comes before any sleep (a
        // quiet run is already empty); leftovers get a bounded moment before
        // they are declared a leak.
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        let leaked_objects = loop {
            while let Some(msg) = inbox.try_recv() {
                observe(&msg);
            }
            let remaining: usize = brokers.iter().map(|b| b.store().len()).sum();
            if remaining == 0 || Instant::now() >= drain_deadline {
                break remaining;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let down_at_exit = detector.as_ref().map_or_else(Vec::new, FailureDetector::down);
        let transitions = detector.as_ref().map_or_else(Vec::new, FailureDetector::transitions);
        inbox.close();
        for b in &brokers {
            b.shutdown();
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        let dropped_messages: u64 = brokers.iter().map(Broker::dropped).sum();

        // Episode returns come from the explorers' own trackers.
        let mut episode_returns = Vec::new();
        for slot in &slots {
            for o in &slot.outcomes {
                episode_returns.extend_from_slice(o.tracker.returns());
            }
        }

        // The aggregate sums work across shards and incarnations; the
        // report's timeline/wait/lag views and final parameters are those of
        // shard 0's last incarnation (one representative stream).
        let incarnations = || learner_slots.iter().flat_map(|s| &s.outcomes);
        let steps_consumed: u64 = incarnations().map(|o| o.steps_consumed).sum();
        let train_sessions: u64 = incarnations().map(|o| o.train_sessions).sum();
        let train_time: Duration = incarnations().map(|o| o.train_time).sum();
        let learner_shard_params: Vec<Vec<f32>> = if shards > 1 {
            learner_slots
                .iter()
                .map(|s| s.outcomes.last().map(|o| o.final_params.clone()).unwrap_or_default())
                .collect()
        } else {
            Vec::new()
        };
        let learner_shard_restores: Vec<u32> = learner_slots.iter().map(|s| s.respawns).collect();
        let last = learner_slots[0]
            .outcomes
            .pop()
            .ok_or_else(|| DeployError::new("no learner incarnation completed"))?;
        let mean_train_time = if train_sessions > 0 {
            train_time / train_sessions as u32
        } else {
            Duration::ZERO
        };
        let recovery = RecoveryReport {
            explorer_respawns,
            degraded_explorers,
            learner_restores,
            learner_shard_restores,
            restored_param_version,
            transitions,
            down_at_exit,
            leaked_objects,
            dangling_replay_slots: replay.as_ref().map_or(0, |r| r.dangling_slots),
            elastic_spawns,
            elastic_retires,
            peak_explorer_pool,
        };
        let report = RunReport {
            algorithm: algo_name,
            env: config.env.clone(),
            steps_consumed,
            steps_generated,
            wall_time,
            timeline: last.timeline,
            learner_wait: last.wait_stats,
            rollout_latency: rollout_latency_src,
            policy_lag: last.policy_lag,
            rollouts_by_explorer: last.rollouts_by_explorer,
            episode_returns,
            train_sessions,
            mean_train_time,
            final_params: last.final_params,
            learner_shard_params,
            replay,
            dropped_messages,
        };
        Ok((report, recovery))
    }
}
