//! The four workloads and the fixed-work block each of them runs.
//!
//! A block builds the system from a seed, runs a fixed amount of work through
//! it, tears it down and checks what came out. Every workload is a closed
//! loop: explorers wait on the channel's own flow control, the `xfer_small`
//! senders on credits the receiver hands back.

use crate::clock::process_cpu_s;
use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::{build_algorithm, build_env, Deployment};
use xingtian_comm::{Broker, CommConfig, Endpoint};
use xingtian_message::{MessageKind, ProcessId};

/// Wall-clock cap on one block. A full block is sized to about two seconds;
/// one that needs fifteen times that has failed, and must not hang the run.
const BLOCK_CAP_SECS: f64 = 30.0;

/// Senders of `xfer_small`: with the receiver, no more load threads than the
/// sandbox has cores.
pub const XFER_SENDERS: u32 = 2;
/// Body size of an `xfer_small` message.
pub const XFER_BODY: usize = 1024;
/// Undelivered messages a sender may hold. Without credits the only
/// back-pressure is the 128 MiB store, and the block measures a standing
/// queue and its page faults, not the channel.
pub const XFER_CREDITS: usize = 64;
/// Bytes of an `xfer_small` body that carry sender, sequence number and send
/// stamp; the rest is the seeded pattern.
const XFER_HEADER: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ImpalaAsync,
    DqnReplay,
    PpoSync2m,
    XferSmall,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ImpalaAsync,
        Workload::DqnReplay,
        Workload::PpoSync2m,
        Workload::XferSmall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ImpalaAsync => "impala_async",
            Workload::DqnReplay => "dqn_replay",
            Workload::PpoSync2m => "ppo_sync_2m",
            Workload::XferSmall => "xfer_small",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ImpalaAsync | Workload::PpoSync2m => "rollout step consumed by the learner",
            Workload::DqnReplay => "replay row consumed by a training session",
            Workload::XferSmall => "1 KiB message delivered and verified",
        }
    }

    /// Operations in one full block: about two seconds of work on the
    /// two-core sandbox the benchmark was sized on.
    pub fn block_ops(self) -> u64 {
        match self {
            Workload::ImpalaAsync => 56_000,
            Workload::DqnReplay => 180_000,
            Workload::PpoSync2m => 14_000,
            Workload::XferSmall => 330_000,
        }
    }

    /// The deployment a block of `ops` operations runs, or `None` for the
    /// harness-driven `xfer_small`.
    pub fn deployment(self, seed: u64, ops: u64) -> Option<DeploymentConfig> {
        let atari = |algorithm, explorers, obs_dim, rollout_len| {
            DeploymentConfig::atari("BeamRider", algorithm, explorers)
                .with_obs_dim(obs_dim)
                .with_rollout_len(rollout_len)
                .with_step_latency_us(0)
                .with_goal_steps(ops)
                .with_max_seconds(BLOCK_CAP_SECS)
                .with_seed(seed)
        };
        match self {
            Workload::ImpalaAsync => Some(atari(AlgorithmSpec::impala(), 2, 512, 500)),
            Workload::DqnReplay => {
                Some(atari(AlgorithmSpec::dqn(), 1, 512, 4).with_store_resident_replay())
            }
            Workload::PpoSync2m => {
                let mut config = atari(AlgorithmSpec::ppo(), 2, 1024, 500);
                config.cluster = ClusterSpec::default().machines(2);
                config.explorers_per_machine = vec![0, 2];
                Some(config)
            }
            Workload::XferSmall => None,
        }
    }
}

/// What a deployment's own report says about where the block's time went.
#[derive(Debug, Clone, Copy)]
pub struct InSitu {
    pub learner_wait_s: f64,
    pub train_s: f64,
    pub train_sessions: u64,
    pub rollout_latency_mean_ms: f64,
    pub report_wall_s: f64,
}

/// One block's outcome.
#[derive(Debug, Clone)]
pub struct Block {
    /// Operations the block had to complete.
    pub attempted: u64,
    /// Operations it completed (a deployment may overshoot its goal by the
    /// session in flight).
    pub ops: u64,
    pub failed: u64,
    /// Harness-measured time around building, running and tearing down.
    pub wall_s: f64,
    /// Process CPU time, user and system, all threads, over the same interval.
    pub cpu_s: f64,
    /// One line per failed check.
    pub faults: Vec<String>,
    pub insitu: Option<InSitu>,
    /// `xfer_small` only, and only when asked for: send stamp to receipt.
    pub latencies_us: Vec<f64>,
}

impl Block {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops as f64
    }
}

/// Runs one block of `ops` operations of `workload`, inputs made from `seed`.
pub fn run_block(workload: Workload, seed: u64, ops: u64, record_latency: bool) -> Block {
    match workload.deployment(seed, ops) {
        Some(config) => deployment_block(config),
        None => xfer_block(seed, ops, record_latency),
    }
}

/// The parameters the learner starts from: what the final ones must differ
/// from.
fn initial_params(config: &DeploymentConfig) -> Vec<f32> {
    let env = build_env(
        &config.env,
        0,
        config.obs_dim_override,
        config.step_latency_us,
    )
    .expect("the workloads name environments that exist");
    build_algorithm(
        &config.algorithm,
        env.observation_dim(),
        env.num_actions(),
        config.total_explorers(),
        config.rollout_len,
        config.seed,
    )
    .param_blob()
    .params
}

fn deployment_block(config: DeploymentConfig) -> Block {
    let attempted = config.goal_steps;
    let initial = initial_params(&config);
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let result = Deployment::run(config);
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);

    let mut faults = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            faults.push(what);
        }
    };
    let (ops, insitu) = match result {
        Err(e) => {
            check(false, format!("deployment did not run: {e}"));
            (0, None)
        }
        Ok(r) => {
            check(
                r.steps_consumed >= attempted,
                format!("consumed {} of {attempted} steps", r.steps_consumed),
            );
            check(r.train_sessions > 0, "no training session ran".into());
            check(
                r.dropped_messages == 0,
                format!("{} messages dropped", r.dropped_messages),
            );
            check(
                r.final_params.iter().all(|p| p.is_finite()),
                "final parameters are not finite".into(),
            );
            check(
                r.final_params != initial,
                "final parameters equal the initial ones".into(),
            );
            if let Some(replay) = r.replay {
                check(
                    replay.dangling_slots == 0,
                    format!("{} dangling replay slots", replay.dangling_slots),
                );
            }
            let insitu = InSitu {
                learner_wait_s: r.learner_wait.mean().as_secs_f64() * r.learner_wait.len() as f64,
                train_s: r.mean_train_time.as_secs_f64() * r.train_sessions as f64,
                train_sessions: r.train_sessions,
                rollout_latency_mean_ms: r.rollout_latency.mean().as_secs_f64() * 1e3,
                report_wall_s: r.wall_time.as_secs_f64(),
            };
            (r.steps_consumed, Some(insitu))
        }
    };
    let failed = if faults.is_empty() { 0 } else { attempted };
    Block {
        attempted,
        ops,
        failed,
        wall_s,
        cpu_s,
        faults,
        insitu,
        latencies_us: Vec::new(),
    }
}

/// A counting semaphore the harness threads block on.
struct Credits {
    free: Mutex<usize>,
    returned: Condvar,
}

impl Credits {
    fn new(n: usize) -> Self {
        Credits {
            free: Mutex::new(n),
            returned: Condvar::new(),
        }
    }

    fn take(&self) {
        let mut free = self
            .free
            .lock()
            .expect("no holder of the credit lock panics");
        while *free == 0 {
            free = self
                .returned
                .wait(free)
                .expect("no holder of the credit lock panics");
        }
        *free -= 1;
    }

    fn give(&self, n: usize) {
        *self
            .free
            .lock()
            .expect("no holder of the credit lock panics") += n;
        self.returned.notify_one();
    }
}

/// The seeded bytes every message of a block carries after its header.
pub(crate) fn xfer_pattern(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..XFER_BODY).map(|_| rng.gen()).collect()
}

/// The body of message `seq` from `sender`: header fields, then the block's
/// seeded pattern.
pub(crate) fn xfer_body(pattern: &[u8], sender: u32, seq: u64, stamp_ns: u64) -> Bytes {
    let mut body = pattern.to_vec();
    body[0..4].copy_from_slice(&sender.to_le_bytes());
    body[4..12].copy_from_slice(&seq.to_le_bytes());
    body[12..XFER_HEADER].copy_from_slice(&stamp_ns.to_le_bytes());
    Bytes::from(body)
}

fn xfer_block(seed: u64, ops: u64, record_latency: bool) -> Block {
    let per_sender = ops / u64::from(XFER_SENDERS);
    let attempted = per_sender * u64::from(XFER_SENDERS);
    let pattern = xfer_pattern(seed);

    let (t0, c0) = (Instant::now(), process_cpu_s());
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    let receiver = broker.endpoint(ProcessId::learner(0));
    let senders: Vec<Endpoint> = (0..XFER_SENDERS)
        .map(|i| broker.endpoint(ProcessId::explorer(i)))
        .collect();
    let credits: Vec<Credits> = senders.iter().map(|_| Credits::new(XFER_CREDITS)).collect();
    let abort = AtomicBool::new(false);

    let mut delivered = 0u64;
    let mut bad = 0u64;
    let mut faults = Vec::new();
    let mut latencies_us = Vec::new();
    if record_latency {
        latencies_us.reserve(attempted as usize);
    }
    std::thread::scope(|scope| {
        for (sender, credits) in senders.iter().zip(&credits) {
            let (pattern, abort) = (&pattern, &abort);
            scope.spawn(move || {
                for seq in 0..per_sender {
                    credits.take();
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let stamp_ns = t0.elapsed().as_nanos() as u64;
                    let body = xfer_body(pattern, sender.pid().index, seq, stamp_ns);
                    sender.send_to(vec![ProcessId::learner(0)], MessageKind::Dummy, body);
                }
            });
        }

        let mut next_seq = vec![0u64; senders.len()];
        while delivered < attempted {
            let Some(msg) = receiver.recv_timeout(Duration::from_secs_f64(BLOCK_CAP_SECS)) else {
                faults.push(format!(
                    "receiver starved after {delivered} of {attempted} messages"
                ));
                break;
            };
            delivered += 1;
            let body = &msg.body[..];
            if body.len() != XFER_BODY {
                bad += 1;
                faults.push(format!("body of {} bytes", body.len()));
                continue;
            }
            let sender = u32::from_le_bytes(body[0..4].try_into().expect("four bytes")) as usize;
            let seq = u64::from_le_bytes(body[4..12].try_into().expect("eight bytes"));
            let stamp_ns =
                u64::from_le_bytes(body[12..XFER_HEADER].try_into().expect("eight bytes"));
            if sender >= next_seq.len() || body[XFER_HEADER..] != pattern[XFER_HEADER..] {
                bad += 1;
                faults.push("payload pattern corrupted".into());
                continue;
            }
            if seq != next_seq[sender] {
                bad += 1;
                faults.push(format!(
                    "sender {sender}: expected message {}, got {seq}",
                    next_seq[sender]
                ));
            }
            next_seq[sender] = seq + 1;
            if record_latency {
                latencies_us
                    .push((t0.elapsed().as_nanos() as u64).saturating_sub(stamp_ns) as f64 / 1e3);
            }
            credits[sender].give(1);
        }
        // Let a sender that is still waiting for a credit (only after a
        // fault) leave its loop, so the scope can join it.
        abort.store(true, Ordering::Relaxed);
        for c in &credits {
            c.give(1);
        }
    });
    for endpoint in senders.iter().chain([&receiver]) {
        endpoint.close();
    }
    broker.shutdown();
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), process_cpu_s() - c0);

    let dropped = broker.dropped();
    if dropped > 0 {
        faults.push(format!("{dropped} messages dropped"));
    }
    let leftover = broker.store().len() as u64;
    if leftover > 0 {
        faults.push(format!("{leftover} bodies left in the object store"));
    }
    // A systemic fault reports every message; a few lines say enough.
    faults.truncate(8);
    let failed = (attempted - delivered + bad + dropped + leftover).min(attempted);
    Block {
        attempted,
        ops: delivered - bad,
        failed,
        wall_s,
        cpu_s,
        faults,
        insitu: None,
        latencies_us,
    }
}
