//! Multi-learner sharded training before/after: aggregate gradient-compute
//! throughput when the sync allreduce splits one round's fixed slot work
//! across 1, 2, and 4 learner shards (DESIGN.md §10).
//!
//! Stage 1 drives the round a deployment's learner loop runs — `Lockstep` +
//! DQN over real broker endpoints, fixed slot data in place of sampling —
//! on a fanout-256 workload: every round is a 256-row global batch split
//! into `GRAD_SLOTS` fixed 64-row slot minibatches, independent of the shard
//! count. The driver is single-threaded, so per-shard *busy time* (the
//! driving thread's CPU time, preemption excluded) is measured directly and
//! a round's makespan is the maximum over shards — what wall clock would be
//! with one core per shard.
//! Aggregate throughput is global rows over summed makespans; the run also
//! asserts the tentpole contract (bit-identical parameters across shard
//! counts) and reports the `learn.allreduce_ns` collect-phase latency.
//!
//! Stage 2 runs a real 2-shard *relaxed* CartPole DQN deployment and reports
//! the delta-gossip economics: `comm.grad_uploads` vs `comm.grad_skips`
//! (LAPG gate) and `learn.grad_applied` vs `learn.grad_shed` (version-skew
//! shedding on the receive side).
//!
//! `--gate <ratio>` exits nonzero unless 2 shards deliver at least `ratio`×
//! the 1-shard aggregate throughput AND the relaxed stage skipped at least
//! one gradient upload (the CI regression gate).

use netsim::Cluster;
use std::ffi::{c_int, c_long};
use std::time::Duration;
use xingtian::config::{AllreduceMode, AlgorithmSpec, DeploymentConfig};
use xingtian::shard::{Lockstep, GRAD_SLOTS};
use xingtian::Deployment;
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::RolloutStep;
use xingtian_algos::{DqnAlgorithm, DqnConfig};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::{MessageKind, ProcessId};
use xt_bench::{fmt_dur, header};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 64;
const N_ACTIONS: usize = 4;
const SLOT_ROWS: usize = 64; // 4 slots x 64 rows = the fanout-256 global batch

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

/// The fixed slot minibatch: identical for every shard count, so the final
/// parameters must be bit-identical too.
fn slot_steps(slot: usize) -> Vec<RolloutStep> {
    (0..SLOT_ROWS)
        .map(|row| {
            let tag = slot as u64 * 1_000 + row as u64;
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
    c.hidden = vec![256, 256];
    c.batch_size = SLOT_ROWS;
    c.seed = 11;
    DqnAlgorithm::new(c)
}

/// On-CPU time of the calling thread, to the nanosecond: unlike `Instant`, a
/// preempted stretch does not count. (`/proc/thread-self/schedstat` counts the
/// same but advances only at scheduler ticks, coarser than a slot gradient.)
fn thread_cpu() -> Duration {
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut [c_long; 2]) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts: [c_long; 2] = [0; 2];
    // SAFETY: two longs are Linux's `struct timespec`, writable for the call.
    assert_eq!(unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) }, 0, "clock_gettime failed");
    Duration::new(ts[0] as u64, ts[1] as u32)
}

struct SyncOutcome {
    /// Sum over rounds of the slowest shard's busy time (compute + reduce +
    /// apply; receive *wait* excluded — the driver is single-threaded).
    makespan: Duration,
    /// Mean collect-phase latency (own slots announced → round folded) per
    /// shard per round, from the `learn.allreduce_ns` histogram the round
    /// itself records. The driver is single-threaded, so this spans the
    /// later shards' compute phases.
    allreduce_ns: u64,
    /// Shard 0's final parameters, for the cross-shard-count bitwise check.
    params: Vec<f32>,
}

/// Runs `rounds` sync-allreduce rounds across `shards` learner replicas —
/// the learner loop's own round (`Lockstep::open_round` / `close_round`) on
/// the fixed slot data — and measures what each shard was busy doing.
fn measure_sync(shards: u32, rounds: u64) -> SyncOutcome {
    let cluster = Cluster::single();
    let telemetry = Telemetry::with_time_source(1 << 12, cluster.time_source());
    let broker = Broker::with_telemetry(0, cluster, CommConfig::default(), telemetry.clone());
    let eps: Vec<_> = (0..shards).map(|s| broker.endpoint(ProcessId::learner(s))).collect();
    let mut algs: Vec<DqnAlgorithm> = (0..shards).map(|_| shard_algorithm()).collect();
    let mut rings: Vec<Lockstep> = (0..shards).map(|s| Lockstep::new(s, shards, 0, &telemetry)).collect();
    let slots: Vec<Vec<RolloutStep>> = (0..GRAD_SLOTS).map(slot_steps).collect();

    let mut makespan = Duration::ZERO;
    for round in 0..rounds {
        let mut busy = vec![Duration::ZERO; shards as usize];
        // Compute phase: every shard grades its own slots and allgathers.
        for s in 0..shards as usize {
            let t0 = thread_cpu();
            let alg = &mut algs[s];
            rings[s].open_round(&eps[s], |slot, grad| {
                alg.grad_on_steps(&slots[slot], SLOT_ROWS * GRAD_SLOTS, grad)
            });
            busy[s] += thread_cpu() - t0;
        }
        // Collect phase: drain until the round closes (fold, one optimizer
        // step). Receive *wait* is not busy time; fold and apply are.
        for s in 0..shards as usize {
            loop {
                let t0 = thread_cpu();
                if rings[s].close_round(&mut algs[s]).is_some() {
                    busy[s] += thread_cpu() - t0;
                    break;
                }
                let msg = eps[s]
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("shard {s} starved in round {round}"));
                assert_eq!(msg.header.kind, MessageKind::Gradient);
                rings[s].on_gradient(&msg, &eps[s], &algs[s]);
            }
        }
        makespan += busy.iter().copied().max().unwrap_or_default();
    }
    let bits: Vec<Vec<u32>> = algs
        .iter()
        .map(|a| a.param_blob().params.iter().map(|p| p.to_bits()).collect())
        .collect();
    for (s, b) in bits.iter().enumerate() {
        assert_eq!(b, &bits[0], "shard {s} of {shards} diverged bitwise from shard 0");
    }
    let out = SyncOutcome {
        makespan,
        allreduce_ns: telemetry
            .histogram("learn.allreduce_ns")
            .histogram()
            .map(|h| h.mean())
            .unwrap_or(0),
        params: algs[0].param_blob().params,
    };
    drop(eps);
    broker.shutdown();
    out
}

/// The real relaxed deployment: 2 DQN shards, 4 CartPole explorers, delta
/// gossip between the shards through the LAPG gate.
fn relaxed_deployment(goal: u64) -> DeploymentConfig {
    let mut c = DqnConfig::new(0, 0); // dimensions filled in at deployment
    c.buffer_capacity = 8_192;
    c.warmup_steps = 200;
    c.train_every_inserts = 8;
    c.batch_size = 32;
    DeploymentConfig::cartpole(AlgorithmSpec::Dqn(c), 4)
        .with_rollout_len(25)
        .with_goal_steps(goal)
        .with_max_seconds(60.0)
        .with_seed(41)
        .with_learner_shards(2)
        .with_allreduce(AllreduceMode::Relaxed)
}

fn main() {
    let mut gate: Option<f64> = None;
    let mut rounds = 20u64;
    let mut goal = 4_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                gate = Some(args.next().and_then(|v| v.parse().ok()).expect("--gate takes a ratio"))
            }
            "--rounds" => {
                rounds =
                    args.next().and_then(|v| v.parse().ok()).expect("--rounds takes a count")
            }
            "--goal" => {
                goal = args.next().and_then(|v| v.parse().ok()).expect("--goal takes steps")
            }
            "--help" | "-h" => {
                println!("flags: --gate <ratio>  --rounds <n>  --goal <steps>");
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }

    let global_rows = SLOT_ROWS * GRAD_SLOTS;
    header(&format!(
        "multi-learner sync allreduce: fanout-256 rounds ({global_rows} rows = {GRAD_SLOTS} slots x {SLOT_ROWS}), {rounds} rounds"
    ));
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>8}",
        "shards", "busy time", "rows/s", "allreduce", "speedup"
    );
    let mut baseline = 0.0f64;
    let mut speedup2 = 0.0f64;
    let mut reference: Option<Vec<u32>> = None;
    for shards in [1u32, 2, 4] {
        let out = measure_sync(shards, rounds);
        let rows_per_s = (global_rows as u64 * rounds) as f64 / out.makespan.as_secs_f64();
        if shards == 1 {
            baseline = rows_per_s;
        }
        let speedup = rows_per_s / baseline;
        if shards == 2 {
            speedup2 = speedup;
        }
        println!(
            "{:<8} {:>12} {:>14.0} {:>14} {:>7.2}x",
            shards,
            fmt_dur(out.makespan),
            rows_per_s,
            fmt_dur(Duration::from_nanos(out.allreduce_ns)),
            speedup
        );
        let bits: Vec<u32> = out.params.iter().map(|p| p.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(&bits, r, "{shards} shards diverged bitwise from 1 shard"),
        }
    }

    header("relaxed delta gossip: 2-shard CartPole DQN deployment, LAPG gate economics");
    let telemetry = Telemetry::with_capacity(1 << 16);
    let report = Deployment::run_with_telemetry(relaxed_deployment(goal), telemetry.clone())
        .expect("relaxed sharded deployment runs");
    let uploads = telemetry.counter("comm.grad_uploads").get();
    let skips = telemetry.counter("comm.grad_skips").get();
    let applied = telemetry.counter("learn.grad_applied").get();
    let shed = telemetry.counter("learn.grad_shed").get();
    println!(
        "steps {}  wall {:.2}s  sessions {}  grad_uploads {}  grad_skips {}  applied {}  shed {}",
        report.steps_consumed,
        report.wall_time.as_secs_f64(),
        report.train_sessions,
        uploads,
        skips,
        applied,
        shed
    );
    assert_eq!(report.learner_shard_params.len(), 2);

    if let Some(required) = gate {
        if speedup2 < required {
            eprintln!(
                "GATE FAILED: 2 shards deliver only {speedup2:.2}x aggregate throughput \
                 over 1 shard (required {required:.1}x)"
            );
            std::process::exit(1);
        }
        if skips == 0 {
            eprintln!(
                "GATE FAILED: relaxed gossip never skipped an upload \
                 (comm.grad_skips = 0; the LAPG gate is not engaging)"
            );
            std::process::exit(1);
        }
        println!(
            "gate ok: 2 shards are {speedup2:.2}x over 1 shard; relaxed gate skipped {skips} of {} offers",
            uploads + skips
        );
    }
}
