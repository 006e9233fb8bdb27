//! Train -> checkpoint -> serve: the policy-serving plane end to end.
//!
//! ```text
//! cargo run --release --example serve_qps
//! ```
//!
//! Trains a CartPole DQN briefly with periodic checkpointing, stands a
//! two-replica [`ServeFleet`] up from the latest checkpoint, then fires
//! 10 000 queries at it from two open-loop clients while a publisher keeps
//! hot-swapping perturbed parameter versions mid-traffic (the live-learner
//! attachment). Ends with the SLO table: aggregate inference rate, batch
//! size, and the queue/infer/e2e latency summaries, plus proof that no
//! request was dropped and every replica landed on the final version.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::Cluster;
use xingtian::checkpoint::{load_latest, CheckpointConfig};
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::Deployment;
use xingtian_algos::{DqnConfig, ParamBlob};
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 4; // CartPole observation
const ACTIONS: usize = 2;
const QUERIES: u64 = 10_000;
const CLIENTS: u32 = 2;

fn fmt_us(ns: u64) -> String {
    format!("{:.1}µs", ns as f64 / 1_000.0)
}

fn print_summary(telemetry: &Telemetry, name: &str) {
    let handle = telemetry.histogram(name);
    let Some(h) = handle.histogram() else { return };
    let s = h.summary();
    if s.count == 0 {
        return;
    }
    if name.ends_with("_us") {
        println!(
            "  {name:<17} n={:<6} mean={:<9} p50={:<9} p90={:<9} p99={:<9} max={}",
            s.count,
            fmt_us(s.mean),
            fmt_us(s.p50),
            fmt_us(s.p90),
            fmt_us(s.p99),
            fmt_us(s.max)
        );
    } else {
        println!(
            "  {name:<17} n={:<6} mean={:<9} p50={:<9} p99={:<9} max={}",
            s.count, s.mean, s.p50, s.p99, s.max
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train briefly with periodic checkpointing (paper §4.2).
    let dir = std::env::temp_dir().join("xingtian_serve_qps_ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let mut dqn = DqnConfig::new(0, 0); // dimensions filled in at deployment
    dqn.warmup_steps = 500;
    dqn.train_every_inserts = 4;
    dqn.batch_size = 32;

    let goal = 8_000;
    println!("training: CartPole DQN, 2 explorers, goal {goal} sampled steps");
    let config = DeploymentConfig::cartpole(AlgorithmSpec::Dqn(dqn), 2)
        .with_rollout_len(100)
        .with_goal_steps(goal)
        .with_max_seconds(120.0)
        .with_seed(7)
        .with_checkpoint(CheckpointConfig::new(&dir, 64));
    let report = Deployment::run(config)?;
    println!(
        "trained: {} steps in {:.1}s, {} train sessions",
        report.steps_consumed,
        report.wall_time.as_secs_f64(),
        report.train_sessions
    );

    // 2. Serve the latest checkpoint on a two-replica fleet. The fleet also
    // keeps the directory so a crashed replica respawns from it.
    let ckpt = load_latest(&dir)?;
    println!("serving: checkpoint v{} ({} params), 2 replicas", ckpt.version, ckpt.params.len());
    let telemetry = Telemetry::enabled();
    let broker =
        Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
    let serve_config = ServeConfig::new(CLIENTS as usize, OBS_DIM, ACTIONS)
        .with_batching(128, 150)
        .with_checkpoint_dir(&dir);
    let fleet = ServeFleet::start(&broker, serve_config, &ckpt);

    // 3. Two open-loop clients fire 10k queries total while swaps land.
    let t0 = Instant::now();
    let loaders: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::new(&broker, i, CLIENTS as usize);
                client.set_target(ProcessId::server(i % CLIENTS));
                let mut replies = Vec::new();
                let mut action_counts = [0u64; ACTIONS];
                let mut versions_seen = std::collections::BTreeSet::new();
                let per_client = QUERIES / u64::from(CLIENTS);
                for q in 0..per_client {
                    // A drifting CartPole-ish state, deterministic per query.
                    let x = (q as f32).sin() * 0.05;
                    let obs = [x, -x, x * 0.5, 0.01 * (q % 7) as f32];
                    client.send(&obs, 1);
                    if client.outstanding() >= 16 {
                        replies.clear();
                        client.poll_timeout(Duration::from_millis(5), &mut replies);
                        for r in &replies {
                            if !r.shed {
                                versions_seen.insert(r.param_version);
                                action_counts[r.actions[0] as usize] += 1;
                            }
                        }
                    }
                }
                for r in client.drain(Duration::from_secs(10)) {
                    if !r.shed {
                        versions_seen.insert(r.param_version);
                        action_counts[r.actions[0] as usize] += 1;
                    }
                }
                (client.sent, client.answered, client.shed, versions_seen, action_counts)
            })
        })
        .collect();

    // 4. The stand-in live learner: keep publishing perturbed versions
    // mid-traffic, one replica at a time (rolling swap).
    let stop = Arc::new(AtomicBool::new(false));
    let publisher_thread = {
        let broker = broker.clone();
        let stop = Arc::clone(&stop);
        let base = ckpt.clone();
        std::thread::spawn(move || {
            let mut publisher =
                ParamPublisher::new(&broker, CLIENTS as usize, ParamCompression::DeltaF32);
            let mut version = base.version;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                version += 1;
                // A small deterministic drift stands in for continued training.
                let drift = 1.0 + 0.001 * (version - base.version) as f32;
                let blob = ParamBlob {
                    version,
                    params: base.params.iter().map(|p| p * drift).collect(),
                };
                publisher.publish_staggered(&blob, Duration::from_millis(2));
            }
            publisher.close();
            version
        })
    };

    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut actions = [0u64; ACTIONS];
    let mut versions_seen = std::collections::BTreeSet::new();
    for loader in loaders {
        let (s, a, d, versions, counts) = loader.join().unwrap();
        sent += s;
        answered += a;
        shed += d;
        versions_seen.extend(versions);
        for (total, c) in actions.iter_mut().zip(counts) {
            *total += c;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let last_version = publisher_thread.join().unwrap();

    // Let the fleet settle on the last published version before reading it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.versions().iter().any(|&v| v < last_version) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let versions = fleet.versions();
    let swaps = telemetry.counter("serve.swaps").get();
    let fleet_report = fleet.shutdown();
    broker.shutdown();

    // 5. The SLO table.
    println!("\n== serving SLO summary ==");
    println!(
        "queries: sent={sent} answered={answered} shed={shed} in {elapsed:.2}s \
         ({:.0} inferences/s)",
        answered as f64 / elapsed
    );
    println!("actions: left={} right={}", actions[0], actions[1]);
    print_summary(&telemetry, "serve.batch_size");
    print_summary(&telemetry, "serve.queue_us");
    print_summary(&telemetry, "serve.infer_us");
    print_summary(&telemetry, "serve.e2e_us");
    println!(
        "swaps: {swaps} applied, versions observed by traffic: {:?}",
        versions_seen
    );
    println!(
        "fleet: final versions {versions:?} (target v{last_version}), respawns={}",
        fleet_report.respawns
    );

    assert_eq!(sent, answered + shed, "no silent drops");
    assert!(swaps > 0, "hot swaps landed under load");
    println!("serve_qps: done");
    Ok(())
}
