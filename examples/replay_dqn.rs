//! DQN with the replay buffer in the communication layer.
//!
//! ```text
//! cargo run --release --example replay_dqn
//! ```
//!
//! Runs the same CartPole DQN deployment twice over the one replay store —
//! once with the classic in-learner placement (every rollout is fetched,
//! decoded, and ingested by the trainer thread before sampling) and once
//! with the store-resident placement (`xt-replay`: the shard service beside
//! the object store ingests each rollout exactly once and the learner only
//! samples the shared arenas) — and prints the per-stage breakdown that
//! shows where the fetch+decode+ingest work went.

use std::time::Duration;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::stats::RunReport;
use xingtian::Deployment;
use xingtian_algos::DqnConfig;

fn dqn_config() -> DqnConfig {
    let mut c = DqnConfig::new(0, 0); // dimensions filled in at deployment
    c.buffer_capacity = 50_000;
    c.warmup_steps = 1_000;
    c.train_every_inserts = 4;
    c.batch_size = 32;
    c
}

fn run(store_resident: bool, goal: u64) -> (RunReport, xt_telemetry::Telemetry) {
    let mut config = DeploymentConfig::cartpole(AlgorithmSpec::Dqn(dqn_config()), 2)
        .with_rollout_len(100)
        .with_goal_steps(goal)
        .with_max_seconds(120.0)
        .with_seed(17);
    if store_resident {
        config = config.with_store_resident_replay();
    }
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 18);
    let report =
        Deployment::run_with_telemetry(config, telemetry.clone()).expect("deployment runs");
    (report, telemetry)
}

fn fmt_ns(nanos: u64) -> String {
    if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

fn print_hist(telemetry: &xt_telemetry::Telemetry, name: &str) {
    let handle = telemetry.histogram(name);
    let Some(h) = handle.histogram() else { return };
    if h.count() == 0 {
        println!("  {name:<18} (no samples)");
        return;
    }
    println!(
        "  {name:<18} n={:<7} mean={:<9} p50={:<9} p99={}",
        h.count(),
        fmt_ns(h.mean()),
        fmt_ns(h.quantile(0.5)),
        fmt_ns(h.quantile(0.99)),
    );
}

fn summarize(label: &str, report: &RunReport, telemetry: &xt_telemetry::Telemetry) {
    println!("\n=== {label} ===");
    println!("steps consumed : {}", report.steps_consumed);
    println!("wall time      : {:.1}s", report.wall_time.as_secs_f64());
    println!("throughput     : {:.0} steps/s", report.mean_throughput());
    println!("train sessions : {}", report.train_sessions);
    println!(
        "learner wait   : {:.2}ms mean before each session",
        report.learner_wait.mean().as_secs_f64() * 1e3
    );
    println!("learner-side stage timings:");
    print_hist(telemetry, "learn.decode_ns");
    print_hist(telemetry, "learn.sample_ns");
    print_hist(telemetry, "learn.train_ns");
    print_hist(telemetry, "learner.wait_ns");
    match &report.replay {
        Some(r) => {
            println!("replay plane (store-resident):");
            println!("  ingested {} batches / {} transitions", r.batches_ingested, r.steps_ingested);
            println!(
                "  resident at exit: {} transitions, dangling slots: {}",
                r.resident, r.dangling_slots
            );
            print_hist(telemetry, "replay.ingest_ns");
            print_hist(telemetry, "replay.sample_ns");
        }
        None => println!("replay plane   : none (in-learner placement)"),
    }
    // Fig. 8-style message-lifecycle breakdown over every rollout message.
    let breakdown = telemetry.stage_breakdown();
    println!("message lifecycle (all rollout messages):");
    for (name, h) in breakdown.stages() {
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {name:<9} n={:<7} mean={:<9} p99={}",
            h.count(),
            fmt_ns(h.mean()),
            fmt_ns(h.quantile(0.99)),
        );
    }
    let _ = Duration::ZERO;
}

fn main() {
    let goal = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    println!("DQN on CartPole, 2 explorers, goal {goal} sampled steps");
    let (classic, classic_tel) = run(false, goal);
    let (store, store_tel) = run(true, goal);

    summarize("in-learner replay (classic XingTian)", &classic, &classic_tel);
    summarize("store-resident replay (xt-replay plane)", &store, &store_tel);

    println!(
        "\nspeedup: {:.2}x sampled-steps throughput",
        store.mean_throughput() / classic.mean_throughput().max(1e-9)
    );
}
