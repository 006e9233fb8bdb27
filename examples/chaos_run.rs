//! Chaos run: throughput under injected failures, with recovery timeline.
//!
//! ```text
//! cargo run --release --example chaos_run
//! ```
//!
//! Runs the same 2-machine × 8-explorer IMPALA deployment three times under
//! increasing chaos — no faults, one explorer killed, kill + machine
//! partition + rollout drops — and prints the learner throughput of each run
//! next to the failure detector's liveness timeline. The numbers feed the
//! fault-tolerance table in EXPERIMENTS.md.

use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::supervisor::SupervisionConfig;
use xingtian::Deployment;
use xingtian_message::{MessageKind, ProcessId};
use xt_fault::{FaultPlan, KillTrigger, Liveness, RouteRule};

const SECONDS: f64 = 3.0;

fn config() -> DeploymentConfig {
    DeploymentConfig::cartpole(AlgorithmSpec::impala(), 8)
        .spread_across(2)
        .with_rollout_len(25)
        .with_goal_steps(u64::MAX) // duration-bounded
        .with_max_seconds(SECONDS)
        .with_seed(7)
}

fn run(label: &str, plan: FaultPlan) -> Result<(), Box<dyn std::error::Error>> {
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 16);
    let (report, recovery) = Deployment::run_supervised(
        config(),
        SupervisionConfig::with_heartbeat_interval_ms(15),
        plan,
        telemetry.clone(),
    )?;

    println!("--- {label} ---");
    println!(
        "  throughput      {:>8.0} steps/s  ({} steps / {:.2} s)",
        report.mean_throughput(),
        report.steps_consumed,
        report.wall_time.as_secs_f64()
    );
    println!(
        "  recovery        {} explorer respawn(s), {} learner restore(s), {} leaked object(s)",
        recovery.explorer_respawns.len(),
        recovery.learner_shard_restores.iter().sum::<u32>(),
        recovery.leaked_objects
    );
    let t0 = recovery.transitions.first().map_or(0, |t| t.at_nanos);
    for t in &recovery.transitions {
        println!(
            "  {:>9.1} ms  {:?} -> {:?}",
            (t.at_nanos - t0) as f64 / 1e6,
            t.pid,
            t.liveness
        );
    }
    // Recovery time per process: first Down to the next Up.
    for pid in recovery.transitions.iter().map(|t| t.pid).collect::<std::collections::BTreeSet<_>>()
    {
        let down = recovery
            .transitions
            .iter()
            .find(|t| t.pid == pid && t.liveness == Liveness::Down)
            .map(|t| t.at_nanos);
        let up = recovery
            .transitions
            .iter()
            .find(|t| t.pid == pid && t.liveness == Liveness::Alive)
            .map(|t| t.at_nanos);
        if let (Some(d), Some(u)) = (down, up) {
            if u > d {
                println!("  down->up        {pid:?}: {:.1} ms", (u - d) as f64 / 1e6);
            }
        }
    }
    println!(
        "  detector        {} down event(s), {} up event(s) in telemetry",
        telemetry.counter("fault.process_down").get(),
        telemetry.counter("fault.process_up").get()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "chaos_run: IMPALA/CartPole, 8 explorers over 2 machines, {SECONDS:.0}s per scenario\n"
    );

    run("baseline: no faults", FaultPlan::seeded(7))?;

    run(
        "kill: explorer 1 killed after 400 steps",
        FaultPlan::seeded(7).with_kill(ProcessId::explorer(1), KillTrigger::AfterSteps(400)),
    )?;

    run(
        "kill + partition + drops: machine 1 isolated 0.6s-1.2s, 5% rollout drops",
        FaultPlan::seeded(7)
            .with_kill(ProcessId::explorer(1), KillTrigger::AfterSteps(400))
            .isolating_machine(1, 2, 600_000_000, 1_200_000_000)
            .with_rule(RouteRule::any().on_kind(MessageKind::Rollout).dropping(0.05)),
    )?;

    Ok(())
}
