//! Elastic explorer-pool integration: induced store backpressure grows the
//! pool at runtime, and the pool drains back toward its base size once the
//! pressure clears.
//!
//! The backpressure is induced deterministically with a *windowed delay
//! rule*: during the window every rollout delivery to the learner is parked
//! in the broker's delay line, and a parked delivery holds its store fetch
//! credit — so rollout bodies pin learner-machine store capacity for the
//! delay instead of being consumed immediately. Production keeps inserting
//! while consumption is parked, so the store-occupancy signal the elastic
//! supervisor polls rises. When the window closes the parked backlog drains
//! within one delay period and the signal collapses.

use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::Deployment;
use xingtian::elastic::ElasticConfig;
use xingtian::supervisor::SupervisionConfig;
use xingtian_message::{MessageKind, ProcessRole};
use xt_fault::{FaultPlan, RouteRule};

#[test]
fn pool_grows_under_store_backpressure_and_drains_after() {
    const BASE: u32 = 4;
    let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), BASE)
        .spread_across(2)
        .with_rollout_len(25)
        .with_goal_steps(u64::MAX) // duration-bounded: the pressure window must fit
        .with_max_seconds(4.2)
        .with_seed(23)
        // Pace the environments so steady-state production sits far below
        // the learner's consumption rate *even at the elastic ceiling and in
        // debug builds*: outside the pressure window the store holds only
        // in-transit rollouts and the occupancy signal idles near zero.
        // Pacing this too fast tips the run into a saturated equilibrium —
        // the grown pool out-produces the learner, the signal never clears,
        // and the shrink never fires (the same positive feedback the
        // Fig. 11 frontier shows past the saturation point).
        .with_step_latency_us(8000)
        // Arena sized for signal separation: the pool's *parked* working set
        // (credits held by the delay line) fills the arena well before the
        // window closes — so blocked senders accumulate the backpressure
        // waits asserted below — while the post-window in-transit working
        // set stays under the low watermark.
        .with_store_capacity(16 * 1024);
    let supervision = SupervisionConfig::with_heartbeat_interval_ms(15)
        .with_elastic(ElasticConfig {
            high_watermark: 0.25,
            low_watermark: 0.10,
            max_explorers: BASE + 4,
            step: 2,
            cooldown_ticks: 4,
        });
    // Park every rollout delivery to the learner for 1.2 s during
    // [0.3 s, 1.8 s): delayed-but-delivered, so nothing is ever dropped. The
    // park outlives the window remainder, so the arena stays pinned for the
    // whole window — long enough for the paced senders to fill their
    // in-flight allowance and surface backpressure waits — and the backlog
    // finishes delivering by 3.0 s, leaving the tail of the run for the
    // shrink decisions.
    let plan = FaultPlan::seeded(23).with_rule(
        RouteRule::any()
            .on_kind(MessageKind::Rollout)
            .to_role(ProcessRole::Learner)
            .delaying(1.0, 1200)
            .during_ms(300, 1800),
    );
    let telemetry = xt_telemetry::Telemetry::with_capacity(1 << 18);

    let (report, recovery) =
        Deployment::run_supervised(config, supervision, plan, telemetry.clone())
            .expect("supervised elastic run completes");

    // Up under pressure: the supervisor materialized extra explorers.
    assert!(
        recovery.elastic_spawns >= 2,
        "pool must grow under store backpressure, spawned {}",
        recovery.elastic_spawns
    );
    assert!(
        recovery.peak_explorer_pool >= BASE + 2,
        "peak pool {} should exceed the base {BASE}",
        recovery.peak_explorer_pool
    );
    // Down when it clears: retires happened, and the pool never ended larger
    // than it grew.
    assert!(
        recovery.elastic_retires >= 2,
        "pool must drain after the pressure clears, retired {}",
        recovery.elastic_retires
    );
    assert!(recovery.elastic_spawns >= recovery.elastic_retires);

    // The delay parks but never destroys: nothing dropped, nothing leaked.
    assert_eq!(report.dropped_messages, 0, "a delayed delivery must not be dropped");
    assert_eq!(recovery.leaked_objects, 0, "object store leak");
    assert!(recovery.down_at_exit.is_empty(), "down at exit: {:?}", recovery.down_at_exit);

    // Training progressed through the whole episode.
    assert!(report.steps_consumed > 0, "learner must make progress");

    // The source-side flow control engaged while rollout consumption was
    // parked — the same signal the Fig. 11 saturation analysis reads.
    assert!(
        telemetry.counter("explorer.backpressure_waits").get() > 0,
        "blocked senders must surface as backpressure waits"
    );
}
