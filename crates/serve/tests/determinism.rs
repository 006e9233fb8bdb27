//! Seeded determinism across the two ways a replica acquires weights.
//!
//! A replica booted from a checkpoint on disk and a replica hot-swapped to
//! the same version over the parameter plane must answer the same
//! observation batch with bit-identical actions. This is what makes the
//! serving fleet's consistency story honest: `DeltaF32` frames XOR f32 bit
//! patterns, so a delta-chained swap reconstructs the checkpoint's weights
//! exactly — not approximately.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use netsim::Cluster;
use tinynn::{Activation, Mlp};
use xingtian::checkpoint::{load_latest, CheckpointConfig, Checkpointer};
use xingtian_algos::{LearnerState, ParamBlob};
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 4;
const ACTIONS: usize = 3;
const HIDDEN: [usize; 2] = [16, 16];

fn sizes() -> Vec<usize> {
    vec![OBS_DIM, HIDDEN[0], HIDDEN[1], ACTIONS]
}

fn blob(version: u64, seed: u64) -> ParamBlob {
    let mlp = Mlp::new(&sizes(), Activation::Relu, seed);
    ParamBlob { version, params: mlp.params().to_vec() }
}

fn config() -> ServeConfig {
    ServeConfig::new(1, OBS_DIM, ACTIONS).with_hidden(HIDDEN.to_vec())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A batch that exercises both signs and magnitudes, seeded, fixed.
fn observation_batch(rows: usize) -> Vec<f32> {
    let mut state = 0x2545F4914F6CDD1Du64;
    (0..rows * OBS_DIM)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

#[test]
fn checkpoint_boot_and_hot_swap_answer_bit_identically() {
    let target = blob(5, 12345);
    let dir = tmpdir("determinism");

    // Replica A: booted from the checkpoint on disk.
    let mut ckpt = Checkpointer::new(CheckpointConfig::new(&dir, 1)).unwrap();
    let state = LearnerState { blob: target.clone(), ..LearnerState::default() };
    ckpt.on_session(|| state).expect("version 5 should be written");
    let loaded = load_latest(&dir).unwrap();
    assert_eq!(loaded.version, 5);

    let broker_a = Broker::new(0, Cluster::single(), CommConfig::default());
    let fleet_a = ServeFleet::start(&broker_a, config(), &loaded);

    // Replica B: booted at an unrelated version 1, then hot-swapped to 5
    // over the parameter plane. The v2 hop lands first, so the v5 frame
    // really travels as a DeltaF32 delta against it, not a full send.
    let telemetry = Telemetry::enabled();
    let broker_b =
        Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
    let fleet_b = ServeFleet::start(&broker_b, config(), &blob(1, 999));
    let mut publisher = ParamPublisher::new(&broker_b, 1, ParamCompression::DeltaF32);

    publisher.publish(&blob(2, 777));
    wait_for_version(&fleet_b, 2);
    publisher.publish(&target);
    wait_for_version(&fleet_b, 5);
    assert!(
        telemetry.counter("param.delta_sends").get() >= 1,
        "the v5 swap must have used the delta path"
    );

    // Same batch to both; answers must match bit-for-bit.
    let rows = 32;
    let obs = observation_batch(rows);
    let mut client_a = ServeClient::new(&broker_a, 0, 1);
    client_a.set_target(fleet_a.replica_for(xingtian_message::ProcessId::controller(0)));
    let mut client_b = ServeClient::new(&broker_b, 0, 1);
    client_b.set_target(fleet_b.replica_for(xingtian_message::ProcessId::controller(0)));

    let a = client_a
        .infer_blocking(&obs, rows as u32, Duration::from_secs(5))
        .expect("replica A answers");
    let b = client_b
        .infer_blocking(&obs, rows as u32, Duration::from_secs(5))
        .expect("replica B answers");

    assert!(!a.shed && !b.shed);
    assert_eq!(a.param_version, 5);
    assert_eq!(b.param_version, 5);
    assert_eq!(a.actions, b.actions, "checkpoint boot and hot swap must agree bit-for-bit");
    assert_eq!(a.actions.len(), rows);

    publisher.close();
    fleet_a.shutdown();
    fleet_b.shutdown();
    broker_a.shutdown();
    broker_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn wait_for_version(fleet: &ServeFleet, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.versions().iter().any(|&v| v != version) {
        assert!(Instant::now() < deadline, "fleet never reached version {version}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
