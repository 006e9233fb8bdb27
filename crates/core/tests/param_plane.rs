//! Differential tests of the parameter plane over real channel endpoints:
//! the delta chain must be bit-lossless, the quantized chain error-bounded
//! (thanks to error feedback), a receiver must answer only what it cannot
//! apply and that nack must self-heal the chain, and a seeded deployment under
//! quantized broadcasts must learn like the full-precision baseline.

use bytes::Bytes;
use netsim::Cluster;
use std::time::Duration;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::{Deployment, ParamBroadcaster, ParamReceiver};
use xingtian_algos::payload::ParamBlob;
use xingtian_algos::{DqnConfig, GradBlob, LazyGradConfig, LazyGradGate};
use xingtian_comm::{Broker, CommConfig, Endpoint, ParamCompression};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{CompressionKind, MessageKind, ProcessId};

const N_PARAMS: usize = 8192;

/// Deterministic pseudo-random parameter vector (xorshift; no RNG crate
/// state shared with the algorithms under test).
fn seeded_params(n: usize, seed: u64) -> Vec<f32> {
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

/// SGD-like drift: small structured update on top of the previous weights.
fn drift(params: &[f32], round: u64, magnitude: f32) -> Vec<f32> {
    let noise = seeded_params(params.len(), round + 101);
    params.iter().zip(&noise).map(|(p, n)| p + n * magnitude).collect()
}

/// Sends one encoded broadcast from `learner` to `explorers`, each of which
/// takes it through `on_parameters`, and returns the frame's kind.
fn broadcast_round(
    learner: &Endpoint,
    tx: &mut ParamBroadcaster,
    blob: &ParamBlob,
    explorers: &mut [(Endpoint, ParamReceiver)],
) -> CompressionKind {
    let dst: Vec<u32> = (0..explorers.len() as u32).collect();
    let enc = tx.encode(blob, &dst);
    assert!(enc.send(learner, dst.iter().map(|&e| ProcessId::explorer(e)).collect()));

    for (i, (ep, rx)) in explorers.iter_mut().enumerate() {
        let msg = ep
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("explorer {i} missed v{}", blob.version));
        assert_eq!(msg.header.kind, MessageKind::Parameters);
        rx.on_parameters(ep, i as u32, &msg, |_| {});
    }
    enc.compression
}

#[test]
fn delta_chain_is_bit_lossless_over_real_endpoints() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let mut explorers: Vec<(Endpoint, ParamReceiver)> = (0..2)
        .map(|e| (broker.endpoint(ProcessId::explorer(e)), ParamReceiver::new()))
        .collect();
    let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, learner.telemetry());

    let mut params = seeded_params(N_PARAMS, 7);
    let mut deltas = 0u32;
    let rounds = 40u64;
    for version in 1..=rounds {
        params = drift(&params, version, 1e-4);
        let blob = ParamBlob { version, params: params.clone() };
        let kind = broadcast_round(&learner, &mut tx, &blob, &mut explorers);
        if kind == CompressionKind::DeltaF32 {
            deltas += 1;
        }
        // Bit-losslessness is the contract that makes DeltaF32 safe for
        // on-policy algorithms: every receiver holds the learner's exact
        // weights after every applied frame.
        for (i, (_, rx)) in explorers.iter().enumerate() {
            assert_eq!(rx.version(), version);
            for (j, (got, want)) in rx.blob().params.iter().zip(&params).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "explorer {i} param {j} diverged at v{version}"
                );
            }
        }
    }
    assert!(deltas >= rounds as u32 - 2, "chain stayed on deltas: {deltas}/{rounds}");
    broker.shutdown();
}

/// The channel is sender-initiated: a receiver that applies every broadcast
/// sends nothing back, in every compression mode. A reply is routed on the
/// receiver's thread inside `on_parameters`, so once the rounds are done the
/// broker has routed exactly the broadcasts.
#[test]
fn a_receiver_that_applies_every_broadcast_sends_nothing_back() {
    const ROUNDS: u64 = 12;
    for mode in [
        ParamCompression::FullF32,
        ParamCompression::DeltaF32,
        ParamCompression::QuantizedI8,
        ParamCompression::DeltaQuantizedI8,
    ] {
        let telemetry = xt_telemetry::Telemetry::enabled();
        let broker =
            Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());
        let learner = broker.endpoint(ProcessId::learner(0));
        let mut explorers: Vec<(Endpoint, ParamReceiver)> = (0..2)
            .map(|e| (broker.endpoint(ProcessId::explorer(e)), ParamReceiver::new()))
            .collect();
        let mut tx = ParamBroadcaster::new(mode, learner.telemetry());
        let mut params = seeded_params(2048, 19);
        for version in 1..=ROUNDS {
            params = drift(&params, version, 1e-3);
            broadcast_round(&learner, &mut tx, &ParamBlob { version, params: params.clone() }, &mut explorers);
            for (_, rx) in &explorers {
                assert_eq!(rx.version(), version, "{mode:?}: every frame applied");
            }
        }
        assert_eq!(
            telemetry.counter("comm.routed_messages").get(),
            ROUNDS,
            "{mode:?}: only the broadcasts were routed"
        );
        assert!(learner.try_recv().is_none(), "{mode:?}: nothing came back");
        broker.shutdown();
    }
}

#[test]
fn quantized_chain_is_error_bounded_over_real_endpoints() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let mut explorers: Vec<(Endpoint, ParamReceiver)> =
        vec![(broker.endpoint(ProcessId::explorer(0)), ParamReceiver::new())];
    let mut tx = ParamBroadcaster::new(ParamCompression::DeltaQuantizedI8, learner.telemetry());

    let mut params = seeded_params(N_PARAMS, 11);
    let mut max_err = 0.0f32;
    for version in 1..=60u64 {
        params = drift(&params, version, 1e-3);
        let blob = ParamBlob { version, params: params.clone() };
        broadcast_round(&learner, &mut tx, &blob, &mut explorers);
        let rx = &explorers[0].1;
        assert_eq!(rx.version(), version);
        max_err = rx
            .blob()
            .params
            .iter()
            .zip(&params)
            .map(|(r, p)| (r - p).abs())
            .fold(max_err, f32::max);
    }
    // Error feedback keeps the receiver within a couple of quantization
    // steps of the truth instead of accumulating bias over 60 rounds.
    assert!(max_err < 5e-4, "quantized reconstruction drifted: {max_err}");
    broker.shutdown();
}

#[test]
fn respawned_receiver_nacks_and_the_chain_self_heals() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let mut explorers: Vec<(Endpoint, ParamReceiver)> =
        vec![(broker.endpoint(ProcessId::explorer(0)), ParamReceiver::new())];
    let mut tx = ParamBroadcaster::new(ParamCompression::DeltaF32, learner.telemetry());

    let mut params = seeded_params(2048, 13);
    for version in 1..=3u64 {
        params = drift(&params, version, 1e-3);
        let blob = ParamBlob { version, params: params.clone() };
        broadcast_round(&learner, &mut tx, &blob, &mut explorers);
    }
    // "Respawn" the explorer: fresh receiver, no base. The next delta frame
    // must be rejected, nacked, and the round after must arrive full.
    explorers[0].1 = ParamReceiver::new();
    params = drift(&params, 4, 1e-3);
    let kind = broadcast_round(
        &learner,
        &mut tx,
        &ParamBlob { version: 4, params: params.clone() },
        &mut explorers,
    );
    assert_eq!(kind, CompressionKind::DeltaF32, "sender still believed the base");
    assert_eq!(explorers[0].1.version(), 0, "delta without a base was rejected");
    let nack = learner.recv_timeout(Duration::from_secs(10)).expect("the rejection is answered");
    assert_eq!(nack.header.kind, MessageKind::ParamAck);
    let folded = tx.on_nack_message(&nack).expect("a well-formed nack");
    assert_eq!((folded.receiver, folded.held), (0, 0), "it names the receiver and what it holds");

    params = drift(&params, 5, 1e-3);
    let kind = broadcast_round(
        &learner,
        &mut tx,
        &ParamBlob { version: 5, params: params.clone() },
        &mut explorers,
    );
    assert_eq!(kind, CompressionKind::None, "nack healed the chain with a full send");
    assert_eq!(explorers[0].1.version(), 5);
    for (got, want) in explorers[0].1.blob().params.iter().zip(&params) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
    broker.shutdown();
}

#[test]
fn lazy_gradient_uploads_ride_the_gradient_kind() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let worker = broker.endpoint(ProcessId::explorer(0));
    let mut gate = LazyGradGate::with_telemetry(LazyGradConfig::default(), worker.telemetry());

    // The worker runs SGD on ½‖θ‖² and offers every gradient; only accepted
    // rounds travel. The learner must see a decodable GradBlob per upload.
    let mut theta = seeded_params(256, 17);
    let mut sent = 0u64;
    for round in 1..=120u64 {
        gate.observe_params(&theta);
        let grad = theta.clone();
        if let Some(up) = gate.offer(&grad) {
            let blob = GradBlob { worker: 0, version: round, grad: up };
            worker.send_to(
                vec![learner.pid()],
                MessageKind::Gradient,
                Bytes::from(blob.to_bytes()),
            );
            sent += 1;
        }
        for t in &mut theta {
            *t *= 0.9;
        }
    }
    let (uploads, skips) = gate.counts();
    assert_eq!(uploads, sent);
    assert!(skips > 0, "LAPG skipped nothing on a smooth quadratic");
    for _ in 0..sent {
        let msg = learner.recv_timeout(Duration::from_secs(10)).expect("upload arrived");
        assert_eq!(msg.header.kind, MessageKind::Gradient);
        let blob = GradBlob::from_bytes(&msg.body).expect("decodable gradient");
        assert_eq!(blob.worker, 0);
        assert!(!blob.grad.is_empty());
    }
    broker.shutdown();
}

/// Shared small-DQN deployment config; only the parameter compression varies.
fn dqn_deployment(mode: ParamCompression) -> DeploymentConfig {
    let mut c = DqnConfig::new(0, 0); // dimensions filled in at deployment
    c.buffer_capacity = 8_192;
    c.warmup_steps = 400;
    c.train_every_inserts = 8;
    c.batch_size = 32;
    DeploymentConfig::cartpole(AlgorithmSpec::Dqn(c), 2)
        .with_rollout_len(50)
        .with_goal_steps(2_000)
        .with_max_seconds(60.0)
        .with_seed(3)
        .with_param_compression(mode)
}

fn mean(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "run produced no complete episodes");
    xs.iter().sum::<f32>() / xs.len() as f32
}

#[test]
fn seeded_dqn_learns_equally_under_quantized_broadcasts() {
    let baseline = Deployment::run(dqn_deployment(ParamCompression::FullF32))
        .expect("baseline deployment runs");
    let quantized = Deployment::run(dqn_deployment(ParamCompression::DeltaQuantizedI8))
        .expect("quantized deployment runs");
    assert!(baseline.steps_consumed >= 2_000);
    assert!(quantized.steps_consumed >= 2_000);
    assert!(quantized.train_sessions > 0);
    // Quantization with error feedback must not change what the run learns:
    // the mean episode return stays in the same band as full precision (the
    // runs are seeded but scheduling is asynchronous, so "equal" is a band,
    // not a bit-match).
    let base_mean = mean(&baseline.episode_returns);
    let quant_mean = mean(&quantized.episode_returns);
    let ratio = quant_mean / base_mean;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "quantized broadcasts changed learning: {quant_mean:.1} vs {base_mean:.1}"
    );
}

#[test]
fn seeded_ppo_learns_under_delta_broadcasts() {
    let config = DeploymentConfig::cartpole(AlgorithmSpec::ppo(), 2)
        .with_rollout_len(50)
        .with_goal_steps(2_000)
        .with_max_seconds(60.0)
        .with_seed(5)
        .with_param_compression(ParamCompression::DeltaF32);
    let report = Deployment::run(config).expect("delta PPO deployment runs");
    assert!(report.steps_consumed >= 2_000, "goal not reached: {}", report.steps_consumed);
    assert!(report.train_sessions > 0);
    // DeltaF32 is bit-lossless, so the on-policy gate behaves exactly as
    // with full blobs: episodes complete and training proceeds.
    assert!(!report.episode_returns.is_empty());
}
