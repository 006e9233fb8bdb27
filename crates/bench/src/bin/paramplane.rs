//! Parameter-plane before/after: bytes on the wire and time-to-reward when
//! parameter broadcasts are delta-encoded and quantized (DESIGN.md §9).
//!
//! Stage 1 measures the cross-machine cost of a fanout-256 broadcast fabric:
//! a learner on machine 0 pushes a drifting 450k-parameter model to 256
//! explorers split across two machines, once per encoding mode, and the
//! simulated NIC's `comm.uplink_bytes` counter reports exactly what crossed
//! the wire. The baseline is the paper's configuration — full f32 blobs with
//! transport LZ4 above the 1 MiB threshold.
//!
//! Stage 2 runs the same seeded CartPole DQN deployment spread across two
//! machines with full-precision and delta-quantized broadcasts, comparing
//! wall-clock time to the step goal (time-to-reward on this substrate).
//!
//! `--gate <ratio>` exits nonzero unless the best mode beats the baseline's
//! bytes-on-wire by at least `ratio` (the CI regression gate).

use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use std::time::Instant;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::{Deployment, ParamBroadcaster, ParamReceiver};
use xingtian_algos::payload::ParamBlob;
use xingtian_algos::DqnConfig;
use xingtian_comm::{connect_brokers, Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_bench::{fmt_size, header};
use xt_telemetry::Telemetry;

const N_PARAMS: usize = 450_000; // the paper's CartPole-scale model, flat

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

/// SGD-like drift: small structured update, like successive training rounds.
fn drift(params: &mut [f32], round: u64, magnitude: f32) {
    let noise = seeded_params(params.len(), round + 101);
    for (p, n) in params.iter_mut().zip(&noise) {
        *p += n * magnitude;
    }
}

struct WireOutcome {
    uplink_bytes: u64,
    full_sends: u64,
    elapsed_s: f64,
}

/// Broadcasts `rounds` drifting models to `fanout` explorers (half of them
/// on a second machine) and reports what crossed the simulated NIC.
fn measure_wire(mode: ParamCompression, fanout: usize, rounds: u64) -> WireOutcome {
    let cluster = Cluster::new(ClusterSpec::default().machines(2));
    let telemetry = Telemetry::with_time_source(1 << 12, cluster.time_source());
    let b0 = Broker::with_telemetry(0, cluster.clone(), CommConfig::default(), telemetry.clone());
    let b1 = Broker::with_telemetry(1, cluster, CommConfig::default(), telemetry.clone());
    let learner = b0.endpoint(ProcessId::learner(0));
    let explorers: Vec<_> = (0..fanout as u32)
        .map(|i| {
            let broker = if (i as usize) < fanout / 2 { &b0 } else { &b1 };
            broker.endpoint(ProcessId::explorer(i))
        })
        .collect();
    connect_brokers(&[b0.clone(), b1.clone()]);

    let uplink = telemetry.counter("comm.uplink_bytes");
    let full_sends = telemetry.counter("param.full_sends");
    let mut tx = ParamBroadcaster::new(mode, &telemetry);
    // One remote receiver decodes every frame, keeping the run honest.
    let mut rx = ParamReceiver::new();
    let dst_ids: Vec<u32> = (0..fanout as u32).collect();
    let dst_pids: Vec<ProcessId> = dst_ids.iter().map(|&e| ProcessId::explorer(e)).collect();

    let mut params = seeded_params(N_PARAMS, 7);
    let t0 = Instant::now();
    for version in 1..=rounds {
        drift(&mut params, version, 1e-3);
        let blob = ParamBlob { version, params: params.clone() };
        assert!(tx.encode(&blob, &dst_ids).send(&learner, dst_pids.clone()));
        for (i, e) in explorers.iter().enumerate() {
            let msg = e.recv().expect("broadcast delivered");
            if i == fanout - 1 {
                let body = Bytes::clone(&msg.body);
                assert!(
                    matches!(
                        rx.ingest(msg.header.compression, &body),
                        xingtian::IngestOutcome::Applied(_)
                    ),
                    "remote receiver failed to apply v{version}"
                );
            }
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    // Full-precision fallback is lossless; quantized modes stay within the
    // error-feedback band of the truth.
    let worst = rx
        .blob()
        .params
        .iter()
        .zip(&params)
        .map(|(r, p)| (r - p).abs())
        .fold(0.0f32, f32::max);
    assert!(worst < 1e-2, "receiver diverged from the learner: {worst}");

    let out = WireOutcome {
        uplink_bytes: uplink.get(),
        full_sends: full_sends.get(),
        elapsed_s,
    };
    drop(explorers);
    drop(learner);
    b0.shutdown();
    b1.shutdown();
    out
}

fn mode_name(mode: ParamCompression) -> &'static str {
    match mode {
        ParamCompression::FullF32 => "full f32 + LZ4 (baseline)",
        ParamCompression::DeltaF32 => "delta f32 (lossless)",
        ParamCompression::QuantizedI8 => "quantized i8",
        ParamCompression::DeltaQuantizedI8 => "delta + quantized i8",
    }
}

fn dqn_deployment(mode: ParamCompression, explorers: u32, goal: u64) -> DeploymentConfig {
    let mut c = DqnConfig::new(0, 0);
    c.buffer_capacity = 8_192;
    c.warmup_steps = 400;
    c.train_every_inserts = 8;
    c.batch_size = 32;
    c.broadcast_every = 1; // broadcast-heavy on purpose: this is the axis under test
    DeploymentConfig::cartpole(AlgorithmSpec::Dqn(c), explorers)
        .with_rollout_len(50)
        .with_goal_steps(goal)
        .with_max_seconds(120.0)
        .with_seed(3)
        .with_param_compression(mode)
        .spread_across(2)
}

fn main() {
    let mut gate: Option<f64> = None;
    let mut fanout = 256usize;
    let mut rounds = 24u64;
    let mut skip_reward = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                gate = Some(args.next().and_then(|v| v.parse().ok()).expect("--gate takes a ratio"))
            }
            "--fanout" => {
                fanout =
                    args.next().and_then(|v| v.parse().ok()).expect("--fanout takes a count")
            }
            "--rounds" => {
                rounds =
                    args.next().and_then(|v| v.parse().ok()).expect("--rounds takes a count")
            }
            "--no-reward" => skip_reward = true,
            "--help" | "-h" => {
                println!("flags: --gate <ratio>  --fanout <n>  --rounds <n>  --no-reward");
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }

    header(&format!(
        "parameter plane: {fanout}-explorer cross-machine broadcast, {rounds} rounds of a {}-param model",
        N_PARAMS
    ));
    println!(
        "{:<28} {:>12} {:>14} {:>6} {:>8}",
        "mode", "wire bytes", "bytes/round", "full", "ratio"
    );
    let modes = [
        ParamCompression::FullF32,
        ParamCompression::DeltaF32,
        ParamCompression::QuantizedI8,
        ParamCompression::DeltaQuantizedI8,
    ];
    let mut baseline = 0u64;
    let mut best = f64::INFINITY;
    for mode in modes {
        let out = measure_wire(mode, fanout, rounds);
        if mode == ParamCompression::FullF32 {
            baseline = out.uplink_bytes;
        }
        let ratio = baseline as f64 / out.uplink_bytes.max(1) as f64;
        best = best.min(out.uplink_bytes as f64);
        println!(
            "{:<28} {:>12} {:>14} {:>6} {:>7.2}x",
            mode_name(mode),
            fmt_size(out.uplink_bytes as usize),
            fmt_size((out.uplink_bytes / rounds) as usize),
            out.full_sends,
            ratio
        );
        let _ = out.elapsed_s;
    }
    let best_ratio = baseline as f64 / best.max(1.0);

    if !skip_reward {
        header("time-to-reward: seeded CartPole DQN, 8 explorers spread over 2 machines");
        println!("{:<28} {:>10} {:>12} {:>10}", "mode", "steps", "wall time", "mean ret");
        for mode in [ParamCompression::FullF32, ParamCompression::DeltaQuantizedI8] {
            let report = Deployment::run(dqn_deployment(mode, 8, 3_000))
                .expect("cross-machine deployment runs");
            let mean_ret = if report.episode_returns.is_empty() {
                0.0
            } else {
                report.episode_returns.iter().sum::<f32>() / report.episode_returns.len() as f32
            };
            println!(
                "{:<28} {:>10} {:>11.2}s {:>10.1}",
                mode_name(mode),
                report.steps_consumed,
                report.wall_time.as_secs_f64(),
                mean_ret
            );
        }
    }

    if let Some(required) = gate {
        if best_ratio < required {
            eprintln!(
                "GATE FAILED: best mode saves only {best_ratio:.2}x over the f32+LZ4 baseline \
                 (required {required:.1}x)"
            );
            std::process::exit(1);
        }
        println!("gate ok: best mode is {best_ratio:.2}x smaller than the baseline on the wire");
    }
}
