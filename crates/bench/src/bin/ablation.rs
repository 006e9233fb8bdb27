//! Ablation A1 — isolating the design choices (DESIGN.md §4).
//!
//! Three questions the paper's design section raises but its evaluation
//! never isolates:
//!
//! 1. **Push vs pull, architecture only.** With every calibrated software
//!    overhead zeroed, how much of XingTian's win survives? (Answer: the pull
//!    model still pays an extra store copy and request round trips.)
//! 2. **Compression.** The paper compresses bodies > 1 MiB by default
//!    (§4.1). What does LZ4 cost/save on compressible rollout payloads vs
//!    incompressible ones?
//! 3. **NIC-bound transfers.** Across machines, does the push channel's
//!    advantage persist when the wire — identical for both systems — is the
//!    bottleneck?

use baselines::raylite::run_ray_dummy;
use baselines::CostModel;
use bytes::Bytes;
use netsim::ClusterSpec;
use std::time::Instant;
use xingtian::dummy::{run_dummy, DummyConfig};
use xingtian_comm::{Broker, CommConfig, Compression};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId};
use xt_bench::{fmt_size, header, HarnessArgs};

fn ablation_push_vs_pull_zero_overhead(full: bool) {
    header("A1.1: push vs pull with ALL software overheads zeroed");
    println!("{:>8} | {:>10} | {:>10} | {:>6}", "size", "XT MB/s", "ray MB/s", "ratio");
    let sizes: &[usize] = if full { &[64 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20] } else { &[256 << 10, 4 << 20] };
    for &size in sizes {
        let cfg = DummyConfig { rounds: 10, ..DummyConfig::single_machine(4, size) };
        let xt = run_dummy(cfg.clone());
        let ray = run_ray_dummy(cfg, &CostModel::zero_overhead());
        println!(
            "{:>8} | {:>10.0} | {:>10.0} | {:>5.2}x",
            fmt_size(size),
            xt.throughput_mb_s(),
            ray.throughput_mb_s(),
            xt.throughput_mb_s() / ray.throughput_mb_s()
        );
    }
    println!("(remaining gap = the pull model's extra copy + per-message request handling)");
}

fn ablation_compression() {
    header("A1.2: LZ4 compression on the channel (4 MiB bodies, 4 explorers, 10 rounds)");
    // Rollout-like payload: f32s with small dynamic range compress well.
    let compressible: Vec<u8> = {
        let mut steps = Vec::new();
        for i in 0..(4 << 20) / 4 {
            ((i % 17) as f32 * 0.25).encode(&mut steps);
        }
        steps
    };
    println!("{:<24} {:>12} {:>12}", "configuration", "MB/s", "latency");
    for (label, compression) in [
        ("compression off", Compression::Off),
        ("compress > 1 MiB (paper)", Compression::Threshold(1 << 20)),
    ] {
        let broker = Broker::new(0, netsim::Cluster::single(), CommConfig { compression, ..CommConfig::default() });
        let learner = broker.endpoint(ProcessId::learner(0));
        let explorers: Vec<_> = (0..4).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
        let body = Bytes::from(compressible.clone());
        let rounds = 10;
        let t0 = Instant::now();
        // One thread per explorer: a producer waits in `send` while the store
        // is full, and 40 raw 4 MiB bodies overfill it.
        let bytes: u64 = std::thread::scope(|s| {
            for e in &explorers {
                let body = &body;
                s.spawn(move || {
                    for _ in 0..rounds {
                        e.send_to(vec![ProcessId::learner(0)], MessageKind::Dummy, body.clone());
                    }
                });
            }
            (0..rounds * explorers.len()).map(|_| learner.recv().expect("delivered").body.len() as u64).sum()
        });
        let elapsed = t0.elapsed();
        println!(
            "{:<24} {:>12.0} {:>11.0}ms",
            label,
            bytes as f64 / 1e6 / elapsed.as_secs_f64(),
            elapsed.as_secs_f64() * 1e3
        );
        drop(explorers);
        drop(learner);
        broker.shutdown();
    }
    println!("(on a single machine compression costs CPU; its payoff is NIC-bound transfers — A1.3)");
}

fn ablation_nic_bound(full: bool) {
    header("A1.3: cross-machine (118.04 MB/s NIC), 8 remote explorers");
    println!("{:<28} {:>10} {:>10}", "configuration", "XT MB/s", "ray MB/s");
    let size = if full { 16 << 20 } else { 4 << 20 };
    for (label, compress) in [("compression off", false), ("LZ4 above 1 MiB", true)] {
        let comm = if compress {
            CommConfig { compression: Compression::Threshold(1 << 20), ..CommConfig::default() }
        } else {
            CommConfig::uncompressed()
        };
        let cfg = DummyConfig {
            cluster: ClusterSpec::default().machines(2),
            explorers_per_machine: vec![0, 8],
            learner_machine: 0,
            message_size: size,
            rounds: 5,
            comm,
        };
        // Note: the dummy payload is a byte ramp, which LZ4 compresses ~4x,
        // standing in for "compressible" rollouts.
        let xt = run_dummy(cfg.clone());
        let ray = run_ray_dummy(cfg, &CostModel::zero_overhead());
        println!("{:<28} {:>10.1} {:>10.1}", label, xt.throughput_mb_s(), ray.throughput_mb_s());
    }
    println!("(compression lets the push channel exceed the raw NIC rate; the pull model is request-gated either way)");
}

fn main() {
    let args = HarnessArgs::parse();
    ablation_push_vs_pull_zero_overhead(args.full);
    ablation_compression();
    ablation_nic_bound(args.full);
}
