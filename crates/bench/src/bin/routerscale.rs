//! Router-fabric scale gate: fanout-1024 delivery throughput as the broker's
//! comm fabric splits across router shards (DESIGN.md, fabric sharding).
//!
//! One broker hosts 1024 destination endpoints; a single source blasts
//! point-to-point rollouts round-robin across all of them, so consistent
//! hashing spreads the stream over every router shard. Shard threads share
//! the host's cores with 1 024 receiver threads, so wall clock cannot scale;
//! instead each shard is charged the CPU time its `xt-router-m0-s{n}` thread
//! ran (the kernel's per-thread `schedstat`, read before shutdown joins it)
//! and a run's makespan is the busiest shard — what wall clock would be with
//! one core per shard, the same idiom the multilearner gate uses. CPU time,
//! unlike a wall-clock busy interval, does not grow when the receivers the
//! router wakes preempt it. Every run must finish with zero drops, an empty
//! object store, and the broker-wide `comm.router_queue_depth` gauge back at
//! zero.
//!
//! `--gate <ratio>` exits nonzero unless the widest fabric (4 shards)
//! delivers at least `ratio`x the single-router CPU-makespan throughput
//! (the CI regression gate; ideal is ~4x, see ci.sh for the bound).

use bytes::Bytes;
use netsim::Cluster;
use std::time::Duration;
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::{Header, Message, MessageKind, ProcessId};
use xt_bench::header;
use xt_telemetry::Telemetry;

const N_DST: u32 = 1024;
const BODY: &[u8] = &[7u8; 64];

struct RunStats {
    /// CPU nanoseconds per shard's router thread.
    per_shard_cpu_ns: Vec<u64>,
    /// The busiest shard: wall clock with one core per shard.
    makespan_ns: u64,
    deliveries: u64,
}

impl RunStats {
    fn throughput(&self) -> f64 {
        self.deliveries as f64 / (self.makespan_ns.max(1) as f64 / 1e9)
    }
}

fn measure(shards: usize, rounds: u32) -> RunStats {
    let cluster = Cluster::single();
    let telemetry = Telemetry::with_capacity(1 << 12);
    let broker = Broker::with_telemetry(
        0,
        cluster,
        CommConfig::default().with_router_shards(shards),
        telemetry.clone(),
    );
    let src = broker.endpoint(ProcessId::learner(0));
    let dsts: Vec<_> = (0..N_DST).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();

    for _ in 0..rounds {
        for i in 0..N_DST {
            let h = Header::new(
                ProcessId::learner(0),
                vec![ProcessId::explorer(i)],
                MessageKind::Rollout,
            );
            src.send(Message::new(h, Bytes::from_static(BODY)));
        }
    }
    for (i, ep) in dsts.iter().enumerate() {
        for r in 0..rounds {
            let got = ep
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("destination {i} starved at round {r}"));
            assert_eq!(got.body.len(), BODY.len());
        }
    }
    drop(src);
    drop(dsts);
    let per_shard_cpu_ns = router_cpu_ns(shards);
    broker.shutdown();

    assert_eq!(broker.dropped(), 0, "fanout run must not drop ({shards} shards)");
    assert!(broker.store().is_empty(), "store leak ({shards} shards)");
    assert_eq!(
        telemetry.gauge("comm.router_queue_depth").get(),
        0,
        "router backlog must drain to zero ({shards} shards)"
    );
    for s in 0..shards {
        assert!(
            telemetry.counter(&format!("comm.router.{s}.bursts")).get() > 0,
            "shard {s}/{shards} never drained a burst"
        );
    }
    RunStats {
        makespan_ns: per_shard_cpu_ns.iter().copied().max().unwrap_or(0),
        per_shard_cpu_ns,
        deliveries: u64::from(rounds) * u64::from(N_DST),
    }
}

/// CPU time each live `xt-router-m0-s{n}` thread of this process has run,
/// indexed by shard: the first field of `/proc/self/task/<tid>/schedstat`
/// (nanoseconds on the CPU). The previous run's routers were joined at its
/// shutdown, so only this broker's shards carry the name.
fn router_cpu_ns(shards: usize) -> Vec<u64> {
    let mut cpu_ns = vec![None; shards];
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let Some(shard) = name.trim_end().strip_prefix("xt-router-m0-s") else { continue };
        let shard: usize = shard.parse().expect("router thread name ends in its shard");
        let stat = std::fs::read_to_string(dir.join("schedstat")).expect("per-thread schedstat");
        let ns = stat.split_whitespace().next().and_then(|v| v.parse().ok());
        cpu_ns[shard] = Some(ns.expect("schedstat starts with CPU nanoseconds"));
    }
    cpu_ns
        .into_iter()
        .enumerate()
        .map(|(s, ns)| ns.unwrap_or_else(|| panic!("no live thread for router shard {s}")))
        .collect()
}

fn main() {
    let mut gate: Option<f64> = None;
    let mut rounds: u32 = 100;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gate" => {
                gate =
                    Some(args.next().and_then(|v| v.parse().ok()).expect("--gate takes a ratio"));
            }
            "--rounds" => {
                rounds =
                    args.next().and_then(|v| v.parse().ok()).expect("--rounds takes a count");
            }
            "--help" | "-h" => {
                println!("flags: --rounds <u32>  --gate <min 4-shard/1-shard throughput ratio>");
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }

    header(&format!(
        "Router-fabric scale: fanout-{N_DST}, {} point-to-point deliveries per run",
        u64::from(rounds) * u64::from(N_DST)
    ));
    println!(
        "{:>7} {:>12} {:>13} {:>13} {:>8}  per-shard CPU ms",
        "shards", "CPU ms", "makespan ms", "msgs/s", "speedup"
    );

    let mut ratio_at_4 = 0.0;
    let mut base = 0.0;
    for shards in [1usize, 2, 4] {
        let run = measure(shards, rounds);
        if shards == 1 {
            base = run.throughput();
        }
        let speedup = run.throughput() / base;
        if shards == 4 {
            ratio_at_4 = speedup;
        }
        let cpu_total: u64 = run.per_shard_cpu_ns.iter().sum();
        let split: Vec<String> = run
            .per_shard_cpu_ns
            .iter()
            .map(|ns| format!("{:.1}", *ns as f64 / 1e6))
            .collect();
        println!(
            "{:>7} {:>12.1} {:>13.1} {:>13.0} {:>7.2}x  [{}]",
            shards,
            cpu_total as f64 / 1e6,
            run.makespan_ns as f64 / 1e6,
            run.throughput(),
            speedup,
            split.join(", ")
        );
    }
    println!("\n(zero drops, empty store, and a drained queue-depth gauge asserted per run)");

    if let Some(bound) = gate {
        if ratio_at_4 < bound {
            eprintln!("routerscale gate FAILED: 4-shard speedup {ratio_at_4:.2}x < bound {bound}x");
            std::process::exit(1);
        }
        println!("routerscale gate ok: 4-shard speedup {ratio_at_4:.2}x >= bound {bound}x");
    }
}
