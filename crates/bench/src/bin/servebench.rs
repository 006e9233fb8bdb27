//! Serving-plane SLO benchmark: high-QPS batched inference with hot
//! parameter swap under load.
//!
//! Open-loop load generation against a [`ServeFleet`]: one client thread
//! per replica paces observation batches at a fixed aggregate rate while a
//! publisher thread walks the fleet through a chain of parameter versions
//! (the live-learner attachment). At the end the harness prints the SLO
//! table — aggregate inference rows/s, batch-size and latency histograms
//! (queue/infer server-side, e2e client-side, p50/p90/p99 via
//! `Histogram::summary`) — and verifies the serving-plane contract:
//!
//! * zero silent drops: every request answered, served or explicit shed;
//! * at least one successful hot swap while traffic was flowing;
//! * every replica on the final published version.
//!
//! `--gate-qps <rows/s>` and `--gate-p99-ms <ms>` turn the run into a CI
//! gate (exit 1 on miss). `--max-batch 1` gives the unbatched baseline for
//! the before/after table in EXPERIMENTS.md.
//!
//! `--trials N` runs N independent trials in one process. The correctness
//! contract (zero silent drops, a swap landed, fleet converged) must hold
//! on EVERY trial; the SLO gates pass if ANY single trial meets both —
//! on a one-core host the p99 tail is dominated by scheduler-timeslice
//! noise that varies run to run, so best-of-N measures what the plane can
//! do rather than what the box happened to be doing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::Cluster;
use tinynn::{Activation, Mlp};
use xingtian_algos::ParamBlob;
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 4;
const ACTIONS: usize = 2;
const HIDDEN: [usize; 2] = [64, 64];

struct Args {
    seconds: f64,
    replicas: usize,
    clients_per_replica: usize,
    rows: u32,
    rate: u64,
    max_batch: usize,
    max_wait_us: u64,
    swap_every_ms: u64,
    trials: u32,
    gate_qps: Option<f64>,
    gate_p99_ms: Option<f64>,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            seconds: 3.0,
            replicas: 4,
            clients_per_replica: 1,
            rows: 64,
            rate: 1_000,
            max_batch: 256,
            max_wait_us: 200,
            swap_every_ms: 50,
            trials: 1,
            gate_qps: None,
            gate_p99_ms: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut take = |what: &str| {
                args.next().and_then(|v| v.parse::<f64>().ok()).unwrap_or_else(|| panic!("{what}"))
            };
            match flag.as_str() {
                "--seconds" => a.seconds = take("--seconds takes a float"),
                "--replicas" => a.replicas = take("--replicas takes a count") as usize,
                "--clients" => {
                    a.clients_per_replica = take("--clients takes a per-replica count") as usize
                }
                "--rows" => a.rows = take("--rows takes a batch size") as u32,
                "--rate" => a.rate = take("--rate takes requests/s") as u64,
                "--max-batch" => a.max_batch = take("--max-batch takes rows") as usize,
                "--max-wait-us" => a.max_wait_us = take("--max-wait-us takes µs") as u64,
                "--swap-every-ms" => a.swap_every_ms = take("--swap-every-ms takes ms") as u64,
                "--trials" => a.trials = (take("--trials takes a count") as u32).max(1),
                "--gate-qps" => a.gate_qps = Some(take("--gate-qps takes rows/s")),
                "--gate-p99-ms" => a.gate_p99_ms = Some(take("--gate-p99-ms takes ms")),
                "--help" | "-h" => {
                    println!(
                        "flags: --seconds <f64> --replicas <n> --clients <per-replica> \
                         --rows <per-request> --rate <requests/s aggregate> --max-batch <rows> \
                         --max-wait-us <µs> --swap-every-ms <ms> --trials <n> \
                         --gate-qps <rows/s> --gate-p99-ms <ms>"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        a
    }
}

fn blob(version: u64, seed: u64) -> ParamBlob {
    let sizes = [OBS_DIM, HIDDEN[0], HIDDEN[1], ACTIONS];
    let mlp = Mlp::new(&sizes, Activation::Relu, seed);
    ParamBlob { version, params: mlp.params().to_vec() }
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}µs", ns as f64 / 1_000.0)
}

/// One trial's SLO numbers plus any correctness-contract violations.
struct Trial {
    qps: f64,
    p99_ns: Option<u64>,
    contract: Vec<String>,
}

fn run_trial(args: &Args) -> Trial {
    let telemetry = Telemetry::enabled();
    let broker =
        Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry.clone());

    let config = ServeConfig::new(args.replicas, OBS_DIM, ACTIONS)
        .with_hidden(HIDDEN.to_vec())
        .with_batching(args.max_batch, args.max_wait_us);
    let fleet = ServeFleet::start(&broker, config, &blob(1, 1));

    // Load threads: open-loop pacing, one (or more) pinned per replica so
    // the aggregate rate spreads evenly.
    let stop = Arc::new(AtomicBool::new(false));
    let n_clients = args.replicas * args.clients_per_replica;
    let per_client_interval =
        Duration::from_nanos(1_000_000_000 * n_clients as u64 / args.rate.max(1));
    let sent_total = Arc::new(AtomicU64::new(0));
    let loaders: Vec<_> = (0..n_clients as u32)
        .map(|i| {
            let broker = broker.clone();
            let stop = Arc::clone(&stop);
            let sent_total = Arc::clone(&sent_total);
            let rows = args.rows;
            let replicas = args.replicas;
            std::thread::spawn(move || {
                let mut client = ServeClient::new(&broker, i, replicas);
                client.set_target(ProcessId::server(i % replicas as u32));
                let obs = vec![0.1f32; OBS_DIM * rows as usize];
                let mut replies = Vec::new();
                let mut next_send = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now >= next_send {
                        client.send(&obs, rows);
                        sent_total.fetch_add(1, Ordering::Relaxed);
                        next_send += per_client_interval;
                        // Open-loop: if we fell behind, catch up from now
                        // rather than bursting the deficit.
                        if next_send + per_client_interval * 8 < now {
                            next_send = now;
                        }
                        continue;
                    }
                    // Block on replies until the next paced send is due —
                    // never spin; a polling client would steal the very
                    // cores the replicas need.
                    replies.clear();
                    client.poll_timeout(next_send - now, &mut replies);
                }
                client.drain(Duration::from_secs(10));
                (client.sent, client.answered, client.shed, client.answered_rows)
            })
        })
        .collect();

    // Publisher thread: the stand-in live learner, swapping the fleet on a
    // fixed cadence for the whole run.
    let swap_stop = Arc::new(AtomicBool::new(false));
    let publisher_thread = {
        let broker = broker.clone();
        let stop = Arc::clone(&swap_stop);
        let replicas = args.replicas;
        let every = Duration::from_millis(args.swap_every_ms.max(1));
        std::thread::spawn(move || {
            let mut publisher =
                ParamPublisher::new(&broker, replicas, ParamCompression::DeltaQuantizedI8);
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                version += 1;
                // Rolling swap: stagger per-sink sends so the fleet-wide
                // thundering herd of rebuilds never collides with one
                // inference batch window.
                publisher.publish_staggered(&blob(version, version), Duration::from_millis(2));
            }
            publisher.pump_nacks();
            let nacked = publisher.nacked();
            publisher.close();
            (version, nacked)
        })
    };

    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(args.seconds));
    swap_stop.store(true, Ordering::Relaxed);
    let (last_version, nacked) = publisher_thread.join().unwrap();
    stop.store(true, Ordering::Relaxed);

    let mut sent = 0u64;
    let mut answered = 0u64;
    let mut shed = 0u64;
    let mut rows_answered = 0u64;
    for loader in loaders {
        let (s, a, d, r) = loader.join().unwrap();
        sent += s;
        answered += a;
        shed += d;
        rows_answered += r;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // Let the fleet settle on the last published version before reading it.
    let settle = Instant::now() + Duration::from_secs(5);
    while fleet.versions().iter().any(|&v| v < last_version) && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(2));
    }
    let versions = fleet.versions();
    let swaps = telemetry.counter("serve.swaps").get();
    let report = fleet.shutdown();
    broker.shutdown();

    let qps = rows_answered as f64 / elapsed;
    let e2e = telemetry.histogram("serve.e2e_us").histogram().map(|h| h.summary());
    let batch = telemetry.histogram("serve.batch_size").histogram().map(|h| h.summary());
    let queue = telemetry.histogram("serve.queue_us").histogram().map(|h| h.summary());
    let infer = telemetry.histogram("serve.infer_us").histogram().map(|h| h.summary());

    println!(
        "sent={sent} answered={answered} shed={shed} ({} rows in {elapsed:.2}s)",
        rows_answered
    );
    println!("serve.qps        : {qps:.0} inferences/s aggregate");
    if let Some(s) = batch {
        println!(
            "serve.batch_size : n={} mean={} p50={} p99={} max={}",
            s.count, s.mean, s.p50, s.p99, s.max
        );
    }
    for (name, s) in [("serve.queue_us", queue), ("serve.infer_us", infer), ("serve.e2e_us", e2e)]
    {
        if let Some(s) = s {
            println!(
                "{name:<17}: n={} mean={} p50={} p90={} p99={} max={}",
                s.count,
                fmt_us(s.mean),
                fmt_us(s.p50),
                fmt_us(s.p90),
                fmt_us(s.p99),
                fmt_us(s.max)
            );
        }
    }
    println!(
        "swaps={swaps} (nacked={nacked}, final fleet versions {versions:?}, \
         target v{last_version})"
    );
    println!(
        "fleet report: served_requests={} served_rows={} sheds={} respawns={}",
        report.served_requests, report.served_rows, report.sheds, report.respawns
    );

    // The serving-plane contract: must hold on every trial, gates or not.
    let mut contract = Vec::new();
    if sent != answered + shed {
        contract.push(format!(
            "request drop: sent={sent} != answered={answered} + shed={shed}"
        ));
    }
    if swaps == 0 {
        contract.push("no hot swap landed under load".to_string());
    }
    if versions.iter().any(|&v| v < last_version) {
        contract.push(format!("fleet never converged to v{last_version}: {versions:?}"));
    }
    Trial { qps, p99_ns: e2e.map(|s| s.p99), contract }
}

fn main() {
    let args = Args::parse();
    println!(
        "servebench: {} replicas x {} clients, {} rows/request, {} req/s aggregate, \
         max_batch={}, max_wait={}µs, swap every {}ms, {:.1}s x {} trial(s)",
        args.replicas,
        args.clients_per_replica,
        args.rows,
        args.rate,
        args.max_batch,
        args.max_wait_us,
        args.swap_every_ms,
        args.seconds,
        args.trials
    );

    let mut failures = Vec::new();
    let mut best: Option<(f64, u64)> = None;
    let mut gate_met = false;
    for trial in 1..=args.trials {
        println!("\n== servebench trial {trial}/{} ==", args.trials);
        let outcome = run_trial(&args);
        for violation in &outcome.contract {
            failures.push(format!("trial {trial}: {violation}"));
        }
        let p99_ns = outcome.p99_ns.unwrap_or(u64::MAX);
        if best.is_none_or(|(_, b)| p99_ns < b) {
            best = Some((outcome.qps, p99_ns));
        }
        // Gates are best-of-N: one trial meeting BOTH demonstrates the SLO.
        let qps_ok = args.gate_qps.is_none_or(|min| outcome.qps >= min);
        let p99_ok =
            args.gate_p99_ms.is_none_or(|max| (p99_ns as f64 / 1_000_000.0) <= max);
        if qps_ok && p99_ok {
            gate_met = true;
        }
    }

    if let Some((qps, p99_ns)) = best {
        println!(
            "\nbest trial: {qps:.0} inferences/s, e2e p99 {}",
            fmt_us(p99_ns)
        );
    }
    if !gate_met {
        let (qps, p99_ns) = best.unwrap_or((0.0, u64::MAX));
        failures.push(format!(
            "gate: no trial met qps >= {:?} with e2e p99 <= {:?}ms (best: {qps:.0} qps, p99 {})",
            args.gate_qps,
            args.gate_p99_ms,
            fmt_us(p99_ns)
        ));
    }
    if failures.is_empty() {
        println!("servebench: PASS");
    } else {
        for f in &failures {
            eprintln!("servebench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
