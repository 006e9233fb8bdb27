//! Layer probes: the workload's real inputs walked, on one thread, through
//! each layer's public functions with a span around every call.
//!
//! For a training workload the walk is a miniature deployment: the real
//! environments and agents produce rollout batches of the workload's shape,
//! and each batch goes encode → (compress) → store insert → fetch →
//! (decompress) → decode → ingest → train → parameter encode → apply, the
//! calls the explorer, channel and learner threads make. Because the walk
//! keeps the workload's ratios of calls per operation, summing its spans gives
//! the CPU cost per operation the layers account for; what the timed run
//! measures beyond that is the unattributed remainder.

use crate::stats::{median, p99};
use crate::trace::Tracer;
use crate::workloads::{xfer_body, xfer_pattern, Workload, XFER_SENDERS};
use bytes::Bytes;
use gymlite::Environment;
use netsim::Cluster;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tinynn::{Activation, Mlp, Workspace};
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::{
    build_agent, build_algorithm_with_replay, build_env, build_replay_plane,
};
use xingtian::parameters::{IngestOutcome, ParamBroadcaster, ParamReceiver};
use xingtian_algos::api::{Agent, Algorithm};
use xingtian_algos::payload::{BatchDecoder, RolloutBatch, RolloutStep};
use xingtian_algos::SampleSink;
use xingtian_comm::{Broker, CommConfig, Compression, Endpoint, ObjectStore};
use xingtian_message::codec::Encode;
use xingtian_message::{chunk, MessageKind, ProcessId};
use xt_telemetry::Telemetry;

/// Calls a cheap probe is repeated until, unless its time budget ends first.
const TARGET_CALLS: usize = 2_000;

/// How long the probes may run.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Environment steps the walk takes at least.
    pub min_steps: usize,
    /// Training sessions the walk completes at least.
    pub min_sessions: usize,
    /// Time budget of one repeated probe.
    pub repeat_budget: Duration,
    /// Time budget of the one-at-a-time delivery probe.
    pub deliver_budget: Duration,
}

impl Effort {
    pub const FULL: Effort = Effort {
        min_steps: 6_000,
        min_sessions: 12,
        repeat_budget: Duration::from_millis(300),
        deliver_budget: Duration::from_secs(5),
    };
    pub const QUICK: Effort = Effort {
        min_steps: 100,
        min_sessions: 1,
        repeat_budget: Duration::from_millis(20),
        deliver_budget: Duration::from_millis(50),
    };
}

/// What the probes found.
#[derive(Debug, Default)]
pub struct Probed {
    pub tracer: Tracer,
    /// `(metric name, value)`; a metric the workload has no call for is absent.
    pub values: Vec<(&'static str, f64)>,
    /// `(span name, calls timed)`.
    pub calls: Vec<(&'static str, usize)>,
    /// One line per failed check.
    pub faults: Vec<String>,
    /// CPU microseconds per operation the walk's spans account for.
    pub attributed_us_per_op: f64,
}

impl Probed {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok && self.faults.len() < 8 {
            self.faults.push(what.to_string());
        }
    }

    /// Runs `f` under a span named `name` until it has been timed
    /// [`TARGET_CALLS`] times in all, or for `budget`, and at least once.
    fn repeat(&mut self, name: &'static str, budget: Duration, mut f: impl FnMut(&mut Probed)) {
        let have = self
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .count();
        let t0 = Instant::now();
        for i in have..TARGET_CALLS.max(have + 1) {
            if i > have && t0.elapsed() >= budget {
                break;
            }
            f(self);
        }
    }

    /// Turns the median self time of spans named `span` into metric `metric`.
    fn publish_median(&mut self, span: &'static str, metric: &'static str) {
        let times = self.tracer.self_times_us(span);
        if !times.is_empty() {
            self.values.push((metric, median(&times)));
            self.calls.push((span, times.len()));
        }
    }
}

/// Probes every layer `workload` runs through, inputs made from `seed`.
pub fn run(workload: Workload, seed: u64, effort: Effort) -> Probed {
    let mut p = Probed::default();
    match workload.deployment(seed, 1) {
        Some(config) => probe_training(&config, effort, &mut p),
        None => probe_xfer(seed, effort, &mut p),
    }
    for (span, metric) in [
        ("envs.step", "envs.step_us"),
        ("algos.act", "algos.act_us"),
        ("algos.ingest", "algos.ingest_us"),
        ("algos.train", "algos.train_us"),
        ("nn.forward", "nn.forward_us"),
        ("nn.backward", "nn.backward_us"),
        ("message.encode", "message.encode_us"),
        ("message.decode", "message.decode_us"),
        ("message.compress", "message.compress_us"),
        ("message.decompress", "message.decompress_us"),
        ("comm.store_put", "comm.store_put_us"),
        ("comm.store_get", "comm.store_get_us"),
        ("comm.deliver", "comm.deliver_p50_us"),
        ("comm.fanout2", "comm.fanout2_us"),
        ("replay.ingest", "replay.ingest_us"),
        ("replay.sample", "replay.sample_us"),
        ("core.param_encode", "core.param_encode_us"),
        ("core.param_apply", "core.param_apply_us"),
    ] {
        p.publish_median(span, metric);
    }
    if let Some(tail) = p99(&p.tracer.self_times_us("comm.deliver")) {
        p.values.push(("comm.deliver_p99_us", tail));
    }
    p
}

/// Sums, over the spans of operations `first_op..`, each layer's median self
/// time times its number of calls: the walk's CPU cost, in microseconds.
fn attributed_us(tracer: &Tracer, first_op: u64) -> f64 {
    let selfs = crate::trace::self_times_ns(tracer.spans());
    let mut by_name: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (span, ns) in tracer.spans().iter().zip(selfs) {
        if span.op < first_op || span.name == "harness.op" {
            continue;
        }
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, times)) => times.push(ns as f64 / 1e3),
            None => by_name.push((span.name, vec![ns as f64 / 1e3])),
        }
    }
    by_name
        .iter()
        .map(|(_, times)| median(times) * times.len() as f64)
        .sum()
}

struct Explorer {
    env: Box<dyn Environment>,
    agent: Box<dyn Agent>,
    receiver: ParamReceiver,
    obs: Vec<f32>,
}

/// One rollout of `len` steps, assembled the way the explorer process does.
fn rollout(e: &mut Explorer, index: u32, len: usize, op: u64, t: &mut Tracer) -> RolloutBatch {
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let selection = t.call("algos.act", op, || e.agent.act(&e.obs));
        let step = t.call("envs.step", op, || e.env.step(selection.action));
        steps.push(RolloutStep {
            observation: std::mem::take(&mut e.obs),
            action: selection.action as u32,
            reward: step.reward,
            done: step.done,
            behavior_logits: selection.logits,
            value: selection.value,
            next_observation: e
                .agent
                .records_next_observation()
                .then(|| step.observation.clone()),
        });
        e.obs = if step.done {
            e.env.reset()
        } else {
            step.observation
        };
    }
    RolloutBatch {
        explorer: index,
        param_version: e.agent.param_version(),
        steps,
        bootstrap_observation: e.obs.clone(),
    }
}

fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn probe_training(config: &DeploymentConfig, effort: Effort, p: &mut Probed) {
    let telemetry = Telemetry::disabled();
    let make_env = |seed| {
        build_env(
            &config.env,
            seed,
            config.obs_dim_override,
            config.step_latency_us,
        )
        .expect("the workloads name environments that exist")
    };
    let (obs_dim, num_actions) = {
        let env = make_env(0);
        (env.observation_dim(), env.num_actions())
    };
    let n = config.total_explorers();
    let mut explorers: Vec<Explorer> = (0..n)
        .map(|i| {
            let mut env = make_env(config.seed.wrapping_mul(1000).wrapping_add(u64::from(i)));
            let agent = build_agent(
                &config.algorithm,
                obs_dim,
                num_actions,
                n,
                config.rollout_len,
                config.seed,
                i,
            );
            let obs = env.reset();
            Explorer {
                env,
                agent,
                receiver: ParamReceiver::new(),
                obs,
            }
        })
        .collect();
    let plane = build_replay_plane(config, obs_dim, &telemetry);
    let mut algorithm: Box<dyn Algorithm> = build_algorithm_with_replay(
        &config.algorithm,
        obs_dim,
        num_actions,
        n,
        config.rollout_len,
        config.seed,
        plane.as_ref(),
    );
    let mut broadcaster = ParamBroadcaster::new(config.comm.param_compression, &telemetry);
    let mut decoder = BatchDecoder::new();
    let store = ObjectStore::new();
    let threshold = match config.comm.compression {
        Compression::Threshold(bytes) => bytes,
        Compression::Off => usize::MAX,
    };

    // The walk.
    let (mut steps, mut sessions, mut consumed) = (0usize, 0usize, 0u64);
    let mut first_train_op = None;
    let mut op = 0u64;
    let mut last_plain = Bytes::new();
    let mut last_wire = Bytes::new();
    let mut last_batch = None;
    let mut last_frame = None;
    while steps < effort.min_steps || sessions < effort.min_sessions {
        let index = (op % u64::from(n)) as usize;
        let walk = p.tracer.begin("harness.op", op);
        let batch = rollout(
            &mut explorers[index],
            index as u32,
            config.rollout_len,
            op,
            &mut p.tracer,
        );
        steps += batch.len();

        let encoded = p.tracer.call("message.encode", op, || batch.to_bytes());
        let compressed = (encoded.len() > threshold)
            .then(|| {
                p.tracer
                    .call("message.compress", op, || chunk::compress_chunked(&encoded))
            })
            .filter(|c| c.len() < encoded.len());
        let plain = Bytes::from(encoded);
        let wire = compressed.map_or_else(|| plain.clone(), Bytes::from);
        let id = p
            .tracer
            .call("comm.store_put", op, || store.insert(wire.clone(), 1));
        let fetched = p.tracer.call("comm.store_get", op, || store.fetch(id));
        p.check(
            fetched.as_ref() == Some(&wire),
            "store fetch returned another body",
        );
        if wire.len() < plain.len() {
            let restored = p.tracer.call("message.decompress", op, || {
                chunk::decompress_chunked(&wire)
            });
            p.check(
                matches!(restored, Ok(r) if r[..] == plain[..]),
                "decompress(compress(b)) != b",
            );
        }
        match p
            .tracer
            .call("message.decode", op, || decoder.decode(&plain))
        {
            Ok(decoded) => {
                p.check(decoded == batch, "decode(encode(x)) != x");
                p.tracer
                    .call("algos.ingest", op, || algorithm.on_rollout(decoded));
            }
            Err(e) => p.check(false, &format!("rollout body did not decode: {e:?}")),
        }

        // Train while the algorithm has work, as the learner does; the
        // call that finds none is timed under its own name.
        while let Some(report) = p.tracer.call_as(op, || match algorithm.try_train() {
            Some(report) => ("algos.train", Some(report)),
            None => ("algos.train_poll", None),
        }) {
            sessions += 1;
            consumed += report.steps_consumed as u64;
            first_train_op.get_or_insert(op);
            if report.notify.is_empty() {
                continue;
            }
            let blob = algorithm.param_blob();
            let frame = p.tracer.call("core.param_encode", op, || {
                broadcaster.encode(&blob, &report.notify)
            });
            for &to in &report.notify {
                let e = &mut explorers[to as usize];
                let outcome = p.tracer.call("core.param_apply", op, || {
                    e.receiver.ingest(frame.compression, &frame.body)
                });
                p.check(
                    outcome == IngestOutcome::Applied(blob.version),
                    "parameter frame was not applied",
                );
                p.check(
                    bit_equal(&e.receiver.blob().params, &blob.params),
                    "receiver's reconstruction differs from the learner's parameters",
                );
                p.tracer.call("algos.apply_params", op, || {
                    e.agent.apply_params(e.receiver.blob())
                });
            }
            last_frame = Some((frame, blob));
        }
        while let Some(spent) = algorithm.take_spent() {
            decoder.recycle(spent);
        }
        last_plain = plain;
        last_wire = wire;
        last_batch = Some(batch);
        p.tracer.end(walk);
        op += 1;
    }
    p.check(sessions > 0 && consumed > 0, "the walk trained nothing");
    let steady_us = attributed_us(&p.tracer, first_train_op.unwrap_or(0));
    p.attributed_us_per_op = steady_us / consumed.max(1) as f64;
    let batch = last_batch.expect("the walk made at least one rollout");

    // More samples of the calls that are cheap or stateless enough to repeat.
    let budget = effort.repeat_budget;
    p.repeat("message.encode", budget, |p| {
        p.tracer.call("message.encode", op, || {
            std::hint::black_box(batch.to_bytes())
        });
    });
    p.repeat("message.decode", budget, |p| {
        if let Ok(decoded) = p
            .tracer
            .call("message.decode", op, || decoder.decode(&last_plain))
        {
            decoder.recycle(decoded);
        }
    });
    if last_wire.len() < last_plain.len() {
        p.repeat("message.compress", budget, |p| {
            p.tracer.call("message.compress", op, || {
                std::hint::black_box(chunk::compress_chunked(&last_plain))
            });
        });
        p.repeat("message.decompress", budget, |p| {
            p.tracer
                .call("message.decompress", op, || {
                    std::hint::black_box(chunk::decompress_chunked(&last_wire))
                })
                .ok();
        });
    }
    probe_store(&last_wire, op, budget, p);
    p.values
        .push(("message.body_bytes", last_plain.len() as f64));
    p.values.push((
        "message.compress_ratio",
        last_plain.len() as f64 / last_wire.len() as f64,
    ));

    if let Some((frame, blob)) = &last_frame {
        p.values
            .push(("core.param_frame_bytes", frame.body.len() as f64));
        let mut blob = blob.clone();
        let mut receiver = ParamReceiver::new();
        p.repeat("core.param_encode", budget, |p| {
            blob.version += 1;
            let frame = p
                .tracer
                .call("core.param_encode", op, || broadcaster.encode(&blob, &[0]));
            let outcome = p.tracer.call("core.param_apply", op, || {
                receiver.ingest(frame.compression, &frame.body)
            });
            p.check(
                outcome == IngestOutcome::Applied(blob.version),
                "repeated parameter frame was not applied",
            );
        });
    }

    if let Some(plane) = build_replay_plane(config, obs_dim, &telemetry) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        p.repeat("replay.ingest", budget, |p| {
            let inserted = p
                .tracer
                .call("replay.ingest", op, || plane.ingest_batch(&batch));
            p.check(
                inserted == batch.len(),
                "replay plane did not ingest every transition",
            );
        });
        p.repeat("replay.sample", budget, |p| {
            let mut rows = RowCount(0);
            p.tracer.call("replay.sample", op, || {
                plane.sample_uniform(32, &mut rng, &mut rows)
            });
            p.check(rows.0 == 32, "sample_uniform(32) did not yield 32 rows");
        });
        p.check(
            plane.integrity().dangling_slots == 0,
            "probe replay plane has dangling slots",
        );
    }

    probe_nn(
        &config.algorithm,
        obs_dim,
        num_actions,
        config.rollout_len,
        config.seed,
        op,
        budget,
        p,
    );
    probe_deliver(&config.comm, &last_plain, op, effort.deliver_budget, p);
    if let Some((frame, _)) = &last_frame {
        probe_fanout2(&config.comm, &frame.body, op, budget, p);
    }

    // The simulated wire; only a cross-machine workload has one. The transfer
    // is timed on the workload's own wall-clock cluster, where it blocks the
    // caller the way it blocks the uplink thread. The byte count is exact,
    // and the same on every run.
    if config.cluster.machines > 1 {
        let cluster = Cluster::new(config.cluster.clone());
        for _ in 0..10 {
            p.tracer.call("netsim.transfer", op, || {
                cluster.transfer(1, 0, last_wire.len())
            });
        }
        let transfers = p.tracer.self_times_us("netsim.transfer");
        p.values
            .push(("netsim.transfer_ms", median(&transfers) / 1e3));
        let frame_bytes = last_frame.as_ref().map_or(0, |(frame, _)| frame.body.len());
        let per_iteration = last_wire.len() * n as usize + frame_bytes;
        let steps_per_iteration = config.rollout_len * n as usize;
        p.values.push((
            "netsim.wire_bytes_per_op",
            per_iteration as f64 / steps_per_iteration as f64,
        ));
    }
}

struct RowCount(usize);

impl SampleSink for RowCount {
    fn push_transition(&mut self, _: &[f32], _: Option<&[f32]>, _: u32, _: f32, _: bool) {
        self.0 += 1;
    }
    fn push_weight(&mut self, _: f32) {}
}

fn probe_store(body: &Bytes, op: u64, budget: Duration, p: &mut Probed) {
    let store = ObjectStore::new();
    p.repeat("comm.store_put", budget, |p| {
        let id = p
            .tracer
            .call("comm.store_put", op, || store.insert(body.clone(), 1));
        let fetched = p.tracer.call("comm.store_get", op, || store.fetch(id));
        p.check(fetched.is_some(), "store lost a body");
    });
    p.check(store.is_empty(), "probe store kept bodies");
}

/// Forward and backward passes of the network the learner trains, at its
/// training batch size. FLOPs are computed from the shape, not sampled.
#[allow(clippy::too_many_arguments)]
fn probe_nn(
    spec: &AlgorithmSpec,
    obs_dim: usize,
    num_actions: usize,
    rollout_len: usize,
    seed: u64,
    op: u64,
    budget: Duration,
    p: &mut Probed,
) {
    let (hidden, batch, activation) = match spec {
        AlgorithmSpec::Impala(c) => (&c.hidden, rollout_len, Activation::Tanh),
        AlgorithmSpec::Ppo(c) => (&c.hidden, c.minibatch, Activation::Tanh),
        AlgorithmSpec::Dqn(c) => (&c.hidden, c.batch_size, Activation::Relu),
        AlgorithmSpec::A2c(_) | AlgorithmSpec::Reinforce(_) => return,
    };
    let mut sizes = vec![obs_dim];
    sizes.extend_from_slice(hidden);
    sizes.push(num_actions);
    let net = Mlp::new(&sizes, activation, seed);
    let x: Vec<f32> = (0..batch * obs_dim)
        .map(|i| ((i * 31 % 97) as f32 - 48.0) / 97.0)
        .collect();
    let dout = vec![1.0 / batch as f32; batch * num_actions];
    let mut grads = vec![0.0f32; net.num_params()];
    let mut ws = Workspace::new();
    p.repeat("nn.forward", budget, |p| {
        p.tracer.call("nn.forward", op, || {
            std::hint::black_box(net.forward_ws(std::hint::black_box(&x), batch, &mut ws));
        });
        p.tracer.call("nn.backward", op, || {
            net.backward_ws(&x, batch, &dout, &mut ws, &mut grads)
        });
    });
    p.check(
        grads.iter().all(|g| g.is_finite()),
        "network gradients are not finite",
    );
    // Per row: a multiply-add per weight forward; backward, one for the
    // weight gradient and, above the first layer, one for the input gradient.
    let weights: Vec<usize> = sizes.windows(2).map(|w| w[0] * w[1]).collect();
    let forward = 2 * batch * weights.iter().sum::<usize>();
    let backward = forward + 2 * batch * weights[1..].iter().sum::<usize>();
    let us = median(&p.tracer.self_times_us("nn.forward"))
        + median(&p.tracer.self_times_us("nn.backward"));
    p.values
        .push(("nn.gflops", (forward + backward) as f64 / (us * 1e3)));
}

/// One message at a time from `Endpoint::send` to `recv`: the unloaded path.
fn probe_deliver(comm: &CommConfig, body: &Bytes, op: u64, budget: Duration, p: &mut Probed) {
    let broker = Broker::new(0, Cluster::single(), comm.clone());
    let to = broker.endpoint(ProcessId::learner(0));
    let from = broker.endpoint(ProcessId::explorer(0));
    p.repeat("comm.deliver", budget, |p| {
        let got = p.tracer.call("comm.deliver", op, || {
            from.send_to(vec![to.pid()], MessageKind::Dummy, body.clone());
            to.recv_timeout(Duration::from_secs(10))
        });
        p.check(
            got.is_some_and(|m| m.body == *body),
            "unloaded delivery lost or changed a body",
        );
    });
    close(&broker, [&from, &to], p);
}

/// One body to both explorer endpoints, until both have it: the broadcast the
/// on-policy explorers block on.
fn probe_fanout2(comm: &CommConfig, body: &Bytes, op: u64, budget: Duration, p: &mut Probed) {
    let broker = Broker::new(0, Cluster::single(), comm.clone());
    let from = broker.endpoint(ProcessId::learner(0));
    let to = [
        broker.endpoint(ProcessId::explorer(0)),
        broker.endpoint(ProcessId::explorer(1)),
    ];
    p.repeat("comm.fanout2", budget, |p| {
        let got = p.tracer.call("comm.fanout2", op, || {
            from.send_to(
                vec![to[0].pid(), to[1].pid()],
                MessageKind::Parameters,
                body.clone(),
            );
            to.each_ref()
                .map(|e| e.recv_timeout(Duration::from_secs(10)))
        });
        p.check(
            got.iter()
                .all(|m| m.as_ref().is_some_and(|m| m.body == *body)),
            "fan-out lost or changed a body",
        );
    });
    close(&broker, [&from, &to[0], &to[1]], p);
}

fn close<const N: usize>(broker: &Broker, endpoints: [&Endpoint; N], p: &mut Probed) {
    for e in endpoints {
        e.close();
    }
    broker.shutdown();
    p.check(broker.dropped() == 0, "probe broker dropped messages");
    p.check(
        broker.store().is_empty(),
        "probe broker kept bodies in its store",
    );
}

/// `xfer_small`: the only layer functions on a message's path that can be
/// called directly are the store's; the router, queues and endpoint threads
/// between them show up as the unattributed remainder.
fn probe_xfer(seed: u64, effort: Effort, p: &mut Probed) {
    let pattern = xfer_pattern(seed);
    let store = ObjectStore::new();
    let messages = effort.min_steps as u64;
    for op in 0..messages {
        let walk = p.tracer.begin("harness.op", op);
        let body = xfer_body(&pattern, (op % u64::from(XFER_SENDERS)) as u32, op, 0);
        let id = p
            .tracer
            .call("comm.store_put", op, || store.insert(body.clone(), 1));
        let fetched = p.tracer.call("comm.store_get", op, || store.fetch(id));
        p.check(fetched == Some(body), "store fetch returned another body");
        p.tracer.end(walk);
    }
    p.attributed_us_per_op = attributed_us(&p.tracer, 0) / messages as f64;
    let body = xfer_body(&pattern, 0, 0, 0);
    p.values.push(("message.body_bytes", body.len() as f64));
    probe_deliver(
        &CommConfig::uncompressed(),
        &body,
        messages,
        effort.deliver_budget,
        p,
    );
}
