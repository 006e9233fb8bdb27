//! Microbenchmarks of the replay store as the store-resident placement uses
//! it: batch ingest, gather sampling into a counting sink, and the
//! kernel-bypass remote-sample RPC (`xt-replay`). These are the numbers
//! behind the EXPERIMENTS.md replay-plane table.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{ReplayConfig, ReplayPlane, SampleSink};
use xt_replay::{RemoteSampler, SampleRequest, SampleView};

const OBS_DIM: usize = 64;

fn step(i: usize) -> RolloutStep {
    RolloutStep {
        observation: vec![i as f32; OBS_DIM],
        action: (i % 4) as u32,
        reward: 0.5,
        done: false,
        behavior_logits: vec![],
        value: 0.0,
        next_observation: Some(vec![i as f32 + 1.0; OBS_DIM]),
    }
}

fn batch(start: usize, len: usize) -> RolloutBatch {
    RolloutBatch {
        explorer: 0,
        param_version: 0,
        steps: (start..start + len).map(step).collect(),
        bootstrap_observation: vec![0.0; OBS_DIM],
    }
}

/// A sink that only counts, isolating gather cost from downstream use.
#[derive(Default)]
struct NullSink {
    transitions: usize,
}

impl SampleSink for NullSink {
    fn push_transition(
        &mut self,
        _observation: &[f32],
        _next_observation: Option<&[f32]>,
        _action: u32,
        _reward: f32,
        _done: bool,
    ) {
        self.transitions += 1;
    }

    fn push_weight(&mut self, _weight: f32) {}
}

fn filled_plane(capacity: usize) -> Arc<ReplayPlane> {
    let telemetry = xt_telemetry::Telemetry::disabled();
    let plane = Arc::new(ReplayPlane::new(ReplayConfig::uniform(capacity, OBS_DIM), &telemetry));
    let mut at = 0;
    while (at as u64) < capacity as u64 / 2 {
        plane.ingest_batch(&batch(at, 200));
        at += 200;
    }
    plane
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_plane");
    let plane = filled_plane(100_000);
    let b200 = batch(0, 200);
    group.bench_function("ingest_200x64f", |b| b.iter(|| plane.ingest_batch(&b200)));
    group.finish();
}

fn bench_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_sample");
    let plane = filled_plane(100_000);
    let mut rng = StdRng::seed_from_u64(0);
    let mut sink = NullSink::default();
    group.bench_function("plane_sample_32", |b| {
        b.iter(|| plane.sample_uniform(32, &mut rng, &mut sink))
    });
    group.finish();
}

fn bench_remote(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_remote");
    // Two machines on the virtual clock: simulated NIC time advances without
    // sleeping, so the benchmark measures the host-side RPC work.
    let cluster = netsim::Cluster::new(
        netsim::ClusterSpec::default().machines(2).virtual_time(true),
    );
    let plane = filled_plane(100_000);
    let path = netsim::BypassPath::new(cluster, 1, 0);
    let sampler = RemoteSampler::new(path, plane, 0);
    let req = SampleRequest { n: 32, prioritized: false, beta: 0.4, seed: 9 };
    group.bench_function("bypass_rpc_sample_32", |b| b.iter(|| sampler.sample(&req)));

    // Replaying a received view into a sink is the learner-side cost.
    let (view, _) = sampler.sample(&req);
    let mut sink = NullSink::default();
    group.bench_function("view_replay_32", |b| b.iter(|| view.replay_into(&mut sink)));
    let _ = SampleView::with_obs_dim(OBS_DIM);
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_sample, bench_remote);
criterion_main!(benches);
