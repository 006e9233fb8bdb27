//! Microbenchmarks of the one replay store: as a local buffer (DQN's
//! in-learner placement and the baseline's replay actor share this code;
//! these numbers are the "local sampling" side of Fig. 9(b)), and as the
//! store-resident placement uses it — batch ingest and gather sampling into
//! a counting sink (the EXPERIMENTS.md replay-plane table).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{ReplayConfig, ReplayPlane, SampleSink, StepSink};
use xt_telemetry::Telemetry;

const OBS_DIM: usize = 64;

fn batch(start: usize, len: usize) -> RolloutBatch {
    let steps = (start..start + len)
        .map(|i| RolloutStep {
            observation: vec![i as f32; OBS_DIM],
            action: (i % 4) as u32,
            reward: 0.5,
            done: false,
            behavior_logits: vec![],
            value: 0.0,
            next_observation: Some(vec![i as f32 + 1.0; OBS_DIM]),
        })
        .collect();
    RolloutBatch { explorer: 0, param_version: 0, steps, bootstrap_observation: vec![] }
}

/// A plane holding 50 000 transitions.
fn filled(config: ReplayConfig) -> ReplayPlane {
    let plane = ReplayPlane::new(config, &Telemetry::disabled());
    for at in (0..50_000).step_by(200) {
        plane.ingest_batch(&batch(at, 200));
    }
    plane
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

fn bench_plane(c: &mut Criterion) {
    let plane = filled(ReplayConfig::uniform(100_000, OBS_DIM));
    let mut group = c.benchmark_group("replay_plane");
    let b200 = batch(0, 200);
    group.bench_function("ingest_200x64f", |b| b.iter(|| plane.ingest_batch(&b200)));
    group.finish();
    let mut group = c.benchmark_group("replay_sample");
    let mut rng = StdRng::seed_from_u64(0);
    let mut sink = NullSink::default();
    group.bench_function("plane_sample_32", |b| {
        b.iter(|| plane.sample_uniform(32, &mut rng, &mut sink))
    });
    group.finish();
}

fn bench_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_uniform");
    let plane = filled(ReplayConfig::uniform(100_000, OBS_DIM));
    let mut rng = StdRng::seed_from_u64(0);
    let one = batch(0, 1);
    group.bench_function("push_64f", |b| b.iter(|| plane.ingest_batch(&one)));
    // Materialized as steps: what a replay actor ships back to its trainer.
    let mut steps = Vec::new();
    group.bench_function("sample_32", |b| {
        b.iter(|| {
            steps.clear();
            plane.sample_uniform(32, &mut rng, &mut StepSink(&mut steps));
        })
    });
    group.finish();
}

fn bench_prioritized(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_prioritized");
    let plane = filled(ReplayConfig::prioritized(65_536, OBS_DIM, 0.6));
    let mut rng = StdRng::seed_from_u64(0);
    let (mut steps, mut picks) = (Vec::new(), Vec::new());
    group.bench_function("sample_32_beta04", |b| {
        b.iter(|| {
            steps.clear();
            plane.sample_prioritized(32, 0.4, &mut rng, &mut StepSink(&mut steps), &mut picks);
        })
    });
    let td: Vec<f32> = (0..32).map(|i| i as f32 * 0.1 + 0.01).collect();
    group.bench_function("update_priorities_32", |b| b.iter(|| plane.update_priorities(&picks, &td)));
    group.finish();
}

criterion_group!(benches, bench_plane, bench_uniform, bench_prioritized);
criterion_main!(benches);
