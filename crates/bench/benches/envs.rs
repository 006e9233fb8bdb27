//! Cost of one synthetic Atari step, the explorer-side work every Atari
//! workload pays per environment step (emulation sleep off): `obs_dim`
//! multiplies to expand the frame, `latent_dim²` multiply-adds and
//! `latent_dim` `tanh`s for the latent transition, and one allocation for
//! the returned observation. An episode end resets inside the timed loop,
//! as it does in an explorer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gymlite::{AtariGame, Environment, SynthAtari};

fn bench_synth_atari(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_atari");
    for obs_dim in [512usize, 1024, 7056] {
        let cfg = AtariGame::BeamRider.config().with_obs_dim(obs_dim).with_step_latency_us(0);
        let mut env = SynthAtari::with_config(cfg, 12);
        env.reset();
        let mut action = 0;
        group.bench_function(BenchmarkId::new("step", obs_dim), |b| {
            b.iter(|| {
                action = (action + 1) % env.num_actions();
                let step = env.step(action);
                if step.done {
                    env.reset();
                }
                step.observation.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_synth_atari);
criterion_main!(benches);
