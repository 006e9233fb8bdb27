//! Microbenchmarks of the DNN substrate: the workspace forward/backward
//! passes that constitute the "training time" column of Table 1 (tiled FMA
//! kernels, zero steady-state allocations), plus the full fused train step
//! the learner actually runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::optim::{clip_global_norm, Adam};
use tinynn::{Activation, Mlp, Workspace};
use xingtian_algos::par::ParGrad;
use xingtian_comm::pool::shared_pool;

fn bench_mlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp");
    group.sample_size(20);
    // The policy net at Table-1 shapes, batch-1 inference and the IMPALA
    // workload's 71-row gradient shard and 500-row batch; then its value net,
    // whose 1-wide head is a masked-tail tile in every orientation.
    let shapes = [
        (128usize, 9usize, 32usize),
        (1024, 9, 32),
        (1024, 9, 500),
        (512, 9, 1),
        (1024, 9, 1),
        (512, 9, 71),
        (512, 9, 500),
        (512, 1, 71),
        (512, 1, 500),
    ];
    for (obs_dim, outputs, batch) in shapes {
        let net = Mlp::new(&[obs_dim, 64, 64, outputs], Activation::Tanh, 0);
        let mut ws = Workspace::new();
        let mut grads = vec![0.0f32; net.num_params()];
        let xs = vec![1.0f32; batch * obs_dim];
        let douts = vec![1.0f32; batch * outputs];
        let label = match outputs {
            1 => format!("value_{obs_dim}x{batch}"),
            _ => format!("{obs_dim}x{batch}"),
        };
        net.forward_ws(&xs, batch, &mut ws);
        group.bench_function(BenchmarkId::new("forward_ws", &label), |b| {
            b.iter(|| net.forward_ws(&xs, batch, &mut ws).len())
        });
        group.bench_function(BenchmarkId::new("backward_ws", &label), |b| {
            b.iter(|| {
                net.forward_ws(&xs, batch, &mut ws);
                net.backward_ws(&xs, batch, &douts, &mut ws, &mut grads);
            })
        });
    }
    group.finish();
}

/// One full optimizer step (forward, MSE gradient, backward, Adam) on the
/// pool-parallel fast path — the learner's inner loop at PPO/IMPALA shapes.
fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let pool = shared_pool();
    for (name, batch) in [("ppo_256x1024", 256usize), ("impala_500x1024", 500usize)] {
        let (obs, actions) = (1024usize, 9usize);
        let mut net = Mlp::new(&[obs, 64, 64, actions], Activation::Tanh, 7);
        let mut opt = Adam::new(net.num_params(), 1e-3);
        let mut par = ParGrad::new();
        let mut grads = vec![0.0f32; net.num_params()];
        let x = vec![0.3f32; batch * obs];
        let target = vec![0.1f32; batch * actions];
        let scale = 1.0 / (batch * actions) as f32;
        group.bench_function(BenchmarkId::new("fast", name), |b| {
            b.iter(|| {
                let pnet: &Mlp = &net;
                let loss =
                    par.run(Some(pool), batch, &mut [], 0, Some(&mut grads), |rows, _o, shard, g| {
                        let bsz = rows.len();
                        let xs = &x[rows.start * obs..rows.end * obs];
                        let ts = &target[rows.start * actions..rows.end * actions];
                        let (ws_a, _, scratch) = shard.scratch_for(bsz * actions);
                        let out = pnet.forward_ws(xs, bsz, ws_a);
                        let mut loss = 0.0f32;
                        for i in 0..bsz * actions {
                            let d = out[i] - ts[i];
                            loss += d * d * scale;
                            scratch[i] = 2.0 * d * scale;
                        }
                        pnet.backward_ws(xs, bsz, scratch, ws_a, g);
                        loss
                    });
                opt.step(net.params_mut(), &grads);
                loss
            })
        });
    }
    group.finish();
}

/// The two per-parameter passes after the gradient: the norm clip the
/// policy-gradient algorithms run, then the Adam step every algorithm runs.
fn bench_optim(c: &mut Criterion) {
    let mut net = Mlp::new(&[1024, 64, 64, 9], Activation::Tanh, 0);
    let mut grads = vec![0.01f32; net.num_params()];
    let mut opt = Adam::new(net.num_params(), 1e-3);
    c.bench_function("adam_step_70k_params", |b| {
        b.iter(|| opt.step(net.params_mut(), &grads))
    });
    // A max norm above the gradient's, so every iteration sums the same
    // squares and scales nothing.
    c.bench_function("clip_global_norm_70k_params", |b| {
        b.iter(|| clip_global_norm(&mut grads, 1e3))
    });
}

/// Adam at the DQN net's 37 577 parameters on `dqn_replay`'s moment mix: a
/// dead ReLU unit's gradient is exactly zero, and before the step flushed
/// them, 74–500 of its first moments (0.6 % here) sat in the subnormal
/// range, where every x86 vector touching one takes a microcode assist
/// (`adam_step_70k_params`' dense gradients never show them). Each iteration
/// restores the mix with `set_moments`, so every step starts from it.
fn bench_adam_dead_units(c: &mut Criterion) {
    let mut net = Mlp::new(&[512, 64, 64, 9], Activation::Relu, 0);
    let n = net.num_params();
    let mut rng = StdRng::seed_from_u64(49);
    let dead: Vec<bool> = (0..n).map(|_| rng.gen_range(0..1_000) < 6).collect();
    let grads: Vec<f32> = dead.iter().map(|&d| if d { 0.0 } else { rng.gen_range(-1e-2f32..1e-2) }).collect();
    let m: Vec<f32> = dead
        .iter()
        .map(|&d| if d { f32::from_bits(rng.gen_range(1..0x0080_0000)) } else { rng.gen_range(-1e-3f32..1e-3) })
        .collect();
    let v: Vec<f32> = (0..n).map(|_| rng.gen_range(1e-8f32..1e-5)).collect();
    let mut opt = Adam::new(n, 1e-3);
    c.bench_function("adam_step_dqn_dead_units", |b| {
        b.iter(|| {
            opt.set_moments(5_000, &m, &v);
            opt.step(net.params_mut(), &grads)
        })
    });
}

criterion_group!(benches, bench_mlp, bench_train_step, bench_optim, bench_adam_dead_units);
criterion_main!(benches);
