//! Property-based tests of the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::optim::{clip_global_norm, Adam, Sgd};
use tinynn::kernel::gemm_nn;
use tinynn::{Activation, Mlp, Workspace};

fn arb_sizes() -> impl Strategy<Value = Vec<usize>> {
    (1usize..6, 1usize..8, 1usize..8, 1usize..5)
        .prop_map(|(i, h1, h2, o)| vec![i, h1, h2, o])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_is_deterministic(sizes in arb_sizes(), seed in any::<u64>()) {
        let net = Mlp::new(&sizes, Activation::Tanh, seed);
        let x = vec![1.0f32; 3 * sizes[0]];
        let mut ws = Workspace::new();
        let first = net.forward_ws(&x, 3, &mut ws).to_vec();
        prop_assert_eq!(&first[..], net.forward_ws(&x, 3, &mut ws));
    }

    #[test]
    fn params_round_trip_preserves_behavior(sizes in arb_sizes(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = Mlp::new(&sizes, Activation::Relu, s1);
        let mut b = Mlp::new(&sizes, Activation::Relu, s2);
        b.set_params(a.params());
        let x = vec![1.0f32; 2 * sizes[0]];
        let (mut ws_a, mut ws_b) = (Workspace::new(), Workspace::new());
        prop_assert_eq!(a.forward_ws(&x, 2, &mut ws_a), b.forward_ws(&x, 2, &mut ws_b));
    }

    #[test]
    fn gradient_step_reduces_sum_loss(sizes in arb_sizes(), seed in any::<u64>()) {
        // Loss = sum of outputs; stepping against the gradient must not
        // increase it (for a small enough step).
        let mut net = Mlp::new(&sizes, Activation::Tanh, seed);
        let x = vec![1.0f32; 4 * sizes[0]];
        let mut ws = Workspace::new();
        let before: f32 = net.forward_ws(&x, 4, &mut ws).iter().sum();
        let dout = vec![1.0f32; 4 * sizes[3]];
        let mut grads = vec![0.0f32; net.num_params()];
        net.backward_ws(&x, 4, &dout, &mut ws, &mut grads);
        let mut opt = Sgd::new(net.num_params(), 1e-4);
        opt.step(net.params_mut(), &grads);
        let after: f32 = net.forward_ws(&x, 4, &mut ws).iter().sum();
        prop_assert!(after <= before + 1e-4, "loss rose: {before} -> {after}");
    }

    #[test]
    fn adam_steps_stay_finite(seed in any::<u64>(), grads in proptest::collection::vec(-10.0f32..10.0, 16)) {
        let mut net = Mlp::new(&[4, 2], Activation::Relu, seed);
        let mut opt = Adam::new(net.num_params(), 1e-2);
        let mut g = grads;
        g.resize(net.num_params(), 0.1);
        for _ in 0..50 {
            opt.step(net.params_mut(), &g);
        }
        prop_assert!(net.params().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn clip_never_increases_norm(mut grads in proptest::collection::vec(-100.0f32..100.0, 1..64), max in 0.01f32..10.0) {
        let before = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        clip_global_norm(&mut grads, max);
        let after = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
        prop_assert!(after <= before + 1e-4);
        prop_assert!(after <= max + 1e-3);
    }

    #[test]
    fn matmul_is_distributive_over_addition(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        // (A + B) C == AC + BC for 2x3 * 3x2 matrices.
        let product = |lhs: &[f32]| {
            let mut out = [0.0f32; 4];
            gemm_nn(2, 3, 2, lhs, &c, &mut out);
            out
        };
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let (ac, bc) = (product(&a), product(&b));
        for (i, x) in product(&sum).iter().enumerate() {
            let y = ac[i] + bc[i];
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }
}

/// A row's output is a function of that row alone: evaluated inside any
/// batch it has the bits it has evaluated by itself, at every batch size
/// around the 4-row tile and every layer width around the 8-lane vector and
/// 16- and 64-column tiles — so batching requests never changes an answer.
#[test]
fn forward_rows_do_not_depend_on_their_batch() {
    let mut ws = Workspace::new();
    for activation in [Activation::Relu, Activation::Tanh] {
        for k in [4usize, 512, 1024] {
            for n in [1usize, 9, 16, 17, 64, 65] {
                let net = Mlp::new(&[k, n, n], activation, (k * 131 + n) as u64);
                let x: Vec<f32> = (0..9 * k).map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0).collect();
                let alone: Vec<Vec<f32>> =
                    x.chunks(k).map(|row| net.forward_ws(row, 1, &mut ws).to_vec()).collect();
                for m in 1..=9 {
                    let batched = net.forward_ws(&x[..m * k], m, &mut ws);
                    for (r, (got, want)) in batched.chunks(n).zip(&alone).enumerate() {
                        let same = got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{activation:?} k={k} n={n}: row {r} of a {m}-row batch differs from the row alone");
                    }
                }
            }
        }
    }
}

/// Adam as Kingma & Ba write it: two bias-correction divisions, then the
/// update's division, per parameter. The reference `Adam::step` is held to.
struct TextbookAdam {
    lr: f32,
    t: i32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl TextbookAdam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        self.t += 1;
        let (b1t, b2t) = (1.0 - b1.powi(self.t), 1.0 - b2.powi(self.t));
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

/// Seeded gradients whose per-parameter scale spans eight decades, with
/// some exact zeros, so both the `eps`-dominated and the `sqrt(v)`-dominated
/// regimes of the update are exercised.
fn grad_stream(n: usize, seed: u64) -> impl FnMut() -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let scales: Vec<f32> = (0..n).map(|i| 10f32.powi(i as i32 % 9 - 6)).collect();
    move || {
        scales
            .iter()
            .map(|&s| if rng.gen_range(0..16) == 0 { 0.0 } else { s * rng.gen_range(-1.0f32..1.0) })
            .collect()
    }
}

/// 1 000 steps of `Adam::step` against the textbook form from the same
/// start and gradients: every parameter stays within `1e-6` of the
/// reference, relative to the larger of its magnitude and the distance
/// 1 000 steps of size `lr` can cover. Only the rounding of the update
/// differs (≤ a few ulps a step; the worst seen is 1.8e-7); the moments
/// are computed identically.
#[test]
fn adam_matches_the_textbook_form() {
    let n = 4_099;
    let lr = 1e-3f32;
    let steps = 1_000;
    let mut rng = StdRng::seed_from_u64(36);
    let start: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let (mut fast, mut reference) = (start.clone(), start);
    let mut opt = Adam::new(n, lr);
    let mut textbook = TextbookAdam { lr, t: 0, m: vec![0.0; n], v: vec![0.0; n] };
    let mut grads = grad_stream(n, 7);
    for _ in 0..steps {
        let g = grads();
        opt.step(&mut fast, &g);
        textbook.step(&mut reference, &g);
    }
    let reach = lr * steps as f32;
    let worst = fast
        .iter()
        .zip(&reference)
        .map(|(&a, &b)| (a - b).abs() / b.abs().max(reach))
        .fold(0.0f32, f32::max);
    assert!(worst <= 1e-6, "worst relative deviation from the textbook Adam: {worst:e}");
}

/// `clip_global_norm` returns the norm an f64 sum computes, to 1e-6
/// relative, at the benchmark nets' parameter counts and at small and
/// ragged ones; the clipped gradient's norm is then `max_norm`.
#[test]
fn clip_global_norm_matches_an_f64_reference() {
    for (n, seed) in [(1usize, 1u64), (15, 2), (17, 3), (4_099, 4), (37_577, 5), (70_345, 6)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let want = g.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
        let max_norm = (want / 4.0) as f32;
        let got = clip_global_norm(&mut g, max_norm);
        let err = (f64::from(got) - want).abs() / want;
        assert!(err <= 1e-6, "n = {n}: norm {got} vs f64 {want} (relative {err:e})");
        let clipped = g.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
        let err = (clipped - f64::from(max_norm)).abs() / f64::from(max_norm);
        assert!(err <= 1e-6, "n = {n}: clipped norm {clipped} vs max_norm {max_norm} (relative {err:e})");
    }
}

/// `Adam::step` and `clip_global_norm` give the same bits on a slice that
/// starts on a cache line and on a copy that starts 4 bytes past one: no
/// result depends on where the vector loop's first aligned load falls.
#[test]
fn optimizer_bits_do_not_depend_on_slice_alignment() {
    let n = 37_577;
    // One buffer, two windows: at the first 64-byte boundary and 4 bytes on.
    let window = |buf: &[f32], shift: usize| -> std::ops::Range<usize> {
        let lead = buf.as_ptr().align_offset(64);
        lead + shift..lead + shift + n
    };
    let mut rng = StdRng::seed_from_u64(11);
    let start: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut runs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    for shift in [0usize, 1] {
        let (mut pbuf, mut gbuf) = (vec![0.0f32; n + 32], vec![0.0f32; n + 32]);
        let (pw, gw) = (window(&pbuf, shift), window(&gbuf, shift));
        assert_eq!(pbuf[pw.clone()].as_ptr() as usize % 64, 4 * shift);
        pbuf[pw.clone()].copy_from_slice(&start);
        let mut opt = Adam::new(n, 1e-3);
        let mut norms = Vec::new();
        let mut grads = grad_stream(n, 12);
        for _ in 0..20 {
            gbuf[gw.clone()].copy_from_slice(&grads());
            norms.push(clip_global_norm(&mut gbuf[gw.clone()], 1e-2).to_bits());
            opt.step(&mut pbuf[pw.clone()], &gbuf[gw.clone()]);
        }
        let params = pbuf[pw].iter().map(|x| x.to_bits()).collect();
        runs.push((params, norms));
    }
    assert!(runs[0].0 == runs[1].0, "Adam parameters differ between the aligned and the offset slice");
    assert_eq!(runs[0].1, runs[1].1, "gradient norms differ between the aligned and the offset slice");
}
