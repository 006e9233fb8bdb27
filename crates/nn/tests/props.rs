//! Property-based tests of the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::kernel::{adam_implementations, gemm_nn, AdamStep};
use tinynn::optim::{clip_global_norm, Adam, Sgd};
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

/// The coefficients `Adam::step` passes its pass at step `t` (`lr = 1e-3`,
/// default betas and `eps`).
fn adam_coefficients(t: i32) -> AdamStep {
    let (beta1, beta2) = (0.9f32, 0.999f32);
    let step = 1e-3 / (1.0 - beta1.powi(t));
    let r = 1.0 / (1.0 - beta2.powi(t)).sqrt();
    AdamStep { beta1, beta2, eps: 1e-8, step, r }
}

fn is_subnormal(x: f32) -> bool {
    x != 0.0 && x.abs() < f32::MIN_POSITIVE
}

/// The ISA differential of the optimizer pass: every implementation this
/// CPU runs (the portable loop, AVX2, AVX-512F) stores the bits the
/// portable loop stores in `p`, `m` and `v`, and nothing past its slices —
/// at lengths around and past the 8- and 16-lane vectors (the DQN and PPO
/// nets' 37 577 and 140 170 included), on windows at a cache line and 4 B
/// past one, over moments at `±0`, subnormal, around `MIN_POSITIVE` and
/// normal, gradients zero, tiny and large, at t = 1 and t = 3 217. Each
/// run takes three successive steps, so a flushed moment is read back.
#[test]
fn every_adam_implementation_matches_the_portable_loop_bit_for_bit() {
    const PAD: usize = 16;
    let implementations = adam_implementations();
    let names: Vec<&str> = implementations.iter().map(|(name, _)| *name).collect();
    println!("adam implementations on this CPU: {names:?}");
    let sub = f32::MIN_POSITIVE / 3.0;
    let moments = [0.0, -0.0, sub, -sub, f32::from_bits(1), f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1.1e-38, 0.25];
    let grads = [0.0, -0.0, 1e-30, -3e-20, 1e-7, 0.5, -40.0, 1e4];
    let mut rng = StdRng::seed_from_u64(49);
    for n in [1usize, 15, 17, 4_099, 37_577, 140_170] {
        for shift in [0usize, 1] {
            // `m` from the moment set, `v` its magnitude (or a normal value),
            // parameters in (-1, 1), the gradient from the gradient set.
            let m0: Vec<f32> = (0..n).map(|_| moments[rng.gen_range(0..moments.len())]).collect();
            let v0: Vec<f32> = m0
                .iter()
                .map(|m| if rng.gen_range(0..4) == 0 { rng.gen_range(0.0f32..1.0) } else { m.abs() })
                .collect();
            let p0: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let g: Vec<Vec<f32>> =
                (0..3).map(|_| (0..n).map(|_| grads[rng.gen_range(0..grads.len())]).collect()).collect();
            for t0 in [0, 3_216] {
                let mut runs = Vec::new();
                for (name, adam) in &implementations {
                    // Each of the four slices in its own buffer, `shift`
                    // floats past a 64-byte boundary, with sentinels around.
                    let window = |buf: &[f32]| {
                        let start = buf.as_ptr().align_offset(64) + shift;
                        start..start + n
                    };
                    let place = |src: &[f32]| {
                        let mut buf = vec![7.5f32; n + 2 * PAD + 16];
                        let w = window(&buf);
                        buf[w].copy_from_slice(src);
                        buf
                    };
                    let (mut p, mut m, mut v) = (place(&p0), place(&m0), place(&v0));
                    let mut gbuf = place(&g[0]);
                    let (pw, mw, vw, gw) = (window(&p), window(&m), window(&v), window(&gbuf));
                    assert_eq!(p[pw.clone()].as_ptr() as usize % 64, 4 * shift);
                    for (i, gi) in g.iter().enumerate() {
                        gbuf[gw.clone()].copy_from_slice(gi);
                        let s = adam_coefficients(t0 + 1 + i as i32);
                        adam(&s, &mut p[pw.clone()], &gbuf[gw.clone()], &mut m[mw.clone()], &mut v[vw.clone()]);
                    }
                    for (buf, w, what) in [(&p, &pw, "p"), (&m, &mw, "m"), (&v, &vw, "v")] {
                        let outside = buf[..w.start].iter().chain(&buf[w.end..]);
                        assert!(outside.into_iter().all(|&x| x == 7.5), "{name} n={n}: wrote outside {what}");
                    }
                    let stored = m[mw.clone()].iter().chain(&v[vw.clone()]);
                    assert!(!stored.into_iter().any(|&x| is_subnormal(x)), "{name} n={n}: a subnormal moment");
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    runs.push((*name, bits(&p[pw]), bits(&m[mw]), bits(&v[vw])));
                }
                let (_, p_ref, m_ref, v_ref) = &runs[0];
                for (name, p, m, v) in &runs[1..] {
                    let what = format!("{name} n={n} shift={shift} t0={t0}");
                    assert!(p == p_ref, "{what}: parameters differ from the portable loop");
                    assert!(m == m_ref, "{what}: first moments differ from the portable loop");
                    assert!(v == v_ref, "{what}: second moments differ from the portable loop");
                }
            }
        }
    }
}

/// The Adam loop as it was before the subnormal flush, verbatim: the
/// reference the flushed step is compared with.
struct UnflushedAdam {
    t: i32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl UnflushedAdam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 1e-3f32);
        self.t += 1;
        let step = lr / (1.0 - b1.powi(self.t));
        let r = 1.0 / (1.0 - b2.powi(self.t)).sqrt();
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            *p -= step * *m / (v.sqrt() * r + eps);
        }
    }
}

/// Dead units: from step 50 a fixed eighth of the gradients is exactly
/// zero, for 2 000 steps, so those first moments decay by β₁ a step
/// through the whole subnormal range. After every step no moment is
/// subnormal, and every parameter with `|p| > 2⁻⁸²` has the bits the
/// unflushed loop gives it (the bound `Adam::step`'s docs derive).
#[test]
fn dead_units_leave_no_subnormal_moment_and_move_no_parameter_bit() {
    let n = 4_099;
    let mut rng = StdRng::seed_from_u64(50);
    let start: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let dead: Vec<bool> = (0..n).map(|i| i % 8 == 3).collect();
    let (mut flushed, mut reference) = (start.clone(), start);
    let mut opt = Adam::new(n, 1e-3);
    let mut unflushed = UnflushedAdam { t: 0, m: vec![0.0; n], v: vec![0.0; n] };
    let mut grads = grad_stream(n, 51);
    let floor = 2f32.powi(-82);
    let mut flushed_any = false;
    for step in 0..2_050 {
        let mut g = grads();
        if step >= 50 {
            for (g, &dead) in g.iter_mut().zip(&dead) {
                if dead {
                    *g = 0.0;
                }
            }
        }
        opt.step(&mut flushed, &g);
        unflushed.step(&mut reference, &g);
        let (_, m, v) = opt.moments();
        let subnormal = m.iter().chain(v).filter(|&&x| is_subnormal(x)).count();
        assert_eq!(subnormal, 0, "step {step}: {subnormal} subnormal moments");
        flushed_any |= unflushed.m.iter().any(|&x| is_subnormal(x));
        for (i, (&a, &b)) in flushed.iter().zip(&reference).enumerate() {
            if b.abs() > floor {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}: parameter {i} is {a:e}, unflushed {b:e}");
            }
        }
    }
    assert!(flushed_any, "the stream never drove an unflushed moment subnormal");
}
