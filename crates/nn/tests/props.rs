//! Property-based tests of the neural-network substrate.

use proptest::prelude::*;
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
