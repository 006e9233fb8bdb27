//! Minimal dense neural-network substrate.
//!
//! The paper trains its policy/value networks with TensorFlow or PyTorch; this
//! reproduction needs real (non-stubbed) DNN computation so that training time
//! is genuine and the communication-computation overlap measured by the
//! benchmarks is honest. `tinynn` provides exactly what the DRL algorithms in
//! this repository need and nothing more:
//!
//! * [`kernel`] — register-tiled, cache-blocked GEMM kernels and fused
//!   bias/activation layer ops,
//! * [`mlp::Mlp`] — multi-layer perceptrons with ReLU/Tanh hidden layers,
//!   explicit forward/backward passes over flat row-major `f32` slices
//!   (allocation-free after warmup: activations and scratch live in a
//!   caller-owned [`mlp::Workspace`]), and flat parameter (de)serialization
//!   for parameter-broadcast messages,
//! * [`optim`] — plain SGD, Adam and global-norm gradient clipping,
//! * [`ops`] — fused per-row softmax statistics (log-partition, entropy,
//!   probabilities) and related numerics.
//!
//! There is one tensor representation — a `&[f32]` of `batch × width` rows —
//! and one forward/backward API, [`Mlp::forward_ws`] / [`Mlp::backward_ws`].
//!
//! Gradients are verified against finite differences in the test suite.
//!
//! # Examples
//!
//! ```
//! use tinynn::{Mlp, Activation, Workspace, optim::Adam};
//!
//! // A 4 -> 32 -> 2 network, e.g. a CartPole policy head.
//! let mut net = Mlp::new(&[4, 32, 2], Activation::Tanh, 7);
//! let mut ws = Workspace::new();
//! let x = [0.0f32; 4]; // one row
//! let out = net.forward_ws(&x, 1, &mut ws);
//! assert_eq!(out.len(), 2);
//! let mut opt = Adam::new(net.num_params(), 1e-3);
//! let mut grads = vec![0.0; net.num_params()];
//! net.backward_ws(&x, 1, &[1.0, 1.0], &mut ws, &mut grads);
//! opt.step(net.params_mut(), &grads);
//! ```

pub mod kernel;
pub mod mlp;
pub mod ops;
pub mod optim;

pub use mlp::{Activation, Mlp, Workspace};
