//! The warmed-up training step must not touch the heap. A counting global
//! allocator wraps `System`; after a few warm-up sessions grow every
//! persistent buffer to its steady-state size, one more DQN session —
//! uniform or prioritized replay — and one raw forward/backward/Adam step
//! must record zero allocations, and one more A2C iteration, PPO iteration
//! and IMPALA step on the serial path must each allocate nothing but the
//! report's `notify` vector.
//!
//! This file holds a single `#[test]` on purpose: the allocator counter is
//! process-global, and a second test running on another thread would bleed
//! its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tinynn::optim::Adam;
use tinynn::{Activation, Mlp, Workspace};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{
    A2cAlgorithm, A2cConfig, DqnAlgorithm, DqnConfig, ImpalaAlgorithm, ImpalaConfig, PpoAlgorithm,
    PpoConfig,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

const DIM: usize = 4;
const NA: usize = 2;

fn dqn_rollout(n: usize) -> RolloutBatch {
    let steps = (0..n)
        .map(|i| RolloutStep {
            observation: (0..DIM).map(|d| ((i * 7 + d) % 13) as f32 * 0.1 - 0.6).collect(),
            action: (i % NA) as u32,
            reward: if i % 5 == 0 { 1.0 } else { 0.0 },
            done: i % 31 == 30,
            behavior_logits: Vec::new(),
            value: 0.0,
            next_observation: Some(
                (0..DIM).map(|d| ((i * 11 + d) % 13) as f32 * 0.1 - 0.6).collect(),
            ),
        })
        .collect();
    RolloutBatch {
        explorer: 0,
        param_version: 0,
        steps,
        bootstrap_observation: vec![0.0; DIM],
    }
}

/// 160 actor-critic steps (logits and values recorded) from `explorer`.
fn actor_critic_rollout(explorer: u32, param_version: u64) -> RolloutBatch {
    let mut batch = dqn_rollout(160);
    batch.explorer = explorer;
    batch.param_version = param_version;
    for (i, s) in batch.steps.iter_mut().enumerate() {
        s.behavior_logits = vec![0.1 * (i % 3) as f32, -0.2];
        s.value = 0.05 * (i % 7) as f32;
        s.next_observation = None;
    }
    batch
}

/// Feeds `alg` one iteration of two 160-step rollouts (320 rows → 5 gradient
/// shards) and returns the allocations its training session made. Spent
/// batches are handed back first, as the learner loop does.
fn session_allocs(alg: &mut dyn Algorithm) -> u64 {
    while alg.take_spent().is_some() {}
    for explorer in 0..2 {
        alg.on_rollout(actor_critic_rollout(explorer, alg.version()));
    }
    count_allocs(|| {
        alg.try_train().expect("a full iteration is staged");
    })
}

#[test]
fn warmed_train_step_makes_zero_heap_allocations() {
    // --- Phase A: full double-DQN training session, uniform and PER --------
    for prioritized in [None, Some((0.6, 0.4))] {
        let mut config = DqnConfig::new(DIM, NA);
        config.hidden = vec![16];
        config.warmup_steps = 64;
        config.train_every_inserts = 4;
        config.batch_size = 32;
        config.double = true;
        config.prioritized = prioritized;
        // Keep the session pure compute: no broadcast Vec, no target sync
        // inside the measured window.
        config.broadcast_every = 1_000_000;
        config.target_sync_every = 1_000_000;
        let mut alg = DqnAlgorithm::new(config);

        // 400 inserts → 100 training credits at train_every_inserts = 4.
        alg.on_rollout(dqn_rollout(400));

        // Warm-up: grow the staging arena, workspaces, and the pick and draw
        // scratch to steady state.
        for _ in 0..8 {
            alg.try_train().expect("training credits available");
        }

        let allocs = count_allocs(|| {
            alg.try_train().expect("training credits available");
        });
        assert_eq!(allocs, 0, "warmed DQN session ({prioritized:?}) allocated {allocs} times");
    }

    // --- Phase B: raw workspace forward/backward/optimizer step ------------
    let batch = 64;
    let mut net = Mlp::new(&[DIM, 32, NA], Activation::Tanh, 9);
    let mut opt = Adam::new(net.num_params(), 1e-3);
    let mut ws = Workspace::new();
    let mut grads = vec![0.0f32; net.num_params()];
    let x: Vec<f32> = (0..batch * DIM).map(|i| (i % 17) as f32 * 0.05 - 0.4).collect();
    let mut dout = vec![0.0f32; batch * NA];

    // Warm the workspace, then measure one full step.
    for _ in 0..3 {
        let out = net.forward_ws(&x, batch, &mut ws);
        for (i, d) in dout.iter_mut().enumerate() {
            *d = out[i] * (1.0 / batch as f32);
        }
        net.backward_ws(&x, batch, &dout, &mut ws, &mut grads);
        opt.step(net.params_mut(), &grads);
    }

    let allocs = count_allocs(|| {
        let out = net.forward_ws(&x, batch, &mut ws);
        for (i, d) in dout.iter_mut().enumerate() {
            *d = out[i] * (1.0 / batch as f32);
        }
        net.backward_ws(&x, batch, &dout, &mut ws, &mut grads);
        opt.step(net.params_mut(), &grads);
    });
    assert_eq!(allocs, 0, "raw workspace train step allocated {allocs} times");

    // --- Phase C: the shared actor-critic step, serial path ----------------
    let mut a2c = A2cConfig::new(DIM, NA);
    a2c.num_explorers = 2;
    a2c.rollout_len = 160;
    let mut ppo = PpoConfig::new(DIM, NA);
    ppo.num_explorers = 2;
    ppo.rollout_len = 160;
    let algorithms: [Box<dyn Algorithm>; 3] = [
        Box::new(A2cAlgorithm::with_pool(a2c, None)),
        Box::new(PpoAlgorithm::with_pool(ppo, None)),
        // Trains one queued batch per session; the surplus stays queued.
        Box::new(ImpalaAlgorithm::with_pool(ImpalaConfig::new(DIM, NA), None)),
    ];
    for mut alg in algorithms {
        for _ in 0..2 {
            session_allocs(alg.as_mut());
        }
        let allocs = session_allocs(alg.as_mut());
        assert!(
            allocs <= 1,
            "warmed {} session allocated {allocs} times (only `TrainReport.notify` may)",
            alg.name()
        );
    }
}
