//! Pool-parallel minibatch gradients must be *bitwise* deterministic: the
//! same rollouts drive the learner to identical parameters whether shards run
//! serially on the caller, on a single worker, or spread over many workers.
//! The fixed-shard-order reduction in `ParGrad` is what makes this hold — a
//! first-come-first-served sum would reassociate floating-point adds.
//!
//! The same parameters are also pinned *across commits*: a refactor of the
//! shared policy-gradient core must leave A2C, PPO and IMPALA bit-identical,
//! and a refactor of the replay store must leave uniform, prioritized and
//! double DQN bit-identical — on the four-slot lockstep round too, as A2C
//! and IMPALA are — so their
//! digests are recorded here and asserted on the kernels they were recorded
//! on.
//!
//! Every digest has been re-pinned twice, each time for one reason. First, the
//! x86 kernels' backward edges joined the FMA tile family. The `gemm_tn`
//! column tails (the 3-wide heads here), the ragged `gemm_nt` panels and the
//! rows past the last 4-row block (the 6-wide input here) moved from the
//! portable multiply-then-add to the fused chain `acc = fma(a, b, acc)`, which
//! rounds once per step instead of twice. The forward pass already ran that
//! chain, so only training bits moved. Second, the optimizer arithmetic:
//! `Adam::step` folds its two bias-correction divisions into per-call scalars
//! (one division and one square root per parameter instead of three divisions
//! and a square root), and `clip_global_norm` sums its squares in 16 fixed
//! lanes instead of one serial chain. Storing the parameters on 64-byte cache
//! lines, which landed just before, held every digest bit for bit. The AVX2
//! and AVX-512 instantiations produce these same digests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_algos::{
    A2cAlgorithm, A2cConfig, DqnAlgorithm, DqnConfig, ImpalaAlgorithm, ImpalaConfig, PpoAlgorithm,
    PpoConfig, ReinforceAlgorithm, ReinforceConfig,
};
use xingtian_comm::pool::WorkPool;

const DIM: usize = 6;
const NA: usize = 3;

fn make_steps(rng: &mut StdRng, n: usize) -> Vec<RolloutStep> {
    (0..n)
        .map(|i| RolloutStep {
            observation: (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            action: rng.gen_range(0..NA as u32),
            reward: rng.gen_range(-1.0..1.0),
            done: i % 23 == 22,
            behavior_logits: (0..NA).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            value: rng.gen_range(-1.0..1.0),
            next_observation: None,
        })
        .collect()
}

fn bootstrap(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn leaked_pool(workers: usize) -> &'static WorkPool {
    Box::leak(Box::new(WorkPool::new(workers)))
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

/// Runs `sessions` training sessions, each fed `explorers` rollouts of
/// `steps` steps at the current version from a per-session seeded stream, and
/// returns the resulting parameter bits.
fn trained_bits(mut alg: impl Algorithm, sessions: u64, seed: u64, explorers: u32, steps: usize) -> Vec<u32> {
    for iter in 0..sessions {
        let v = alg.version();
        let mut rng = StdRng::seed_from_u64(seed + iter);
        for e in 0..explorers {
            alg.on_rollout(RolloutBatch {
                explorer: e,
                param_version: v,
                steps: make_steps(&mut rng, steps),
                bootstrap_observation: bootstrap(&mut rng),
            });
        }
        alg.try_train().expect("a full session is staged");
    }
    bits(&alg.param_blob().params)
}

/// Two training iterations of PPO (320-step batch → 5 gradient shards).
fn ppo_params(pool: Option<&'static WorkPool>) -> Vec<u32> {
    let mut c = PpoConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.num_explorers = 2;
    c.rollout_len = 160;
    c.minibatch = 96;
    c.epochs = 2;
    trained_bits(PpoAlgorithm::with_pool(c, pool), 2, 100, 2, 160)
}

fn a2c_params(pool: Option<&'static WorkPool>) -> Vec<u32> {
    let mut c = A2cConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.num_explorers = 2;
    c.rollout_len = 160;
    trained_bits(A2cAlgorithm::with_pool(c, pool), 2, 300, 2, 160)
}

fn impala_params(pool: Option<&'static WorkPool>) -> Vec<u32> {
    let mut c = ImpalaConfig::new(DIM, NA);
    c.hidden = vec![32];
    trained_bits(ImpalaAlgorithm::with_pool(c, pool), 3, 500, 1, 320)
}

/// Two REINFORCE sessions of 14 episodes × 23 steps (`done` every 23rd step;
/// 322 rows → 5 shards).
fn reinforce_params(pool: Option<&'static WorkPool>) -> Vec<u32> {
    let mut c = ReinforceConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.episodes_per_train = 14;
    trained_bits(ReinforceAlgorithm::with_pool(c, pool), 2, 700, 1, 322)
}

/// In-learner DQN over a 256-slot replay ring fed 12 rollouts of 64 steps —
/// two wraparounds — training to credit exhaustion after each. Terminal steps
/// keep no successor and every ninth other step is ineligible (no successor,
/// not terminal), so the ingest filter is part of the pinned behaviour.
fn dqn_params(prioritized: Option<(f64, f64)>, double: bool) -> Vec<u32> {
    let mut c = DqnConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.buffer_capacity = 256;
    c.warmup_steps = 64;
    c.train_every_inserts = 16;
    c.batch_size = 16;
    c.target_sync_every = 5;
    c.prioritized = prioritized;
    c.double = double;
    let mut alg = DqnAlgorithm::new(c);
    let mut rng = StdRng::seed_from_u64(900);
    for _ in 0..12 {
        let mut steps = make_steps(&mut rng, 64);
        for (i, s) in steps.iter_mut().enumerate() {
            if !s.done && i % 9 != 8 {
                s.next_observation = Some(bootstrap(&mut rng));
            }
        }
        alg.on_rollout(RolloutBatch { explorer: 0, param_version: 0, steps, bootstrap_observation: vec![] });
        while alg.try_train().is_some() {}
        while alg.take_spent().is_some() {}
    }
    assert!(alg.sessions() > 30, "a real training run");
    bits(&alg.param_blob().params)
}

/// One four-slot lockstep round in one process, if the algorithm grants a
/// credit for all four slots: every slot gradient with its loss as the
/// trailing element, folded flat in slot order (what the slot table in
/// `xingtian::shard` does), and one optimizer step.
fn lockstep_round(alg: &mut dyn Algorithm, grad: &mut Vec<f32>) -> bool {
    if !alg.take_round_credit(0..4, 4) {
        return false;
    }
    let mut folded: Vec<f32> = Vec::new();
    for slot in 0..4 {
        let loss = alg.slot_grad(slot, grad);
        grad.push(loss);
        if slot == 0 {
            folded.clone_from(grad);
        } else {
            for (a, g) in folded.iter_mut().zip(grad.iter()) {
                *a += g;
            }
        }
    }
    let loss = folded.pop().expect("trailing loss element");
    alg.apply_reduced_grad(&mut folded, loss).expect("a lockstep round is a session");
    true
}

/// The same seeded DQN driven through four-slot lockstep rounds: every round
/// credit buys four sampled slot gradients and one optimizer step. The
/// in-learner digests above come from the same gradient: a session is a
/// one-slot round. Under prioritized replay every slot samples
/// importance-weighted rows and re-prioritizes them before the next slot
/// samples.
fn dqn_lockstep_params(prioritized: Option<(f64, f64)>) -> Vec<u32> {
    let mut c = DqnConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.buffer_capacity = 256;
    c.warmup_steps = 64;
    c.train_every_inserts = 16;
    c.batch_size = 16;
    c.target_sync_every = 5;
    c.prioritized = prioritized;
    let mut alg = DqnAlgorithm::new(c);
    let mut rng = StdRng::seed_from_u64(901);
    let mut rounds = 0;
    let mut grad = Vec::new();
    for _ in 0..12 {
        let mut steps = make_steps(&mut rng, 64);
        for (i, s) in steps.iter_mut().enumerate() {
            if !s.done && i % 9 != 8 {
                s.next_observation = Some(bootstrap(&mut rng));
            }
        }
        alg.on_rollout(RolloutBatch { explorer: 0, param_version: 0, steps, bootstrap_observation: vec![] });
        while lockstep_round(&mut alg, &mut grad) {
            rounds += 1;
        }
        while alg.take_spent().is_some() {}
    }
    assert!(rounds >= 20, "a real lockstep run: {rounds} rounds");
    bits(&alg.param_blob().params)
}

/// `sessions` four-slot lockstep rounds, each fed `explorers` rollouts of
/// `steps` steps at the current version: A2C's six explorers land in slots
/// 0, 0, 1, 2, 2, 3; IMPALA's four rollouts are one slot each.
fn lockstep_bits(mut alg: impl Algorithm, sessions: u64, seed: u64, explorers: u32, steps: usize) -> Vec<u32> {
    let mut grad = Vec::new();
    for iter in 0..sessions {
        let v = alg.version();
        let mut rng = StdRng::seed_from_u64(seed + iter);
        for e in 0..explorers {
            alg.on_rollout(RolloutBatch {
                explorer: e,
                param_version: v,
                steps: make_steps(&mut rng, steps),
                bootstrap_observation: bootstrap(&mut rng),
            });
        }
        assert!(lockstep_round(&mut alg, &mut grad), "a full round is staged");
        while alg.take_spent().is_some() {}
    }
    bits(&alg.param_blob().params)
}

fn a2c_lockstep_params() -> Vec<u32> {
    let mut c = A2cConfig::new(DIM, NA);
    c.hidden = vec![32];
    c.num_explorers = 6;
    c.rollout_len = 40;
    lockstep_bits(A2cAlgorithm::with_pool(c, None), 3, 310, 6, 40)
}

fn impala_lockstep_params() -> Vec<u32> {
    let mut c = ImpalaConfig::new(DIM, NA);
    c.hidden = vec![32];
    lockstep_bits(ImpalaAlgorithm::with_pool(c, None), 3, 510, 4, 80)
}

/// FNV-1a-64 over the little-endian parameter bits.
fn digest(bits: &[u32]) -> u64 {
    bits.iter().flat_map(|w| w.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts `(name, digest, pinned)` triples on the kernels the pins were
/// recorded on (the FMA tile family, AVX2 and AVX-512 alike, debug and
/// release alike).
fn assert_pinned(got: &[(&str, u64, u64)]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        for (name, digest, pinned) in got {
            assert_eq!(digest, pinned, "{name}: {digest:016x} != pinned {pinned:016x}");
        }
        return;
    }
    // The portable kernels round differently by design: nothing to compare.
    for (name, digest, _) in got {
        println!("{name} {digest:016x} (no AVX2+FMA: pinned digests not checked)");
    }
}

#[test]
fn parameters_match_their_pinned_digests() {
    // These functions were first pinned at commit c164c6a, before the shared
    // actor-critic core existed, and held bit for bit through it; re-pinned
    // when the backward edges joined the FMA tile family, and again for the
    // one-division Adam and the 16-lane gradient norm (see the top of this
    // file and `tinynn::kernel`).
    assert_pinned(&[
        ("ppo", digest(&ppo_params(None)), 0x0873_5b04_cf49_b53b),
        ("a2c", digest(&a2c_params(None)), 0x2ed3_6e7b_d811_649c),
        ("impala", digest(&impala_params(None)), 0x8e25_fc14_4b7c_a5fe),
    ]);
}

#[test]
fn dqn_parameters_match_their_pinned_digests() {
    // First pinned at commit 4db9aa2, where DQN sampled the AoS in-learner
    // buffers the SoA store has since replaced, and held through that
    // change; re-pinned when the backward edges joined the FMA tile family,
    // and again for the one-division Adam.
    assert_pinned(&[
        ("dqn uniform", digest(&dqn_params(None, false)), 0x1d2b_9b05_3a43_9938),
        ("dqn prioritized", digest(&dqn_params(Some((0.6, 0.4)), false)), 0x7e56_aaae_9b73_3302),
        ("dqn double", digest(&dqn_params(None, true)), 0xc846_d31e_ee7e_714a),
    ]);
}

#[test]
fn dqn_lockstep_parameters_match_their_pinned_digest() {
    // First pinned at commit a6539d4 by this same loop with the trait's old
    // `sample_slot` + `grad_on_steps` pair (which materialised every sampled
    // row as a `RolloutStep`) in place of `slot_grad`: 42 rounds. Held when
    // the round surface moved from a DQN-only trait onto `Algorithm`. Re-pinned
    // when the backward edges joined the FMA tile family, and again for the
    // one-division Adam.
    assert_pinned(&[("dqn lockstep", digest(&dqn_lockstep_params(None)), 0xd0c8_b8af_3d94_9aba)]);
}

#[test]
fn dqn_lockstep_prioritized_parameters_match_their_pinned_digest() {
    // Pinned when sync rounds first took prioritized replay: each slot
    // samples, weights and re-prioritizes in the plane's own mode.
    assert_pinned(&[(
        "dqn lockstep prioritized",
        digest(&dqn_lockstep_params(Some((0.6, 0.4)))),
        0xc75c_688b_8dc5_4ccd,
    )]);
}

#[test]
fn actor_critic_lockstep_parameters_match_their_pinned_digests() {
    // Pinned when sync rounds first took A2C and IMPALA: A2C's slots by
    // explorer index, IMPALA's one queued rollout each.
    assert_pinned(&[
        ("a2c lockstep", digest(&a2c_lockstep_params()), 0x7b17_6a06_2a4f_c171),
        ("impala lockstep", digest(&impala_lockstep_params()), 0xa573_5bf7_398c_7c76),
    ]);
}

#[test]
fn training_is_bitwise_deterministic_across_worker_counts() {
    type Params = fn(Option<&'static WorkPool>) -> Vec<u32>;
    let cases: [(&str, Params); 4] = [
        ("ppo", ppo_params),
        ("a2c", a2c_params),
        ("impala", impala_params),
        ("reinforce", reinforce_params),
    ];
    for (name, params) in cases {
        let reference = params(None);
        for workers in [1, 2, 5] {
            assert_eq!(params(Some(leaked_pool(workers))), reference, "{name}, workers = {workers}");
        }
    }
}

/// An on-policy session stages its batches by explorer index, so the bits
/// do not depend on which explorer's rollout the learner met first.
#[test]
fn on_policy_sessions_do_not_depend_on_arrival_order() {
    let session = |mut alg: Box<dyn Algorithm>, order: &[u32]| {
        let mut rng = StdRng::seed_from_u64(41);
        let rollouts: Vec<RolloutBatch> = (0..3)
            .map(|e| RolloutBatch {
                explorer: e,
                param_version: 0,
                steps: make_steps(&mut rng, 50),
                bootstrap_observation: bootstrap(&mut rng),
            })
            .collect();
        for &e in order {
            alg.on_rollout(rollouts[e as usize].clone());
        }
        alg.try_train().expect("a full session is staged");
        bits(&alg.param_blob().params)
    };
    let mut ppo = PpoConfig::new(DIM, NA);
    (ppo.hidden, ppo.num_explorers, ppo.rollout_len, ppo.minibatch, ppo.epochs) = (vec![16], 3, 50, 64, 2);
    let mut a2c = A2cConfig::new(DIM, NA);
    (a2c.hidden, a2c.num_explorers, a2c.rollout_len) = (vec![16], 3, 50);
    let build = |name: &str| -> Box<dyn Algorithm> {
        match name {
            "ppo" => Box::new(PpoAlgorithm::with_pool(ppo.clone(), None)),
            _ => Box::new(A2cAlgorithm::with_pool(a2c.clone(), None)),
        }
    };
    for name in ["ppo", "a2c"] {
        assert_eq!(session(build(name), &[0, 1, 2]), session(build(name), &[2, 0, 1]), "{name}");
    }
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    // Same pool width twice: guards against hidden run-to-run state
    // (scheduling order, buffer reuse) leaking into the math.
    let a = ppo_params(Some(leaked_pool(3)));
    let b = ppo_params(Some(leaked_pool(3)));
    assert_eq!(a, b);
}
