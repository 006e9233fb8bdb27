//! The replay store: the one place DQN's experience lives.
//!
//! A [`ReplayPlane`] holds transitions as structure-of-arrays arenas behind a
//! ring index, with an optional sum tree for prioritized sampling. Transition
//! number `t` lands in global ring slot `g = t mod capacity`, which maps to
//! shard `g mod S`, arena slot `g div S`, so a uniform pick is one
//! `gen_range(0..len)` addressing ring slot `g` whatever `S` is.
//!
//! *Placement* is only a question of who calls [`ReplayPlane::ingest_batch`]:
//! the paper keeps the buffer inside the learner's trainer thread (§3.2.1) —
//! `DqnAlgorithm::new` builds a private plane and ingests from `on_rollout` —
//! while the store-resident placement shares one plane between the `xt-replay`
//! shard service, which ingests off the wire, and the learner, which only
//! samples. Both gather sampled transitions through a [`SampleSink`] the
//! caller points at its own buffers: one copy, no intermediate batch.

use crate::payload::{RolloutBatch, RolloutStep};
use crate::sumtree::SumTree;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xt_telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Telemetry};

/// Receives sampled transitions one at a time (a single-copy gather target).
pub trait SampleSink {
    /// Appends one transition. `next_observation` is `None` for terminal
    /// transitions recorded without a successor state (the sink substitutes
    /// zeros; the Bellman target is masked by `done` anyway).
    fn push_transition(
        &mut self,
        observation: &[f32],
        next_observation: Option<&[f32]>,
        action: u32,
        reward: f32,
        done: bool,
    );

    /// Appends one importance weight (prioritized sampling only; called once
    /// per transition, before that transition's `push_transition`).
    fn push_weight(&mut self, weight: f32);
}

/// Points a [`SampleSink`] at a `Vec<RolloutStep>`, materializing each
/// sampled transition as a step: the baselines' replay actor ships sampled
/// minibatches as rollout batches.
/// Importance weights are dropped.
#[derive(Debug)]
pub struct StepSink<'a>(pub &'a mut Vec<RolloutStep>);

impl SampleSink for StepSink<'_> {
    fn push_transition(
        &mut self,
        observation: &[f32],
        next_observation: Option<&[f32]>,
        action: u32,
        reward: f32,
        done: bool,
    ) {
        self.0.push(RolloutStep {
            observation: observation.to_vec(),
            action,
            reward,
            done,
            behavior_logits: Vec::new(),
            value: 0.0,
            next_observation: next_observation.map(<[f32]>::to_vec),
        });
    }

    fn push_weight(&mut self, _weight: f32) {}
}

/// Sentinel sequence number of a slot whose write has begun but not
/// completed. Slots stuck at this value after a run are *dangling* — the
/// chaos tests assert there are none.
const WRITING: u64 = u64::MAX;

/// Writes `src` at `v[at..]`: appended when `at` is the end of `v`,
/// overwritten in place otherwise.
fn put<T: Copy>(v: &mut Vec<T>, at: usize, src: &[T]) {
    if at == v.len() {
        v.extend_from_slice(src);
    } else {
        v[at..at + src.len()].copy_from_slice(src);
    }
}

/// Fixed-capacity SoA storage for one shard's transitions. Storage is
/// reserved at construction and never touched until written: the first lap
/// of the ring appends slots in order, later laps overwrite in place, so the
/// arena never reallocates.
#[derive(Debug)]
struct TransitionArena {
    slots: usize,
    obs_dim: usize,
    observations: Vec<f32>,
    next_observations: Vec<f32>,
    has_next: Vec<bool>,
    actions: Vec<u32>,
    rewards: Vec<f32>,
    dones: Vec<bool>,
    /// Global insert sequence number of each written slot's occupant
    /// ([`WRITING`] while a write is in flight).
    seq: Vec<u64>,
}

impl TransitionArena {
    fn new(slots: usize, obs_dim: usize) -> Self {
        assert!(slots > 0, "arena needs at least one slot");
        assert!(obs_dim > 0, "observation dimension must be positive");
        TransitionArena {
            slots,
            obs_dim,
            observations: Vec::with_capacity(slots * obs_dim),
            next_observations: Vec::with_capacity(slots * obs_dim),
            has_next: Vec::with_capacity(slots),
            actions: Vec::with_capacity(slots),
            rewards: Vec::with_capacity(slots),
            dones: Vec::with_capacity(slots),
            seq: Vec::with_capacity(slots),
        }
    }

    /// Slots that have ever been written.
    fn filled(&self) -> usize {
        self.seq.len()
    }

    /// Writes one transition into `slot`, stamping it with global sequence
    /// number `seq`. The slot is marked [`WRITING`] for the duration of the
    /// copy so an interrupted write is observable as a dangling slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or skips ahead of the first lap's
    /// append order, or an observation has the wrong dimension (callers
    /// validate wire input before it gets here).
    #[allow(clippy::too_many_arguments)] // mirrors the transition tuple
    fn write(
        &mut self,
        slot: usize,
        observation: &[f32],
        next_observation: Option<&[f32]>,
        action: u32,
        reward: f32,
        done: bool,
        seq: u64,
    ) {
        assert!(slot < self.slots, "slot {slot} out of range");
        assert!(slot <= self.filled(), "slot {slot} skips ahead of the first lap ({} filled)", self.filled());
        assert_eq!(observation.len(), self.obs_dim, "observation dimension mismatch");
        assert!(
            next_observation.is_none_or(|next| next.len() == self.obs_dim),
            "next-observation dimension mismatch"
        );
        assert_ne!(seq, WRITING, "sequence number collides with the WRITING sentinel");
        put(&mut self.seq, slot, &[WRITING]);
        let base = slot * self.obs_dim;
        put(&mut self.observations, base, observation);
        // An absent successor still occupies its slot (the observation stands
        // in); `has_next` keeps it — and any stale successor — from being read.
        put(&mut self.next_observations, base, next_observation.unwrap_or(observation));
        put(&mut self.has_next, slot, &[next_observation.is_some()]);
        put(&mut self.actions, slot, &[action]);
        put(&mut self.rewards, slot, &[reward]);
        put(&mut self.dones, slot, &[done]);
        self.seq[slot] = seq;
    }

    /// Reads `slot` and pushes it into `sink` (the single copy of the gather
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never written (or its write never completed).
    fn read_into(&self, slot: usize, sink: &mut dyn SampleSink) {
        assert!(slot < self.filled(), "slot {slot} was never written");
        assert_ne!(self.seq[slot], WRITING, "slot {slot} has an incomplete write");
        let base = slot * self.obs_dim;
        let obs = &self.observations[base..base + self.obs_dim];
        let next = self.has_next[slot].then(|| &self.next_observations[base..base + self.obs_dim]);
        sink.push_transition(obs, next, self.actions[slot], self.rewards[slot], self.dones[slot]);
    }

    /// Written slots whose write never completed (stuck at [`WRITING`]).
    fn dangling(&self) -> usize {
        self.seq.iter().filter(|&&s| s == WRITING).count()
    }
}

/// Construction parameters of a [`ReplayPlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Maximum resident transitions across all shards.
    pub capacity: usize,
    /// Observation dimension (fixed per deployment).
    pub obs_dim: usize,
    /// Priority exponent α for prioritized sampling; `None` = uniform only.
    pub prioritized: Option<f64>,
}

impl ReplayConfig {
    /// Uniform-sampling plane of `capacity` transitions.
    pub fn uniform(capacity: usize, obs_dim: usize) -> Self {
        ReplayConfig { capacity, obs_dim, prioritized: None }
    }

    /// Prioritized plane with exponent `alpha`.
    pub fn prioritized(capacity: usize, obs_dim: usize, alpha: f64) -> Self {
        ReplayConfig { capacity, obs_dim, prioritized: Some(alpha) }
    }
}

/// One prioritized sample's identity: global slot plus the insert sequence
/// number of its occupant at sample time, so a later priority update can
/// detect that the ring wrapped and the slot now holds a *different*
/// transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanePick {
    /// Global ring slot.
    pub slot: usize,
    /// Insert sequence number of the sampled occupant.
    pub seq: u64,
}

/// Occupancy report used by leak accounting (chaos tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayIntegrity {
    /// Transitions currently resident and sampleable.
    pub resident: usize,
    /// Transitions ingested over the plane's lifetime.
    pub total_inserted: u64,
    /// Arena slots whose write began but never completed. Must be zero after
    /// any run — a non-zero count means an ingest was torn.
    pub dangling_slots: usize,
}

/// Prioritized sampling index (proportional variant, Schaul et al. 2016):
/// one sum tree over global slots.
#[derive(Debug)]
struct PrioIndex {
    tree: SumTree,
    /// Insert sequence number of each global slot's occupant.
    seq: Vec<u64>,
    max_priority: f64,
    alpha: f64,
    /// `(slot, unnormalized weight)` of the session being sampled — scratch
    /// kept here so a warmed prioritized session allocates nothing.
    draws: Vec<(usize, f64)>,
}

/// Sharded transition storage plus its sampling indices.
#[derive(Debug)]
pub struct ReplayPlane {
    capacity: usize,
    obs_dim: usize,
    shards: Vec<Mutex<TransitionArena>>,
    /// Transitions fully ingested (insert sequence numbers `0..committed`
    /// are readable).
    committed: AtomicU64,
    prio: Option<Mutex<PrioIndex>>,
    ingest_hist: HistogramHandle,
    sample_hist: HistogramHandle,
    occupancy: GaugeHandle,
    rejected: CounterHandle,
}

impl ReplayPlane {
    /// Builds a plane, registering its `replay.*` instruments on `telemetry`.
    /// The shard count is the largest power of two ≤ 8 dividing `capacity`.
    /// Reserves the transition storage without writing it: the cost is
    /// O(shards), not O(capacity × obs_dim).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `obs_dim` is zero.
    pub fn new(config: ReplayConfig, telemetry: &Telemetry) -> Self {
        assert!(config.capacity > 0, "capacity must be positive");
        let shard_count =
            [8, 4, 2].into_iter().find(|s| config.capacity.is_multiple_of(*s)).unwrap_or(1);
        let slots = config.capacity / shard_count;
        let mut plane = ReplayPlane {
            capacity: config.capacity,
            obs_dim: config.obs_dim,
            shards: (0..shard_count).map(|_| Mutex::new(TransitionArena::new(slots, config.obs_dim))).collect(),
            committed: AtomicU64::new(0),
            prio: config.prioritized.map(|alpha| {
                assert!(alpha >= 0.0, "alpha must be non-negative");
                Mutex::new(PrioIndex {
                    tree: SumTree::new(config.capacity),
                    seq: vec![u64::MAX; config.capacity],
                    max_priority: 1.0,
                    alpha,
                    draws: Vec::new(),
                })
            }),
            ingest_hist: HistogramHandle::default(),
            sample_hist: HistogramHandle::default(),
            occupancy: GaugeHandle::default(),
            rejected: CounterHandle::default(),
        };
        plane.attach_telemetry(telemetry);
        plane
    }

    /// Points the plane's `replay.*` instruments at `telemetry`. A learner
    /// builds its private plane before it has an endpoint's telemetry and
    /// re-points it here once it does.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.ingest_hist = telemetry.histogram("replay.ingest_ns");
        self.sample_hist = telemetry.histogram("replay.sample_ns");
        self.occupancy = telemetry.gauge("replay.occupancy");
        self.rejected = telemetry.counter("replay.rejected");
    }

    /// True when the plane samples proportional to priority.
    pub fn prioritized(&self) -> bool {
        self.prio.is_some()
    }

    /// Resident, sampleable transitions.
    pub fn len(&self) -> usize {
        (self.committed.load(Ordering::Acquire).min(self.capacity as u64)) as usize
    }

    /// True when nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transitions ingested over the plane's lifetime.
    pub fn total_inserted(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Ingests every usable transition of `batch` and returns how many that
    /// was. DQN needs full transitions, so a step without a successor state
    /// that is not terminal is skipped; a step whose observation or successor
    /// is not `obs_dim` long (hostile or mis-configured wire input) is
    /// skipped and counted in `replay.rejected`. One caller at a time — the
    /// learner thread or the replay service, whichever the placement names.
    pub fn ingest_batch(&self, batch: &RolloutBatch) -> usize {
        let t0 = Instant::now();
        let mut t = self.committed.load(Ordering::Acquire);
        let mut inserted = 0usize;
        let mut prio = self.prio.as_ref().map(Mutex::lock);
        let shard_count = self.shards.len();
        for step in &batch.steps {
            let next = step.next_observation.as_deref();
            if next.is_none() && !step.done {
                continue;
            }
            if step.observation.len() != self.obs_dim || next.is_some_and(|n| n.len() != self.obs_dim) {
                self.rejected.inc();
                continue;
            }
            let g = (t % self.capacity as u64) as usize;
            self.shards[g % shard_count].lock().write(
                g / shard_count,
                &step.observation,
                next,
                step.action,
                step.reward,
                step.done,
                t,
            );
            if let Some(prio) = prio.as_mut() {
                // New experience enters at the running maximum priority, so
                // it is sampled at least once soon.
                prio.seq[g] = t;
                let p = prio.max_priority.powf(prio.alpha);
                prio.tree.set(g, p);
            }
            t += 1;
            inserted += 1;
        }
        drop(prio);
        self.committed.store(t, Ordering::Release);
        self.occupancy.set(self.len() as i64);
        self.ingest_hist.record_duration(t0.elapsed());
        inserted
    }

    /// Gathers global slot `g` into `sink`.
    fn read_slot(&self, g: usize, sink: &mut dyn SampleSink) {
        let shard_count = self.shards.len();
        self.shards[g % shard_count].lock().read_into(g / shard_count, sink);
    }

    /// Gathers `n` uniformly sampled transitions into `sink`, consuming
    /// exactly one `gen_range(0..len)` per transition.
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty.
    pub fn sample_uniform(&self, n: usize, rng: &mut StdRng, sink: &mut dyn SampleSink) {
        let t0 = Instant::now();
        let len = self.len();
        assert!(len > 0, "cannot sample from an empty replay plane");
        for _ in 0..n {
            let g = rng.gen_range(0..len);
            self.read_slot(g, sink);
        }
        self.sample_hist.record_duration(t0.elapsed());
    }

    /// Gathers `n` priority-sampled transitions into `sink` (per pick: the
    /// importance weight, normalized so the batch maximum is 1, then the
    /// transition) and replaces `picks` with their identities for a following
    /// [`ReplayPlane::update_priorities`].
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty or was not built prioritized.
    pub fn sample_prioritized(
        &self,
        n: usize,
        beta: f64,
        rng: &mut StdRng,
        sink: &mut dyn SampleSink,
        picks: &mut Vec<PlanePick>,
    ) {
        let t0 = Instant::now();
        let len = self.len();
        assert!(len > 0, "cannot sample from an empty replay plane");
        let mut prio = self.prio.as_ref().expect("plane was not built prioritized").lock();
        let PrioIndex { tree, seq, draws, .. } = &mut *prio;
        let total = tree.total();
        let nf = len as f64;
        draws.clear();
        let mut max_w = f64::MIN_POSITIVE;
        for _ in 0..n {
            let idx = tree.find(rng.gen_range(0.0..total));
            let p = tree.get(idx) / total;
            let w = (nf * p).powf(-beta);
            max_w = max_w.max(w);
            draws.push((idx, w));
        }
        picks.clear();
        for &(idx, w) in draws.iter() {
            picks.push(PlanePick { slot: idx, seq: seq[idx] });
            sink.push_weight((w / max_w) as f32);
            self.read_slot(idx, sink);
        }
        drop(prio);
        self.sample_hist.record_duration(t0.elapsed());
    }

    /// Re-prioritizes `picks` with fresh |TD errors|. A pick whose slot has
    /// since been overwritten is skipped: the TD error belongs to data that
    /// is gone, and clobbering the new occupant's priority (or the running
    /// maximum) would starve fresh experience of its guaranteed first visit.
    pub fn update_priorities(&self, picks: &[PlanePick], td: &[f32]) {
        let Some(prio) = &self.prio else { return };
        let mut prio = prio.lock();
        for (pick, &td) in picks.iter().zip(td) {
            if prio.seq[pick.slot] != pick.seq {
                continue;
            }
            let p = f64::from(td).abs().max(1e-6);
            prio.max_priority = prio.max_priority.max(p);
            let v = p.powf(prio.alpha);
            prio.tree.set(pick.slot, v);
        }
    }

    /// Occupancy and leak accounting across all shards.
    pub fn integrity(&self) -> ReplayIntegrity {
        ReplayIntegrity {
            resident: self.len(),
            total_inserted: self.total_inserted(),
            dangling_slots: self.shards.iter().map(|shard| shard.lock().dangling()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn step(i: usize, dim: usize) -> RolloutStep {
        RolloutStep {
            observation: vec![i as f32; dim],
            action: (i % 4) as u32,
            reward: i as f32 * 0.5,
            done: i.is_multiple_of(7),
            behavior_logits: vec![],
            value: 0.0,
            next_observation: (!i.is_multiple_of(5)).then(|| vec![i as f32 + 1.0; dim]),
        }
    }

    /// Steps `start..start + n`; every one is eligible except multiples of 5
    /// that are not multiples of 7 (no successor, not terminal).
    fn batch(start: usize, n: usize, dim: usize) -> RolloutBatch {
        RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (start..start + n).map(|i| step(i, dim)).collect(),
            bootstrap_observation: vec![],
        }
    }

    fn sampled(plane: &ReplayPlane, n: usize, seed: u64) -> Vec<RolloutStep> {
        let mut steps = Vec::new();
        plane.sample_uniform(n, &mut StdRng::seed_from_u64(seed), &mut StepSink(&mut steps));
        steps
    }

    #[test]
    fn arena_reserves_then_appends_then_overwrites_in_place() {
        let mut a = TransitionArena::new(3, 2);
        // Fresh: storage reserved, nothing initialised.
        assert_eq!((a.filled(), a.observations.len(), a.next_observations.len()), (0, 0, 0));
        assert!(a.observations.capacity() >= 6 && a.seq.capacity() >= 3);
        let (obs_ptr, seq_ptr) = (a.observations.as_ptr(), a.seq.as_ptr());

        // First lap appends in slot order.
        a.write(0, &[1.0, 2.0], Some(&[3.0, 4.0]), 2, 0.5, false, 0);
        assert_eq!((a.filled(), a.observations.len(), a.actions.len()), (1, 2, 1));
        a.write(1, &[5.0, 6.0], None, 1, -1.0, true, 1);
        a.write(2, &[7.0, 8.0], Some(&[9.0, 9.0]), 0, 0.0, false, 2);
        assert_eq!((a.filled(), a.observations.len(), a.next_observations.len()), (3, 6, 6));

        // Later laps overwrite in place: nothing grows, nothing moves.
        a.write(0, &[9.0, 9.0], None, 3, 9.0, true, 3);
        assert_eq!((a.filled(), a.observations.len(), a.rewards.len()), (3, 6, 3));
        assert_eq!((a.observations.as_ptr(), a.seq.as_ptr()), (obs_ptr, seq_ptr), "never reallocates");
        assert_eq!(a.dangling(), 0);

        let mut got = Vec::new();
        for slot in 0..3 {
            a.read_into(slot, &mut StepSink(&mut got));
        }
        assert_eq!(got[0].observation, vec![9.0, 9.0]);
        assert_eq!(got[0].next_observation, None, "stale successor must not leak through");
        assert_eq!((got[0].action, got[0].reward, got[0].done), (3, 9.0, true));
        assert_eq!(got[1].next_observation, None, "terminal without successor reads back as None");
        assert_eq!(got[2].next_observation.as_deref(), Some(&[9.0, 9.0][..]));
    }

    #[test]
    #[should_panic(expected = "skips ahead")]
    fn arena_first_lap_must_fill_in_order() {
        TransitionArena::new(4, 1).write(1, &[1.0], None, 0, 0.0, true, 0);
    }

    #[test]
    #[should_panic(expected = "never written")]
    fn arena_reading_unwritten_slot_panics() {
        TransitionArena::new(2, 1).read_into(0, &mut StepSink(&mut Vec::new()));
    }

    #[test]
    fn shard_count_is_the_largest_power_of_two_dividing_capacity() {
        for (cap, expect) in [(16, 8), (12, 4), (10, 2), (7, 1)] {
            let plane = ReplayPlane::new(ReplayConfig::uniform(cap, 1), &Telemetry::disabled());
            assert_eq!(plane.shards.len(), expect, "capacity {cap}");
        }
    }

    #[test]
    fn ring_evicts_oldest_and_filters_ineligible_steps() {
        let plane = ReplayPlane::new(ReplayConfig::uniform(8, 1), &Telemetry::disabled());
        // 1..=20 holds 4 ineligible steps (5, 10, 15, 20): 16 inserted.
        assert_eq!(plane.ingest_batch(&batch(1, 20, 1)), 16);
        let report = plane.integrity();
        assert_eq!((report.resident, report.total_inserted, report.dangling_slots), (8, 16, 0));
        // Only the 8 newest survive, and sampling covers all of them.
        let mut seen: Vec<u32> = sampled(&plane, 400, 0).iter().map(|s| s.observation[0] as u32).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![11, 12, 13, 14, 16, 17, 18, 19]);
    }

    #[test]
    fn ragged_transitions_are_rejected_and_counted() {
        let telemetry = Telemetry::enabled();
        let plane = ReplayPlane::new(ReplayConfig::uniform(8, 2), &telemetry);
        let mut ragged = batch(1, 4, 2);
        ragged.steps[0].observation.push(0.0); // too long
        ragged.steps[1].next_observation = Some(vec![1.0]); // successor too short
        ragged.steps[2].observation.clear();
        assert_eq!(plane.ingest_batch(&ragged), 1, "only the well-formed step lands");
        assert_eq!(telemetry.counter("replay.rejected").get(), 3);
        assert_eq!(sampled(&plane, 4, 0)[0].observation, vec![4.0, 4.0]);
        assert_eq!(plane.integrity().dangling_slots, 0);
    }

    #[test]
    fn prioritized_sampling_prefers_high_priority_and_normalizes_weights() {
        let plane = ReplayPlane::new(ReplayConfig::prioritized(4, 1, 1.0), &Telemetry::disabled());
        plane.ingest_batch(&batch(1, 4, 1));
        let all: Vec<PlanePick> = (0..4).map(|slot| PlanePick { slot, seq: slot as u64 }).collect();
        plane.update_priorities(&all, &[0.001, 0.001, 0.001, 10.0]);
        let (mut steps, mut picks) = (Vec::new(), Vec::new());
        let mut weights = WeightSink::default();
        let mut rng = StdRng::seed_from_u64(1);
        plane.sample_prioritized(1000, 0.4, &mut rng, &mut weights, &mut picks);
        let high = picks.iter().filter(|p| p.slot == 3).count();
        assert!(high > 900, "slot 3 should dominate, got {high}");
        assert!(weights.0.iter().all(|&w| w > 0.0 && w <= 1.0 + 1e-6));
        assert!(weights.0.iter().any(|&w| (w - 1.0).abs() < 1e-6), "max weight is 1");
        // A second session replaces the picks rather than appending to them.
        plane.sample_prioritized(8, 0.4, &mut rng, &mut StepSink(&mut steps), &mut picks);
        assert_eq!((steps.len(), picks.len()), (8, 8));
    }

    #[derive(Default)]
    struct WeightSink(Vec<f32>);

    impl SampleSink for WeightSink {
        fn push_transition(&mut self, _o: &[f32], _n: Option<&[f32]>, _a: u32, _r: f32, _d: bool) {}
        fn push_weight(&mut self, weight: f32) {
            self.0.push(weight);
        }
    }

    #[test]
    fn new_experience_enters_at_the_running_max_priority() {
        let plane = ReplayPlane::new(ReplayConfig::prioritized(4, 1, 1.0), &Telemetry::disabled());
        plane.ingest_batch(&batch(1, 1, 1));
        plane.update_priorities(&[PlanePick { slot: 0, seq: 0 }], &[5.0]);
        plane.ingest_batch(&batch(2, 1, 1));
        assert_eq!(plane.prio.as_ref().unwrap().lock().tree.get(1), 5.0);
    }

    #[test]
    fn stale_pick_update_cannot_touch_overwritten_slot() {
        // Regression: a priority update for a pick taken *before* the ring
        // wrapped must not touch the priority of the transition that has
        // since overwritten the slot.
        let plane = ReplayPlane::new(ReplayConfig::prioritized(2, 1, 1.0), &Telemetry::disabled());
        plane.ingest_batch(&batch(1, 2, 1)); // slots 0 and 1, seq 0 and 1
        let mut rng = StdRng::seed_from_u64(5);
        let (mut steps, mut picks) = (Vec::new(), Vec::new());
        plane.sample_prioritized(64, 0.4, &mut rng, &mut StepSink(&mut steps), &mut picks);
        let pick0 = *picks.iter().find(|p| p.slot == 0).expect("slot 0 sampled");
        assert_eq!(pick0.seq, 0);

        // Wrap: slot 0 is overwritten by a fresh transition (seq 2), which
        // gets the running max priority.
        plane.ingest_batch(&batch(3, 1, 1));
        let state = |plane: &ReplayPlane| {
            let prio = plane.prio.as_ref().unwrap().lock();
            (prio.tree.get(0), prio.max_priority)
        };
        let fresh = state(&plane);

        // Updating through the stale pick must be a no-op — on the slot's
        // priority *and* on the running max.
        plane.update_priorities(&[pick0], &[1_000.0]);
        assert_eq!(state(&plane), fresh, "overwritten slot and running max untouched");

        // A pick of the *current* occupant still updates normally.
        plane.sample_prioritized(64, 0.4, &mut rng, &mut StepSink(&mut steps), &mut picks);
        let fresh0 = *picks.iter().find(|p| p.slot == 0).expect("slot 0 sampled");
        assert_eq!(fresh0.seq, 2);
        plane.update_priorities(&[fresh0], &[7.0]);
        assert_eq!(state(&plane).0, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty replay plane")]
    fn sampling_empty_plane_panics() {
        let plane = ReplayPlane::new(ReplayConfig::uniform(8, 1), &Telemetry::disabled());
        sampled(&plane, 1, 0);
    }
}
