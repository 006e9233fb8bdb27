//! The seeded route injector a [`FaultPlan`](crate::plan::FaultPlan)
//! installs on brokers.
//!
//! Determinism is the design constraint: chaos regressions are only
//! bisectable if the same plan makes the same messages fail. Producer and
//! uplink threads consult the injector concurrently and in
//! scheduling-dependent order, so stateful RNG (whose output depends on call
//! order) would not be reproducible. Instead every probability roll is a pure
//! hash of `(seed, message id, destination, salt)` mapped to `[0, 1)` — the
//! verdict for a given delivery is a function of the delivery alone.

use crate::plan::RouteRule;
use std::time::{Duration, Instant};
use xingtian_comm::{InjectDecision, RouteInjector};
use xingtian_message::{Header, ProcessId};

/// Executes a [`FaultPlan`](crate::plan::FaultPlan)'s route rules as a
/// broker-side [`RouteInjector`].
///
/// Windowed rules ([`RouteRule::during_ms`]) are measured from this
/// injector's construction, which [`FaultPlan::install`](crate::plan::FaultPlan::install)
/// performs at deployment start — the same origin the link-fault schedule's
/// virtual clock is anchored to.
#[derive(Debug)]
pub struct PlanInjector {
    seed: u64,
    rules: Vec<RouteRule>,
    installed: Instant,
}

impl PlanInjector {
    /// An injector executing `rules` (first match wins), with all rolls
    /// derived from `seed`.
    pub fn new(seed: u64, rules: Vec<RouteRule>) -> Self {
        PlanInjector { seed, rules, installed: Instant::now() }
    }

    /// A pure roll in `[0, 1)` for one (delivery, salt) pair.
    fn roll(&self, msg_id: u64, dst: ProcessId, salt: u64) -> f64 {
        let dst_bits = ((dst.role as u64) << 32) | u64::from(dst.index);
        let mut x = self
            .seed
            .wrapping_add(msg_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(dst_bits.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        // splitmix64 finalizer: avalanche the structured inputs into
        // uniformly distributed bits.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // 53 high-entropy bits → the unit interval, like rand's f64 sampling.
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl RouteInjector for PlanInjector {
    fn decide(&self, header: &Header, dst: ProcessId) -> InjectDecision {
        let elapsed_ms = self.installed.elapsed().as_millis() as u64;
        let Some(rule) = self
            .rules
            .iter()
            .find(|r| r.active_at(elapsed_ms) && r.matches(header.kind, dst))
        else {
            return InjectDecision::Deliver;
        };
        // Fixed evaluation order (drop, then delay) with distinct salts: the
        // two outcomes are independent coins, and a delivery's fate never
        // depends on which other deliveries were consulted first. The salts
        // are part of a seed's meaning: changing one changes which
        // deliveries every seeded plan drops or delays.
        if rule.drop_prob > 0.0 && self.roll(header.id, dst, 1) < rule.drop_prob {
            return InjectDecision::Drop;
        }
        if rule.delay_prob > 0.0 && self.roll(header.id, dst, 3) < rule.delay_prob {
            return InjectDecision::Delay(Duration::from_millis(rule.delay_ms));
        }
        InjectDecision::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian_message::MessageKind;

    fn header(kind: MessageKind) -> Header {
        Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)], kind)
    }

    #[test]
    fn decisions_are_reproducible_across_instances() {
        let rules = vec![RouteRule::any().dropping(0.5).delaying(0.5, 10)];
        let a = PlanInjector::new(99, rules.clone());
        let b = PlanInjector::new(99, rules);
        for _ in 0..64 {
            let h = header(MessageKind::Rollout);
            assert_eq!(a.decide(&h, ProcessId::learner(0)), b.decide(&h, ProcessId::learner(0)));
        }
    }

    #[test]
    fn probability_extremes_are_exact() {
        let never = PlanInjector::new(1, vec![RouteRule::any().dropping(0.0)]);
        let always = PlanInjector::new(1, vec![RouteRule::any().dropping(1.0)]);
        for _ in 0..32 {
            let h = header(MessageKind::Rollout);
            assert_eq!(never.decide(&h, ProcessId::learner(0)), InjectDecision::Deliver);
            assert_eq!(always.decide(&h, ProcessId::learner(0)), InjectDecision::Drop);
        }
    }

    #[test]
    fn drop_rate_tracks_the_configured_probability() {
        let injector = PlanInjector::new(7, vec![RouteRule::any().dropping(0.25)]);
        let trials = 4000;
        let dropped = (0..trials)
            .filter(|_| {
                injector.decide(&header(MessageKind::Rollout), ProcessId::learner(0))
                    == InjectDecision::Drop
            })
            .count();
        let rate = dropped as f64 / trials as f64;
        assert!((0.20..0.30).contains(&rate), "drop rate {rate} far from 0.25");
    }

    #[test]
    fn first_matching_rule_wins() {
        let injector = PlanInjector::new(3, vec![
            RouteRule::any().on_kind(MessageKind::Stats).dropping(1.0),
            RouteRule::any().delaying(1.0, 7),
        ]);
        assert_eq!(
            injector.decide(&header(MessageKind::Stats), ProcessId::controller(0)),
            InjectDecision::Drop
        );
        assert_eq!(
            injector.decide(&header(MessageKind::Rollout), ProcessId::learner(0)),
            InjectDecision::Delay(Duration::from_millis(7))
        );
    }

    #[test]
    fn seeded_verdicts_are_pinned() {
        // Drop rolls salt 1 and delay rolls salt 3: a seed names the same
        // chaos in every build, so these verdicts must never move.
        let verdicts = |injector: &PlanInjector, ids: u64, dst: fn(u64) -> ProcessId| -> String {
            (0..ids)
                .map(|id| {
                    let mut h = header(MessageKind::Rollout);
                    h.id = id;
                    match injector.decide(&h, dst(id)) {
                        InjectDecision::Deliver => '.',
                        InjectDecision::Drop => 'x',
                        InjectDecision::Delay(_) => 'd',
                    }
                })
                .collect()
        };
        let both = PlanInjector::new(99, vec![RouteRule::any().dropping(0.5).delaying(0.5, 10)]);
        assert_eq!(
            verdicts(&both, 48, |_| ProcessId::learner(0)),
            "x.xxxx..xxxddx.dxdxx.x.ddxxxx.xxxxx..xxxdx.x.x.x"
        );
        let rollouts =
            PlanInjector::new(7, vec![RouteRule::any().on_kind(MessageKind::Rollout).dropping(0.05)]);
        assert_eq!(
            verdicts(&rollouts, 64, |id| ProcessId::learner(id as u32 % 3)),
            "..............x..........xx.x..................................."
        );
    }

    #[test]
    fn unmatched_kinds_pass_through() {
        let injector = PlanInjector::new(5, vec![RouteRule::any().dropping(1.0)]);
        assert_eq!(
            injector.decide(&header(MessageKind::Heartbeat), ProcessId::broker(0)),
            InjectDecision::Deliver,
            "catch-all rules spare heartbeats"
        );
    }
}
