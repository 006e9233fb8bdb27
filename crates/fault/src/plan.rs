//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is the single artifact a chaos run is configured with: it
//! bundles the machine partitions netsim executes on the virtual clock, the
//! per-route drop and delay rules the comm channel's producer and uplink
//! threads execute, and the kill switches that take processes down at a
//! precise point. Every roll derives from one `u64` seed — rerunning the
//! same plan against the same deployment produces the same chaos, which is
//! what makes chaos regressions reproducible and bisectable.

use crate::inject::PlanInjector;
use crate::probe::ProcessProbe;
use netsim::{Cluster, LinkFaultSchedule};
use std::sync::Arc;
use xingtian_comm::Broker;
use xingtian_message::{MessageKind, ProcessId, ProcessRole};
use xt_telemetry::TimeSource;

/// When a kill switch fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillTrigger {
    /// Fire once the deployment's clock (the probe's [`TimeSource`]) passes
    /// this many nanoseconds.
    AtNanos(u64),
    /// Fire on the `n`-th pulse of the process's workhorse loop (environment
    /// steps for explorers, training sessions for the learner), making the
    /// kill point exact and scheduler-independent.
    AfterSteps(u64),
}

/// One scheduled process kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The process to take down.
    pub target: ProcessId,
    /// When to take it down.
    pub trigger: KillTrigger,
}

/// One route-injection rule: a match pattern plus fault probabilities.
///
/// Rules are consulted in plan order; the first rule whose pattern matches a
/// *(message, destination)* pair decides its fate. Within a rule the rolls
/// are evaluated in a fixed order — drop, then delay — and
/// each roll is a pure hash of `(seed, message id, destination, salt)`, so a
/// given message/destination pair gets the same verdict regardless of thread
/// interleaving or delivery order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRule {
    /// Match only messages of this kind (`None` = any kind except heartbeats;
    /// injecting on liveness beacons is possible but must be asked for
    /// explicitly, or every drop rule would double as a false-positive
    /// generator for the failure detector).
    pub kind: Option<MessageKind>,
    /// Match only deliveries to processes of this role.
    pub dst_role: Option<ProcessRole>,
    /// Probability a matched delivery is dropped.
    pub drop_prob: f64,
    /// Probability a matched (non-dropped) delivery is delayed.
    pub delay_prob: f64,
    /// How long a delayed delivery is parked, in milliseconds.
    pub delay_ms: u64,
    /// The rule is active only from this many milliseconds after the plan is
    /// installed (`None` = from the start).
    pub active_from_ms: Option<u64>,
    /// The rule deactivates at this many milliseconds after the plan is
    /// installed (`None` = never).
    pub active_until_ms: Option<u64>,
}

impl RouteRule {
    /// A rule matching everything (except heartbeats) with no faults; combine
    /// with the builder methods.
    pub fn any() -> Self {
        RouteRule {
            kind: None,
            dst_role: None,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_ms: 0,
            active_from_ms: None,
            active_until_ms: None,
        }
    }

    /// Restricts the rule to a window of the run: deliveries are matched only
    /// between `from_ms` (inclusive) and `until_ms` (exclusive) after the
    /// plan's injector is installed (builder style). Windowed rules shape
    /// *temporal* fault scenarios — a congestion burst, a flaky period — the
    /// way [`netsim::LinkFault`] windows shape link schedules. The verdict
    /// rolls inside the window stay pure hashes; only rule *activation*
    /// depends on delivery time.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn during_ms(mut self, from_ms: u64, until_ms: u64) -> Self {
        assert!(from_ms < until_ms, "rule window [{from_ms}, {until_ms}) is empty");
        self.active_from_ms = Some(from_ms);
        self.active_until_ms = Some(until_ms);
        self
    }

    /// Whether the rule is active `elapsed_ms` after its plan was installed.
    pub fn active_at(&self, elapsed_ms: u64) -> bool {
        self.active_from_ms.is_none_or(|f| elapsed_ms >= f)
            && self.active_until_ms.is_none_or(|u| elapsed_ms < u)
    }

    /// Restricts the rule to messages of `kind` (builder style).
    pub fn on_kind(mut self, kind: MessageKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts the rule to deliveries to `role` processes (builder style).
    pub fn to_role(mut self, role: ProcessRole) -> Self {
        self.dst_role = Some(role);
        self
    }

    /// Sets the drop probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn dropping(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability must be in [0, 1]");
        self.drop_prob = prob;
        self
    }

    /// Sets the delay probability and duration (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn delaying(mut self, prob: f64, delay_ms: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "delay probability must be in [0, 1]");
        self.delay_prob = prob;
        self.delay_ms = delay_ms;
        self
    }

    /// Whether this rule applies to delivering a message of `kind` to `dst`.
    pub fn matches(&self, kind: MessageKind, dst: ProcessId) -> bool {
        let kind_ok = match self.kind {
            Some(k) => k == kind,
            // Unqualified rules never touch liveness beacons.
            None => kind != MessageKind::Heartbeat,
        };
        kind_ok && self.dst_role.is_none_or(|r| r == dst.role)
    }
}

/// A complete, reproducible chaos scenario.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    links: LinkFaultSchedule,
    rules: Vec<RouteRule>,
    kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) rooted at `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, links: LinkFaultSchedule::new(), rules: Vec::new(), kills: Vec::new() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Partitions `machine` from all `machines` others during
    /// `[start_nanos, end_nanos)` of the cluster clock (builder style).
    pub fn isolating_machine(
        mut self,
        machine: usize,
        machines: usize,
        start_nanos: u64,
        end_nanos: u64,
    ) -> Self {
        self.links = self.links.isolate_machine(machine, machines, start_nanos, end_nanos);
        self
    }

    /// Adds a route-injection rule (builder style). Rules are consulted in
    /// insertion order; first match wins.
    pub fn with_rule(mut self, rule: RouteRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Schedules a process kill (builder style).
    pub fn with_kill(mut self, target: ProcessId, trigger: KillTrigger) -> Self {
        self.kills.push(KillSpec { target, trigger });
        self
    }

    /// The scheduled link faults.
    pub fn link_schedule(&self) -> &LinkFaultSchedule {
        &self.links
    }

    /// The route-injection rules, in consultation order.
    pub fn rules(&self) -> &[RouteRule] {
        &self.rules
    }

    /// The scheduled kills.
    pub fn kills(&self) -> &[KillSpec] {
        &self.kills
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.rules.is_empty() && self.kills.is_empty()
    }

    /// Installs the plan's network-level faults into a deployment: the link
    /// schedule onto `cluster` and (when the plan has route rules) one seeded
    /// [`PlanInjector`] onto every broker. Kill switches are not installed
    /// here — they are handed to processes via [`FaultPlan::probe_for`].
    pub fn install(&self, cluster: &Cluster, brokers: &[Broker]) {
        if !self.links.is_empty() {
            cluster.install_faults(self.links.clone());
        }
        if !self.rules.is_empty() {
            for broker in brokers {
                broker.set_injector(Arc::new(PlanInjector::new(self.seed, self.rules.clone())));
            }
        }
    }

    /// The kill switch for `target`: armed with the first matching
    /// [`KillSpec`], or inert if the plan never kills `target`. Pass the
    /// deployment clock as `time` so [`KillTrigger::AtNanos`] fires on the
    /// same timeline as the link schedule; probes with step triggers don't
    /// need one.
    pub fn probe_for(
        &self,
        target: ProcessId,
        time: Option<Box<dyn TimeSource>>,
    ) -> ProcessProbe {
        match self.kills.iter().find(|k| k.target == target) {
            Some(spec) => ProcessProbe::armed(target, spec.trigger, time),
            None => ProcessProbe::inert(target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::LinkCondition;

    #[test]
    fn rules_match_on_kind_and_roles() {
        let rule = RouteRule::any().on_kind(MessageKind::Rollout).to_role(ProcessRole::Learner);
        assert!(rule.matches(MessageKind::Rollout, ProcessId::learner(0)));
        assert!(!rule.matches(MessageKind::Stats, ProcessId::learner(0)));
        assert!(!rule.matches(MessageKind::Rollout, ProcessId::controller(0)));
    }

    #[test]
    fn windowed_rules_activate_only_inside_their_window() {
        let rule = RouteRule::any().delaying(1.0, 10).during_ms(100, 200);
        assert!(!rule.active_at(0));
        assert!(!rule.active_at(99));
        assert!(rule.active_at(100));
        assert!(rule.active_at(199));
        assert!(!rule.active_at(200));
        let open = RouteRule::any().dropping(1.0);
        assert!(open.active_at(0) && open.active_at(u64::MAX));
    }

    #[test]
    fn unqualified_rules_spare_heartbeats() {
        let rule = RouteRule::any().dropping(1.0);
        assert!(rule.matches(MessageKind::Rollout, ProcessId::learner(0)));
        // A heartbeat goes to the supervisor's endpoint.
        let monitor = ProcessId::controller(0);
        assert!(
            !rule.matches(MessageKind::Heartbeat, monitor),
            "catch-all rules must not forge liveness failures"
        );
        let explicit = RouteRule::any().on_kind(MessageKind::Heartbeat).dropping(1.0);
        assert!(explicit.matches(MessageKind::Heartbeat, monitor));
        let to_explorers = explicit.to_role(ProcessRole::Explorer);
        assert!(!to_explorers.matches(MessageKind::Heartbeat, monitor));
    }

    #[test]
    fn plan_builder_accumulates_faults() {
        let plan = FaultPlan::seeded(7)
            .isolating_machine(1, 2, 100, 200)
            .with_rule(RouteRule::any().dropping(0.5))
            .with_kill(ProcessId::explorer(3), KillTrigger::AfterSteps(50));
        assert!(!plan.is_empty());
        assert_eq!(plan.rules().len(), 1);
        assert_eq!(plan.kills(), &[KillSpec {
            target: ProcessId::explorer(3),
            trigger: KillTrigger::AfterSteps(50),
        }]);
        assert!(matches!(
            plan.link_schedule().condition(1, 0, 150),
            LinkCondition::Partitioned { .. }
        ));
    }

    #[test]
    fn probe_for_arms_only_the_victim() {
        let plan =
            FaultPlan::seeded(1).with_kill(ProcessId::explorer(2), KillTrigger::AfterSteps(3));
        let victim = plan.probe_for(ProcessId::explorer(2), None);
        let bystander = plan.probe_for(ProcessId::explorer(1), None);
        assert!(victim.is_armed());
        assert!(!bystander.is_armed());
    }
}
