//! Elastic explorer-pool control: watermark policy over backpressure
//! telemetry.
//!
//! The paper's Fig. 11 maps throughput against a *statically* chosen explorer
//! count; finding the saturation frontier means redeploying at every pool
//! size. The elastic mode automates that probe at runtime: the supervisor
//! samples a backpressure signal each poll tick — the maximum broker-store
//! occupancy, i.e. how full the channel's in-flight arena is — and a
//! [`ElasticController`] turns the sampled signal into grow/shrink/hold
//! decisions. While the signal holds above the high watermark the pool grows
//! toward the configured ceiling; once it clears below the low watermark the
//! pool drains back to its base size. Explorers spawned this way are real
//! supervised slots: they register in the assignment table before their
//! first rollout resolves, are watched by the failure detector before their
//! broker first lists them, and retire through the ordinary shutdown path.
//!
//! Two standard control-loop guards keep the policy stable:
//!
//! * **hysteresis** — the watermark band `[low, high]` is a dead zone where
//!   the controller holds, so a signal hovering near one threshold does not
//!   flap the pool;
//! * **cooldown** — after every action the controller holds for a fixed
//!   number of ticks, long enough for the action's effect to show up in the
//!   signal before the next decision compounds it.
//!
//! The controller is deliberately pure (no clocks, no channels): it consumes
//! one `f64` per tick and returns a decision, which keeps the policy fully
//! unit-testable apart from the supervisor that executes it.

/// What the controller wants done with the pool this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticDecision {
    /// Spawn this many additional explorers.
    Grow(u32),
    /// Retire this many elastic explorers (highest indices first).
    Shrink(u32),
    /// Leave the pool alone.
    Hold,
}

/// Tuning for the elastic explorer pool.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Signal at or above this grows the pool (store-occupancy fraction).
    pub high_watermark: f64,
    /// Signal at or below this shrinks the pool back toward its base size.
    /// Must sit below `high_watermark`; the gap is the hysteresis band.
    pub low_watermark: f64,
    /// Hard pool ceiling (clamped up to the base size if set lower).
    pub max_explorers: u32,
    /// Explorers added or retired per action.
    pub step: u32,
    /// Policy ticks to hold after every action before acting again.
    pub cooldown_ticks: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            high_watermark: 0.6,
            low_watermark: 0.2,
            max_explorers: 1024,
            step: 1,
            cooldown_ticks: 8,
        }
    }
}

/// Watermark controller for the explorer pool. Tracks the *intended* pool
/// size; the supervisor owns the actual slots and executes each decision.
#[derive(Debug)]
pub struct ElasticController {
    config: ElasticConfig,
    /// Configured pool size — shrink never goes below this.
    base: u32,
    /// Intended pool size after every decision so far.
    pool: u32,
    /// Ticks left before the next action is allowed.
    cooldown: u32,
}

impl ElasticController {
    /// A controller for a deployment whose configured pool size is `base`.
    pub fn new(config: ElasticConfig, base: u32) -> Self {
        ElasticController { config, base, pool: base, cooldown: 0 }
    }

    /// The intended pool size (base + net elastic growth).
    pub fn pool(&self) -> u32 {
        self.pool
    }

    /// One policy tick: fold the sampled backpressure signal into a
    /// decision. Mutates the intended pool size when it decides to act.
    pub fn decide(&mut self, signal: f64) -> ElasticDecision {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ElasticDecision::Hold;
        }
        let ceiling = self.config.max_explorers.max(self.base);
        let step = self.config.step.max(1);
        if signal >= self.config.high_watermark && self.pool < ceiling {
            let n = step.min(ceiling - self.pool);
            self.pool += n;
            self.cooldown = self.config.cooldown_ticks;
            return ElasticDecision::Grow(n);
        }
        if signal <= self.config.low_watermark && self.pool > self.base {
            let n = step.min(self.pool - self.base);
            self.pool -= n;
            self.cooldown = self.config.cooldown_ticks;
            return ElasticDecision::Shrink(n);
        }
        ElasticDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ElasticConfig {
        ElasticConfig {
            high_watermark: 0.6,
            low_watermark: 0.2,
            max_explorers: 8,
            step: 2,
            cooldown_ticks: 2,
        }
    }

    #[test]
    fn grows_under_pressure_up_to_the_ceiling() {
        let mut ctl = ElasticController::new(config(), 4);
        assert_eq!(ctl.decide(0.9), ElasticDecision::Grow(2));
        assert_eq!(ctl.pool(), 6);
        // Cooldown: two ticks of Hold even though pressure persists.
        assert_eq!(ctl.decide(0.9), ElasticDecision::Hold);
        assert_eq!(ctl.decide(0.9), ElasticDecision::Hold);
        assert_eq!(ctl.decide(0.9), ElasticDecision::Grow(2));
        assert_eq!(ctl.pool(), 8);
        // Ceiling reached: pressure no longer grows the pool.
        for _ in 0..4 {
            assert_eq!(ctl.decide(0.9), ElasticDecision::Hold);
        }
        assert_eq!(ctl.pool(), 8);
    }

    #[test]
    fn shrinks_back_to_base_when_pressure_clears() {
        let mut ctl = ElasticController::new(config(), 4);
        ctl.decide(0.9);
        ctl.decide(0.9);
        ctl.decide(0.9);
        ctl.decide(0.9);
        assert_eq!(ctl.pool(), 8);
        // Clear the signal: the pool drains in steps, never below base.
        assert_eq!(ctl.decide(0.0), ElasticDecision::Hold); // cooldown
        assert_eq!(ctl.decide(0.0), ElasticDecision::Hold); // cooldown
        assert_eq!(ctl.decide(0.0), ElasticDecision::Shrink(2));
        ctl.decide(0.0);
        ctl.decide(0.0);
        assert_eq!(ctl.decide(0.0), ElasticDecision::Shrink(2));
        assert_eq!(ctl.pool(), 4);
        ctl.decide(0.0);
        ctl.decide(0.0);
        assert_eq!(ctl.decide(0.0), ElasticDecision::Hold, "never below base");
    }

    #[test]
    fn hysteresis_band_holds_steady() {
        let mut ctl = ElasticController::new(config(), 4);
        ctl.decide(0.9); // pool 6
        ctl.decide(0.4);
        ctl.decide(0.4);
        // Mid-band signal after cooldown: neither grow nor shrink.
        assert_eq!(ctl.decide(0.4), ElasticDecision::Hold);
        assert_eq!(ctl.pool(), 6);
    }

    #[test]
    fn watermark_edges_are_inclusive() {
        let mut ctl = ElasticController::new(
            ElasticConfig { cooldown_ticks: 0, ..config() },
            4,
        );
        // A signal sitting exactly on the high watermark already grows...
        assert_eq!(ctl.decide(0.6), ElasticDecision::Grow(2));
        // ...and exactly on the low watermark already shrinks.
        assert_eq!(ctl.decide(0.2), ElasticDecision::Shrink(2));
        assert_eq!(ctl.pool(), 4);
        // Just inside the band, both edges hold.
        ctl.decide(0.6); // pool 6 again
        assert_eq!(ctl.decide(0.2 + f64::EPSILON), ElasticDecision::Hold);
        assert_eq!(ctl.decide(0.6 - f64::EPSILON), ElasticDecision::Hold);
        assert_eq!(ctl.pool(), 6);
    }

    #[test]
    fn saturated_ceiling_never_overshoots() {
        let mut ctl = ElasticController::new(
            ElasticConfig { cooldown_ticks: 0, ..config() },
            4,
        );
        ctl.decide(1.0);
        ctl.decide(1.0);
        assert_eq!(ctl.pool(), 8, "at the ceiling");
        // Sustained maximum pressure at the ceiling: hold forever, the pool
        // must never exceed max_explorers.
        for _ in 0..20 {
            assert_eq!(ctl.decide(1.0), ElasticDecision::Hold);
            assert_eq!(ctl.pool(), 8);
        }
    }

    #[test]
    fn saturated_floor_never_undershoots() {
        let mut ctl = ElasticController::new(
            ElasticConfig { cooldown_ticks: 0, ..config() },
            4,
        );
        // Never grew: sustained zero signal must not dig below the base.
        for _ in 0..20 {
            assert_eq!(ctl.decide(0.0), ElasticDecision::Hold);
            assert_eq!(ctl.pool(), 4);
        }
        // After a grow/shrink round trip the floor still holds.
        ctl.decide(1.0);
        assert_eq!(ctl.decide(0.0), ElasticDecision::Shrink(2));
        for _ in 0..20 {
            assert_eq!(ctl.decide(0.0), ElasticDecision::Hold);
            assert_eq!(ctl.pool(), 4);
        }
    }

    #[test]
    fn partial_steps_at_the_boundaries() {
        let mut ctl = ElasticController::new(
            ElasticConfig { max_explorers: 5, step: 2, cooldown_ticks: 0, ..config() },
            4,
        );
        assert_eq!(ctl.decide(1.0), ElasticDecision::Grow(1), "clamped to the ceiling");
        assert_eq!(ctl.decide(0.0), ElasticDecision::Shrink(1), "clamped to base");
        // A ceiling below the base never shrinks the configured pool.
        let mut tiny = ElasticController::new(
            ElasticConfig { max_explorers: 1, cooldown_ticks: 0, ..config() },
            4,
        );
        assert_eq!(tiny.decide(1.0), ElasticDecision::Hold);
        assert_eq!(tiny.pool(), 4);
    }
}
