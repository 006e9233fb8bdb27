//! Kill switches pulsed by workhorse loops.
//!
//! A [`ProcessProbe`] is how a [`FaultPlan`](crate::plan::FaultPlan) reaches
//! inside a process: the explorer loop pulses its probe once per environment
//! step, the learner once per training session, and when the armed trigger
//! matches, the probe panics — from the deployment's point of view this is
//! indistinguishable from an organic crash (the thread unwinds, its endpoint
//! drops and deregisters, its broker's heartbeats stop listing it), which is
//! exactly what the supervisor must be able to recover from. Unarmed probes
//! are a relaxed atomic increment, cheap enough to leave in production loops.

use crate::plan::KillTrigger;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xingtian_message::ProcessId;
use xt_telemetry::TimeSource;

struct ProbeInner {
    target: ProcessId,
    trigger: Option<KillTrigger>,
    time: Option<Box<dyn TimeSource>>,
    pulses: AtomicU64,
    fired: AtomicBool,
}

impl std::fmt::Debug for ProbeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeInner")
            .field("target", &self.target)
            .field("trigger", &self.trigger)
            .field("pulses", &self.pulses.load(Ordering::Relaxed))
            .field("fired", &self.fired.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A per-process kill switch. Clones share state, so a supervisor can keep a
/// handle to observe whether (and when) the kill fired.
#[derive(Debug, Clone)]
pub struct ProcessProbe {
    inner: Arc<ProbeInner>,
}

impl ProcessProbe {
    /// A probe that never fires.
    pub fn inert(target: ProcessId) -> Self {
        ProcessProbe {
            inner: Arc::new(ProbeInner {
                target,
                trigger: None,
                time: None,
                pulses: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            }),
        }
    }

    /// A probe armed with `trigger`. [`KillTrigger::AtNanos`] needs `time`
    /// (the deployment clock); without one it never fires.
    pub fn armed(
        target: ProcessId,
        trigger: KillTrigger,
        time: Option<Box<dyn TimeSource>>,
    ) -> Self {
        ProcessProbe {
            inner: Arc::new(ProbeInner {
                target,
                trigger: Some(trigger),
                time,
                pulses: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            }),
        }
    }

    /// The process this probe can kill.
    pub fn target(&self) -> ProcessId {
        self.inner.target
    }

    /// Whether a trigger is armed.
    pub fn is_armed(&self) -> bool {
        self.inner.trigger.is_some()
    }

    /// Whether the kill already fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Pulses observed so far.
    pub fn pulses(&self) -> u64 {
        self.inner.pulses.load(Ordering::Relaxed)
    }

    /// Whether the trigger condition holds after one more pulse, *without*
    /// firing (exposed for tests and dry runs). Each call counts a pulse.
    pub fn check(&self) -> bool {
        let pulses = self.inner.pulses.fetch_add(1, Ordering::Relaxed) + 1;
        match self.inner.trigger {
            None => false,
            Some(KillTrigger::AfterSteps(n)) => pulses >= n,
            Some(KillTrigger::AtNanos(t)) => {
                self.inner.time.as_ref().is_some_and(|clock| clock.now_nanos() >= t)
            }
        }
    }

    /// One workhorse-loop tick.
    ///
    /// # Panics
    ///
    /// Panics (once) when the armed trigger condition is met — this *is* the
    /// injected fault.
    pub fn pulse(&self) {
        if self.check() && !self.inner.fired.swap(true, Ordering::AcqRel) {
            panic!(
                "xt-fault: injected kill of {} after {} pulses",
                self.inner.target,
                self.pulses()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_probe_never_fires() {
        let probe = ProcessProbe::inert(ProcessId::explorer(0));
        for _ in 0..1000 {
            probe.pulse();
        }
        assert!(!probe.fired());
        assert_eq!(probe.pulses(), 1000);
    }

    #[test]
    fn after_steps_fires_on_the_exact_pulse() {
        let probe = ProcessProbe::armed(ProcessId::explorer(1), KillTrigger::AfterSteps(5), None);
        for _ in 0..4 {
            probe.pulse();
        }
        assert!(!probe.fired());
        let p = probe.clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || p.pulse()))
            .expect_err("fires on pulse 5");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("injected kill"), "unexpected message: {msg}");
        assert!(probe.fired());
    }

    #[test]
    fn fires_at_most_once() {
        let probe = ProcessProbe::armed(ProcessId::learner(0), KillTrigger::AfterSteps(1), None);
        let p = probe.clone();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || p.pulse())).is_err());
        // The condition still holds, but the fault was already injected.
        probe.pulse();
        assert!(probe.fired());
    }

    #[test]
    fn at_nanos_follows_the_clock() {
        #[derive(Debug)]
        struct Fixed(u64);
        impl TimeSource for Fixed {
            fn now_nanos(&self) -> u64 {
                self.0
            }
        }
        let early =
            ProcessProbe::armed(ProcessId::explorer(0), KillTrigger::AtNanos(100), Some(Box::new(Fixed(99))));
        assert!(!early.check());
        let due =
            ProcessProbe::armed(ProcessId::explorer(0), KillTrigger::AtNanos(100), Some(Box::new(Fixed(100))));
        assert!(due.check());
        let clockless = ProcessProbe::armed(ProcessId::explorer(0), KillTrigger::AtNanos(0), None);
        assert!(!clockless.check(), "AtNanos without a clock never fires");
    }
}
