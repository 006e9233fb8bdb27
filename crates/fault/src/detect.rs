//! Heartbeat-fed failure detection.
//!
//! Every broker configured with `xingtian_comm::HeartbeatConfig` sends a
//! monitor endpoint one [`MessageKind::Heartbeat`] per interval listing its
//! live endpoints; the supervisor drains that endpoint into a
//! [`FailureDetector`], which watches only the pids it is told to watch and
//! counts a listing as one beat from each of them. The detector is a
//! timeout/accrual hybrid: it tracks an exponentially-weighted moving average
//! of each process's heartbeat inter-arrival time and declares the process
//! down once its silence exceeds `max(base_timeout, accrual_factor × EWMA)` —
//! a slow-beaconing process earns a proportionally longer leash, while the
//! base timeout keeps fast beacons from producing a hair-trigger detector.
//! That rule is [`Accrual`], one per watched stream; an IMPALA explorer
//! applies the same one to the parameter answers its rollouts are owed.
//!
//! Liveness transitions are published two ways: as
//! [`EventKind::ProcessDown`]/[`EventKind::ProcessUp`] telemetry events
//! (keyed by a monotone incident id, with the packed process identity in
//! `aux`) plus `fault.process_down`/`fault.process_up` counters, and as an
//! in-memory [`LivenessTransition`] log the supervisor reads to build its
//! recovery report.
//!
//! Detection is intentionally *advisory*: a partitioned-but-alive process
//! looks exactly like a dead one from here (its beats stop arriving), so the
//! supervisor must confirm death through its `JoinHandle` before respawning.
//! The detector's job is latency — noticing within a bounded window that
//! liveness evidence stopped — and bookkeeping, not authority.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xingtian_message::codec::Decode;
use xingtian_message::{Message, MessageKind, ProcessId};
use xt_telemetry::{EventKind, Telemetry};

/// Tuning of the accrual failure detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Minimum silence, in milliseconds, before any process is suspected.
    pub base_timeout_ms: u64,
    /// Multiple of the observed mean inter-arrival time a process may stay
    /// silent before being declared down.
    pub accrual_factor: f64,
    /// EWMA smoothing factor for inter-arrival times, in `(0, 1]` (higher =
    /// adapts faster to the latest interval).
    pub ewma_alpha: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { base_timeout_ms: 500, accrual_factor: 6.0, ewma_alpha: 0.2 }
    }
}

impl DetectorConfig {
    /// A config sized for heartbeats of period `interval_ms`: the timeout
    /// floor is a few beacon periods, so detection latency is bounded by
    /// `max(4 × interval, base)` without being trigger-happy on jitter.
    pub fn for_interval_ms(interval_ms: u64) -> Self {
        DetectorConfig { base_timeout_ms: interval_ms.saturating_mul(4).max(50), ..Default::default() }
    }
}

/// Current liveness verdict for a watched process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Heartbeats are arriving within the adaptive timeout.
    Alive,
    /// Heartbeats stopped: dead, partitioned away, or wedged.
    Down,
}

/// One recorded liveness transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessTransition {
    /// The process whose liveness changed.
    pub pid: ProcessId,
    /// The new verdict.
    pub liveness: Liveness,
    /// Nanoseconds since the detector was created.
    pub at_nanos: u64,
    /// Monotone incident id shared with the telemetry event this transition
    /// was published as.
    pub incident: u64,
}

/// The accrual rule over one stream of arrivals — a process's heartbeats, or
/// the parameter answers an IMPALA explorer's rollouts earn: an
/// exponentially-weighted moving average of the gaps between arrivals, and
/// the silence a live stream may keep, `max(base_timeout, accrual_factor ×
/// EWMA)`.
#[derive(Debug, Clone, Copy)]
pub struct Accrual {
    last: Instant,
    /// EWMA of the gaps between arrivals, in nanoseconds (0 until the second
    /// arrival).
    ewma_gap_ns: f64,
    arrivals: u64,
}

impl Accrual {
    /// A stream with no arrivals yet, silent since `since`.
    pub fn new(since: Instant) -> Self {
        Accrual { last: since, ewma_gap_ns: 0.0, arrivals: 0 }
    }

    /// Records an arrival at `now`. Every gap after the first arrival folds
    /// into the EWMA with weight `config.ewma_alpha`.
    pub fn arrive(&mut self, now: Instant, config: &DetectorConfig) {
        if self.arrivals > 0 {
            let gap = now.duration_since(self.last).as_nanos() as f64;
            self.ewma_gap_ns = if self.ewma_gap_ns == 0.0 {
                gap
            } else {
                config.ewma_alpha * gap + (1.0 - config.ewma_alpha) * self.ewma_gap_ns
            };
        }
        self.last = now;
        self.arrivals += 1;
    }

    /// Arrivals recorded so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// How long the stream may stay silent before it counts as stopped.
    pub fn timeout(&self, config: &DetectorConfig) -> Duration {
        let accrual = config.accrual_factor * self.ewma_gap_ns;
        let base = Duration::from_millis(config.base_timeout_ms).as_nanos() as f64;
        Duration::from_nanos(accrual.max(base) as u64)
    }

    /// Whether the silence since the last arrival has outlasted
    /// [`Accrual::timeout`] at `now`.
    pub fn expired(&self, now: Instant, config: &DetectorConfig) -> bool {
        now.duration_since(self.last) > self.timeout(config)
    }
}

#[derive(Debug)]
struct Watched {
    beats: Accrual,
    down: bool,
}

impl Watched {
    fn since(now: Instant) -> Self {
        Watched { beats: Accrual::new(now), down: false }
    }
}

/// The deployment-level failure detector.
#[derive(Debug)]
pub struct FailureDetector {
    config: DetectorConfig,
    telemetry: Telemetry,
    origin: Instant,
    watched: Mutex<HashMap<ProcessId, Watched>>,
    transitions: Mutex<Vec<LivenessTransition>>,
    incidents: AtomicU64,
}

/// Packs a process identity into the `aux` word of a liveness event.
pub fn pack_pid(pid: ProcessId) -> u64 {
    ((pid.role as u64) << 32) | u64::from(pid.index)
}

impl FailureDetector {
    /// A detector publishing liveness transitions into `telemetry`.
    pub fn new(config: DetectorConfig, telemetry: Telemetry) -> Self {
        FailureDetector {
            config,
            telemetry,
            origin: Instant::now(),
            watched: Mutex::new(HashMap::new()),
            transitions: Mutex::new(Vec::new()),
            incidents: AtomicU64::new(0),
        }
    }

    /// Starts watching `pid`, treating "now" as its first sign of life so a
    /// slow-starting process is not declared down before its first beat is
    /// even due. Idempotent.
    pub fn watch(&self, pid: ProcessId) {
        self.watch_many([pid]);
    }

    /// Starts watching every pid in `pids` under one lock acquisition, each
    /// as [`FailureDetector::watch`] does — the bulk path for 1K+ explorers
    /// at launch. Idempotent per pid.
    pub fn watch_many(&self, pids: impl IntoIterator<Item = ProcessId>) {
        let mut watched = self.watched.lock();
        let now = Instant::now();
        for pid in pids {
            watched.entry(pid).or_insert_with(|| Watched::since(now));
        }
    }

    /// Stops watching `pid` (deliberate teardown must not read as failure).
    /// Later beats listing it are ignored until it is watched again.
    pub fn forget(&self, pid: ProcessId) {
        self.watched.lock().remove(&pid);
    }

    /// Feeds one heartbeat arrival from each watched pid in `pids`, under one
    /// lock; a pid not watched is ignored. A beat from a down process flips
    /// it back to [`Liveness::Alive`] and publishes a [`EventKind::ProcessUp`]
    /// event — that is how recovery (respawn or partition heal) becomes
    /// visible.
    pub fn observe(&self, pids: &[ProcessId]) {
        let mut watched = self.watched.lock();
        let now = Instant::now();
        for &pid in pids {
            let Some(entry) = watched.get_mut(&pid) else { continue };
            entry.beats.arrive(now, &self.config);
            if std::mem::take(&mut entry.down) {
                self.publish(pid, Liveness::Alive);
            }
        }
    }

    /// Feeds one message received by the monitor endpoint: a heartbeat whose
    /// body decodes to a pid list is observed, anything else ignored. Returns
    /// `true` if it was observed.
    pub fn observe_message(&self, msg: &Message) -> bool {
        if msg.header.kind != MessageKind::Heartbeat {
            return false;
        }
        let Ok(pids) = Vec::<ProcessId>::from_bytes(&msg.body) else { return false };
        self.observe(&pids);
        true
    }

    /// Checks every watched process's silence against its adaptive timeout,
    /// publishing a [`EventKind::ProcessDown`] event per new suspect.
    /// Returns the processes that transitioned to down *in this sweep*.
    pub fn sweep(&self) -> Vec<ProcessId> {
        let mut newly_down = Vec::new();
        {
            let mut watched = self.watched.lock();
            let now = Instant::now();
            for (&pid, entry) in watched.iter_mut() {
                if !entry.down && entry.beats.expired(now, &self.config) {
                    entry.down = true;
                    newly_down.push(pid);
                }
            }
        }
        for &pid in &newly_down {
            self.publish(pid, Liveness::Down);
        }
        newly_down
    }

    fn publish(&self, pid: ProcessId, liveness: Liveness) {
        let incident = self.incidents.fetch_add(1, Ordering::Relaxed);
        let kind = match liveness {
            Liveness::Alive => EventKind::ProcessUp,
            Liveness::Down => EventKind::ProcessDown,
        };
        self.telemetry.emit(kind, incident, pack_pid(pid));
        let stem = match liveness {
            Liveness::Alive => "fault.process_up",
            Liveness::Down => "fault.process_down",
        };
        self.telemetry.counter(stem).inc();
        // Role-tagged twin beside the aggregate: learner-shard liveness
        // transitions are distinguishable from explorer ones (both are
        // listed in the same beacons).
        self.telemetry.counter(&format!("{stem}.{}", pid.role)).inc();
        self.transitions.lock().push(LivenessTransition {
            pid,
            liveness,
            at_nanos: self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            incident,
        });
    }

    /// Current verdict for `pid`; `None` if it is not watched.
    pub fn liveness(&self, pid: ProcessId) -> Option<Liveness> {
        self.watched
            .lock()
            .get(&pid)
            .map(|w| if w.down { Liveness::Down } else { Liveness::Alive })
    }

    /// Processes currently considered down.
    pub fn down(&self) -> Vec<ProcessId> {
        let mut down: Vec<ProcessId> =
            self.watched.lock().iter().filter(|(_, w)| w.down).map(|(&p, _)| p).collect();
        down.sort();
        down
    }

    /// Heartbeats observed from `pid` so far.
    pub fn beats(&self, pid: ProcessId) -> u64 {
        self.watched.lock().get(&pid).map_or(0, |w| w.beats.arrivals())
    }

    /// The liveness transition log, in publication order.
    pub fn transitions(&self) -> Vec<LivenessTransition> {
        self.transitions.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xingtian_message::Header;

    fn fast_config() -> DetectorConfig {
        DetectorConfig { base_timeout_ms: 40, accrual_factor: 4.0, ewma_alpha: 0.3 }
    }

    #[test]
    fn silent_process_is_declared_down_once() {
        let telemetry = Telemetry::with_capacity(64);
        let d = FailureDetector::new(fast_config(), telemetry.clone());
        let pid = ProcessId::explorer(0);
        d.watch(pid);
        assert!(d.sweep().is_empty(), "not down before the base timeout");
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(d.sweep(), vec![pid]);
        assert!(d.sweep().is_empty(), "down is edge-triggered, not re-reported");
        assert_eq!(d.liveness(pid), Some(Liveness::Down));
        assert_eq!(d.down(), vec![pid]);
        assert_eq!(telemetry.counter("fault.process_down").get(), 1);
        assert_eq!(
            telemetry.counter("fault.process_down.explorer").get(),
            1,
            "role-tagged twin counter tracks the aggregate"
        );
        assert_eq!(telemetry.counter("fault.process_down.learner").get(), 0);
        let events = telemetry.events();
        let down = events.iter().find(|e| e.kind == EventKind::ProcessDown).expect("event");
        assert_eq!(down.aux, pack_pid(pid));
    }

    #[test]
    fn heartbeat_resurrects_a_down_process() {
        let telemetry = Telemetry::with_capacity(64);
        let d = FailureDetector::new(fast_config(), telemetry.clone());
        let pid = ProcessId::explorer(3);
        d.watch(pid);
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(d.sweep(), vec![pid]);
        d.observe(&[pid]);
        assert_eq!(d.liveness(pid), Some(Liveness::Alive));
        assert_eq!(telemetry.counter("fault.process_up").get(), 1);
        assert_eq!(telemetry.counter("fault.process_up.explorer").get(), 1);
        let t = d.transitions();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].liveness, Liveness::Down);
        assert_eq!(t[1].liveness, Liveness::Alive);
        assert!(t[1].at_nanos >= t[0].at_nanos);
        assert_ne!(t[0].incident, t[1].incident);
    }

    #[test]
    fn accrual_extends_the_leash_for_slow_beacons() {
        // A process beaconing every ~30ms under a 40ms base timeout survives
        // because the accrual term (4 × EWMA ≈ 120ms) dominates.
        let d = FailureDetector::new(fast_config(), Telemetry::disabled());
        let pid = ProcessId::learner(0);
        d.watch(pid);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            d.observe(&[pid]);
            assert!(d.sweep().is_empty(), "regular (if slow) beacons stay alive");
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(d.sweep().is_empty(), "one missed beat is within the accrual leash");
    }

    #[test]
    fn accrual_leash_is_the_base_until_gaps_outgrow_it() {
        let config = DetectorConfig::default(); // 500 ms floor, 6 × EWMA, α = 0.2
        let ms = Duration::from_millis;
        let t0 = Instant::now();
        let mut a = Accrual::new(t0);
        assert_eq!(a.timeout(&config), ms(500), "no arrivals: the floor");
        a.arrive(t0 + ms(100), &config);
        assert_eq!(a.timeout(&config), ms(500), "one arrival is no gap");
        a.arrive(t0 + ms(300), &config);
        assert_eq!(a.timeout(&config), ms(1_200), "a 200 ms gap earns 6 × 200 ms");
        // A 100 ms gap pulls the EWMA to 180 ms: silent from 400 ms, the
        // stream stops counting as live just after 400 + 1 080 ms.
        a.arrive(t0 + ms(400), &config);
        assert_eq!(a.arrivals(), 3);
        assert!(!a.expired(t0 + ms(1_470), &config));
        assert!(a.expired(t0 + ms(1_490), &config));
    }

    fn beacon(pids: Vec<ProcessId>) -> Message {
        use xingtian_message::codec::Encode;
        let header = Header::new(ProcessId::broker(0), vec![ProcessId::broker(9)], MessageKind::Heartbeat);
        Message::new(header, pids.to_bytes().into())
    }

    #[test]
    fn observe_message_reads_the_listed_pids_of_heartbeats_only() {
        let d = FailureDetector::new(fast_config(), Telemetry::disabled());
        d.watch_many([ProcessId::explorer(1), ProcessId::learner(0)]);
        assert!(d.observe_message(&beacon(vec![ProcessId::explorer(1), ProcessId::learner(0)])));
        let rollout =
            Header::new(ProcessId::explorer(1), vec![ProcessId::learner(0)], MessageKind::Rollout);
        assert!(!d.observe_message(&Message::new(rollout, beacon(Vec::new()).body)));
        // One explorer listed, but its index cut short.
        let torn = Message::new(beacon(Vec::new()).header, vec![1u8, 0, 1].into());
        assert!(!d.observe_message(&torn), "a malformed body is not a beat");
        assert_eq!(d.beats(ProcessId::explorer(1)), 1);
        assert_eq!(d.beats(ProcessId::learner(0)), 1);
        assert_eq!(d.beats(ProcessId::broker(0)), 0, "the beating broker is not a watched pid");
    }

    #[test]
    fn only_watched_pids_are_observed_and_a_forgotten_one_stays_forgotten() {
        let d = FailureDetector::new(fast_config(), Telemetry::disabled());
        let (watched, stranger) = (ProcessId::explorer(0), ProcessId::replay(0));
        d.watch(watched);
        d.observe(&[watched, stranger]);
        assert_eq!(d.liveness(stranger), None, "a beat never registers a pid");
        d.forget(watched);
        d.observe(&[watched]);
        assert_eq!(d.liveness(watched), None, "a forgotten pid's trailing beats are ignored");
        std::thread::sleep(Duration::from_millis(80));
        assert!(d.sweep().is_empty());
        assert!(d.down().is_empty());
    }

    #[test]
    fn watch_many_registers_in_bulk() {
        let d = FailureDetector::new(fast_config(), Telemetry::disabled());
        d.watch(ProcessId::explorer(0));
        d.observe(&[ProcessId::explorer(0)]); // pre-existing entry survives the bulk add
        d.watch_many((0..1024).map(ProcessId::explorer));
        assert_eq!(d.beats(ProcessId::explorer(0)), 1, "watch_many is idempotent");
        assert_eq!(d.liveness(ProcessId::explorer(1023)), Some(Liveness::Alive));
        assert!(d.sweep().is_empty(), "bulk registration baselines everyone at now");
    }

    #[test]
    fn forget_suppresses_false_positives_at_teardown() {
        let d = FailureDetector::new(fast_config(), Telemetry::disabled());
        let pid = ProcessId::explorer(0);
        d.watch(pid);
        d.forget(pid);
        std::thread::sleep(Duration::from_millis(80));
        assert!(d.sweep().is_empty(), "a forgotten process is never reported down");
        assert_eq!(d.liveness(pid), None);
    }
}
