//! A simulated network interface: a serialized, bandwidth-limited resource.

use crate::clock::Clock;
use xt_telemetry::LinkStats;
use parking_lot::Mutex;

/// One direction (tx or rx) of a machine's network port.
///
/// Transfers through a NIC are serialized: a reservation extends the NIC's
/// `busy_until` register, so concurrent flows queue behind each other exactly
/// like frames on a single Ethernet port. The *calling thread* is then blocked
/// until its reservation completes, which is what makes wall-clock benchmarks
/// of the frameworks built on `netsim` NIC-bound.
#[derive(Debug)]
pub struct Nic {
    /// Bytes per second this NIC can carry.
    bandwidth: f64,
    /// Timeline register: the clock-nanos instant at which the NIC frees up.
    busy_until: Mutex<u64>,
    stats: LinkStats,
}

impl Nic {
    /// Creates a NIC with the given bandwidth in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not strictly positive and finite.
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth.is_finite() && bandwidth > 0.0, "bandwidth must be positive");
        Nic { bandwidth, busy_until: Mutex::new(0), stats: LinkStats::default() }
    }

    /// Bytes per second this NIC carries.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Cumulative transfer statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Reserves the NIC for `bytes` starting no earlier than `earliest_nanos`,
    /// returning `(start, end)` in clock nanos. Does not block; callers combine
    /// reservations across NICs and then wait on the [`Clock`].
    pub fn reserve(&self, earliest_nanos: u64, bytes: usize) -> (u64, u64) {
        let dur_nanos = (bytes as f64 / self.bandwidth * 1e9).ceil() as u64;
        let mut busy = self.busy_until.lock();
        let start = earliest_nanos.max(*busy);
        let end = start + dur_nanos;
        *busy = end;
        self.stats.record(bytes, dur_nanos);
        (start, end)
    }

    /// Reserves and blocks the calling thread until the transfer completes.
    /// Returns the modeled `(start, end)` in clock nanos.
    pub fn transfer(&self, clock: &Clock, bytes: usize) -> (u64, u64) {
        let (start, end) = self.reserve(clock.now_nanos(), bytes);
        clock.wait_until(end);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ClockMode};

    #[test]
    fn transfer_time_matches_bandwidth() {
        let clock = Clock::new(ClockMode::Virtual);
        let nic = Nic::new(1e6); // 1 MB/s
        let (start, end) = nic.transfer(&clock, 500_000); // 0.5 MB -> 0.5 s
        assert_eq!(start, 0);
        assert_eq!(end, 500_000_000);
        assert_eq!(clock.now_nanos(), 500_000_000);
    }

    #[test]
    fn transfers_serialize_on_one_nic() {
        let clock = Clock::new(ClockMode::Virtual);
        let nic = Nic::new(1e6);
        // Two reservations at the same earliest time must queue.
        let (s1, e1) = nic.reserve(0, 1_000_000);
        let (s2, e2) = nic.reserve(0, 1_000_000);
        assert_eq!((s1, e1), (0, 1_000_000_000));
        assert_eq!(s2, e1, "second transfer starts when the first ends");
        assert_eq!(e2, 2_000_000_000);
        let _ = clock;
    }

    #[test]
    fn stats_accumulate() {
        let nic = Nic::new(1e9);
        nic.reserve(0, 100);
        nic.reserve(0, 200);
        assert_eq!(nic.stats().bytes(), 300);
        assert_eq!(nic.stats().transfers(), 2);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Nic::new(0.0);
    }
}
