//! Cumulative transfer counters for NICs and links.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters describing the traffic a NIC has carried.
#[derive(Debug, Default)]
pub struct LinkStats {
    bytes: AtomicU64,
    transfers: AtomicU64,
    busy_nanos: AtomicU64,
}

impl LinkStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        LinkStats::default()
    }

    /// Records one transfer of `bytes` occupying the link for `nanos`.
    pub fn record(&self, bytes: usize, nanos: u64) {
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total bytes carried.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of transfers carried.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }

    /// Total nanoseconds the link was occupied.
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = LinkStats::new();
        s.record(1000, 1_000_000);
        s.record(3000, 3_000_000);
        assert_eq!(s.bytes(), 4000);
        assert_eq!(s.transfers(), 2);
        assert_eq!(s.busy_nanos(), 4_000_000);
    }
}
