//! Process clocks and memory the kernel reports, read through two libc calls.
//!
//! No `libc` crate is vendored, so the two functions are declared here; std
//! already links the C library they live in. `/proc/self/stat` is not used
//! for CPU time: it counts in 10 ms ticks, and a tick-quantised cost per
//! operation reads exactly the same on every run.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// CPU time this process has used, user and system, all threads, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two longs on every
    // Linux target Rust supports) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User and system CPU seconds of this process so far.
pub fn user_sys_cpu_s() -> (f64, f64) {
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut ru = Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable buffer with the size and layout of
    // Linux's `struct rusage` for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (secs(&ru.ru_utime), secs(&ru.ru_stime))
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_is_monotone_and_finer_than_a_tick() {
        let mut last = process_cpu_s();
        let mut steps = Vec::new();
        let mut sink = 0u64;
        while steps.len() < 50 {
            for i in 0..20_000u64 {
                sink = sink.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            let now = process_cpu_s();
            assert!(now >= last, "CPU clock went backwards");
            if now > last {
                steps.push(now - last);
            }
            last = now;
        }
        std::hint::black_box(sink);
        // A tick clock would only ever advance by multiples of 10 ms.
        let smallest = steps.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(smallest < 1e-3, "smallest CPU-clock step was {smallest} s");
    }

    #[test]
    fn rusage_and_rss_are_readable() {
        let (user, sys) = user_sys_cpu_s();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
