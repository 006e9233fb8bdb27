//! `xt-perf`: the repository's benchmark. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repository root.

pub mod alloc;
pub mod cli;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
