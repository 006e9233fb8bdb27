//! The timed benchmark binary: the system allocator, no spans, no counters.

fn main() -> std::process::ExitCode {
    xt_perf::cli::main(None)
}
