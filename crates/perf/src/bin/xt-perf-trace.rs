//! The tracing benchmark binary: the same program under a counting allocator.
//! `xt-perf --trace 1` hands over to it.

use xt_perf::alloc::Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting::new();

fn main() -> std::process::ExitCode {
    xt_perf::cli::main(Some(&ALLOCATOR))
}
