#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): builds both binaries from
# source, which costs nothing once they are fresh, and runs xt-perf with the
# arguments given. `cargo run` alone builds only the binary it runs, and
# `xt-perf --trace 1` hands over to xt-perf-trace, which must exist beside it.
set -euo pipefail
manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"
cargo build --release --quiet --manifest-path "$manifest" >&2
exec cargo run --release --quiet --manifest-path "$manifest" --bin xt-perf -- "$@"
