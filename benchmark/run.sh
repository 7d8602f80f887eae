#!/usr/bin/env bash
# The repo benchmark. Builds the benchmark package (release, offline) and
# runs it; see benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload every workload runs; without --trace every pass
# runs. Prints one `workload metric value unit` line per metric, writes
# benchmark/results/<workload>.json, and ends each workload with the
# one-line JSON result object. Exits nonzero when a build, a query or an
# output/shape check fails, and the binary refuses to start while any
# HERMES_* variable is set: the measured configuration is fixed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from, which is also where this script was started from.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# BENCH_RESULTS_DIR lets repeat.sh keep each run's files apart.
exec "$target/release/hermes-benchmark" run --results "${BENCH_RESULTS_DIR:-$here/results}" "$@"
