#!/usr/bin/env bash
# Two full run sets of the same tree, judged the way the acceptance check
# judges them: per workload and end-to-end metric, the median over the
# runs of each set, the spread (interquartile distance over median) of
# each set against the bound, and the second median against the first.
# Exits nonzero when the sets disagree. Each set also makes one all-pass
# run per workload, so `ref.system.*` (the host-noise canary) is on
# record for both.
#
#   benchmark/repeat.sh [runs-per-set (10)] [first-seed (1)]
#
# Files land in benchmark/results/repeat/set{1,2}/; the verdict table is
# printed and kept in benchmark/results/repeat/verdict.txt.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
first="${2:-1}"
root="$here/results/repeat"
rm -rf "$root"

for set in 1 2; do
    for ((i = 0; i < runs; i++)); do
        seed=$((first + i))
        dir="$root/set$set/seed$(printf %03d "$seed")"
        mkdir -p "$dir"
        echo "set $set seed $seed" >&2
        BENCH_RESULTS_DIR="$dir" "$here/run.sh" --seed "$seed" --trace 0 >"$dir/run.log" || true
    done
    dir="$root/set$set/layers"
    mkdir -p "$dir"
    echo "set $set all passes" >&2
    BENCH_RESULTS_DIR="$dir" "$here/run.sh" --seed "$first" >"$dir/run.log" || true
done

target="${CARGO_TARGET_DIR:-$here/target}"
"$target/release/hermes-benchmark" verdict "$root/set1" "$root/set2" | tee "$root/verdict.txt"
exit "${PIPESTATUS[0]}"
