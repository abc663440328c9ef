#!/usr/bin/env bash
# Builds the benchmark and runs it: one process per workload, each checking
# its own correctness and printing its metrics by name, the last line of
# each run being the one-line JSON result BENCHMARK.json describes.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Without --workload all five run in turn. --trace (or --trace 1) runs the
# traced binary instead and prints every per-layer metric; spans land in
# benchmark/out/. --smoke is one 2-second window and a single set-up.
set -euo pipefail

# The repository root: CARGO_TARGET_DIR may be relative to it, and the
# crates the benchmark measures are ../crates from the package.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

workloads=(inproc-hot inproc-cold tcp-paced tcp-burst cluster3-paced)
seed=2002
seconds=20
trace=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --smoke) seconds=2; extra=(--windows 1 --setups 1); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"

for workload in "${workloads[@]}"; do
    if [ "$trace" = 1 ]; then
        # Tracing overhead is the traced binary's inproc-cold throughput
        # against the untraced binary's, measured over the same length.
        tenth="$(awk "BEGIN { print $seconds / 10 }")"
        untraced="$("$bin/bench" --workload inproc-cold --seed "$seed" --seconds "$tenth" \
            --windows 1 --setups 1 --value-of fetch_per_s)"
        "$bin/bench-trace" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --untraced-fetch-per-s "$untraced" --out benchmark/out
    else
        "$bin/bench" --workload "$workload" --seed "$seed" --seconds "$seconds" ${extra[@]+"${extra[@]}"}
    fi
done
