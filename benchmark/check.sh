#!/usr/bin/env bash
# The benchmark's own gate (the repository's ci.sh does not know this
# package): formatting, lints, unit tests, then a smoke run of every
# workload, untraced and traced, checked against BENCHMARK.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet

mkdir -p out/smoke
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')"
untraced=()
traced=()
for workload in $workloads; do
    ./run.sh --smoke --workload "$workload" > "out/smoke/$workload.untraced"
    untraced+=("$workload=out/smoke/$workload.untraced")
    ./run.sh --smoke --trace --workload "$workload" > "out/smoke/$workload.traced"
    traced+=("$workload=out/smoke/$workload.traced")
done
python3 tools/check_names.py end_to_end "${untraced[@]}"
python3 tools/check_names.py per_layer "${traced[@]}"
echo "check.sh: ok"
