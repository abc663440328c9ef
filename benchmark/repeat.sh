#!/usr/bin/env bash
# Runs N full sets of the benchmark on this commit, appends one line per
# set to history.jsonl (the committed trajectory), prints per workload x
# metric the median, quartiles and relative spread against the bound, and
# exits nonzero when two sets disagree by more than a bound.
#
#   benchmark/repeat.sh N [--seed S]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

sets="${1:?usage: repeat.sh N [--seed S]}"
shift
seed=2002
if [ "${1:-}" = --seed ]; then
    seed="${2:?--seed needs a value}"
fi

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("../BENCHMARK.json"))["workloads"]))')"
dir="out/sets/$(date +%Y%m%dT%H%M%S)-seed$seed"
mkdir -p "$dir"

for set in $(seq 1 "$sets"); do
    files=()
    for workload in $workloads; do
        ./run.sh --workload "$workload" --seed "$seed" > "$dir/$workload.set$set.out"
        files+=("$dir/$workload.set$set.out")
    done
    python3 tools/spread.py append history.jsonl --commit "$commit" --cores "$(nproc)" \
        --seed "$seed" "${files[@]}"
    echo "repeat.sh: set $set of $sets done" >&2
done
python3 tools/spread.py report --disagree "$dir"/*.out
