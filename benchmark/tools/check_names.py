#!/usr/bin/env python3
"""Asserts that smoke runs printed exactly what BENCHMARK.json promises.

usage: check_names.py end_to_end|per_layer <workload>=<output file>...

For every workload of BENCHMARK.json there must be one output file whose
last line is a result with "correct": true, no failed fetch, every value
finite, and exactly the metric names (and units) of the given kind.
"""
import json
import math
import sys
from pathlib import Path


def main(kind, pairs):
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    outputs = dict(pair.split("=", 1) for pair in pairs)
    problems = []
    wanted = {w["name"] for w in spec["workloads"]}
    if set(outputs) != wanted:
        problems.append(f"workloads run {sorted(outputs)} != BENCHMARK.json {sorted(wanted)}")
    for workload, path in outputs.items():
        result = json.loads(Path(path).read_text().strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys are {sorted(result)}")
        if result.get("correct") is not True:
            problems.append(f"{workload}: correct is {result.get('correct')}")
        if result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append(f"{workload}: failed {result.get('failed')} of {result.get('attempted')}")
        got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
            problems.append(f"{workload}: missing {missing}, unexpected {extra}, wrong unit {units}")
        for name, metric in result.get("metrics", {}).items():
            if not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
                problems.append(f"{workload}: {name} is {metric.get('value')}")
    for problem in problems:
        print(f"check_names: {problem}", file=sys.stderr)
    if not problems:
        print(f"check_names: {len(outputs)} workloads x {len(expected)} {kind} metrics match BENCHMARK.json")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
