#!/usr/bin/env python3
"""Statistics over repeated runs of the benchmark.

  spread.py report [--disagree] FILE...
      FILE is `<workload>.<anything>` holding one run's output (its last
      line is the result). Prints, per workload x end-to-end metric, the
      median, the quartiles as statistics.quantiles(values, n=4) gives
      them, and the relative spread (q3 - q1) / median beside the metric's
      bound -- the numbers the driver accepts or refuses the benchmark on.
      With --disagree, exits 1 when any two runs of a workload differ by
      more than the metric's bound.

  spread.py append HISTORY --commit C --cores K --seed S FILE...
      Appends one line to HISTORY (history.jsonl): the commit, the host's
      core count, the seed and every metric of every workload of one set.
"""
import itertools
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def load(paths):
    """{workload: [result, ...]} in the order given."""
    runs = {}
    for path in map(Path, paths):
        result = json.loads(path.read_text().strip().splitlines()[-1])
        runs.setdefault(path.name.split(".")[0], []).append(result)
    return runs


def report(paths, disagree):
    failures = []
    for workload, results in load(paths).items():
        for name, bound in BOUNDS.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            # setup_s is exempt from the spread rule (only its median is compared).
            note = ""
            if name != "setup_s" and spread > bound:
                note = "  OVER ITS BOUND"
            elif name != "setup_s" and spread > bound / 3:
                note = "  over a third of its bound"
            print(f"{workload:<15} {name:<17} n={len(values):<3} median={median:<13.6g} "
                  f"q1={q1:<13.6g} q3={q3:<13.6g} spread={spread:<7.4f} bound={bound}{note}")
            for a, b in itertools.combinations(values, 2):
                if abs(a - b) / min(a, b) > bound:
                    failures.append(f"{workload} {name}: {a:.6g} vs {b:.6g} differ by more than {bound}")
                    break
    if disagree and failures:
        for failure in failures:
            print(f"spread: DISAGREE {failure}", file=sys.stderr)
        return 1
    return 0


def append(history, commit, cores, seed, paths):
    metrics = {
        workload: {name: m["value"] for name, m in results[-1]["metrics"].items()}
        | {"failed_frac": results[-1]["failed"] / max(results[-1]["attempted"], 1)}
        for workload, results in load(paths).items()
    }
    line = {"commit": commit, "host_cores": int(cores), "seed": int(seed), "metrics": metrics}
    with open(history, "a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


def main(argv):
    if argv[:1] == ["report"]:
        disagree = "--disagree" in argv
        return report([a for a in argv[1:] if a != "--disagree"], disagree)
    if argv[:1] == ["append"] and argv[2:8:2] == ["--commit", "--cores", "--seed"]:
        return append(argv[1], argv[3], argv[5], argv[7], argv[8:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
