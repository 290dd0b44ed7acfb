#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE each hold the standard output of one or more benchmark
runs, concatenated. A run's result line is attributed to the workload
named by the header line before it. For every (metric, workload) the
report gives each side's median and quartiles, and a verdict. The
i-th runs of the two sides form a pair. CHANGE is "better" when it wins
at least nine tenths of the pairs (ties count for neither) and the
medians differ by more than the distance between BASE's quartiles;
"worse" by the same rule the other way round; "unresolved" otherwise.
Each metric's direction comes from BENCHMARK.json.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    """{workload: {metric: [values in run order]}}"""
    runs = defaultdict(lambda: defaultdict(list))
    workload = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "header" in obj:
            workload = obj["header"]["workload"]
        elif "metrics" in obj:
            if workload is None:
                sys.exit(f"{path}: result line without a header line before it")
            for name, m in obj["metrics"].items():
                runs[workload][name].append(m["value"])
            workload = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, higher_is_better):
    pairs = list(zip(base, change))
    wins = losses = 0
    for b, c in pairs:
        if c == b:
            continue
        if (c > b) == higher_is_better:
            wins += 1
        else:
            losses += 1
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    clear = abs(med_c - med_b) > (q3 - q1)
    if clear and wins >= 0.9 * len(pairs):
        return "better", wins, losses
    if clear and losses >= 0.9 * len(pairs):
        return "worse", wins, losses
    return "unresolved", wins, losses


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':18} {'metric':44} {'base q1/med/q3':>32} {'change q1/med/q3':>32}  pairs verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in sorted(set(base[workload]) & set(change[workload])):
            if metric not in better:
                continue
            b, c = base[workload][metric], change[workload][metric]
            v, wins, losses = verdict(b, c, better[metric])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(
                f"{workload:18} {metric:44} {fmt(quartiles(b)):>32} {fmt(quartiles(c)):>32}"
                f"  {wins}+{losses}/{min(len(b), len(c))} {v}"
            )


if __name__ == "__main__":
    main()
