#!/usr/bin/env python3
"""Steadiness check: runs one workload several times and reports, per
metric, the median, the quartiles and the spread (interquartile range as a
share of the median) next to the bound BENCHMARK.json fixes for it.

Usage (from the repository root):

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]
                                [--seconds S] [--seed-base N] [--trace 0|1]

Each run uses its own seed (seed-base, seed-base + 1, ...).  With --sets 2
the runs are repeated as a second set with the same seeds and the two
medians are compared: the second must not be worse than the first by more
than the bound.  Exit 1 when a run failed an operation, an end-to-end
spread exceeds its bound, or two sets disagree; else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = bench.benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    sets = []
    ok = True
    for s in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        failed = 0
        for i in range(args.runs):
            seed = args.seed_base + i
            _, result = bench.run(args.workload, seed, seconds, args.trace)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {s + 1} run {i + 1} seed {seed}: " +
                  json.dumps({k: v[-1] for k, v in values.items()}), flush=True)
        sets.append(values)
        if failed:
            print(f"set {s + 1}: {failed} failed operations or incorrect runs")
            ok = False

    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"{seconds} s each")
    print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        name, bound = m["name"], m.get("bound")
        for s, values in enumerate(sets):
            median, q1, q3, spread = summarize(values[name])
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict, ok = "OVER BOUND", False
                elif spread > bound / 3:
                    verdict = "above bound/3"
            print(f"{name if s == 0 else '':42} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
        if len(sets) == 2 and bound is not None:
            first = statistics.median(sets[0][name])
            second = statistics.median(sets[1][name])
            change = (second - first) / abs(first) if first else 0.0
            worse = change if m["better"] == "lower" else -change
            status = "ok" if worse <= bound else "SETS DISAGREE"
            ok = ok and worse <= bound
            print(f"{'':42} second/first median change {change:+.3f} ({status})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
