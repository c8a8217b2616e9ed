#!/usr/bin/env python3
"""The benchmark's own smoke test: a short run of every workload.

Usage (from the repository root):  python3 perfbench/smoke_test.py

Asserts that every end-to-end metric of BENCHMARK.json prints with its
unit on every workload and every run is correct (2-second runs), that a
traced run prints every per-layer metric and the layer sum, and that the
correctness gate fires (correct=false, failed >= 1) when one session's
expected verdict is flipped.  Exit 0 when all checks pass, 1 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SEED = 7
SECONDS = 2


def main():
    spec = bench.benchmark_spec()
    problems = []

    def check(name, condition):
        print(("ok   " if condition else "FAIL ") + name, flush=True)
        if not condition:
            problems.append(name)

    # run() itself raises unless every metric of the run's kind is present
    # with the unit BENCHMARK.json names.
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        _, result = bench.run(workload, SEED, SECONDS, 0)
        check(f"{workload}: correct with zero failed of {result['attempted']}",
              result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1)
        check(f"{workload}: every end-to-end metric is positive",
              all(result["metrics"][m["name"]]["value"] > 0
                  for m in spec["end_to_end"]))

    context, result = bench.run("wire_b1", SEED, SECONDS, 1)
    check("wire_b1 traced: correct", result["correct"])
    check("wire_b1 traced: layer sum printed",
          any(line.startswith("layer sum: append_p50_us") for line in context))

    for workload in workloads:
        context, result = bench.run(workload, SEED, SECONDS, 0,
                                    flip_session=0)
        check(f"{workload}: flipped expected verdict fails the gate",
              not result["correct"] and result["failed"] >= 1)
        failures = [line for line in context if line.startswith("FAILED")]
        check(f"{workload}: every failure is a verdict mismatch",
              len(failures) == result["failed"]
              and all("verdict mismatch" in line for line in failures))

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
