#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the pipeline takes it.

Runs the command of BENCHMARK.json RUNS times per workload, each time with
another seed, and prints for each (workload, metric) the median of the runs
and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound.  Exits 1 if a spread exceeds a third of its bound (setup_s is
reported but, as in the pipeline, not held to that).

Run from the repository root:  python3 perf/spread_check.py [workload ...]
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    too_wide = False
    for workload in wanted:
        values = {name: [] for name in bounds}
        started = time.time()
        for run in range(RUNS):
            command = bench["command"] + [
                "--workload", workload,
                "--seed", str(1000 + run),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]  # fmt: skip
            out = subprocess.run(command, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert set(result["metrics"]) == set(bounds), sorted(result["metrics"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        per_run = (time.time() - started) / RUNS
        print(f"{workload}: {RUNS} runs, {per_run:.1f} s each")
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            wide = spread > bound / 3 and name != "setup_s"
            too_wide |= wide
            print(
                f"  {name:24} median {median:12.6g}  spread {spread:6.3f}"
                f"  bound {bound:5.2f}{'  > bound/3' if wide else ''}"
            )
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
