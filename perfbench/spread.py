#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed on every workload in BENCHMARK.json,
untraced and for its run_seconds. Then prints, for every end-to-end
metric, the median of the runs and the distance between their first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
beside the metric's bound in BENCHMARK.json. A benchmark is steady when every spread is below a third
of its bound. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    failed = False
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                failed = True
                continue
            metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
            for name, m in metrics.items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':14} {'median':>14} {'spread':>8} "
          f"{'bound':>6} {'steady':>6}")
    for workload, metrics in values.items():
        for name, vals in sorted(metrics.items()):
            median = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, 0)
            steady = spread < bound / 3
            print(f"{workload:14} {name:14} {median:14.6g} {spread:8.4f} "
                  f"{bound:6.2f} {'yes' if steady else 'NO':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
