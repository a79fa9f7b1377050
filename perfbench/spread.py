#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload cold --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed (sequentially, from the repository
root) and prints, for every metric, the median over the runs and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json fixes
for it. A run that fails or reports an incorrect result stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", help="default: run_seconds")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run.py exited with {done.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result: {lines[-1]}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)

    for name, vals in values.items():
        mid = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (mid, mid, mid))
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = f"  bound {bounds[name]}" if name in bounds else ""
        print(f"{name:20s} median {mid:12.6g}  spread {spread:.4f}{bound}")


if __name__ == "__main__":
    main()
