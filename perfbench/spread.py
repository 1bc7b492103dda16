"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload roundtrip --runs 10 [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed, first-seed+1, ...)
and prints, for each metric (and for the times as measured, raw_*), the
median of the runs and the distance between the first and third quartile as
a share of that median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        assert res["correct"], res
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in lines:
            if line.startswith("raw_"):
                name, value = line.split()[:2]
                values.setdefault(name, []).append(float(value))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{args.workload} {name:<14} median {med:10.4g}  spread {spread:6.3f}"
              f"  bound {bounds.get(name, float('nan')):.2f}")


if __name__ == "__main__":
    main()
