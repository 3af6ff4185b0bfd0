#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed and prints, for each metric, the median
and the quartile spread (Q3 - Q1) / median, with Q1 and Q3 as
statistics.quantiles(values, n=4) gives them.  Run from the repository root:

    python3 perfbench/spread.py --workload ssd-churn --runs 10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for workload in args.workload:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            walls.append(time.monotonic() - start)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {args.runs} runs, {statistics.median(walls):.1f} s wall per run")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"min {min(vs):.6g} max {max(vs):.6g}")
        print(flush=True)


if __name__ == "__main__":
    main()
