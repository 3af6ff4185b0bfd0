#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Runs every workload at the tiny scale for a fixed number of CPs and
failover cycles, and checks that:
- each run is correct, with no failed ops;
- the metrics printed are exactly those BENCHMARK.json names, each with
  the unit it declares (end-to-end with --trace 0, per-layer with --trace 1);
- the deterministic per-layer counts repeat exactly for one seed and
  change for another seed, so the seed reaches the generator.

Run from the repository root (takes about a minute):

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
from run import EXE, WORKLOADS  # noqa: E402

DETERMINISTIC_PREFIXES = ("write_alloc.", "bitmap.", "raid.", "ftl.")
DETERMINISTIC_NAMES = {
    "cp.blocks_per_cp", "aacache.work_per_cp", "device.modeled_us_per_cp",
    "mount.pages_scanned", "mount.topaa_blocks_read", "mount.aas_scored",
}


def deterministic(name):
    return name.startswith(DETERMINISTIC_PREFIXES) or name in DETERMINISTIC_NAMES


def run(workload, seed, trace):
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--scale", "tiny", "--cps", "12", "--mounts", "2", "--seconds", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"], check=True)
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run(workload, 1, trace)
            if not r["correct"] or r["failed"] != 0:
                errors.append(f"{workload} trace {trace}: incorrect result")
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            if got != declared[trace]:
                errors.append(f"{workload} trace {trace}: metrics or units differ from "
                              f"BENCHMARK.json: {sorted(set(got.items()) ^ set(declared[trace].items()))}")
        first, again, other = run(workload, 1, 1), run(workload, 1, 1), run(workload, 2, 1)
        counts = lambda r: {n: m["value"] for n, m in r["metrics"].items() if deterministic(n)}
        if counts(first) != counts(again):
            diff = [n for n in counts(first) if counts(first)[n] != counts(again)[n]]
            errors.append(f"{workload}: counts differ between runs of one seed: {diff}")
        changed = [n for n in counts(first) if counts(first)[n] != counts(other)[n]]
        if not changed:
            errors.append(f"{workload}: no count changes with the seed")
        print(f"{workload}: {len(counts(first))} deterministic counts repeat; "
              f"{len(changed)} change with the seed")
    for e in errors:
        print("FAIL " + e)
    print("selftest: " + ("FAILED" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
