#!/usr/bin/env python3
"""Checks how steady the benchmark's end-to-end metrics are across seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload leaky-dma --seeds 10

It runs the benchmark once per seed (0, 1, ...) with BENCHMARK.json's
command and run_seconds, and prints for each end-to-end metric the median
and the spread: the distance between the first and third quartile of the
values (statistics.quantiles, n=4) as a share of their median, next to the
metric's bound. A spread under a third of its bound is marked steady.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result: {res}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med
        mark = "steady" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:14s} median {med:12.5g} {m['unit']:5s} spread {spread:7.4f} bound {m['bound']:.3f} {mark}")


if __name__ == "__main__":
    main()
