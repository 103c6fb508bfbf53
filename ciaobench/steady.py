#!/usr/bin/env python3
"""Steadiness check: runs one workload k times and reports each metric's
spread.

    python3 ciaobench/steady.py --workload <name> [--seeds 1,2,3,4,5]
                                [--seconds 20]

Each run uses the next seed of --seeds (repeat a seed to measure
run-to-run noise alone). For every metric it prints the median, the first
and third quartile (statistics.quantiles(values, n=4)) and the
interquartile range as a share of the median. A metric whose spread
exceeds its bound in BENCHMARK.json is flagged OVER; one above a third of
its bound is flagged high. Exits non-zero if any run fails or any metric
is OVER.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, IQR / median) of `values`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    ok = True
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode), flush=True)
            continue
        runs.append(result["metrics"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    if len(runs) < 2:
        print("need at least two successful runs")
        return 1
    print("\n%-32s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs if name in r]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if rel > bound:
                flag, ok = "OVER", False
            elif rel > bound / 3:
                flag = "high"
        print("%-32s %14.6g %14.6g %14.6g %9.4f %7s %s"
              % (name, med, q1, q3, rel, "-" if bound is None else bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
