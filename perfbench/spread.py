#!/usr/bin/env python3
"""Measures how steady the benchmark is, the way its acceptance is judged.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

For each workload (default: all in BENCHMARK.json) runs the untraced
benchmark --runs times, each with another --seed, and prints for every
end-to-end metric its median and its spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound. A spread above a third of its bound is
flagged. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d\n%s" %
                      (workload, seed, proc.returncode, proc.stderr[-2000:]))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: incorrect: %s" %
                      (workload, seed, proc.stdout.strip().splitlines()[-2]))
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print("  %-10s %-16s median %-12.6g spread %.4f (bound %.2f)%s" %
                  (workload, m["name"], med, spread, m["bound"], flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
