#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload at its tiny --smoke size, untraced and traced, and
checks the result line against BENCHMARK.json: exactly the declared metrics,
each with its declared unit and a finite value, a correct run with at least
one attempted item and none failed (fail_ratio 0). Run from the root of a
checkout; the first call builds the benchmark.
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke",
         "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        env_line, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], env_line.get("failures"))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if trace:
            self.assertEqual(result["metrics"]["fail_ratio"]["value"], 0)
        else:
            for m in declared:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        for key in ("nproc", "engine_threads", "compiler", "build_type"):
            self.assertIn(key, env_line["env"])

    def test_every_workload(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
