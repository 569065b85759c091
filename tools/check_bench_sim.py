#!/usr/bin/env python3
"""Compare a fresh BENCH_SIM.json against the committed baseline.

The fast simulator is deterministic by contract: rounds, message counts,
and output fingerprints are bit-identical across thread counts and across
machines (the generators use the repo's own Rng). So those fields are gated
EXACTLY — any drift is a behavior change in the simulator or an algorithm,
which must come with a baseline update. Every case must have completed,
threads=1 and all-cores outputs must agree, and the CSR fast path must
match the reference Network. Wall-clock fields, throughput, and peak RSS
are reported but never gate (hardware varies). SECTIONS below is the whole
list of gates; the gate kinds are described in bench_gates.py.

Usage: check_bench_sim.py <current.json> <baseline.json>
Exit codes: 0 ok, 1 regression/mismatch, 2 bad input.
"""

import sys

from bench_gates import Cmp, Equal, Flag, Section, run

# Deterministic per-case fields gated by exact equality.
EXACT_FIELDS = ("n", "delta", "edges", "rounds", "messages", "fingerprint")

SECTIONS = (
    Section("", (Cmp("bench", "==", "bench_sim"),), info=("peak_rss_mb",)),
    Section("cases", key=("name",),
            gates=(Flag("completed"), *(Equal(f) for f in EXACT_FIELDS)),
            info=("wall_ms", "half_edge_rounds_per_sec")),
    Section("thread_invariance", (Flag("identical"), Equal("fingerprint"))),
    Section("reference_diff", (Flag("identical"),)),
)

if __name__ == "__main__":
    sys.exit(run(sys.argv, __doc__, "bench_sim", SECTIONS))
