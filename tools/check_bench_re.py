#!/usr/bin/env python3
"""Compare a fresh BENCH_RE.json against the committed baseline.

Only deterministic quantities gate: the engine's perf counters are
bit-identical across thread counts (see tests/re_determinism_test.cpp), so
any drift is a real behavior change, and growth beyond 2x is treated as a
performance regression. Wall-clock fields, thread counts, and the portfolio
winner (a race) are reported but never gate, with one exception: a warm RE
cache run does a strict subset of the cold run's work, so warm <= cold
holds structurally. SECTIONS below is the whole list of gates; the gate
kinds are described in bench_gates.py.

Usage: check_bench_re.py <current.json> <baseline.json>
Exit codes: 0 ok, 1 regression/mismatch, 2 bad input.
"""

import sys

from bench_gates import Cmp, Equal, Flag, Present, Ratio, Section, Sib, run

# Counters that must not grow beyond REGRESSION_FACTOR x baseline.
GATED_COUNTERS = (
    "dfs_nodes",
    "partials_deduped",
    "extendable_calls",
    "extension_index_entries",
    "configs_enumerated",
    "maximality_probes",
    "relaxed_multisets",
)

# The discovery driver must rediscover both workloads (the 2-coloring pump
# and the Δ'=3 matching chain) and emit a certificate for each.
DISCOVER_GATES = (Cmp("status", "==", "found"), Cmp("certs_emitted", "!=", 0), Ratio("nodes"))
DISCOVER_INFO = ("target", "expansions", "frontier_peak", "cache_hits", "cache_misses",
                 "cert_bytes", "wall_ms")

SECTIONS = (
    Section("", (Cmp("bench", "==", "bench_re"),)),
    Section("e2_totals", tuple(Ratio(c) for c in GATED_COUNTERS)),
    Section("e2_rows", key=("delta", "x", "y"), gates=(
        Flag("computed", stays=True),
        Flag("relaxation_verified", stays=True),
        *(Ratio(f"stats.{c}") for c in GATED_COUNTERS),
    )),
    Section("budget_demo", (Flag("exhausted"), Ratio("dfs_nodes_at_exhaustion"))),
    Section("portfolio_demo", (Cmp("verdict", "==", "yes"),), info=("winner",)),
    # The incremental path must answer every support of the sweep as
    # from-scratch encoding does, while reusing clauses.
    Section("incremental_sweep_demo", (
        Flag("verdicts_match"),
        Cmp("incremental_clauses", "<", Sib("scratch_clauses")),
        Ratio("incremental_clauses"),
    ), info=("incremental_wall_ms", "scratch_wall_ms")),
    # Caching never changes a verdict; a warm run answers every RE step from
    # the cache without search, and so does every step after the first of a
    # renamed fixed-point chain.
    Section("re_cache_demo", (
        Flag("verdicts_match"),
        Cmp("warm_misses", "==", 0),
        Cmp("warm_dfs_nodes", "==", 0),
        Cmp("warm_hits", "==", Sib("steps")),
        Cmp("chain_hits", "==", Sib("chain_steps", -1)),
        Cmp("chain_dfs_nodes_after_first", "==", 0),
        Cmp("warm_wall_ms", "<=", Sib("cold_wall_ms")),
    ), info=("off_wall_ms", "warm_canonical_ms")),
    # Both certificates emit, validate and survive a disk round-trip.
    Section("cert_demo", (
        Flag("sequence_valid"),
        Flag("lift_valid"),
        Flag("roundtrip_valid"),
        Present("sequence_emit_wall_ms"),
        Present("sequence_check_wall_ms"),
        Present("lift_emit_wall_ms"),
        Present("lift_check_wall_ms"),
        Cmp("lift_proof_steps", "!=", 0),
        Equal("sequence_steps"),
    ), info=("sequence_bytes", "lift_bytes")),
    # An overloaded server with an injected wedge must shed load, a torn
    # checkpoint write must be recovered from on restart, and the restarted
    # server must reproduce every verdict and flush a loadable checkpoint.
    Section("serve_demo", (
        Flag("verdicts_match"),
        Cmp("admission_rejects", "!=", 0),
        Cmp("checkpoint_recoveries", ">=", 1),
        Cmp("checkpoint_failures", "!=", 0),
        Flag("final_checkpoint_valid"),
    ), info=("requests", "requests_per_sec", "ok", "recovered_from", "warm_cache_hits")),
    # Concurrent socket sweeps reproduce the per-request verdicts, and the
    # batcher coalesces them into a group of more than one.
    Section("serve_demo.socket", (
        Flag("verdicts_match"),
        Cmp("batch_groups", ">=", 1),
        Cmp("batch_peak", ">=", 2),
    ), info=("connections", "requests", "batched_requests", "unbatched_dispatches")),
    # Every emitted certificate passes the independent checker, and the
    # threads=4 run reproduces the threads=1 log and certificate bytes.
    Section("discover_demo", (Flag("certs_valid"), Flag("thread_invariance"))),
    Section("discover_demo.coloring", DISCOVER_GATES, info=DISCOVER_INFO),
    Section("discover_demo.matching", DISCOVER_GATES, info=DISCOVER_INFO),
)

if __name__ == "__main__":
    sys.exit(run(sys.argv, __doc__, "bench_re", SECTIONS))
