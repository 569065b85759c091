#!/usr/bin/env python3
"""Compare a fresh BENCH_RE.json against the committed baseline.

Only deterministic quantities are compared: the engine's perf counters are
bit-identical across thread counts (see tests/re_determinism_test.cpp), so
any drift is a real behavior change, and growth beyond 2x is treated as a
performance regression. Wall-clock fields, thread counts, and the portfolio
winner (a race) are reported but never gate.

Usage: check_bench_re.py <current.json> <baseline.json>
Exit codes: 0 ok, 1 regression/mismatch, 2 bad input.
"""

import json
import sys

# Counters that must not grow beyond REGRESSION_FACTOR x baseline.
GATED_COUNTERS = [
    "dfs_nodes",
    "partials_deduped",
    "extendable_calls",
    "extension_index_entries",
    "configs_enumerated",
    "domination_tests",
    "domination_skipped",
    "relaxed_multisets",
    "relaxed_witness_hits",
    "relaxed_dfs_tests",
]

REGRESSION_FACTOR = 2.0


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_counters(name, current, baseline):
    rc = 0
    for key in GATED_COUNTERS:
        if key not in baseline:
            continue  # baseline predates this counter
        cur, base = current.get(key, 0), baseline[key]
        if base == 0:
            if cur > 0:
                print(f"note: {name}.{key} appeared ({cur}, baseline 0)")
            continue
        ratio = cur / base
        if ratio > REGRESSION_FACTOR:
            rc |= fail(
                f"{name}.{key} regressed {ratio:.2f}x ({base} -> {cur}, "
                f"limit {REGRESSION_FACTOR}x)"
            )
        else:
            print(f"ok: {name}.{key} {base} -> {cur} ({ratio:.2f}x)")
    return rc


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        with open(argv[1]) as f:
            current = json.load(f)
        with open(argv[2]) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot load inputs: {e}")
        return 2

    rc = 0
    if current.get("bench") != "bench_re":
        return fail("current file is not a bench_re report")

    rc |= check_counters("e2_totals", current["e2_totals"], baseline["e2_totals"])

    cur_rows = {(r["delta"], r["x"], r["y"]): r for r in current["e2_rows"]}
    for base_row in baseline["e2_rows"]:
        key = (base_row["delta"], base_row["x"], base_row["y"])
        row = cur_rows.get(key)
        if row is None:
            rc |= fail(f"row {key} missing from current report")
            continue
        # Correctness flags must never flip off.
        for flag in ("computed", "relaxation_verified"):
            if base_row[flag] and not row[flag]:
                rc |= fail(f"row {key}: {flag} flipped true -> false")
        rc |= check_counters(f"row {key}", row["stats"], base_row["stats"])

    demo = current.get("budget_demo")
    base_demo = baseline.get("budget_demo")
    if demo and base_demo:
        if not demo["exhausted"]:
            rc |= fail("budget_demo no longer exhausts under its node cap")
        rc |= check_counters(
            "budget_demo",
            {"dfs_nodes": demo["dfs_nodes_at_exhaustion"]},
            {"dfs_nodes": base_demo["dfs_nodes_at_exhaustion"]},
        )

    portfolio = current.get("portfolio_demo")
    if portfolio:
        print(
            f"info: portfolio verdict={portfolio['verdict']} "
            f"winner={portfolio['winner']} (not gated: the winner is a race)"
        )
        if portfolio["verdict"] != "yes":
            rc |= fail("portfolio_demo verdict is not 'yes'")

    sweep = current.get("incremental_sweep_demo")
    base_sweep = baseline.get("incremental_sweep_demo")
    if sweep:
        # Hard gate: the incremental path must return the same verdict as
        # from-scratch on every support of the sweep (schema v3).
        if not sweep["verdicts_match"]:
            rc |= fail("incremental_sweep_demo: incremental/scratch verdicts diverge")
        if sweep["incremental_clauses"] >= sweep["scratch_clauses"]:
            rc |= fail(
                "incremental_sweep_demo: no clause reuse "
                f"({sweep['incremental_clauses']} >= {sweep['scratch_clauses']})"
            )
        print(
            f"info: incremental sweep clauses "
            f"{sweep['incremental_clauses']}/{sweep['scratch_clauses']}, wall "
            f"{sweep['incremental_wall_ms']:.2f}/{sweep['scratch_wall_ms']:.2f} ms "
            f"(wall not gated)"
        )
        if base_sweep:
            base_clauses = base_sweep["incremental_clauses"]
            ratio = sweep["incremental_clauses"] / base_clauses if base_clauses else 1.0
            if ratio > REGRESSION_FACTOR:
                rc |= fail(
                    "incremental_sweep_demo.incremental_clauses regressed "
                    f"{ratio:.2f}x ({base_clauses} -> {sweep['incremental_clauses']})"
                )
            else:
                print(
                    f"ok: incremental_sweep_demo.incremental_clauses "
                    f"{base_clauses} -> {sweep['incremental_clauses']} ({ratio:.2f}x)"
                )
    elif base_sweep:
        rc |= fail("incremental_sweep_demo missing from current report")

    cache = current.get("re_cache_demo")
    base_cache = baseline.get("re_cache_demo")
    if cache:
        # Hard gates (schema v4): caching must never change a verdict, and a
        # warm run over an already-cached sequence must answer every RE step
        # from the cache without any search.
        if not cache["verdicts_match"]:
            rc |= fail("re_cache_demo: verdicts diverge across cache modes")
        if cache["warm_misses"] != 0:
            rc |= fail(f"re_cache_demo: warm run missed {cache['warm_misses']} times")
        if cache["warm_dfs_nodes"] != 0:
            rc |= fail(
                f"re_cache_demo: warm run searched {cache['warm_dfs_nodes']} "
                "dfs nodes (expected 0)"
            )
        if cache["warm_hits"] != cache["steps"]:
            rc |= fail(
                f"re_cache_demo: warm hits {cache['warm_hits']} != "
                f"steps {cache['steps']}"
            )
        if cache["chain_hits"] != cache["chain_steps"] - 1:
            rc |= fail(
                "re_cache_demo: fixed-point chain short-circuit broken "
                f"({cache['chain_hits']} hits over {cache['chain_steps']} steps)"
            )
        if cache["chain_dfs_nodes_after_first"] != 0:
            rc |= fail(
                "re_cache_demo: chain steps after the first still searched "
                f"({cache['chain_dfs_nodes_after_first']} dfs nodes)"
            )
        # The one wall-clock gate in this file: a warm run does a strict
        # subset of the cold run's work (every RE search is skipped), so
        # warm <= cold holds structurally, not just statistically.
        if cache["warm_wall_ms"] > cache["cold_wall_ms"]:
            rc |= fail(
                f"re_cache_demo: warm run slower than cold "
                f"({cache['warm_wall_ms']:.2f} > {cache['cold_wall_ms']:.2f} ms)"
            )
        else:
            print(
                f"ok: re_cache_demo warm/cold wall "
                f"{cache['warm_wall_ms']:.2f}/{cache['cold_wall_ms']:.2f} ms "
                f"({cache['warm_wall_ms'] / max(cache['cold_wall_ms'], 1e-9):.2f}x), "
                f"off {cache['off_wall_ms']:.2f} ms, "
                f"canonicalization {cache['warm_canonical_ms']:.2f} ms"
            )
    elif base_cache:
        rc |= fail("re_cache_demo missing from current report")

    cert = current.get("cert_demo")
    base_cert = baseline.get("cert_demo")
    if cert:
        # Hard gates (schema v5): both certificates must emit, validate, and
        # survive a disk round-trip; the wall-ms fields must exist (they are
        # reported, never gated — emission runs the real searches).
        for flag in ("sequence_valid", "lift_valid", "roundtrip_valid"):
            if not cert[flag]:
                rc |= fail(f"cert_demo: {flag} is false")
        for field in (
            "sequence_emit_wall_ms",
            "sequence_check_wall_ms",
            "lift_emit_wall_ms",
            "lift_check_wall_ms",
        ):
            if not isinstance(cert.get(field), (int, float)):
                rc |= fail(f"cert_demo: {field} missing or non-numeric")
        if cert["lift_proof_steps"] == 0:
            rc |= fail("cert_demo: lift certificate carries an empty DRAT proof")
        if base_cert and cert["sequence_steps"] != base_cert["sequence_steps"]:
            rc |= fail(
                f"cert_demo: sequence_steps changed "
                f"({base_cert['sequence_steps']} -> {cert['sequence_steps']})"
            )
        if rc == 0 or all(cert.get(f) for f in ("sequence_valid", "lift_valid")):
            print(
                f"ok: cert_demo sequence emit/check "
                f"{cert['sequence_emit_wall_ms']:.2f}/{cert['sequence_check_wall_ms']:.2f} ms "
                f"({cert['sequence_bytes']} bytes), lift emit/check "
                f"{cert['lift_emit_wall_ms']:.2f}/{cert['lift_check_wall_ms']:.2f} ms "
                f"({cert['lift_bytes']} bytes, {cert['lift_proof_steps']} proof steps)"
            )
    elif base_cert:
        rc |= fail("cert_demo missing from current report")

    serve = current.get("serve_demo")
    base_serve = baseline.get("serve_demo")
    if serve:
        # Hard gates (schema v7). The service demo overloads a server with an
        # injected wedge (so admission must shed), tears a checkpoint write,
        # restarts, and replays the verdict phase: the restarted server must
        # recover a previous good generation, reproduce every verdict, and
        # leave a loadable final checkpoint. Throughput is reported, never
        # gated.
        if not serve["verdicts_match"]:
            rc |= fail("serve_demo: verdicts diverge across server restarts")
        if serve["admission_rejects"] == 0:
            rc |= fail("serve_demo: overload burst produced no admission rejects")
        if serve["checkpoint_recoveries"] < 1:
            rc |= fail(
                "serve_demo: restart did not recover a checkpoint "
                f"(recovered_from={serve.get('recovered_from')!r})"
            )
        if serve["checkpoint_failures"] == 0:
            rc |= fail("serve_demo: the injected checkpoint tear never fired")
        if not serve["final_checkpoint_valid"]:
            rc |= fail("serve_demo: final flushed checkpoint does not load")
        print(
            f"info: serve_demo {serve['requests']} requests @ "
            f"{serve['requests_per_sec']:.0f} req/s (not gated), ok={serve['ok']}, "
            f"rejects={serve['admission_rejects']}, recovered from "
            f"{serve['recovered_from']}, warm hits={serve['warm_cache_hits']}"
        )
        # Hard gates (schema v9): the socket phase drives the same sweep
        # workload over concurrent loopback connections through the batching
        # dispatcher. Verdicts must reproduce the plain per-request run
        # exactly, and the batcher must have actually coalesced concurrent
        # sweeps (>= 1 group, peak group size >= 2). Throughput and the
        # batched-vs-unbatched dispatch counts are reported, never gated.
        socket = serve.get("socket")
        base_socket = (base_serve or {}).get("socket")
        if socket is None:
            if base_socket is not None or serve.get("requests"):
                rc |= fail("serve_demo.socket missing from current report")
        else:
            if not socket["verdicts_match"]:
                rc |= fail(
                    "serve_demo.socket: socket verdicts diverge from the "
                    "plain per-request run"
                )
            if socket["batch_groups"] < 1:
                rc |= fail("serve_demo.socket: no sweep group was batched")
            if socket["batch_peak"] < 2:
                rc |= fail(
                    "serve_demo.socket: no group held more than one sweep "
                    f"(batch_peak={socket['batch_peak']})"
                )
            print(
                f"info: serve_demo.socket {socket['connections']} connections, "
                f"{socket['requests']} sweeps @ "
                f"{socket['requests_per_sec']:.0f} req/s (not gated): "
                f"{socket['batch_groups']} group(s) of peak "
                f"{socket['batch_peak']} covering "
                f"{socket['batched_requests']} requests vs "
                f"{socket['unbatched_dispatches']} unbatched dispatches"
            )
    elif base_serve:
        rc |= fail("serve_demo missing from current report")

    disc = current.get("discover_demo")
    base_disc = baseline.get("discover_demo")
    if disc:
        # Hard gates (schema v8). The discovery driver must rediscover both
        # workloads (the 2-coloring pump and the Δ'=3 matching chain), every
        # emitted certificate must pass the independent checker, and the
        # threads=4 run must reproduce the threads=1 discovery log and
        # certificate bytes exactly. Walls are reported, never gated.
        if not disc["certs_valid"]:
            rc |= fail("discover_demo: an emitted certificate failed validation")
        if not disc["thread_invariance"]:
            rc |= fail("discover_demo: threads=1 and threads=4 outputs diverge")
        for tag in ("coloring", "matching"):
            sub = disc.get(tag)
            if sub is None:
                rc |= fail(f"discover_demo.{tag} missing")
                continue
            if sub["status"] != "found":
                rc |= fail(
                    f"discover_demo.{tag}: status {sub['status']!r} "
                    "(expected 'found')"
                )
            if sub["certs_emitted"] == 0:
                rc |= fail(f"discover_demo.{tag}: no certificate emitted")
            base_sub = (base_disc or {}).get(tag)
            if base_sub:
                rc |= check_counters(
                    f"discover_demo.{tag}",
                    {"dfs_nodes": sub["nodes"]},
                    {"dfs_nodes": base_sub["nodes"]},
                )
            print(
                f"info: discover[{tag}] {sub['status']} target={sub['target']} "
                f"expansions={sub['expansions']} frontier_peak="
                f"{sub['frontier_peak']} nodes={sub['nodes']} cache "
                f"{sub['cache_hits']}/{sub['cache_misses']} (hits/misses), "
                f"{sub['cert_bytes']} cert bytes, {sub['wall_ms']:.2f} ms "
                f"(wall not gated)"
            )
    elif base_disc:
        rc |= fail("discover_demo missing from current report")

    print("bench_re counters within limits" if rc == 0 else "bench_re check FAILED")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
