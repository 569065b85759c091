#!/usr/bin/env python3
"""Self-test of the bench report checkers and their gate tables.

For each checker (check_bench_re.py, check_bench_sim.py):
  - the committed baseline checked against itself exits 0;
  - for every gate of the table, a copy of the baseline mutated so that
    exactly that gate fails exits 1, and every FAIL line names the gate;
    so does a copy without one of its sections (or rows);
  - unreadable input (missing file, malformed JSON, wrong arguments) exits 2.
The gate count of each table is pinned, so a dropped gate shows here.

Usage: test_check_bench.py   (exit 0 iff every case passes)
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

import bench_gates
import check_bench_re
import check_bench_sim
from bench_gates import Cmp, Equal, Flag, Present, Ratio, Sib, lookup

TOOLS = pathlib.Path(__file__).resolve().parent
BENCH = TOOLS.parent / "bench"

CHECKERS = (
    # (module, baseline, gates in its table)
    (check_bench_re, BENCH / "BENCH_RE.baseline.json", 55),
    (check_bench_sim, BENCH / "BENCH_SIM.baseline.json", 11),
)

DELETE = object()


def changed(value):
    """A value of the same JSON type that differs from `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "x"
    return value + 1


def violations(gate, doc):
    """Candidate (path, new value) edits of one section or row `doc` of the
    baseline that make `gate` fail."""
    v = lookup(doc, gate.path)
    if isinstance(gate, Ratio):
        if v:
            yield gate.path, type(v)(v * bench_gates.REGRESSION_FACTOR + 1)
    elif isinstance(gate, Equal):
        yield gate.path, changed(v)
    elif isinstance(gate, Flag):
        if v:
            yield gate.path, False
    elif isinstance(gate, Present):
        yield gate.path, DELETE
    elif isinstance(gate, Cmp):
        sib = gate.rhs if isinstance(gate.rhs, Sib) else None
        r = sib.value(doc) if sib else gate.rhs
        yield gate.path, {"==": changed, "!=": same, "<": same, "<=": above,
                          ">=": below}[gate.op](r)
        if sib:
            # Or move the sibling: the field then compares wrongly with it.
            bad = {"==": changed, "!=": same, "<": same, "<=": below, ">=": above}[gate.op]
            yield sib.path, bad(v) - sib.offset
    else:
        raise AssertionError(f"unknown gate kind {gate!r}")


def same(value):
    return value


def above(value):
    return value + 1


def below(value):
    return value - 1


def edit(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[keys[-1]]
    else:
        doc[keys[-1]] = value


def run_checker(module, current, baseline_path):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(current, f)
    try:
        proc = subprocess.run([sys.executable, module.__file__, f.name, str(baseline_path)],
                              capture_output=True, text=True, check=False)
    finally:
        pathlib.Path(f.name).unlink()
    fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL:")]
    return proc.returncode, fails


def targets(module, baseline):
    """Yields (target, candidates) for every gate of the table and for the
    deletion of every section (and of a row). A candidate is (text its FAIL
    line must hold, keys from the report root to the field, new value)."""
    for sec in module.SECTIONS:
        where = sec.path or "report"
        prefix = sec.path.split(".") if sec.path else []
        base = lookup(baseline, sec.path)
        if sec.key:
            rows = [(bench_gates.row_label(sec.path, tuple(r[k] for k in sec.key)),
                     prefix + [i], r) for i, r in enumerate(base)]
            yield f"{where} rows", [(label, keys, DELETE) for label, keys, _ in rows]
        else:
            rows = [(where, prefix, base)]
            if sec.path:
                yield where, [(where, prefix, DELETE)]
        for gate in sec.gates:
            yield f"{where}: {gate}", [(f"{label}: {gate}", keys + path.split("."), value)
                                       for label, keys, row in rows
                                       for path, value in violations(gate, row)]


def main():
    errors = []
    for module, baseline_path, want_gates in CHECKERS:
        name = pathlib.Path(module.__file__).name
        baseline = json.loads(baseline_path.read_text())
        gates = sum(len(sec.gates) for sec in module.SECTIONS)
        if gates != want_gates:
            errors.append(f"{name}: table has {gates} gates, expected {want_gates}")

        rc, fails = run_checker(module, baseline, baseline_path)
        if rc != 0 or fails:
            errors.append(f"{name}: baseline vs itself exited {rc}: {fails}")

        cases = 0
        for target, candidates in targets(module, baseline):
            for want, keys, value in candidates:
                doc = copy.deepcopy(baseline)
                edit(doc, keys, value)
                rc, fails = run_checker(module, doc, baseline_path)
                if rc == 1 and fails and all(want in line for line in fails):
                    cases += 1
                    break
            else:
                errors.append(f"{name}: no edit makes '{target}' fail alone")
        print(f"{name}: {cases} gates and sections each fail alone")

        with tempfile.TemporaryDirectory() as tmp:
            bad = pathlib.Path(tmp) / "bad.json"
            bad.write_text("{ not json")
            for args in ([str(pathlib.Path(tmp) / "absent.json"), str(baseline_path)],
                         [str(bad), str(baseline_path)],
                         [str(baseline_path), str(bad)],
                         [str(baseline_path)]):
                proc = subprocess.run([sys.executable, module.__file__, *args],
                                      capture_output=True, text=True, check=False)
                if proc.returncode != 2:
                    errors.append(f"{name} {args}: exited {proc.returncode}, expected 2")

    for error in errors:
        print(f"FAIL: {error}")
    print("bench checker self-test FAILED" if errors else "bench checker self-test passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
