"""Shared evaluator for the bench report checkers (check_bench_*.py).

A checker declares its gates as a table of Sections. A Section names a
dotted path into the report; `key` makes it a list of rows matched to the
baseline's rows by those fields. Each gate reads one field of the section
(or of each row) and yields ok, FAIL, a note, or nothing (skipped because
the baseline predates the field):

  Ratio    at most REGRESSION_FACTOR x the baseline value
  Equal    exactly the baseline value
  Flag     true (stays=True: only required where the baseline is true)
  Cmp      compared with a constant or a sibling field (Sib)
  Present  a field the baseline has is in the report, with the same type

A section or row the baseline has must be in the report; one the baseline
lacks is checked only if the report has it. Fields listed as `info` are
printed, never gated.
"""

import json
import operator
from dataclasses import dataclass

REGRESSION_FACTOR = 2.0

MISSING = object()


def lookup(doc, path):
    for part in path.split(".") if path else ():
        if not isinstance(doc, dict) or part not in doc:
            return MISSING
        doc = doc[part]
    return doc


def shown(value):
    return "missing" if value is MISSING else repr(value)


@dataclass(frozen=True)
class Ratio:
    path: str

    def __str__(self):
        return f"{self.path} <= {REGRESSION_FACTOR}x baseline"

    def check(self, cur, base):
        b, c = lookup(base, self.path), lookup(cur, self.path)
        if b is MISSING:
            return None
        if c is MISSING:
            return "FAIL", "missing from the report"
        if b == 0:
            return ("note", f"baseline 0, now {c}") if c != 0 else None
        ratio = c / b
        return ("ok" if ratio <= REGRESSION_FACTOR else "FAIL"), f"{b} -> {c}, {ratio:.2f}x"


@dataclass(frozen=True)
class Equal:
    path: str

    def __str__(self):
        return f"{self.path} == baseline"

    def check(self, cur, base):
        b, c = lookup(base, self.path), lookup(cur, self.path)
        if b is MISSING:
            return None
        return ("ok" if c == b else "FAIL"), f"{b!r} -> {shown(c)}"


@dataclass(frozen=True)
class Flag:
    path: str
    stays: bool = False

    def __str__(self):
        return f"{self.path} {'stays' if self.stays else 'is'} true"

    def check(self, cur, base):
        if self.stays and not lookup(base, self.path):
            return None
        c = lookup(cur, self.path)
        return ("ok" if c is not MISSING and c else "FAIL"), shown(c)


@dataclass(frozen=True)
class Sib:
    path: str
    offset: int = 0

    def __str__(self):
        if not self.offset:
            return self.path
        return f"{self.path} {'+' if self.offset > 0 else '-'} {abs(self.offset)}"

    def value(self, cur):
        v = lookup(cur, self.path)
        return v if v is MISSING else v + self.offset


OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Cmp:
    path: str
    op: str
    rhs: object

    def __str__(self):
        return f"{self.path} {self.op} {self.rhs if isinstance(self.rhs, Sib) else repr(self.rhs)}"

    def check(self, cur, base):
        c = lookup(cur, self.path)
        r = self.rhs.value(cur) if isinstance(self.rhs, Sib) else self.rhs
        if c is MISSING or r is MISSING:
            return "FAIL", f"{shown(c)} vs {shown(r)}"
        return ("ok" if OPS[self.op](c, r) else "FAIL"), f"{c!r} vs {r!r}"


def kind(value):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


@dataclass(frozen=True)
class Present:
    path: str

    def __str__(self):
        return f"{self.path} present"

    def check(self, cur, base):
        b, c = lookup(base, self.path), lookup(cur, self.path)
        if b is MISSING:
            return None
        ok = c is not MISSING and kind(c) == kind(b)
        return ("ok" if ok else "FAIL"), f"{shown(c)}, baseline type {kind(b)}"


@dataclass(frozen=True)
class Section:
    path: str
    gates: tuple
    key: tuple = ()
    info: tuple = ()


def index_rows(rows, key):
    if not isinstance(rows, list):
        return {}
    return {tuple(r.get(k) for k in key): r for r in rows if isinstance(r, dict)}


def row_label(path, key):
    return f"{path}[{key[0]!r}]" if len(key) == 1 else f"{path}[{key}]"


def check_doc(where, sec, cur, base):
    """Runs the gates of `sec` on one section or row; True iff one failed."""
    failed = False
    for gate in sec.gates:
        try:
            outcome = gate.check(cur, base)
        except (TypeError, ValueError) as e:
            outcome = "FAIL", f"not comparable: {e}"
        if outcome is not None:
            status, detail = outcome
            print(f"{status}: {where}: {gate} ({detail})")
            failed |= status == "FAIL"
    shown_info = [f"{f}={lookup(cur, f)}" for f in sec.info if lookup(cur, f) is not MISSING]
    if shown_info:
        print(f"info: {where}: {' '.join(shown_info)} (not gated)")
    return failed


def evaluate(current, baseline, sections):
    """Runs every section's gates; returns True iff a gate failed."""
    failed = False
    for sec in sections:
        cur, base = lookup(current, sec.path), lookup(baseline, sec.path)
        where = sec.path or "report"
        if cur is MISSING:
            if base is not MISSING:
                print(f"FAIL: {where} is in the baseline but missing from the report")
                failed = True
            continue
        if not sec.key:
            failed |= check_doc(where, sec, cur, base)
            continue
        if not isinstance(cur, list):
            print(f"FAIL: {where} is not a list of rows")
            failed = True
            continue
        cur_rows, base_rows = index_rows(cur, sec.key), index_rows(base, sec.key)
        for key in [k for k in base_rows if k not in cur_rows]:
            print(f"FAIL: {row_label(sec.path, key)} is in the baseline but missing from the report")
            failed = True
        for key, row in cur_rows.items():
            failed |= check_doc(row_label(sec.path, key), sec, row, base_rows.get(key, MISSING))
    return failed


def run(argv, usage, report, sections):
    """The checker CLI: exit 0 ok, 1 a gate failed, 2 bad input."""
    if len(argv) != 3:
        print(usage)
        return 2
    try:
        docs = []
        for path in argv[1:]:
            with open(path) as f:
                docs.append(json.load(f))
    except (OSError, ValueError) as e:
        print(f"cannot load inputs: {e}")
        return 2
    if not all(isinstance(d, dict) for d in docs):
        print("cannot load inputs: a report must be a JSON object")
        return 2
    failed = evaluate(docs[0], docs[1], sections)
    print(f"{report} check FAILED" if failed else f"{report}: every gate passed")
    return 1 if failed else 0
