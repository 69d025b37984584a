"""Output oracle: compare a run's CSV artifacts with committed references.

The reference of a workload is the directory of CSVs that ``slicehardy
all`` wrote for it at the commit that defined the benchmark.  Every cell
is parsed: booleans, numbers, tuples such as the ``band:*`` ``(lo, hi)``
values, and text.  Numbers must agree to ``RTOL`` relative, the ROADMAP's
acceptance tolerance, or to ``ATOL`` absolute: cells that are round-off,
such as moment residuals of 1e-17 or a round-trip error of 7e-16, move by
their whole size when floating-point operations are reordered, and
``ATOL`` lies far below every pass bound (the smallest is 1e-8).
Everything else must be equal.  A check fails when its CSV or its summary
rows differ, or when its summary status is not a pass.
"""

from __future__ import annotations

import ast
import csv
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
SUMMARY = "summary.csv"


def parse_cell(text):
    """A CSV cell as bool, float, tuple of parsed cells, or str."""
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        pass
    if text.startswith("(") and text.endswith(")"):
        try:
            items = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            return text
        if isinstance(items, tuple):
            return tuple(parse_cell(repr(v)) for v in items)
    return text


def read_csv(path):
    with open(path, newline="") as fh:
        return [[parse_cell(c) for c in row] for row in csv.reader(fh)]


def same(ref, out):
    """Cell equality, with numbers compared to RTOL relative or ATOL."""
    if isinstance(ref, tuple) or isinstance(out, tuple):
        return isinstance(ref, tuple) and isinstance(out, tuple) \
            and len(ref) == len(out) \
            and all(same(a, b) for a, b in zip(ref, out))
    if isinstance(ref, float) and isinstance(out, float):
        if math.isnan(ref) or math.isnan(out):
            return math.isnan(ref) and math.isnan(out)
        return math.isclose(ref, out, rel_tol=RTOL, abs_tol=ATOL)
    return type(ref) is type(out) and ref == out


def diff_rows(ref_rows, out_rows):
    """The first difference between two tables, or None."""
    if len(ref_rows) != len(out_rows):
        return f"{len(out_rows)} rows, reference has {len(ref_rows)}"
    for i, (ref, out) in enumerate(zip(ref_rows, out_rows)):
        if len(ref) != len(out):
            return f"row {i}: {len(out)} cells, reference has {len(ref)}"
        for j, (a, b) in enumerate(zip(ref, out)):
            if not same(a, b):
                return f"row {i} cell {j}: {b!r}, reference {a!r}"
    return None


def checks_of(ref_dir):
    """The checks a workload runs: every reference CSV but the summary."""
    return sorted(p.stem for p in Path(ref_dir).glob("*.csv")
                  if p.name != SUMMARY)


def compare(ref_dir, out_dir):
    """Map each check of the reference to its problems (empty: passed)."""
    ref_dir, out_dir = Path(ref_dir), Path(out_dir)
    checks = checks_of(ref_dir)
    problems = {check: [] for check in checks}
    for check in checks:
        path = out_dir / f"{check}.csv"
        if not path.exists():
            problems[check].append("no output")
            continue
        problem = diff_rows(read_csv(ref_dir / f"{check}.csv"),
                            read_csv(path))
        if problem:
            problems[check].append(f"{check}.csv {problem}")
    if not (out_dir / SUMMARY).exists():
        for check in checks:
            problems[check].append("no summary")
        return problems
    ref_summary = _by_check(read_csv(ref_dir / SUMMARY))
    out_summary = _by_check(read_csv(out_dir / SUMMARY))
    for check in checks:
        rows = out_summary.get(check, [])
        problem = diff_rows(ref_summary.get(check, []), rows)
        if problem:
            problems[check].append(f"summary {problem}")
        for row in rows:
            if len(row) == 3 and row[1] == "status" and row[2] != "pass":
                problems[check].append(f"status {row[2]}")
    return problems


def _by_check(rows):
    out = {}
    for row in rows[1:]:
        out.setdefault(row[0], []).append(row)
    return out
