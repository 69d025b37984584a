import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from oracle import checks_of, compare, parse_cell, read_csv, same  # noqa: E402

REF = BENCH / "reference" / "scenario_power"


def _perturb(value, eps):
    if isinstance(value, tuple):
        return repr(tuple(v * (1.0 + eps) for v in value))
    if isinstance(value, float):
        return repr(value * (1.0 + eps))
    return str(value)


def _perturbed_copy(tmp_path, eps):
    out = tmp_path / "out"
    out.mkdir()
    for path in REF.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(out / path.name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow([_perturb(parse_cell(c), eps) for c in row])
    return out


def test_parse_cell_kinds():
    assert parse_cell("True") is True
    assert parse_cell("1e-08") == 1e-08
    assert parse_cell("(0.5, 0.75)") == (0.5, 0.75)
    assert parse_cell("pass") == "pass"
    assert parse_cell("band:radial/grand") == "band:radial/grand"


def test_reference_passes_against_itself():
    problems = compare(REF, REF)
    assert set(problems) == set(checks_of(REF))
    assert len(problems) == 9
    assert not any(problems.values())


def test_tiny_perturbation_passes(tmp_path):
    out = _perturbed_copy(tmp_path, 1e-12)
    assert read_csv(out / "summary.csv") != read_csv(REF / "summary.csv")
    assert not any(compare(REF, out).values())


def test_perturbation_above_tolerance_fails_every_check(tmp_path):
    problems = compare(REF, _perturbed_copy(tmp_path, 1e-8))
    assert all(problems.values()), problems


def test_band_tuple_change_is_caught(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(REF, out)
    text = (out / "summary.csv").read_text()
    assert "(0.5503785953814739, " in text
    (out / "summary.csv").write_text(
        text.replace("(0.5503785953814739, ", "(0.5503785963814739, ", 1))
    problems = compare(REF, out)
    assert problems["maximal-equivalence"]
    assert not any(p for c, p in problems.items()
                   if c != "maximal-equivalence")


def test_fail_status_and_missing_output_fail_their_check(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(REF, out)
    text = (out / "summary.csv").read_text()
    (out / "summary.csv").write_text(
        text.replace("duality,status,pass", "duality,status,fail"))
    (out / "lemma888.csv").unlink()
    problems = compare(REF, out)
    failed = sorted(c for c, p in problems.items() if p)
    assert failed == ["duality", "lemma888"]


def test_round_off_cells_compare_absolutely():
    assert same(1.077771443889949e-16, 2.155542887779898e-16)
    assert same(0.0, 3e-16)
    assert not same(0.0, 1e-11)
    # The floor does not hide a real change in a small cell.
    assert not same(4.67e-05, 4.67e-05 * (1.0 + 1e-6))


def test_doubled_moment_residual_passes(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(REF, out)
    text = (out / "atom-validation.csv").read_text()
    row = "4,-15,2,moments,1.077771443889949e-16,"
    assert row in text
    (out / "atom-validation.csv").write_text(text.replace(
        row, "4,-15,2,moments,2.155542887779898e-16,"))
    assert not any(compare(REF, out).values())


def test_every_workload_has_a_scenario_and_a_reference():
    from scenario import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        assert checks_of(BENCH / "reference" / workload)


@pytest.mark.parametrize("text", ["(1.0, nope)", "(unclosed"])
def test_malformed_tuple_stays_text(text):
    assert parse_cell(text) == text
