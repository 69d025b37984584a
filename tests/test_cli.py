"""End-to-end CLI runs through click's test runner."""

import csv

import numpy as np
import pytest
from click.testing import CliRunner

from slicehardy.cli import CHECKS, main

FAST_CONFIG = """\
[grid]
h = 0.015625

[family]
spec = bumps:count=2
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(FAST_CONFIG)
    return str(path)


def _summary(out_dir):
    rows = {}
    with open(out_dir / "summary.csv") as fh:
        for row in csv.DictReader(fh):
            rows[(row["check"], row["key"])] = row["value"]
    return rows


def test_bmo_facts_writes_expected_value(runner, config_path, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["bmo-facts", "--config", config_path,
                                  "--out", str(out)])
    assert result.exit_code == 0
    rows = _summary(out)
    assert rows[("bmo-facts", "status")] == "pass"
    v = float(rows[("bmo-facts", "bmo_phi")])
    assert v == pytest.approx(np.log(1.0 + np.e), abs=1e-6)
    assert (out / "bmo-facts.csv").exists()


def test_all_with_subset(runner, config_path, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", config_path,
                                  "--check", "norms,lemma888",
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert (out / "norms.csv").exists()
    assert (out / "lemma888.csv").exists()
    assert not (out / "duality.csv").exists()


def test_all_rejects_unknown_subset(runner, config_path, tmp_path):
    result = runner.invoke(main, ["all", "--config", config_path,
                                  "--check", "norms,frobnicate",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


@pytest.mark.parametrize("text", [
    "[grid]\nh = -1\n",
    "[grid]\nh = 0.015625\n[grid]\nn = 1\n",
])
def test_bad_config_exits_2(runner, tmp_path, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    result = runner.invoke(main, ["norms", "--config", str(bad),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error" in result.output


@pytest.mark.parametrize("section,key,value", [
    ("sweep", "center_step", "0"),
    ("sweep", "center_step", "-1"),
    ("sweep", "center_hi", "-5"),
    ("maximal", "dict_size", "0"),
    ("maximal", "ladder_depth", "-1"),
    ("slice", "t", "nan"),
    ("slice", "t", "inf"),
    ("maximal", "b", "nan"),
    ("sweep", "center_step", "nan"),
    ("atomic", "s", "nan"),
])
def test_config_outside_its_hypotheses_exits_2(runner, tmp_path, section,
                                                key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"{FAST_CONFIG}\n[{section}]\n{key} = {value}\n")
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{section}.{key}" in result.output


def test_all_decomposes_once_and_matches_subcommands(runner, config_path,
                                                      tmp_path, monkeypatch):
    """`all` shares one decomposition per member across the three checks
    that use it, and writes the CSVs the separate subcommands write."""
    from slicehardy import cli

    calls = []
    real = cli.cz_decompose
    monkeypatch.setattr(cli, "cz_decompose",
                        lambda *a: calls.append(1) or real(*a))
    names = ["cz-roundtrip", "atom-validation", "duality"]
    joint = tmp_path / "all"
    result = runner.invoke(main, ["all", "--config", config_path,
                                  "--check", ",".join(names),
                                  "--out", str(joint)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2
    for name in names:
        alone = tmp_path / name
        runner.invoke(main, [name, "--config", config_path,
                             "--out", str(alone)])
        assert (alone / f"{name}.csv").read_bytes() == \
            (joint / f"{name}.csv").read_bytes()
    assert len(calls) == 2 + 3 * 2


def test_rerun_is_byte_identical(runner, config_path, tmp_path):
    out = tmp_path / "out"
    args = ["norms", "--config", config_path, "--out", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    first = (out / "norms.csv").read_bytes()
    assert runner.invoke(main, args).exit_code == 0
    assert (out / "norms.csv").read_bytes() == first


def test_seed_changes_family_report(runner, config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    runner.invoke(main, ["norms", "--config", config_path,
                         "--seed", "1", "--out", str(out_a)])
    runner.invoke(main, ["norms", "--config", config_path,
                         "--seed", "2", "--out", str(out_b)])
    assert (out_a / "norms.csv").read_bytes() != \
        (out_b / "norms.csv").read_bytes()


def test_every_check_has_a_subcommand(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in CHECKS:
        assert name in result.output
    assert "all" in result.output
