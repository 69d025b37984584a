"""End-to-end CLI runs through click's test runner."""

import configparser
import csv
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from slicehardy import orlicz
from slicehardy.atomic import require_aggregation, require_degree, \
    require_size_exponent, require_tol_moment
from slicehardy.cli import CHECKS, main
from slicehardy.config import broken, load_config
from slicehardy.errors import ConfigError, SliceHardyError, \
    require_positive, require_resolution, require_spacing
from slicehardy.families import parse_spec
from slicehardy.kernels import modulated_profiles, scale_ladder
from slicehardy.maximal import require_grand_order, require_hardy, \
    require_hardy_amalgam
from slicehardy.slice_norms import require_fefferman_stein

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


@pytest.mark.parametrize("check", ["norms", "cz-roundtrip"])
def test_huge_q_writes_finite_cells(runner, tmp_path, check):
    """[slice] q = 1e300 takes each q-mean's max limit: the run passes
    with finite cells and no warning (the cube norms of cz-roundtrip's
    atom scales are not 0)."""
    path = tmp_path / "scenario.ini"
    path.write_text(FAST_CONFIG + "[slice]\nq = 1e300\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [check, "--config", str(path), "--out",
                                  str(out)])
    assert result.exit_code == 0, result.output
    with open(out / f"{check}.csv") as fh:
        cells = [float(c) for row in list(csv.reader(fh))[1:] for c in row]
    assert cells and np.all(np.isfinite(cells))


def test_size_exponent_past_the_float_range_is_named(runner, tmp_path):
    """[atomic] r = 1e-10: the atoms' L^r sizes pass the float range, a
    named error, exit 2."""
    path = tmp_path / "scenario.ini"
    path.write_text(FAST_CONFIG + "[atomic]\nr = 1e-10\n")
    result = runner.invoke(main, ["atom-validation", "--config", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "error: p-mean at p = 1e-10 passes the float range" \
        in result.output


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


def test_bmo_facts_two_dimensional(runner, tmp_path):
    """The constant field of bmo-facts lives on the grid's dimension."""
    config = tmp_path / "grid2d.ini"
    config.write_text("[grid]\nn = 2\nh = 0.125\n"
                      "[maximal]\nladder_depth = 2\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--check", "bmo-facts", "--config",
                                  str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _summary(out)
    assert rows[("bmo-facts", "status")] == "pass"
    v = float(rows[("bmo-facts", "bmo_phi")])
    assert v == pytest.approx(np.log(1.0 + np.e), abs=1e-6)


@pytest.mark.parametrize("checks", ["duality,lemma888",
                                    "duality,embeddings,lemma888"])
def test_duality_and_embeddings_two_dimensional(runner, tmp_path, checks):
    """The duality fields and the embeddings family are drawn from
    generators of the grid's dimension, so a 2-D run passes and writes
    its summary."""
    config = tmp_path / "grid2d.ini"
    config.write_text("[grid]\nn = 2\nh = 0.125\n"
                      "[functional]\ntag = log_damped\n[slice]\nt = 0.5\n"
                      "q = 1\n[maximal]\nb = 5\nN = 6\nladder_depth = 2\n"
                      "[family]\nspec = bumps:count=1\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--check", checks, "--config",
                                  str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    status = {check: value for (check, key), value in _summary(out).items()
              if key == "status"}
    assert status == dict.fromkeys(checks.split(","), "pass")


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


#: FAST_CONFIG (n = 1, h = 2^-6, power:2, q = 2, b = 2.5, N = 3, s = 0.9)
#: with one key set outside its hypothesis, and the library guard's call
#: on the same values
CONFIG_HYPOTHESES = {
    ("maximal", "dict_size", "0"): lambda: modulated_profiles(1, 0),
    ("maximal", "ladder_depth", "-1"): lambda: scale_ladder(-1, 2.0 ** -6),
    ("slice", "t", "0.02"):
        lambda: require_resolution(0.02, 2.0 ** -6, "slice radius"),
    ("maximal", "b", "1"): lambda: require_hardy(1.0, 1, 2.0, 2.0),
    ("maximal", "N", "2"): lambda: require_grand_order(2, 2.5),
    ("atomic", "s", "0"): lambda: require_aggregation(0.0, 2.0, 2.0),
    ("atomic", "d", "-1"): lambda: require_degree(-1, 1, 0.9),
    ("maximal", "ladder_depth", "6"): lambda: scale_ladder(6, 2.0 ** -6),
    ("maximal", "dict_size", "9"): lambda: modulated_profiles(1, 9),
}


#: the library guard of each key domain, the one the object that takes the
#: value calls, as a call on the value
DOMAIN_GUARDS = {
    ("grid", "h"): require_spacing,
    ("slice", "t"): lambda v: require_positive(t=v),
    ("slice", "q"): lambda v: require_positive(q=v),
    ("maximal", "a"): lambda v: require_positive(aperture=v),
    ("maximal", "b"): lambda v: require_positive(b=v),
    ("atomic", "r"): require_size_exponent,
    ("atomic", "c0"): lambda v: require_positive(c0=v),
    ("atomic", "tol_moment"): require_tol_moment,
    ("sweep", "center_step"): lambda v: require_positive(step=v),
}

#: FAST_CONFIG with one key set outside its domain, NaN and an infinity
#: among the values, and the call of the key's library guard on the value
CONFIG_DOMAINS = {
    (section, key, value): lambda guard=guard, value=value: guard(float(value))
    for (section, key), guard in DOMAIN_GUARDS.items()
    for value in ("-1", "nan", "-inf" if key == "r" else "inf")
}
CONFIG_DOMAINS["family", "spec", "sawtooth:count=3"] = \
    lambda: parse_spec("sawtooth:count=3", 1)


def _bad_config(tmp_path, section, key, value):
    """FAST_CONFIG with section.key set to value, written to a file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(FAST_CONFIG)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    bad = tmp_path / "bad.ini"
    with open(bad, "w") as fh:
        parser.write(fh)
    return bad


def _guard_message(call):
    """str() of the named error the guard call raises."""
    with pytest.raises(SliceHardyError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("section,key,value", [
    ("sweep", "center_step", "0"),
    ("sweep", "center_step", "-1"),
    ("sweep", "center_hi", "-5"),
    ("slice", "t", "nan"),
    ("slice", "t", "inf"),
    ("maximal", "b", "nan"),
    ("sweep", "center_step", "nan"),
    ("atomic", "s", "nan"),
    ("slice", "q", "0"),
    ("atomic", "r", "0"),
    ("atomic", "r", "-1"),
    ("maximal", "a", "0"),
    ("maximal", "a", "-1"),
    ("functional", "tag", "foo"),
    ("functional", "tag", "power:abc"),
    ("functional", "tag", "power:-1"),
    ("functional", "tag", "musielak_log"),
    ("grid", "n", "3"),
    ("sweep", "side_exp_lo", "0"),
    ("sweep", "side_exp_lo", "-1075"),
    ("sweep", "side_exp_hi", "40"),
    ("sweep", "center_step", "1e-4"),
    ("atomic", "tol_moment", "-1"),
    ("atomic", "c0", "0"),
] + list(CONFIG_HYPOTHESES))
def test_config_outside_its_hypotheses_exits_2(runner, tmp_path, section,
                                                key, value):
    """FAST_CONFIG with one key set: a config error naming the key, raised
    before the output directory exists."""
    bad = _bad_config(tmp_path, section, key, value)
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{section}.{key}" in result.output
    assert not (tmp_path / "out").exists()


def test_sweep_box_beyond_its_cap_exits_2_before_any_output(runner,
                                                           tmp_path):
    """Three centers 1e7 apart on a 2-D grid of h = 1/8: 1.6e8 cells per
    axis in the box that holds the sweep, which bmo-facts would embed."""
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn = 2\nh = 0.125\n[functional]\n"
                   "tag = log_damped\n[slice]\nt = 0.5\nq = 1\n"
                   "[maximal]\nb = 5\nN = 6\nladder_depth = 2\n"
                   "[family]\nspec = bumps:count=1\n[sweep]\n"
                   "center_lo = -1e7\ncenter_hi = 1e7\ncenter_step = 1e7\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", str(bad), "--check",
                                  "bmo-facts", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "sweep.center_lo" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", list(CHECKS) + ["all"])
def test_negative_seed_exits_2_before_any_output(runner, tmp_path, command):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    "bumps:count=abc",
    "translates:R=a,b",
    "indicator-ladder:M=x",
    "sawtooth:count=3",
])
def test_malformed_family_spec_exits_2_before_any_csv(runner, tmp_path,
                                                       spec):
    bad = tmp_path / "bad.ini"
    bad.write_text(FAST_CONFIG.replace("bumps:count=2", spec))
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "family.spec" in result.output
    assert not out.exists()


@pytest.mark.parametrize("n, spec", [
    (1, "bumps:count=0"),
    (1, "bumps:count=-3"),
    (1, "bursts:count=0"),
    (1, "indicator-ladder:M=-1"),
    (2, "bursts:count=1"),
    (2, "indicator-ladder:M=2"),
    (2, "translates:R=0,4"),
])
def test_family_without_members_or_of_another_dimension_exits_2(
        runner, tmp_path, n, spec):
    """An empty family, or a 1-D generator on a 2-D grid, is a config
    error naming family.spec, raised before the output directory exists."""
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[grid]\nn = {n}\nh = 0.015625\n"
                   f"[family]\nspec = {spec}\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "family.spec" in result.output
    assert not out.exists()


@pytest.mark.parametrize("check", ["maximal-equivalence", "fefferman-stein"])
def test_slice_radius_below_4h_exits_2_for_checks_at_half_t(runner, tmp_path,
                                                            check):
    """t = 2h validates, but a check that evaluates at t/2 cannot run: a
    config error naming slice.t, raised before the output directory
    exists."""
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[slice]\nt = 0.0078125\n[checks]\nrun = {check}\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "slice.t" in result.output and check in result.output
    assert not out.exists()


#: a config that breaks one hypothesis of a check, by (check, key)
BROKEN_HYPOTHESES = {
    ("fefferman-stein", "functional.tag"):
        f"{FAST_CONFIG}[functional]\ntag = log_damped\n",
    ("fefferman-stein", "slice.q"): f"{FAST_CONFIG}[slice]\nq = 1\n",
    ("fefferman-stein", "slice.t"): f"{FAST_CONFIG}[slice]\nt = 0.03125\n",
    ("maximal-equivalence", "slice.t"):
        f"{FAST_CONFIG}[slice]\nt = 0.03125\n",
    ("embeddings", "maximal.b"): "[grid]\nn = 2\nh = 0.25\n[maximal]\n"
                                 "b = 3\nN = 4\nladder_depth = 1\n"
                                 "[family]\nspec = bumps:count=1\n",
}


@pytest.mark.parametrize("how", ["subcommand", "--check", "[checks] run"])
@pytest.mark.parametrize("check, key", list(BROKEN_HYPOTHESES))
def test_named_check_outside_its_hypotheses_exits_2(runner, tmp_path, how,
                                                    check, key):
    """The config validates, but a check the user named cannot run on it:
    a config error naming the key and the check, raised before the
    output directory exists."""
    text = BROKEN_HYPOTHESES[check, key]
    args = {"subcommand": [check], "--check": ["all", "--check", check],
            "[checks] run": ["all"]}[how]
    if how == "[checks] run":
        text += f"[checks]\nrun = {check}\n"
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(main, args + ["--config", str(bad),
                                         "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert key in result.output and check in result.output
    assert not out.exists()


@pytest.mark.parametrize("check, key", list(BROKEN_HYPOTHESES))
def test_default_check_outside_its_hypotheses_is_skipped(runner, tmp_path,
                                                         check, key):
    """With no checks named, a check whose hypotheses fail is skipped: the
    summary records the skip and the key, and every other check runs."""
    bad = tmp_path / "bad.ini"
    bad.write_text(BROKEN_HYPOTHESES[check, key])
    out = tmp_path / "out"
    result = runner.invoke(main, ["all", "--config", str(bad),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _summary(out)
    assert rows[(check, "status")] == "skipped"
    assert rows[(check, "reason")].startswith(f"{key}: ")
    assert not (out / f"{check}.csv").exists()
    status = {c: v for (c, k), v in rows.items() if k == "status"}
    assert set(status) == set(CHECKS) - {"norms"}
    assert set(status.values()) == {"pass", "skipped"}


#: the library guard's call on the values of each BROKEN_HYPOTHESES config
BROKEN_GUARDS = {
    ("fefferman-stein", "functional.tag"):
        lambda: require_fefferman_stein(p_minus=orlicz.log_damped().p_minus),
    ("fefferman-stein", "slice.q"): lambda: require_fefferman_stein(q=1.0),
    ("fefferman-stein", "slice.t"):
        lambda: require_resolution(0.015625, 2.0 ** -6, "slice radius"),
    ("maximal-equivalence", "slice.t"):
        lambda: require_resolution(0.015625, 2.0 ** -6, "slice radius"),
    ("embeddings", "maximal.b"): lambda: require_hardy_amalgam(3.0, 2),
}


@pytest.mark.parametrize("row", list(CONFIG_DOMAINS)
                         + list(CONFIG_HYPOTHESES) + list(BROKEN_HYPOTHESES),
                         ids="-".join)
def test_hypothesis_message_is_the_library_guards(runner, tmp_path, row):
    """Each key domain and each hypothesis has one home, its library guard:
    the text after "{key}: " in the config error, and in a skipped check's
    reason, is exactly the guard's error on the same values, and a named
    check that breaks it ends its error with that text."""
    if len(row) == 3:
        section, key, value = row
        expected = _guard_message({**CONFIG_DOMAINS, **CONFIG_HYPOTHESES}[row])
        with pytest.raises(ConfigError) as exc:
            load_config(_bad_config(tmp_path, section, key, value))
        assert str(exc.value) == f"{section}.{key}: {expected}"
        return
    check, key = row
    expected = _guard_message(BROKEN_GUARDS[row])
    bad = tmp_path / "bad.ini"
    bad.write_text(BROKEN_HYPOTHESES[row])
    assert dict(broken(CHECKS[check].hypotheses, load_config(bad)))[key] \
        == expected
    result = runner.invoke(main, [check, "--config", str(bad),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert result.output == (f"error: {key} breaks a hypothesis of "
                             f"{check}: {expected}\n")


@pytest.mark.parametrize("order", [1, -1])
def test_all_decomposes_once_and_matches_subcommands(runner, config_path,
                                                      tmp_path, monkeypatch,
                                                      peetre_builds, order):
    """`all` shares one decomposition per member across the three checks
    that use it, and one Peetre field per distinct sample array across
    the three that use that (the embeddings' whole-cell translates share
    one), in either order; it writes the CSVs the separate subcommands
    write."""
    from slicehardy import cli

    calls = []
    real = cli.cz_decompose
    monkeypatch.setattr(cli, "cz_decompose",
                        lambda *a: calls.append(1) or real(*a))
    names = ["maximal-equivalence", "cz-roundtrip", "atom-validation",
             "duality", "embeddings"][::order]
    joint = tmp_path / "all"
    result = runner.invoke(main, ["all", "--config", config_path,
                                  "--check", ",".join(names),
                                  "--out", str(joint)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 2
    builds = [f.values.tobytes() for f in peetre_builds]
    assert len(builds) == len(set(builds)) == 2 + 1
    for name in names:
        alone = tmp_path / name
        runner.invoke(main, [name, "--config", config_path,
                             "--out", str(alone)])
        assert (alone / f"{name}.csv").read_bytes() == \
            (joint / f"{name}.csv").read_bytes()
    assert len(calls) == 2 + 3 * 2


def test_run_shares_one_peetre_field_between_whole_cell_translates(
        config_path, peetre_builds):
    """The run's MaximalParams keys Peetre fields on sample values: a
    whole-cell translate gets the shared read-only values back on its own
    padded grid, as peetre_maximal gives them bit for bit, and
    maximal_fields reads them from there; each distinct sample array is
    computed once."""
    from slicehardy import cli, maximal
    from slicehardy.config import load_config
    from slicehardy.families import generate_family

    run = cli.Run(load_config(config_path), 0)
    mp = run.maximal
    near, far = generate_family("translates:R=0,16", 0, run.cfg.h)
    first = mp.peetre_fields([near])[0]
    shared = mp.peetre_fields([far])[0]
    for f, m in ((near, first), (far, shared)):
        alone = maximal.peetre_maximal(f, mp.dictionary.phi, mp.b,
                                       mp.ladder, mp.eps_cut,
                                       mp.pad_cells(f.h))
        assert np.array_equal(m.origin, alone.origin)
        assert np.array_equal(m.values, alone.values)
    assert shared.values is first.values and not shared.values.flags.writeable
    fields = maximal.maximal_fields([far], mp)
    assert fields[0]["peetre"].values is shared.values
    assert len(peetre_builds) == 1 and peetre_builds[0] is near


def test_default_run_convolves_each_kernel_once_per_scale(runner, tmp_path,
                                                          monkeypatch):
    """The default scenario (10 members, 4 scales, 3 kernels): the four
    maximal functions besides the Peetre one share one convolved row per
    kernel, scale and member, and every Peetre field is convolved and
    swept once per scale and distinct sample array (11 of them), plus the
    grand Peetre sweeps of maximal-equivalence.  A call takes a stack of
    1-D members, so the counts are of member rows."""
    from slicehardy import maximal

    counts = {"convolve": 0, "sweep": 0}

    def counted(name, fn):
        def call(values, *args, **kwargs):
            counts[name] += values.size // values.shape[-1]
            return fn(values, *args, **kwargs)
        return call

    monkeypatch.setattr(maximal, "convolve",
                        counted("convolve", maximal.convolve))
    monkeypatch.setattr(maximal, "_peetre_sweep",
                        counted("sweep", maximal._peetre_sweep))
    result = runner.invoke(main, ["all", "--check",
                                  "maximal-equivalence,cz-roundtrip,"
                                  "embeddings", "--out",
                                  str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    # maximal-equivalence 10 * 4 * 3 convolutions, cz-roundtrip's
    # decompositions 10 * 4 * 3, the Peetre fields of the 10 members and
    # of one more array (the translates) 11 * 4
    assert counts == {"convolve": 120 + 120 + 11 * 4,
                      "sweep": 10 * 4 + 11 * 4}


@pytest.mark.parametrize("order", [1, -1])
def test_default_run_makes_each_peetre_field_once(runner, tmp_path,
                                                  monkeypatch, peetre_builds,
                                                  order):
    """A default `all` run, in either order of the nine checks, makes a
    Peetre field once per distinct sample array (the 10 members and the
    embeddings' translates), and sweeps 84 member-scales: 11 * 4 for
    those fields and 10 * 4 for the grand Peetre fields of
    maximal-equivalence.  A sweep takes a stack of 1-D members, one row
    each."""
    from slicehardy import maximal

    sweeps, sweep = [], maximal._peetre_sweep
    monkeypatch.setattr(
        maximal, "_peetre_sweep", lambda absc, *a, **k:
        sweeps.append(absc.size // absc.shape[-1]) or sweep(absc, *a, **k))
    result = runner.invoke(main, ["all", "--check",
                                  ",".join(list(CHECKS)[::order]),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    fields = [f.values.tobytes() for f in peetre_builds]
    assert len(fields) == len(set(fields)) == 11
    assert sum(sweeps) == 84


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


def test_cli_import_leaves_out_scipy_signal_and_stats():
    """Neither scipy.signal nor scipy.stats is imported on start-up: they
    cost more than the rest of the package's imports together."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = ("import sys, slicehardy.cli; print(sorted(m for m in "
             "('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_atom_validation_evaluates_one_cube_norm_per_side(config_path,
                                                          monkeypatch):
    """The run's SliceParams, whose cube-indicator memo the decompositions
    share, solves once per distinct cube size in cells, and the rows are
    those of validating each atom alone."""
    from slicehardy import cli, slice_norms
    from slicehardy.atomic import validate_atom
    from slicehardy.config import load_config

    run = cli.Run(load_config(config_path), 0)
    h = run.cfg.h
    solved = []
    solve = slice_norms.cube_indicator_slice_norm

    def counted(p, cells, h, n):
        solved.append(cells)
        return solve(p, cells, h, n)

    monkeypatch.setattr(slice_norms, "cube_indicator_slice_norm", counted)
    atoms = [atom for _, dec in run.decompositions() for atom in dec.entries]
    report, _ = CHECKS["atom-validation"](run, {})
    cells = {max(round(atom.cube.side / h), 1) for atom in atoms}
    assert len(atoms) > len(cells) > 1
    assert sorted(solved) == sorted(cells)
    monkeypatch.undo()
    params = run.cfg.cz_params(run.maximal)
    alone = [row for atom in atoms
             for row in validate_atom(atom, params).rows]
    assert [row[3:] for row in report.rows] == alone


def test_default_run_solves_each_cube_side_once(runner, tmp_path,
                                               monkeypatch):
    """A default `all` run shares one SliceParams, and so one
    cube-indicator memo, between the decompositions, the atomic
    quasi-norms, atom validation and the Campanato pairing bounds: one
    solve per distinct cube side."""
    from slicehardy import slice_norms

    cells = []
    solve = slice_norms.cube_indicator_slice_norm

    def counted(p, side_cells, h, n):
        cells.append(side_cells)
        return solve(p, side_cells, h, n)

    monkeypatch.setattr(slice_norms, "cube_indicator_slice_norm", counted)
    result = runner.invoke(main, ["all", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert len(cells) == len(set(cells)) > 1


def test_default_run_builds_one_kernel_dictionary(runner, tmp_path,
                                                  monkeypatch):
    """The run's MaximalParams, built once, serves every check and the
    decompositions."""
    from slicehardy import config, kernels

    calls = []
    build = kernels.build_dictionary

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(kernels, "build_dictionary", counted)
    monkeypatch.setattr(config, "build_dictionary", counted)
    result = runner.invoke(main, ["all", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_benchmark_probe_runs_on_the_default_config():
    """perfbench/scenario.py's Peetre probe reads the ladder, b, eps_cut
    and dictionary.phi of cfg.maximal_params()."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "scenario.py")
    spec = importlib.util.spec_from_file_location("perfbench_scenario", path)
    scenario = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenario)
    probe = scenario._probe(load_config())
    assert probe["ok"], probe["error"]


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_leaves_out_scipy():
    """No scipy module at all is loaded on start-up."""
    out = _python("import sys, slicehardy.cli; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


#: runs `slicehardy all ARGS` and prints whether numpy.ma was imported
_NUMPY_MA_RUN = """\
import sys
from slicehardy.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("numpy.ma" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("config", [None, "scenario_logdamped.ini"])
def test_all_leaves_numpy_ma_unimported(config, tmp_path):
    """numpy.ma, which np.unique and np.setdiff1d import on their first
    call in NumPy 2.4, raised the default run's peak RSS from 44.4 to
    45.2 MB; `slicehardy all` on the defaults and on the gauge-heavy
    benchmark workload never imports it."""
    args = ["all", "--out", str(tmp_path / "out")]
    if config:
        args += ["--config", os.path.join(os.path.dirname(__file__),
                                          os.pardir, "perfbench",
                                          "workloads", config)]
    out = _python(_NUMPY_MA_RUN, *args)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


#: runs `slicehardy all ARGS` with scipy unimportable, and prints how often
#: each NumPy replacement of a SciPy routine ran (ball_reduce by the ball's
#: dimension, op and dtype) and which scipy modules were loaded
_NO_SCIPY_RUN = """\
import json, sys
sys.modules["scipy"] = None
from slicehardy import atomic, kernels, maximal, slice_norms
from slicehardy.cli import main
hits = {}
def count(modules, name, key):
    fn = getattr(modules[0], name)
    def counted(*args):
        k = key(*args)
        hits[k] = hits.get(k, 0) + 1
        return fn(*args)
    for module in modules:
        setattr(module, name, counted)
count([kernels], "convolve_same", lambda *args: "fft")
count([slice_norms, maximal], "ball_reduce", lambda values, mask, op:
      f"ball_reduce {mask.ndim}-D {op.__name__} {values.dtype}")
count([atomic], "_edt", lambda *args: "edt")
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"hits": hits, "scipy": sorted(
    m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])}))
sys.exit(code)
"""


def test_all_runs_without_scipy_in_1d_and_2d(config_path, tmp_path):
    """With scipy unimportable, a small 1-D and a small 2-D run exit 0,
    and between them reach every NumPy replacement: the FFT, the distance
    transform and ball_reduce's window maxima, power-Phi sums and int64
    cube counts, each in 1-D and 2-D."""
    grid2d = tmp_path / "grid2d.ini"
    grid2d.write_text("[grid]\nn = 2\nh = 0.125\n[slice]\nt = 0.5\n"
                      "[maximal]\nb = 5\nN = 6\nladder_depth = 2\n"
                      "[family]\nspec = bumps:count=1\n")
    hits = {}
    for config, checks in [(config_path, "maximal-equivalence,cz-roundtrip"),
                           (str(grid2d), "norms,atom-validation")]:
        out = _python(_NO_SCIPY_RUN, "all", "--config", config, "--check",
                      checks, "--out", str(tmp_path / checks))
        assert out.returncode == 0, out.stderr
        record = json.loads(out.stdout.splitlines()[-1])
        assert record["scipy"] == []
        for key, count in record["hits"].items():
            hits[key] = hits.get(key, 0) + count
    assert set(hits) == {"fft", "edt"} | {
        f"ball_reduce {n}-D {op} {dtype}" for n, op, dtype in
        [(1, "maximum", "float64"), (2, "maximum", "float64"),
         (1, "add", "float64"), (2, "add", "float64"), (1, "add", "int64"),
         (2, "add", "int64")]}
