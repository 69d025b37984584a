"""Deterministic family generators and config loading/validation."""

import re
from pathlib import Path

import numpy as np
import pytest

from slicehardy.config import _SECTIONS, ScenarioConfig, load_config
from slicehardy.errors import ConfigError
from slicehardy.families import generate_family, parse_spec

H = 2.0 ** -7


@pytest.mark.parametrize("spec", [
    "bumps:count=3",
    "bursts:count=2",
    "indicator-ladder:M=4",
    "translates:R=0,4",
])
def test_family_deterministic(spec):
    fam1 = generate_family(spec, 42, h=H)
    fam2 = generate_family(spec, 42, h=H)
    assert len(fam1) == len(fam2) > 0
    for f, g in zip(fam1, fam2):
        assert f.origin == g.origin
        assert np.array_equal(f.values, g.values)


@pytest.mark.parametrize("n", [1, 2])
def test_bumps_are_products_of_axis_bumps_in_draw_order(n):
    """Each member draws its first center, width and amplitude, then the
    other centers, and multiplies the axis bumps into amp in axis order."""
    h = 2.0 ** -5
    rng = np.random.default_rng(3)
    for f in generate_family("bumps:count=3", 3, h, n):
        c, w, amp = (rng.uniform(0.5, 3.5), rng.uniform(0.05, 0.5),
                     rng.uniform(0.5, 2.0))
        x = np.moveaxis(f.centers(), -1, 0)
        if n == 1:
            expected = amp * np.exp(-((x[0] - c) / w) ** 2)
        else:
            c2 = rng.uniform(0.5, 3.5)
            expected = amp * np.exp(-((x[0] - c) / w) ** 2) \
                * np.exp(-((x[1] - c2) / w) ** 2)
        assert np.array_equal(f.values, expected)


def test_family_seed_matters():
    a = generate_family("bumps:count=1", 0, h=H)[0]
    b = generate_family("bumps:count=1", 1, h=H)[0]
    assert not np.array_equal(a.values, b.values)


def test_indicator_ladder_sizes():
    fam = generate_family("indicator-ladder:M=3", 0, h=2.0 ** -6)
    masses = [f.integrate() for f in fam]
    assert masses == pytest.approx([1.0, 0.5, 0.25, 0.125], rel=1e-12)


def test_translates_origins():
    fam = generate_family("translates:R=0,4,16", 0, h=H)
    assert [f.origin[0] for f in fam] == [0.0, 4.0, 16.0]


def test_unknown_generator():
    with pytest.raises(ConfigError):
        generate_family("sawtooth:count=3", 0, h=H)


def test_bad_generator_args():
    with pytest.raises(ConfigError):
        generate_family("bumps:width=3", 0, h=H)


@pytest.mark.parametrize("spec", ["bumps:count=abc", "bumps:count",
                                  "translates:R=a,b", "bumps:count=2;"])
def test_malformed_generator_args(spec):
    with pytest.raises(ConfigError):
        parse_spec(spec)


def test_parse_spec_converts_arguments():
    name, args = parse_spec(" translates : R = 0,4,16 ")
    assert (name, args) == ("translates", {"R": [0.0, 4.0, 16.0]})


def test_default_config_validates():
    cfg = load_config()
    assert cfg.n == 1
    assert cfg.q == 2.0
    # derived exponents fall in the admissible range
    assert 0 < cfg.s < 1
    assert cfg.d >= int(np.floor(cfg.n * (1.0 / cfg.s - 1.0)))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[grid]\nn = 1\nh = 0.00390625\n"
        "[slice]\nt = 0.5\nq = 1\n"
        "[functional]\ntag = log_damped\n"
        "[checks]\nrun = norms, bmo-facts\n")
    cfg = load_config(path)
    assert cfg.t == 0.5
    assert cfg.q == 1.0
    assert cfg.functional_tag == "log_damped"
    assert cfg.checks == ("norms", "bmo-facts")


def test_config_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grids]\nn = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nm = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nh = tiny\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scenario.ini")


def test_validation_names_peetre_hypothesis():
    cfg = ScenarioConfig(b=1.0)
    with pytest.raises(ConfigError, match="b > 2n"):
        cfg.validate()


def test_validation_names_order_hypothesis():
    cfg = ScenarioConfig(N=2)
    with pytest.raises(ConfigError, match="N >= floor"):
        cfg.validate()


def test_validation_names_moment_hypothesis():
    cfg = ScenarioConfig(d=-1)
    with pytest.raises(ConfigError, match="d >= floor"):
        cfg.validate()


def test_validation_resolution_guard():
    cfg = ScenarioConfig(t=2.0 ** -10)
    with pytest.raises(ConfigError, match="slice radius"):
        cfg.validate()


def test_validation_sweep_straddles_unity():
    cfg = ScenarioConfig(side_exp_lo=1)
    with pytest.raises(ConfigError, match="sweep"):
        cfg.validate()


@pytest.mark.parametrize("n, size, ok", [(1, 5, True), (1, 6, False),
                                         (2, 6, True), (2, 7, False)])
def test_validation_bounds_dict_size_by_the_built_in_kernels(n, size, ok):
    cfg = ScenarioConfig(n=n, dict_size=size)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="maximal.dict_size"):
            cfg.validate()


@pytest.mark.parametrize("n, h, side_exp_hi, ok", [
    (1, 2.0 ** -8, 7, True), (2, 2.0 ** -8, 5, True),
    (2, 2.0 ** -8, 6, False), (1, 2.0 ** -8, 19, False)])
def test_validation_bounds_the_largest_sweep_cube(n, h, side_exp_hi, ok):
    """At most 2^26 cells in the sweep's largest cube, (2^side_exp_hi/h)^n."""
    cfg = ScenarioConfig(n=n, h=h, side_exp_hi=side_exp_hi)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="sweep.side_exp_hi"):
            cfg.validate()


@pytest.mark.parametrize("n, h, lo, hi, ok", [
    (1, 2.0 ** -8, -4.0, 4.0, True), (2, 2.0 ** -8, -4.0, 4.0, True),
    (2, 2.0 ** -8, -4.0, 10.0, False), (1, 2.0 ** -8, -1e5, 1e5, True),
    (1, 2.0 ** -8, -3e5, 3e5, False)])
def test_validation_bounds_the_sweep_box(n, h, lo, hi, ok):
    """At most 2^27 cells in the box that holds every sweep cube,
    ((center_hi - center_lo + 2^side_exp_hi) / h)^n."""
    cfg = ScenarioConfig(n=n, h=h, center_lo=lo, center_hi=hi,
                         center_step=hi - lo)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="sweep.center_lo"):
            cfg.validate()


@pytest.mark.parametrize("step, side_exp_lo, ok", [
    (1.0, -6, True), (8 / 1364, -6, True), (8 / 1365, -6, False),
    (0.5, -957, True), (0.5, -958, False), (1e-300, -6, False),
    (5e-324, -6, False)])
def test_validation_bounds_the_sweep_cube_count(step, side_exp_lo, ok):
    """At most 2^14 sweep cubes: the centers of [-4, 4] at the step, times
    the side lengths 2^side_exp_lo .. 2^5."""
    cfg = ScenarioConfig(center_step=step, side_exp_lo=side_exp_lo)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="sweep.center_step"):
            cfg.validate()


@pytest.mark.parametrize("n, t, ok", [
    (1, 65535.0, True), (1, 65537.0, False), (1, 1e6, False),
    (1, 1e300, False), (2, 5.6, True), (2, 5.7, False)])
def test_validation_bounds_the_ball_arrays(n, t, ok):
    """At most 2^27 cells, (8t/h + 1)^n, in the arrays of the largest ball
    a check takes, of radius 2t, at the default h = 2^-8: checked by
    validate, so a huge slice.t allocates nothing."""
    cfg = ScenarioConfig(n=n, t=t)
    if ok:
        cfg.validate()
    else:
        with pytest.raises(ConfigError, match="slice.t"):
            cfg.validate()


def test_readme_domain_table_lists_every_config_key():
    """The README's domain table has a row for each key the config reads,
    and no other."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | default | domain | library guard |")[1]
    rows = re.findall(r"^\| (`[^|]*) \|", table.split("\n\n")[0], re.M)
    keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row)}
    assert keys == {f"{section}.{key}" for section, schema in
                    _SECTIONS.items() for key in schema}
