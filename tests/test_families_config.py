"""Deterministic family generators and config loading/validation."""

import numpy as np
import pytest

from slicehardy.config import ScenarioConfig, load_config
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
