"""Embedding checks: fitted constants stay bounded, translates help."""

import numpy as np
import pytest

from slicehardy.embeddings import hardy_embedding_check, star_to_muslog_check
from slicehardy.errors import PreconditionError
from slicehardy.families import generate_family
from slicehardy.grid import GridFunction
from slicehardy import maximal
from slicehardy.maximal import MaximalParams, hardy_quasinorm

H = 2.0 ** -7


def test_star_to_muslog_finite_constants(rng):
    fam = generate_family("bumps:count=4", 7, h=H)
    rep = star_to_muslog_check(fam)
    assert 0 < rep.summary["fitted_C"] < np.inf
    assert 0 < rep.summary["fitted_C_modular"] < np.inf


def test_star_to_muslog_modular_bounded():
    fam = generate_family("translates:R=0,4,16", 3, h=H)
    rep = star_to_muslog_check(fam)
    # the modular of each star-normalized member should be O(1)
    assert rep.summary["fitted_C_modular"] <= 5.0


def test_translates_ratio_decreases_with_distance():
    fam = generate_family("translates:R=0,4,16,64", 3, h=H)
    rep = star_to_muslog_check(fam)
    ratios = rep.column("ratio")
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_star_to_muslog_skips_zero_members():
    z = GridFunction.constant(0.0, (0.0,), H, (32,))
    fam = generate_family("bumps:count=2", 0, h=H) + [z]
    rep = star_to_muslog_check(fam)
    assert len(rep.column("index")) == 2


def test_hardy_embedding_finite_constant(dictionary_1d, maximal_params):
    fam = generate_family("bumps:count=3", 11, h=dictionary_1d.h)
    rep = hardy_embedding_check(fam, maximal_params)
    assert 0 < rep.summary["fitted_C"] < np.inf
    assert len(rep.column("ratio")) == 3


def test_hardy_embedding_one_peetre_function_per_member(
        dictionary_1d, maximal_params, monkeypatch):
    """Both outer norms read one Peetre maximal function per member and
    equal separate hardy_quasinorm calls exactly."""
    fam = generate_family("bumps:count=3", 11, h=dictionary_1d.h)
    expected = [(hardy_quasinorm(f, "star:log_damped", maximal_params),
                 hardy_quasinorm(f, "muslog", maximal_params)) for f in fam]
    calls = []
    original = maximal.peetre_maximal

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(maximal, "peetre_maximal", counted)
    rep = hardy_embedding_check(fam, maximal_params)
    assert list(zip(rep.column("h_star"), rep.column("h_log"))) == expected
    assert len(calls) == len(fam)
    assert all(a is f for a, f in zip(calls, fam))


def test_hardy_embedding_requires_large_peetre_exponent(dictionary_1d):
    fam = generate_family("bumps:count=1", 0, h=dictionary_1d.h)
    weak = MaximalParams(b=1.5, dictionary=dictionary_1d,
                         ladder=dictionary_1d.scales)
    with pytest.raises(PreconditionError):
        hardy_embedding_check(fam, weak)
