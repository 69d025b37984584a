"""Embedding checks: fitted constants stay bounded, translates help."""

import dataclasses

import numpy as np
import pytest

from slicehardy.embeddings import hardy_embedding_check, star_to_muslog_check
from slicehardy.errors import PreconditionError
from slicehardy.families import generate_family
from slicehardy.grid import GridFunction
from slicehardy import orlicz
from slicehardy.maximal import MaximalParams
from slicehardy.slice_norms import star_norm

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


def test_hardy_embedding_finite_constant(h_1d, maximal_params):
    fam = generate_family("bumps:count=3", 11, h=h_1d)
    rep = hardy_embedding_check(fam, maximal_params)
    assert 0 < rep.summary["fitted_C"] < np.inf
    assert len(rep.column("ratio")) == 3


def test_hardy_embedding_one_peetre_function_per_member(
        h_1d, maximal_params, peetre_builds):
    """Both outer norms read one Peetre maximal function per member and
    equal the two norms of that field exactly; a second check with the
    same parameters reads the fields they keep."""
    fam = generate_family("bumps:count=3", 11, h=h_1d)
    expected = [(star_norm(m, orlicz.log_damped()),
                 orlicz.musielak_norm(orlicz.musielak_log(), m))
                for m in map(maximal_params.peetre_field, fam)]
    params = dataclasses.replace(maximal_params)  # keeps no field yet
    peetre_builds.clear()
    rep = hardy_embedding_check(fam, params)
    assert list(zip(rep.column("star"), rep.column("muslog"))) == expected
    assert len(peetre_builds) == len(fam)
    assert all(a is f for a, f in zip(peetre_builds, fam))
    peetre_builds.clear()
    rep = hardy_embedding_check(fam, params)
    assert list(zip(rep.column("star"), rep.column("muslog"))) == expected
    assert peetre_builds == []


def test_hardy_embedding_requires_large_peetre_exponent(dictionary_1d,
                                                         h_1d):
    fam = generate_family("bumps:count=1", 0, h=h_1d)
    weak = MaximalParams(dictionary_1d, b=1.5)
    with pytest.raises(PreconditionError):
        hardy_embedding_check(fam, weak)
