"""Slice norms, the amalgam sum norm, and the maximal-operator checks."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from slicehardy import orlicz
from slicehardy.errors import PreconditionError, ResolutionError
from slicehardy.grid import Cube, GridFunction
from slicehardy.slice_norms import SliceParams, _power_window_norms, \
    _rows_2d, ball_indicator_gauge, ball_indicator_ratio, ball_offset_count, \
    cube_indicator_slice_norm, fefferman_stein_check, hl_maximal, \
    reverse_superadditivity_check, slice_norm, star_norm


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_power_slice_norm_equals_lq(q, t, rng):
    """For Phi = power(q) the slice norm collapses to the plain L^q norm."""
    h = 2.0 ** -7
    f = GridFunction((0.0,), h, rng.uniform(-1, 1, 256))
    p = SliceParams(t, q, orlicz.power(q))
    assert slice_norm(f, p) == pytest.approx(f.lp_norm(q), rel=1e-10)


def test_slice_norm_two_dimensional(rng):
    h = 2.0 ** -4
    f = GridFunction((0.0, 0.0), h, rng.uniform(0, 1, (32, 32)))
    p = SliceParams(0.5, 2.0, orlicz.power(2.0))
    assert slice_norm(f, p) == pytest.approx(f.lp_norm(2), rel=1e-10)


@pytest.mark.parametrize("n,h,t_values", [
    (1, 2.0 ** -7, [0.5, 1.0, 2.0]),
    (2, 2.0 ** -4, [0.125, 0.25, 0.5]),
])
@pytest.mark.parametrize("power", [0.5, 1.0, 2.0, 3.0])
def test_power_window_norms_match_window_matrix(n, h, t_values, power, rng):
    """The convolution of |f|^p with the ball against the sum of rows**p
    over the materialized window matrix, on a field with zero runs."""
    shape = (200,) if n == 1 else (24, 20)
    vals = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    f = GridFunction((0.0,) * n, h, vals)
    for t in t_values:
        w, k = ball_offset_count(n, t, h)
        rows = sliding_window_view(np.pad(np.abs(vals), 2 * k), 2 * k + 1) \
            if n == 1 else np.abs(_rows_2d(vals, t, h, k))
        ref = (rows ** power).sum(axis=1) ** (1.0 / power) \
            * f.cell_volume ** (1.0 / power)
        got = _power_window_norms(f, t, k, power)
        assert got.shape == ref.shape
        assert np.array_equal(got == 0, ref == 0)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        den = ball_indicator_gauge(orlicz.power(power), w, f.cell_volume)
        expected = float(((ref / den) ** 2.0).sum() * f.cell_volume) ** 0.5
        assert slice_norm(f, SliceParams(t, 2.0, orlicz.power(power))) \
            == pytest.approx(expected, rel=1e-12)


def test_slice_norm_resolution_guard():
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -3, (8,))
    with pytest.raises(ResolutionError):
        slice_norm(f, SliceParams(2.0 ** -4, 1.0, orlicz.power(1.0)))


def test_ball_offset_count_1d():
    w, k = ball_offset_count(1, 1.0, 2.0 ** -4)
    assert k == 15
    assert w == 31


def test_ball_indicator_gauge_power():
    # power(2): gauge of an indicator of measure m is sqrt(m)
    g = ball_indicator_gauge(orlicz.power(2.0), 16, 2.0 ** -4)
    assert g == pytest.approx(1.0)


def test_cube_indicator_norm_cached_and_translation_invariant():
    p = SliceParams(1.0, 1.0, orlicz.log_damped())
    h = 2.0 ** -6
    v1 = cube_indicator_slice_norm(p, 0.5, h)
    v2 = cube_indicator_slice_norm(p, 0.5, h)
    assert v1 == v2
    f = GridFunction.indicator(Cube((7.25,), 0.5), (7.0,), h, (32,))
    assert slice_norm(f, p) == pytest.approx(v1, rel=1e-10)


@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
@pytest.mark.parametrize("n,h,sides", [
    (1, 2.0 ** -6, [2.0 ** -6, 0.1, 0.5, 1.0, 3.0]),
    (2, 2.0 ** -4, [2.0 ** -4, 0.25, 1.0, 2.0]),
])
def test_cube_indicator_closed_form_matches_materialized(tag, n, h, sides):
    """The closed form against the slice norm of the indicator itself."""
    phi = orlicz.from_tag(tag)
    for side in sides:
        cells = max(int(round(side / h)), 1)
        g = GridFunction((0.0,) * n, h, np.ones((cells,) * n))
        for t in (2 * h, 0.5, 1.0):
            for q in (0.5, 1.0, 2.0):
                p = SliceParams(t, q, phi)
                assert cube_indicator_slice_norm(p, side, h, n) == \
                    pytest.approx(slice_norm(g, p), rel=1e-9)


def test_cube_indicator_norm_follows_each_new_functional():
    """Functionals created and freed in turn each get their own value,
    whatever address a new functional happens to reuse."""
    h = 2.0 ** -5
    g = GridFunction((0.0,), h, np.ones(16))
    tags = ("power:2", "log_damped", "power:0.5")
    expected = {tag: slice_norm(g, SliceParams(0.5, 1.0,
                                               orlicz.from_tag(tag)))
                for tag in tags}
    for i in range(30):
        tag = tags[i % len(tags)]
        p = SliceParams(0.5, 1.0, orlicz.from_tag(tag))
        assert cube_indicator_slice_norm(p, 0.5, h) == \
            pytest.approx(expected[tag], rel=1e-10)
        del p


@pytest.mark.parametrize("n", [1, 2])
def test_cube_indicator_resolution_guard(n):
    h = 2.0 ** -4
    p = SliceParams(1.5 * h, 1.0, orlicz.log_damped())
    with pytest.raises(ResolutionError):
        cube_indicator_slice_norm(p, 0.5, h, n)


def test_star_norm_single_unit_cube_is_luxemburg(rng):
    phi = orlicz.log_damped()
    h = 2.0 ** -6
    f = GridFunction((0.0,), h, rng.uniform(0, 2, int(1 / h)))
    assert star_norm(f, phi) == pytest.approx(
        orlicz.luxemburg_norm(phi, f), rel=1e-10)


def test_star_norm_additive_over_separated_cubes():
    phi = orlicz.log_damped()
    h = 2.0 ** -5
    a = GridFunction.constant(1.0, (0.0,), h, (int(1 / h),))
    b = GridFunction.constant(1.0, (5.0,), h, (int(1 / h),))
    both = a + b
    assert star_norm(both, phi) == pytest.approx(
        star_norm(a, phi) + star_norm(b, phi), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(vals=arrays(float, st.tuples(st.integers(1, 20), st.integers(1, 20)),
                   elements=st.floats(-5.0, 5.0, allow_subnormal=False)),
       origin=st.tuples(st.integers(-24, 24), st.integers(-24, 24)),
       shift=st.sampled_from([0.0, 0.5, 0.3]),
       tag=st.sampled_from(["power:1.5", "log_damped"]))
def test_star_norm_two_dimensional_sums_unit_cubes(vals, origin, shift, tag):
    """The 2-D amalgam norm against per-unit-cube Luxemburg norms of the
    function restricted by the point test on the full grid."""
    h = 0.25
    phi = orlicz.from_tag(tag)
    f = GridFunction([(o + shift) * h for o in origin], h, vals)
    pts = f.centers().reshape(-1, 2)
    expected = 0.0
    for corner in product(range(-7, 13), repeat=2):
        Q = Cube((corner[0] + 0.5, corner[1] + 0.5), 1.0)
        mask = Q.contains_points(pts).reshape(f.extents)
        if np.any(f.values[mask]):
            piece = GridFunction(f.origin, h, np.where(mask, f.values, 0.0))
            expected += orlicz.luxemburg_norm(phi, piece)
    assert star_norm(f, phi) == pytest.approx(expected, rel=1e-9, abs=0)


def test_star_norm_zero():
    assert star_norm(GridFunction.constant(0.0, (0.0,), 0.25, (8,)),
                     orlicz.log_damped()) == 0.0


def test_hl_maximal_dominates_function(rng):
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(-2, 2, 64))
    m = hl_maximal(f, pad_cells=16)
    fe = f.embed(m.origin, m.extents)
    assert np.all(m.values >= np.abs(fe.values) - 1e-14)


def test_hl_maximal_decays_off_support():
    h = 2.0 ** -5
    f = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), h, (32,))
    m = hl_maximal(f, pad_cells=128)
    inside = m.values[m.extents[0] // 2]
    edge = m.values[0]
    assert inside == pytest.approx(1.0)
    assert 0 < edge < 0.5


def test_fefferman_stein_hypotheses_enforced():
    p_bad = SliceParams(1.0, 1.0, orlicz.power(1.0))
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -4, (16,))
    with pytest.raises(PreconditionError):
        fefferman_stein_check([f], 2.0, p_bad)
    p_ok = SliceParams(1.0, 2.0, orlicz.power(2.0))
    with pytest.raises(PreconditionError):
        fefferman_stein_check([f], 1.0, p_ok)


def test_fefferman_stein_ratio_at_least_one(rng):
    h = 2.0 ** -5
    fam = [GridFunction((0.0,), h, rng.uniform(0, 1, 64)) for _ in range(3)]
    p = SliceParams(1.0, 2.0, orlicz.power(2.0))
    rep = fefferman_stein_check(fam, 2.0, p, pad_cells=32)
    # the maximal function dominates the function pointwise
    assert rep.summary["max_ratio"] >= 1.0


def test_ball_indicator_ratio_band():
    rep = ball_indicator_ratio([0.25, 1.0, 4.0], 2.0 ** -6)
    assert rep.summary["band_width"] < 20
    assert rep.summary["min_ratio"] > 0


def test_ball_indicator_resolution():
    with pytest.raises(ResolutionError):
        ball_indicator_ratio([2.0 ** -8], 2.0 ** -6)


def test_reverse_superadditivity_requires_small_exponents():
    p = SliceParams(1.0, 2.0, orlicz.power(2.0))
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -4, (16,))
    with pytest.raises(PreconditionError):
        reverse_superadditivity_check([f], p)


def test_reverse_superadditivity_ratio_positive(rng):
    h = 2.0 ** -5
    p = SliceParams(1.0, 1.0, orlicz.log_damped())
    fam = [GridFunction((0.0,), h, rng.uniform(0, 1, 64)) for _ in range(3)]
    rep = reverse_superadditivity_check(fam, p)
    # concave-type functionals make the gauge superadditive, so the
    # ratio has a positive floor but may exceed 1
    assert 0.2 < rep.summary["min_ratio"] < 10.0


def test_reverse_superadditivity_rejects_signed_members():
    p = SliceParams(1.0, 1.0, orlicz.log_damped())
    f = GridFunction((0.0,), 2.0 ** -4, np.array([1.0] * 15 + [-0.1]))
    with pytest.raises(PreconditionError):
        reverse_superadditivity_check([f], p)
