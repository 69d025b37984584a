"""Orlicz functionals, modulars and Luxemburg gauges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from slicehardy import orlicz
from slicehardy.errors import InvalidDataError
from slicehardy.grid import GridFunction


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_power_gauge_is_lp_norm(p, rng):
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(0, 3, 64))
    phi = orlicz.power(p)
    assert orlicz.luxemburg_norm(phi, f) == pytest.approx(f.lp_norm(p),
                                                          rel=1e-12)


def test_generic_bisection_matches_power_shortcut(rng):
    # same functional with and without the closed-form tag
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(0, 2, 64))
    fast = orlicz.luxemburg_norm(orlicz.power(3.0), f)
    slow = orlicz.luxemburg_norm(
        orlicz.OrliczFunction(lambda t: t ** 3.0, 3.0, 3.0), f)
    assert slow == pytest.approx(fast, rel=1e-9)


def test_log_damped_gauge_against_fixed_point_oracle():
    """f = 2 on [0,1]: the gauge solves Phi(2/lam) = 1, i.e. u = log(e+u).

    The oracle root is found by an independent bracketing solver on the
    fixed-point equation, not by the gauge bisection under test.
    """
    u_star = brentq(lambda u: u - np.log(np.e + u), 1.0, 3.0, xtol=1e-14)
    h = 2.0 ** -8
    f = GridFunction.constant(2.0, (0.0,), h, (int(1 / h),))
    lam = orlicz.luxemburg_norm(orlicz.log_damped(), f)
    assert lam == pytest.approx(2.0 / u_star, rel=1e-9)


def test_gauge_of_zero_is_zero():
    f = GridFunction.constant(0.0, (0.0,), 0.5, (4,))
    assert orlicz.luxemburg_norm(orlicz.log_damped(), f) == 0.0


def test_modular_monotone_in_lambda():
    f = GridFunction.constant(1.0, (0.0,), 0.5, (4,))
    phi = orlicz.log_damped()
    m1 = orlicz.modular(phi, f, 0.5)
    m2 = orlicz.modular(phi, f, 1.0)
    m3 = orlicz.modular(phi, f, 2.0)
    assert m1 > m2 > m3


def test_modular_at_gauge_is_one(rng):
    f = GridFunction((0.0,), 2.0 ** -4, rng.uniform(0.1, 5, 32))
    phi = orlicz.log_damped()
    lam = orlicz.luxemburg_norm(phi, f)
    assert orlicz.modular(phi, f, lam) == pytest.approx(1.0, abs=1e-8)


def test_luxemburg_rows_matches_scalar_path(rng):
    phi = orlicz.log_damped()
    h = 2.0 ** -5
    rows = rng.uniform(0, 4, (7, 16))
    rows[2] = 0.0
    got = orlicz.luxemburg_norm_rows(phi, rows, h)
    for i in range(rows.shape[0]):
        f = GridFunction((0.0,), h, rows[i])
        assert got[i] == pytest.approx(orlicz.luxemburg_norm(phi, f),
                                       rel=1e-9, abs=1e-300)


def test_inverse_round_trip():
    phi = orlicz.log_damped()
    for y in (1e-4, 0.3, 1.0, 50.0):
        u = phi.inverse(y)
        assert float(phi(u)) == pytest.approx(y, rel=1e-10)
    assert orlicz.power(2.0).inverse(9.0) == pytest.approx(3.0)


def test_musielak_norm_scales_linearly(rng):
    theta = orlicz.musielak_log()
    f = GridFunction((0.0,), 2.0 ** -4, rng.uniform(0, 2, 32))
    n1 = orlicz.musielak_norm(theta, f)
    n2 = orlicz.musielak_norm(theta, 3.0 * f)
    # the gauge is homogeneous even though the modular is not
    assert n2 == pytest.approx(3.0 * n1, rel=1e-8)


def test_musielak_weight_decreases_with_distance():
    theta = orlicz.musielak_log()
    h = 2.0 ** -6
    near = GridFunction.constant(1.0, (0.0,), h, (int(1 / h),))
    far = GridFunction.constant(1.0, (64.0,), h, (int(1 / h),))
    assert orlicz.musielak_norm(theta, far) < orlicz.musielak_norm(theta,
                                                                   near)


@pytest.mark.parametrize("tag,name", [
    ("power:2", "power:2"),
    ("log_damped", "log_damped"),
    ("musielak_log", "musielak_log"),
])
def test_from_tag(tag, name):
    assert orlicz.from_tag(tag).name == name


def test_from_tag_unknown():
    with pytest.raises(ValueError):
        orlicz.from_tag("mystery")


def test_validate_power_and_log_damped():
    assert orlicz.validate_orlicz(orlicz.power(2.0)).passed
    assert orlicz.validate_orlicz(orlicz.log_damped()).passed


def test_validate_flags_wrong_declared_type():
    # claiming lower type 2 for a linear-growth functional must fail
    phi = orlicz.OrliczFunction(lambda t: t, 2.0, 1.0)
    report = orlicz.validate_orlicz(phi)
    assert not report.passed
    assert any(v[0] == "lower_type" for v in report.violations)


def test_nonfinite_rejected():
    f = GridFunction((0.0,), 0.5, [1.0, 2.0])
    f.values[0] = np.inf
    with pytest.raises(InvalidDataError):
        orlicz.luxemburg_norm(orlicz.log_damped(), f)


def test_log_damped_declared_range():
    with pytest.raises(ValueError):
        orlicz.log_damped(p_minus=1.0)


# -- property tests of the gauge solver ------------------------------------

_TAGS = ("log_damped", "musielak_log")


def _gauge(tag, f):
    if tag == "musielak_log":
        return orlicz.musielak_norm(orlicz.musielak_log(), f)
    return orlicz.luxemburg_norm(orlicz.log_damped(), f)


def _modular(tag, f, lam):
    if tag == "musielak_log":
        return orlicz.musielak_modular(orlicz.musielak_log(), f, lam)
    return orlicz.modular(orlicz.log_damped(), f, lam)


_samples = arrays(float, st.integers(1, 40),
                  elements=st.floats(-50.0, 50.0, allow_subnormal=False)
                  ).filter(lambda a: np.abs(a).max() > 1e-6)
_origins = st.floats(-20.0, 20.0, allow_subnormal=False)
_property = settings(max_examples=60, deadline=None)


@_property
@given(st.sampled_from(_TAGS), _samples, _origins, st.floats(1e-3, 1e3))
def test_gauge_is_homogeneous(tag, vals, origin, c):
    f = GridFunction((origin,), 2.0 ** -4, vals)
    assert _gauge(tag, c * f) == pytest.approx(c * _gauge(tag, f),
                                               rel=1e-8)


@_property
@given(st.sampled_from(_TAGS), _samples, _origins, st.data())
def test_gauge_is_monotone(tag, vals, origin, data):
    extra = data.draw(arrays(float, vals.shape,
                             elements=st.floats(0.0, 10.0,
                                                allow_subnormal=False)))
    f = GridFunction((origin,), 2.0 ** -4, vals)
    g = GridFunction((origin,), 2.0 ** -4,
                     np.where(vals < 0, -1.0, 1.0) * (np.abs(vals) + extra))
    assert _gauge(tag, f) <= _gauge(tag, g) * (1 + 1e-9)


@_property
@given(st.sampled_from(_TAGS), _samples, _origins)
def test_modular_at_the_gauge_is_one(tag, vals, origin):
    f = GridFunction((origin,), 2.0 ** -4, vals)
    assert _modular(tag, f, _gauge(tag, f)) == pytest.approx(1.0, abs=1e-8)


@_property
@given(st.sampled_from(_TAGS), _samples, _origins)
def test_gauge_matches_brentq_reference(tag, vals, origin):
    """The solver against an independent bracketing root finder."""
    f = GridFunction((origin,), 2.0 ** -4, vals)
    m = f.max_abs()
    x_ref = brentq(lambda x: np.log(_modular(tag, f, np.exp(x))),
                   np.log(m) - 60.0, np.log(m) + 60.0, xtol=1e-14,
                   rtol=1e-14)
    assert _gauge(tag, f) == pytest.approx(np.exp(x_ref), rel=1e-9)


def test_inverse_accepts_an_array():
    phi = orlicz.log_damped()
    y = np.array([-1.0, 0.0, 1e-4, 0.3, 1.0, 50.0])
    u = phi.inverse(y)
    assert u.shape == y.shape
    assert np.array_equal(u[:2], [0.0, 0.0])
    assert phi(u[2:]) == pytest.approx(y[2:], rel=1e-12)
    assert u[3] == phi.inverse(0.3)
