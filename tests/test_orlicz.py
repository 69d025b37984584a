"""Orlicz functionals, modulars and Luxemburg gauges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from slicehardy import orlicz
from slicehardy.errors import InvalidDataError, NumericFailure, \
    PreconditionError
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
])
def test_from_tag(tag, name):
    assert orlicz.from_tag(tag).name == name


def test_from_tag_unknown():
    with pytest.raises(PreconditionError):
        orlicz.from_tag("mystery")


#: range and count of _validate's log-spaced samples of s and tau
_SAMPLE_MIN, _SAMPLE_MAX, _SAMPLE_COUNT = 2.0 ** -20, 2.0 ** 20, 64


def _validate(phi, c_lower=1.0, c_upper=1.0):
    """Violations of monotonicity and of the declared type inequalities
    Phi(s tau) <= c_lower s^p_minus Phi(tau) (s < 1) and
    Phi(s tau) <= c_upper s^p_plus Phi(tau) (s >= 1) on log-spaced samples,
    each with its witness (kind, s, tau, lhs, rhs); empty if none."""
    viol = []
    tau = np.exp(np.linspace(np.log(_SAMPLE_MIN), np.log(_SAMPLE_MAX),
                             _SAMPLE_COUNT))
    vals = phi(tau)
    if abs(float(phi(0.0))) > 0:
        viol.append(("zero", 0.0, 0.0, float(phi(0.0)), 0.0))
    for i in np.nonzero(vals <= 0)[0]:
        viol.append(("positive", None, float(tau[i]), float(vals[i]), 0.0))
    drops = np.nonzero(np.diff(vals) < -1e-14 * np.abs(vals[:-1]))[0]
    for i in drops:
        viol.append(("nondecreasing", None, float(tau[i + 1]),
                     float(vals[i + 1]), float(vals[i])))
    s_lower = np.exp(np.linspace(np.log(_SAMPLE_MIN), 0.0, _SAMPLE_COUNT))
    s_lower = s_lower[s_lower < 1.0]
    s_upper = np.exp(np.linspace(0.0, np.log(_SAMPLE_MAX), _SAMPLE_COUNT))
    for s_grid, p, c, kind in (
            (s_lower, phi.p_minus, c_lower, "lower_type"),
            (s_upper, phi.p_plus, c_upper, "upper_type")):
        lhs = phi(s_grid[:, None] * tau[None, :])
        rhs = c * s_grid[:, None] ** p * vals[None, :]
        for i, j in np.argwhere(lhs > rhs * (1 + 1e-12))[:20]:
            viol.append((kind, float(s_grid[i]), float(tau[j]),
                         float(lhs[i, j]), float(rhs[i, j])))
    return viol


def _log_damped_lower_constant(p_minus):
    """sup over s in (0, 1), tau > 0 of s^(1-p) log(e+tau)/log(e+s tau),
    estimated on a coarse log grid and padded by 10%."""
    s = np.exp(np.linspace(np.log(1e-8), 0.0, 120))[:, None]
    tau = np.exp(np.linspace(np.log(1e-8), np.log(1e8), 120))[None, :]
    ratio = s ** (1 - p_minus) * np.log(np.e + tau) / np.log(np.e + s * tau)
    return 1.1 * float(ratio.max())


def test_validate_power_and_log_damped():
    assert not _validate(orlicz.power(2.0))
    phi = orlicz.log_damped()
    assert not _validate(phi, c_lower=_log_damped_lower_constant(phi.p_minus))


def test_validate_flags_wrong_declared_type():
    # claiming lower type 2 for a linear-growth functional must fail
    phi = orlicz.OrliczFunction(lambda t: t, 2.0, 1.0)
    assert any(v[0] == "lower_type" for v in _validate(phi))


def test_gauge_of_a_functional_positive_at_zero_fails_to_bracket():
    """Phi = 1 + tau never lets the modular reach 1 on 8 cells of volume
    1/4, however large lambda grows."""
    phi = orlicz.OrliczFunction(lambda t: 1 + t, 1, 1)
    f = GridFunction((0.0,), 0.25, np.ones(8))
    with pytest.raises(NumericFailure, match="failed to bracket"):
        orlicz.luxemburg_norm(phi, f)


def test_nonfinite_rejected():
    f = GridFunction((0.0,), 0.5, [1.0, 2.0])
    f.values[0] = np.inf
    with pytest.raises(InvalidDataError):
        orlicz.luxemburg_norm(orlicz.log_damped(), f)


def test_log_damped_declared_range():
    with pytest.raises(PreconditionError):
        orlicz.log_damped(p_minus=1.0)


@pytest.mark.parametrize("kwargs", [
    {"p_minus": np.nan}, {"p_plus": np.inf}, {"p_minus": 0.0},
    {"p_plus": -1.0}, {"p_minus": -np.inf},
])
def test_orlicz_function_rejects_nonfinite_or_nonpositive_type_data(kwargs):
    args = {"p_minus": 1.0, "p_plus": 1.0, **kwargs}
    with pytest.raises(PreconditionError, match=next(iter(kwargs))):
        orlicz.OrliczFunction(lambda t: t, **args)


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.0, -2.0])
def test_power_rejects_nonfinite_or_nonpositive_exponent(p):
    with pytest.raises(PreconditionError):
        orlicz.power(p)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_modulars_reject_nonpositive_lambda(lam):
    f = GridFunction((0.0,), 0.5, [1.0, 2.0])
    with pytest.raises(PreconditionError):
        orlicz.modular(orlicz.power(2.0), f, lam)
    with pytest.raises(PreconditionError):
        orlicz.musielak_modular(orlicz.musielak_log(), f, lam)


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
