"""Orlicz functionals, modulars and Luxemburg gauges."""

import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import brentq

import gauge_reference
from slicehardy import orlicz, slice_norms
from slicehardy.errors import InvalidDataError, NumericFailure, \
    PreconditionError
from slicehardy.families import generate_family
from slicehardy.grid import GridFunction
from slicehardy.slice_norms import SliceParams, ball_mask, slice_norm, \
    star_norm


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_power_gauge_is_lp_norm(p, rng):
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(0, 3, 64))
    phi = orlicz.power(p)
    assert orlicz.luxemburg_norm(phi, f) == pytest.approx(f.lp_norm(p),
                                                          rel=1e-12)


_BUMP = np.exp(-(np.arange(256) * 2.0 ** -6 + 2.0 ** -7 - 2.0) ** 2)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
       k=st.integers(-1010, 1019))
@example(p=2.0, k=-536)
@example(p=2.0, k=-1010)
def test_power_gauge_is_lp_norm_and_homogeneous(p, k):
    """The power-Phi gauge is lp_norm bit for bit, and both scale by 2^k
    to 1e-13 across the normal range: exp(-(x - 2)^2) on [0, 4) at
    h = 2^-6 lies in [2^-6, 1], so 2^k times it is never subnormal, while
    its p-th powers over- or underflow at the ends."""
    f = GridFunction((0.0,), 2.0 ** -6, _BUMP)
    g = GridFunction((0.0,), 2.0 ** -6, np.ldexp(_BUMP, k))
    phi = orlicz.power(p)
    got = orlicz.luxemburg_norm(phi, g)
    assert got == g.lp_norm(p)
    assert got == pytest.approx(math.ldexp(f.lp_norm(p), k), rel=1e-13,
                                abs=0)


def test_power_gauge_of_tiny_samples_is_not_zero():
    """256 cells of 1e-200 at h = 2^-8: the squares underflow to 0, but
    the gauge, lp_norm and star_norm are 1e-200."""
    f = GridFunction.constant(1e-200, (0.0,), 2.0 ** -8, (256,))
    phi = orlicz.power(2.0)
    assert orlicz.luxemburg_norm(phi, f) == f.lp_norm(2) \
        == pytest.approx(1e-200, rel=1e-15, abs=0)
    assert star_norm(f, phi) == pytest.approx(1e-200, rel=1e-15, abs=0)


def test_generic_bisection_matches_power_shortcut(rng):
    # same functional with and without the closed-form tag
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(0, 2, 64))
    fast = orlicz.luxemburg_norm(orlicz.power(3.0), f)
    slow = orlicz.luxemburg_norm(
        orlicz.OrliczFunction(lambda t: t ** 3.0, 3.0, 3.0,
                              tau_dphi=lambda t, v: 3.0 * v), f)
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
    m1 = _modular("log_damped", f, 0.5)
    m2 = _modular("log_damped", f, 1.0)
    m3 = _modular("log_damped", f, 2.0)
    assert m1 > m2 > m3


def test_modular_at_gauge_is_one(rng):
    f = GridFunction((0.0,), 2.0 ** -4, rng.uniform(0.1, 5, 32))
    phi = orlicz.log_damped()
    lam = orlicz.luxemburg_norm(phi, f)
    assert _modular("log_damped", f, lam) == pytest.approx(1.0, abs=1e-8)


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
    phi = orlicz.OrliczFunction(lambda t: t, 2.0, 1.0,
                                tau_dphi=lambda t, v: v)
    assert any(v[0] == "lower_type" for v in _validate(phi))


def test_gauge_of_a_functional_positive_at_zero_fails_to_bracket():
    """Phi = 1 + tau never lets the modular reach 1 on 8 cells of volume
    1/4, however large lambda grows."""
    phi = orlicz.OrliczFunction(lambda t: 1 + t, 1, 1,
                                tau_dphi=lambda t, v: t)
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
        orlicz.OrliczFunction(lambda t: t, **args, tau_dphi=lambda t, v: v)


def test_orlicz_function_requires_its_slope():
    with pytest.raises(PreconditionError, match="tau_dphi"):
        orlicz.OrliczFunction(lambda t: t, 1.0, 1.0, tau_dphi=None)
    with pytest.raises(TypeError, match="tau_dphi"):
        orlicz.OrliczFunction(lambda t: t, 1.0, 1.0)


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.0, -2.0])
def test_power_rejects_nonfinite_or_nonpositive_exponent(p):
    with pytest.raises(PreconditionError):
        orlicz.power(p)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
def test_modulars_reject_nonpositive_lambda(lam):
    f = GridFunction((0.0,), 0.5, [1.0, 2.0])
    with pytest.raises(PreconditionError):
        orlicz.musielak_modular(orlicz.musielak_log(), f, lam)


# -- property tests of the gauge solver ------------------------------------

_TAGS = ("log_damped", "musielak_log")


def _gauge(tag, f):
    if tag == "musielak_log":
        return orlicz.musielak_norm(orlicz.musielak_log(), f)
    return orlicz.luxemburg_norm(orlicz.log_damped(), f)


def _modular(tag, f, lam):
    """The quadrature modular of f at scale lam."""
    if tag == "musielak_log":
        return orlicz.musielak_modular(orlicz.musielak_log(), f, lam)
    phi = orlicz.log_damped()
    return float(phi(np.abs(f.values) / lam).sum() * f.cell_volume)


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


@pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("phi", [orlicz.log_damped(), orlicz.power(2.0)])
def test_inverse_rejects_nonfinite_values(phi, y):
    with pytest.raises(InvalidDataError, match="non-finite"):
        phi.inverse(y)
    with pytest.raises(InvalidDataError, match="non-finite"):
        phi.inverse(np.array([1.0, y]))


def test_inverse_accepts_an_array():
    phi = orlicz.log_damped()
    y = np.array([-1.0, 0.0, 1e-4, 0.3, 1.0, 50.0])
    u = phi.inverse(y)
    assert u.shape == y.shape
    assert np.array_equal(u[:2], [0.0, 0.0])
    assert phi(u[2:]) == pytest.approx(y[2:], rel=1e-12)
    assert u[3] == phi.inverse(0.3)


@pytest.mark.parametrize("phi", [orlicz.log_damped(), orlicz.power(0.5)])
def test_inverse_past_the_float_range_is_a_numeric_failure(phi):
    """A y above Phi(largest float), about 2.5e305 for log_damped, has no
    float root: it raises, with no NumPy warning.  Up to that bound every
    y, 1e305 and the bound itself among them, has a finite root, even
    where the solver's steps pass the float range."""
    top = float(phi(np.finfo(float).max))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in (np.nextafter(top, np.inf), 1e306, 1.7e308,
                  np.array([1.0, 1e307])):
            with pytest.raises(NumericFailure, match="float range"):
                phi.inverse(y)
        y = np.array([1e-300, min(1e305, top / 2), top * (1.0 - 1e-15), top])
        u = phi.inverse(y)
    assert np.all(np.isfinite(u))
    assert phi(u[1:3]) == pytest.approx(y[1:3], rel=1e-13)


# -- Newton steps against the Illinois-only reference ----------------------

#: the reference solved this tightly: at the default tol, its own gauges
#: are off by up to tol / |slope|, about 1.5e-10 relative for log_damped
_REFERENCE_TOL = 1e-13
#: and the inverse as tightly as the inverse is solved
_INVERSE_REFERENCE_TOL = 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(-250, 250), st.floats(0.05, 1.0),
       st.sampled_from([0.25, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_newton_gauges_match_the_illinois_reference(n, exponent, fill, t,
                                                    seed):
    """Window rows of sparse fields scaled to maxima from 1e-250 to
    1e250: 1-D and 2-D disk windows, gathered on demand as slice_norm
    hands them over."""
    rng = np.random.default_rng(seed)
    h = 2.0 ** -4
    shape = (48,) if n == 1 else (10, 9)
    vals = rng.lognormal(size=shape) * (rng.random(shape) < fill)
    if vals.any():  # an all-zero field stays zero, not 0 * inf
        vals *= 10.0 ** exponent / vals.max()
    phi = orlicz.log_damped()
    windows = slice_norms._Windows(vals, ball_mask(t, h, n))
    got = orlicz.luxemburg_norm_rows(phi, windows, h ** n)
    ref = gauge_reference.luxemburg_norm_rows(
        phi, windows[np.arange(windows.shape[0])], h ** n, _REFERENCE_TOL)
    assert np.allclose(got, ref, rtol=1e-10, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8))
@example([-300.0, 300.0, 0.0])
def test_inverse_matches_the_illinois_reference(exponents):
    """Phi^-1(y) for y from 1e-300 to 1e300, against the slope-less
    reference, solved like inverse for w = u / y from w = 1."""
    y = 10.0 ** np.array(exponents)
    phi = orlicz.log_damped()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi.inverse(y)
    w = gauge_reference.solve_gauge(
        lambda w, idx: np.log(y[idx] / phi(w * y[idx])), np.ones(y.size),
        _INVERSE_REFERENCE_TOL)
    assert np.allclose(got, w * y, rtol=1e-10, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(-250, 250), st.floats(0.05, 1.0),
       _origins, st.integers(0, 2 ** 32 - 1))
def test_musielak_norm_matches_the_illinois_reference(n, exponent, fill,
                                                      origin, seed):
    """Sparse 1-D and 2-D fields scaled to maxima from 1e-250 to 1e250,
    against the slope-less reference."""
    rng = np.random.default_rng(seed)
    shape = (48,) if n == 1 else (10, 9)
    support = rng.random(shape) < fill
    support.flat[rng.integers(support.size)] = True
    vals = rng.lognormal(size=shape) * support * rng.choice([-1, 1], shape)
    vals *= 10.0 ** exponent / np.abs(vals).max()
    f = GridFunction((origin,) * n, 2.0 ** -4, vals)
    theta = orlicz.musielak_log()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orlicz.musielak_norm(theta, f)
    x, a = f.center_radii().ravel(), np.abs(vals).ravel()
    (ref,) = gauge_reference.solve_gauge(
        lambda lam, idx: np.log(theta(x, a / lam[:, None]).sum(axis=1)
                                * f.cell_volume),
        [f.max_abs()], _REFERENCE_TOL)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("width", [1, 7])
@pytest.mark.parametrize("cell_volume", [2.0 ** -8, 2.0 ** -16])
def test_tiny_rows_give_zero_or_the_reference_gauge(width, cell_volume):
    """Row maxima at 1e-310 and 5e-324, whose L^1 mass times the cell
    volume underflows, among all-zero and ordinary rows: each gauge is 0
    or the reference gauge, and no RuntimeWarning is raised."""
    rows = np.zeros((7, width))
    rows[0, 0] = 1e-310
    rows[1, -1] = -5e-324
    rows[2] = 5e-324
    rows[3] = -1e-310
    rows[4, 0] = 1e-299
    rows[6] = np.linspace(0.5, 2.0, width)
    phi = orlicz.log_damped()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orlicz.luxemburg_norm_rows(phi, rows, cell_volume)
    ref = gauge_reference.luxemburg_norm_rows(phi, rows, cell_volume,
                                              _REFERENCE_TOL)
    assert np.all((got == 0) | np.isclose(got, ref, rtol=1e-10, atol=0))
    assert got[5] == 0 and got[6] > 0


@pytest.mark.parametrize("n", [1, 2])
def test_slice_norm_of_subnormal_fields_raises_no_warning(n):
    shape = (40,) if n == 1 else (12, 12)
    vals = np.zeros(shape)
    vals.flat[::3] = 5e-324
    vals.flat[1] = 1e-310
    f = GridFunction((0.0,) * n, 2.0 ** -4, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert slice_norm(f, SliceParams(0.5, 1.0, orlicz.log_damped())) \
            == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(np.log(1e-300), np.log(1e300)))
def test_log_damped_tau_dphi_is_a_central_difference(log_tau):
    """tau Phi'(tau) = d Phi / d log tau, by a central difference in
    log tau."""
    phi = orlicz.log_damped()
    tau = np.exp(np.array([log_tau]))
    delta = 1e-5
    diff = (phi(tau * np.exp(delta)) - phi(tau * np.exp(-delta))) \
        / (2 * delta)
    assert phi.tau_dphi(tau.copy(), phi(tau)) \
        == pytest.approx(diff, rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.floats(np.log(1e-300), np.log(1e300)), st.floats(0.0, 1e6))
def test_musielak_log_tau_dtheta_is_a_central_difference(log_tau, x):
    """tau d theta / d tau = d theta / d log tau, by a central difference
    in log tau, at the point radius x."""
    theta = orlicz.musielak_log()
    tau = np.exp(np.array([log_tau]))
    delta = 1e-5
    diff = (theta(x, tau * np.exp(delta)) - theta(x, tau * np.exp(-delta))) \
        / (2 * delta)
    assert theta.tau_dtheta(tau.copy(), theta(x, tau)) \
        == pytest.approx(diff, rel=1e-8)


def test_power_gauges_take_the_closed_form(monkeypatch, rng):
    def no_solver(*args):
        raise AssertionError("the gauge solver was reached")

    monkeypatch.setattr(orlicz, "_solve_gauge", no_solver)
    phi = orlicz.power(2.5)
    f = GridFunction((0.0,), 2.0 ** -5, rng.uniform(-1, 1, 64))
    assert orlicz.luxemburg_norm(phi, f) == f.lp_norm(2.5)
    assert phi.inverse(9.0) == pytest.approx(9.0 ** 0.4)
    assert slice_norm(f, SliceParams(0.5, 1.0, phi)) > 0
    # the rows, two per block, are each row's lp_norm bit for bit, and so
    # are star_norm's unit-cube pieces in 2-D
    monkeypatch.setattr(orlicz, "_BLOCK_CELLS", 600)
    rows = rng.uniform(-1, 1, (7, 300)) * (rng.random((7, 300)) < 0.7)
    rows[2] = 0.0
    assert orlicz.luxemburg_norm_rows(phi, rows, 2.0 ** -5).tolist() == \
        [GridFunction((0.0,), 2.0 ** -5, r).lp_norm(2.5) for r in rows]
    g = GridFunction((0.3, -0.2), 2.0 ** -3, rng.normal(size=(21, 13)))
    total = 0.0
    for box in g.cube_boxes(g.unit_cubes()):
        total += g.box_view(box).lp_norm(2.5)
    assert star_norm(g, phi) == total
    # a finite row whose sum of |row|^p overflows gets its finite gauge,
    # with no RuntimeWarning (an error in this suite)
    rows[4] = np.where(rows[4] != 0, 1e200, 0.0)
    got = orlicz.luxemburg_norm_rows(phi, rows, 1.0 / 300)
    assert got[4] == pytest.approx(
        1e200 * (np.count_nonzero(rows[4]) / 300) ** 0.4, rel=1e-14)


def _lognormal_windows(rng, n):
    shape = (600,) if n == 1 else (40, 40)
    vals = rng.lognormal(size=shape) * (rng.random(shape) < 0.8)
    return slice_norms._Windows(vals, ball_mask(0.5, 2.0 ** -5, n)), \
        2.0 ** (-5 * n)


def _bump_windows(rng):
    """The windows of scenario_logdamped's first slice norm: a smooth
    bump at h = 2^-8, t = 0.5 (1,278 windows of 255 cells)."""
    (f,) = generate_family("bumps:count=1", 0, 2.0 ** -8)
    return slice_norms._Windows(f.values, ball_mask(0.5, f.h, 1)), f.h


@pytest.mark.parametrize("windows,bound", [
    (lambda rng: _lognormal_windows(rng, 1), 3.4),
    (lambda rng: _lognormal_windows(rng, 2), 3.4),
    (_bump_windows, 2.7),
], ids=["1d-lognormal", "2d-lognormal", "1d-bump"])
def test_warm_started_newton_takes_about_three_evaluations_per_window(
        windows, bound, rng, monkeypatch):
    """Phi row evaluations per window, anchors included: 3.16 (1-D) and
    3.12 (2-D) on these lognormal fields, 2.54 on the bump.  Cold, from
    the L^1 mass, Newton took about 4.0; started at the row max, 4.8 to
    5.0; the Illinois-only solver took 8 to 15 on the benchmark's
    log_damped slice norms."""
    rows, cell_volume = windows(rng)
    evaluated = []
    call = orlicz.OrliczFunction.__call__

    def counted(phi, tau):
        evaluated.append(np.shape(tau)[0])
        return call(phi, tau)

    monkeypatch.setattr(orlicz.OrliczFunction, "__call__", counted)
    orlicz.luxemburg_norm_rows(orlicz.log_damped(), rows, cell_volume)
    assert sum(evaluated) <= bound * rows.shape[0]


def test_one_gauge_call_peaks_below_a_few_blocks(rng):
    """No temporary outgrows a block: one call on 8192 sliding windows
    of 255 cells (16.7 MB as a matrix) allocates at its peak at most six
    blocks of _BLOCK_CELLS cells plus 24 vectors of one float per row,
    the solver's state (1.8 MB measured)."""
    vals = rng.lognormal(size=9000) * (rng.random(9000) < 0.8)
    windows = sliding_window_view(np.pad(vals, 254), 255)[:8192]
    phi = orlicz.log_damped()
    tracemalloc.start()
    try:
        orlicz.luxemburg_norm_rows(phi, windows, 2.0 ** -8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (6 * orlicz._BLOCK_CELLS + 24 * windows.shape[0]) * 8


class _Permuted:
    """The rows base[perm]: every rows[ix] gathers base rows out of order."""

    def __init__(self, base, perm):
        self.base, self.perm, self.shape = base, perm, base.shape

    def __getitem__(self, ix):
        return self.base[self.perm[ix]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.one_of(st.integers(1, 40),
                                     st.integers(1 << 14, (1 << 14) + 40)),
       st.sampled_from([5, 64, 1 << 14]), st.floats(0.0, 1.0),
       st.lists(st.integers(-250, 250), min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_blocked_gauges_are_the_one_shot_gauges_bit_for_bit(
        m, w, block, fill, exponents, seed):
    """Gauges a block at a time against one evaluation over all rows:
    rows wider than a block, row counts that are no multiple of a
    block's, all-zero rows, row maxima from 1e-250 to 1e250 and rows
    gathered out of order."""
    rng = np.random.default_rng(seed)
    if m * w > 1 << 16:
        m = 1 + m % 3
    rows = rng.lognormal(size=(m, w)) * (rng.random((m, w)) < fill)
    rows *= rng.choice([-1.0, 1.0], size=(m, w))
    peak = np.abs(rows).max(axis=1, keepdims=True)
    scale = 10.0 ** np.resize(exponents, m)[:, None]
    rows = np.divide(rows * scale, peak, out=np.zeros_like(rows),
                     where=peak > 0)
    perm = rng.permutation(m)
    phi = orlicz.log_damped()
    with patch.object(orlicz, "_BLOCK_CELLS", block):
        got = orlicz.luxemburg_norm_rows(phi, _Permuted(rows, perm),
                                         2.0 ** -6)
    ref = gauge_reference.one_shot_rows(phi, rows[perm], 2.0 ** -6)
    assert np.array_equal(got, ref)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(1, 2), st.integers(0, 6).map(lambda k: 8 * k + 1),
                 st.integers(0, 6).map(lambda k: 8 * k + 2),
                 st.integers(3, 60)),
       st.integers(1, 40), st.floats(0.0, 1.0),
       st.lists(st.one_of(st.integers(-250, 250), st.sampled_from(
           ["zero", "tiny", "subnormal"])), min_size=1, max_size=60),
       st.integers(0, 2 ** 32 - 1))
@example(m=17, w=5, fill=1.0, kinds=["tiny"] * 8 + [0], seed=0)
@example(m=17, w=33, fill=0.25, kinds=[243], seed=87567)
def test_warm_started_gauges_are_the_cold_gauges(m, w, fill, kinds, seed):
    """Gauges warm started from the anchors' gauge-to-mass ratios against
    every row started at its L^1 mass, to 1e-13 relative, zeros exactly:
    1, 2, 8k + 1 and 8k + 2 rows among others, gathered out of order, with
    all-zero rows, subnormal rows, rows of 1e-305 whose gauge is below
    1e-300 (anchors among them) and row maxima from 1e-250 to 1e250."""
    rng = np.random.default_rng(seed)
    rows = rng.lognormal(size=(m, w)) * (rng.random((m, w)) < fill)
    rows *= rng.choice([-1.0, 1.0], size=(m, w))
    peak = np.abs(rows).max(axis=1, keepdims=True)
    rows = np.divide(rows, peak, out=np.zeros_like(rows), where=peak > 0)
    for i, kind in enumerate(np.resize(np.array(kinds, dtype=object), m)):
        if kind == "zero":
            rows[i] = 0.0
        elif kind == "tiny":
            rows[i] *= 1e-305
        elif kind == "subnormal":
            rows[i] = np.where(rows[i] != 0, 5e-324, 0.0)
        else:
            rows[i] *= 10.0 ** kind
    perm = rng.permutation(m)
    phi = orlicz.log_damped()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orlicz.luxemburg_norm_rows(phi, _Permuted(rows, perm), 2.0 ** -6)
        ref = gauge_reference.cold_rows(phi, rows[perm], 2.0 ** -6)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("windows", [False, True], ids=["array", "windows"])
def test_gauge_rows_reject_nonfinite_samples(bad, windows):
    """One non-finite sample among ordinary rows raises InvalidDataError,
    not a 0.0 or inf gauge, and no NumPy warning."""
    vals = np.linspace(0.5, 2.0, 40)
    vals[17] = bad
    rows = slice_norms._Windows(vals, ball_mask(0.25, 2.0 ** -5, 1)) \
        if windows else vals.reshape(5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDataError, match="non-finite"):
            orlicz.luxemburg_norm_rows(orlicz.log_damped(), rows, 2.0 ** -5)


def test_gauge_rows_with_an_overflowing_mass_are_no_invalid_data():
    """A finite row whose L^1 mass overflows is no non-finite sample: its
    gauge is finite, 100 times that of the row scaled by 1/100, with no
    NumPy warning, and the other rows keep their gauges."""
    rows = np.array([[1e308, 1e308], [0.5, 2.0]])
    phi = orlicz.log_damped()
    got = orlicz.luxemburg_norm_rows(phi, rows, 2.0 ** -8)
    scaled = orlicz.luxemburg_norm_rows(phi, rows[:1] / 100, 2.0 ** -8)[0]
    assert got[0] == pytest.approx(100 * scaled, rel=1e-12)
    assert got[1] == orlicz.luxemburg_norm_rows(phi, rows[1:], 2.0 ** -8)[0]


@pytest.mark.parametrize("m", [0, 1, 9])
def test_gauge_rows_of_width_zero_are_zero(m):
    got = orlicz.luxemburg_norm_rows(orlicz.log_damped(), np.zeros((m, 0)),
                                     0.25)
    assert got.shape == (m,) and not got.any()
