"""Campanato/bmo sweeps and the atom duality pairing."""

import numpy as np
import pytest

from slicehardy import orlicz
from slicehardy.campanato import CampanatoParams, bmo_variant_norm, \
    campanato_local_norm, cube_sweep, dual_pairing, pairing_bound_check
from slicehardy.errors import InvalidDataError, PreconditionError
from slicehardy.grid import Cube, GridFunction
from slicehardy.slice_norms import SliceParams

H = 2.0 ** -7


@pytest.fixture(scope="module")
def sweep():
    return cube_sweep(range(-5, 4), np.arange(-2.0, 2.5, 0.5), 1)


@pytest.fixture(scope="module")
def slice_params():
    return SliceParams(1.0, 2.0, orlicz.power(2.0))


def _field(fn, lo=-2.0, hi=2.0):
    return GridFunction.from_callable(fn, (lo,), H, (int((hi - lo) / H),))


def test_campanato_zero(sweep, slice_params):
    g = _field(lambda x: 0.0 * x)
    p = CampanatoParams(slice_params, r=1.0, d=1, sweep=sweep)
    assert campanato_local_norm(g, p) == 0.0


def test_campanato_polynomial_small_branch_vanishes(slice_params):
    small_only = [Q for Q in cube_sweep(range(-5, 0),
                                        np.arange(-1.0, 1.5, 0.5), 1)]
    g = _field(lambda x: 1.0 + 2.0 * x)
    p = CampanatoParams(slice_params, r=1.0, d=1, sweep=small_only)
    assert campanato_local_norm(g, p) == pytest.approx(0.0, abs=1e-10)


def test_campanato_sweep_monotone(sweep, slice_params):
    g = _field(lambda x: np.sin(4 * x))
    half = sweep[::2]
    p_half = CampanatoParams(slice_params, r=1.0, d=0, sweep=half)
    p_full = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    assert campanato_local_norm(g, p_half) <= \
        campanato_local_norm(g, p_full) + 1e-14


def test_campanato_r_range():
    with pytest.raises(PreconditionError):
        CampanatoParams(SliceParams(1.0, 2.0, orlicz.power(2.0)), r=0.5)


def test_bmo_of_constant(sweep):
    one = _field(lambda x: np.ones_like(x), -4.0, 4.0)
    assert bmo_variant_norm(one, "bmo", sweep) == pytest.approx(1.0)


def test_bmo_phi_of_constant_exact(sweep):
    one = _field(lambda x: np.ones_like(x), -4.0, 4.0)
    v = bmo_variant_norm(one, "bmo_phi", sweep)
    assert v == pytest.approx(np.log(1.0 + np.e), abs=1e-12)


def test_bmo_log_grows_with_distance():
    vals = []
    for R in (1.0, 4.0, 16.0):
        one = GridFunction.constant(1.0, (R - 1.0,), H, (int(2 / H),))
        vals.append(bmo_variant_norm(one, "bmo_log", [Cube((R,), 1.0)]))
    assert vals[0] < vals[1] < vals[2]


def test_bmo_unknown_variant(sweep):
    with pytest.raises(ValueError):
        bmo_variant_norm(_field(lambda x: x), "bmo_squared", sweep)


def test_dual_pairing_bilinear(rng):
    f = GridFunction((0.0,), H, rng.standard_normal(32))
    g = GridFunction((0.0,), H, rng.standard_normal(32))
    k = GridFunction((0.0,), H, rng.standard_normal(32))
    lhs = dual_pairing(f + 2.0 * g, k)
    rhs = dual_pairing(f, k) + 2.0 * dual_pairing(g, k)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dual_pairing_half_oracle():
    f = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), H, (int(1 / H),))
    g = GridFunction.from_callable(lambda x: x, (0.0,), H, (int(1 / H),))
    assert dual_pairing(f, g) == pytest.approx(0.5, abs=H ** 2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shift, ext", [
    (3, 5),      # nested
    (-4, 12),    # partly overlapping
    (14, 6),     # disjoint
    (-9, 30),    # g holds f
])
def test_dual_pairing_matches_product_integral(rng, n, shift, ext):
    """Summing over the common cells equals integrating f * g on the
    union box."""
    f = GridFunction((0.25,) * n, H, rng.standard_normal((10,) * n))
    g = GridFunction((0.25 + shift * H,) * n, H,
                     rng.standard_normal((ext,) * n))
    expected = (f * g).integrate()
    assert dual_pairing(f, g) == pytest.approx(expected, rel=1e-14,
                                               abs=0.0)
    assert dual_pairing(g, f) == pytest.approx(expected, rel=1e-14,
                                               abs=0.0)
    if shift >= 10:
        assert dual_pairing(f, g) == 0.0


def test_dual_pairing_rejects_incompatible_grids():
    f = GridFunction((0.0,), H, np.ones(8))
    with pytest.raises(InvalidDataError):
        dual_pairing(f, GridFunction((H / 3,), H, np.ones(8)))
    with pytest.raises(InvalidDataError):
        dual_pairing(f, GridFunction((0.0,), H / 2, np.ones(8)))


def test_atom_orthogonal_to_polynomials(slice_params):
    """A mean-zero small-cube atom pairs to ~0 with degree-0 fields."""
    vals = np.zeros(int(1 / H))
    vals[:16] = 1.0
    vals[16:32] = -1.0
    a = GridFunction((0.0,), H, vals)
    g = GridFunction.constant(3.0, (0.0,), H, (int(1 / H),))
    assert abs(dual_pairing(a, g)) < 1e-12


def test_pairing_bound_holds_for_cz_atoms(dictionary_1d, sweep,
                                          slice_params):
    from slicehardy.atomic import CZParams, cz_decompose
    from slicehardy.maximal import MaximalParams

    mp = MaximalParams(dictionary=dictionary_1d,
                       ladder=dictionary_1d.scales)
    params = CZParams(slice_params=slice_params, maximal=mp, d=0, s=0.9)
    f = GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.8) ** 2), (0.0,), H, (int(2 / H),))
    dec = cz_decompose(f, params)
    g = _field(lambda x: np.cos(5 * x), -2.0, 4.0)
    cp = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    rep = pairing_bound_check(dec, g, cp)
    assert rep.summary["ok"]
    assert rep.summary["max_ratio"] <= 1.01


def test_pairing_bound_zero_field(dictionary_1d, sweep, slice_params):
    from slicehardy.atomic import CZParams, cz_decompose
    from slicehardy.maximal import MaximalParams

    mp = MaximalParams(dictionary=dictionary_1d,
                       ladder=dictionary_1d.scales)
    params = CZParams(slice_params=slice_params, maximal=mp, d=0, s=0.9)
    f = GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.8) ** 2), (0.0,), H, (int(2 / H),))
    dec = cz_decompose(f, params)
    z = _field(lambda x: 0.0 * x)
    cp = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    rep = pairing_bound_check(dec, z, cp)
    assert "skipped" in rep.summary
