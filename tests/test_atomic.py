"""Whitney covering, projections, CZ decomposition, atoms."""

import dataclasses
import math
import typing
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cz_reference
import eta_reference
import scipy_reference
from grid_reference import contains_points
from slicehardy import atomic, orlicz
from slicehardy.atomic import Atom, CZParams, atomic_quasinorm, \
    cz_decompose, multi_indices, reconstruct, validate_atom, \
    whitney_decompose
from slicehardy.campanato import CampanatoParams
from slicehardy.config import ScenarioConfig
from slicehardy.errors import DecompositionRangeError, NoBoundaryError, \
    PreconditionError, UnderdeterminedError
from slicehardy.grid import Cube, GridFunction
from slicehardy.kernels import bump_profile
from slicehardy.maximal import MaximalParams
from slicehardy.slice_norms import SliceParams, cube_indicator_slice_norm


@pytest.fixture(scope="module")
def cz_setup(dictionary_1d):
    mp = MaximalParams(dictionary_1d)
    sp = SliceParams(1.0, 2.0, orlicz.power(2.0))
    return CZParams(slice_params=sp, maximal=mp, d=0)


# -- polynomials ------------------------------------------------------------

def test_multi_indices_counts():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                   (2, 0)]


def _cube_fit(f, Q, d):
    """(coeffs, values) of the minimizing polynomial of degree d of f on
    cube Q, values on Q's cells: atomic._unit_fit, as the Campanato sweep
    fits it."""
    box = f.cube_slices(Q)
    coeffs, values = atomic._unit_fit(f.centers(box).reshape(-1, f.n), Q, d,
                                      f.values[box].ravel())
    return coeffs[0], values.reshape(f.values[box].shape)


def test_minimizing_polynomial_constant():
    h = 2.0 ** -6
    f = GridFunction.constant(3.5, (0.0,), h, (64,))
    _, values = _cube_fit(f, Cube((0.5,), 1.0), 2)
    np.testing.assert_allclose(values, 3.5, rtol=1e-12)


def test_minimizing_polynomial_mean_value():
    h = 2.0 ** -8
    f = GridFunction.from_callable(lambda x: x, (0.0,), h, (int(1 / h),))
    _, values = _cube_fit(f, Cube((0.5,), 1.0), 0)
    np.testing.assert_allclose(values, 0.5, rtol=0, atol=1e-12)


def test_minimizing_polynomial_quadratic_oracle():
    """x^2 on [0,1] with d=1 projects to x - 1/6 (2x2 moment system)."""
    h = 2.0 ** -9
    f = GridFunction.from_callable(lambda x: x ** 2, (0.0,), h,
                                   (int(1 / h),))
    _, values = _cube_fit(f, Cube((0.5,), 1.0), 1)
    np.testing.assert_allclose(values, f.axis_centers(0) - 1 / 6, rtol=0,
                               atol=1e-5)


def test_minimizing_polynomial_idempotent():
    h = 2.0 ** -6
    f = GridFunction.from_callable(lambda x: np.sin(3 * x), (0.0,), h,
                                   (64,))
    Q = Cube((0.5,), 1.0)
    c1, values = _cube_fit(f, Q, 1)
    c2, _ = _cube_fit(GridFunction(f.origin, f.h, values), Q, 1)
    assert np.allclose(c1, c2, atol=1e-10)


def test_minimizing_polynomial_underdetermined():
    """A one-cell cube against the four cubic monomials: the minimum-norm
    fit interpolates, so the oscillation it leaves is zero."""
    f = GridFunction.from_callable(lambda x: 1 + x ** 2, (0.0,), 0.5, (4,))
    _, values = _cube_fit(f, Cube((0.25,), 0.5), 3)
    assert values.shape == (1,)
    np.testing.assert_allclose(values, [1 + 0.25 ** 2], rtol=0, atol=1e-14)


def test_weighted_projection_constant():
    h = 2.0 ** -6
    eta = GridFunction.from_callable(
        lambda x: np.maximum(1 - np.abs(x - 0.5), 0.0), (0.0,), h, (64,))
    *_, values = _level_fit(eta, np.full(64, 2.0), 1)
    np.testing.assert_allclose(values[eta.values > 0], 2.0, rtol=1e-12)


def test_weighted_projection_quadrature_oracle():
    """d = 0 projection is the weighted mean int(x eta)/int(eta), which is
    not the plain mean of x when eta is off center."""
    h = 2.0 ** -8
    g = GridFunction.from_callable(lambda x: x, (0.0,), h, (int(1 / h),))
    for c in (0.5, 0.3):
        eta = GridFunction.from_callable(
            lambda x: np.exp(-(x - c) ** 2), (0.0,), h, (int(1 / h),))
        *_, values = _level_fit(eta, g.values, 0)
        expected = (g * eta).values.sum() / eta.values.sum()
        np.testing.assert_allclose(values, expected, rtol=1e-12)


def test_weighted_projection_one_cell_weight_interpolates():
    """A one-cell weight holds fewer cells than the degree-1 monomials: the
    projection interpolates g there, so every weighted moment vanishes."""
    eta = GridFunction((0.5,), 0.25, np.array([0.7]))
    *_, values = _level_fit(eta, np.array([1 + 0.625 ** 2]), 1)
    assert values == pytest.approx([1 + 0.625 ** 2], abs=1e-14)


@st.composite
def _polynomial_fits(draw):
    """A random polynomial of degree <= d in n = 1 or 2 variables, sampled
    on [0, 2]^n, with a cube Q of whole cells and a bump weight."""
    n = draw(st.sampled_from([1, 2]))
    d = draw(st.integers(0, 2))
    alphas = multi_indices(n, d)
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(alphas),
                           max_size=len(alphas)))
    h = draw(st.sampled_from([2.0 ** -3, 2.0 ** -4]))
    side = draw(st.sampled_from([0.5, 1.0]))
    lo = [draw(st.integers(0, int((2.0 - side) / h))) * h for _ in range(n)]
    Q = Cube(tuple(a + side / 2 for a in lo), side)
    center = [draw(st.floats(0.5, 1.5)) for _ in range(n)]
    radius = draw(st.floats(0.4, 1.0))

    def poly(*x):
        return sum(c * np.prod([xi ** a for xi, a in zip(x, alpha)], axis=0)
                   for c, alpha in zip(coeffs, alphas))

    def bump(*x):
        return np.prod([bump_profile(((xi - c) / radius)[..., None])
                        for xi, c in zip(x, center)], axis=0)

    ext = (int(2 / h),) * n
    f = GridFunction.from_callable(poly, (0.0,) * n, h, ext)
    eta = GridFunction.from_callable(bump, (0.0,) * n, h, ext)
    return f, Q, eta, d


@settings(max_examples=80, deadline=None)
@given(_polynomial_fits())
def test_moment_systems_reproduce_polynomials(case):
    """Both fits reproduce a polynomial of degree <= d, in 1-D and 2-D, and
    f - P_Q f has vanishing moments of order <= d on Q.  The eta step of
    the decomposition gives, bit for bit, the values of the per-call
    eta_reference.eta_fit on eta's positive cells, and zero elsewhere."""
    f, Q, eta, d = case
    box = f.cube_slices(Q)
    np.testing.assert_allclose(_cube_fit(f, Q, d)[1], f.values[box],
                               rtol=0, atol=1e-9)
    pos = eta.values > 0
    np.testing.assert_allclose(_level_fit(eta, f.values, d)[3][pos],
                               f.values[pos], rtol=0, atol=1e-9)
    g = f + GridFunction(f.origin, f.h, np.sin(3 * f.centers().sum(axis=-1)))
    r = GridFunction(g.box_view(box).origin, g.h,
                     g.values[box] - _cube_fit(g, Q, d)[1])
    assert atomic._moment_slack(r, Q, d) <= 1e-10
    *_, vals = _level_fit(eta, g.values, d)
    assert np.array_equal(vals, eta_reference.eta_fit(g.values, eta, d)[1])
    assert not vals[~pos].any()


@st.composite
def _sparse_weights(draw):
    """(eta, vals, d): a nonnegative weight on a small 1-D or 2-D box, off
    the lattice, positive on 1 to all of its cells (often fewer than the
    degree-d monomials), and samples on that box."""
    n = draw(st.sampled_from([1, 2]))
    d = draw(st.integers(0, 2))
    shape = tuple(draw(st.integers(1, 12 if n == 1 else 6))
                  for _ in range(n))
    size = int(np.prod(shape))
    count = draw(st.integers(1, 4) | st.integers(1, size))
    cells = draw(st.sets(st.integers(0, size - 1), min_size=1,
                         max_size=count))
    w = np.zeros(size)
    for i in cells:
        w[i] = draw(st.floats(1e-3, 1.0))
    h = draw(st.sampled_from([2.0 ** -5, 2.0 ** -3, 0.3]))
    origin = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
    vals = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size,
                                  max_size=size)))
    return (GridFunction(origin, h, w.reshape(shape)), vals.reshape(shape),
            d)


def _record(eta, d):
    """eta's moment record, as a level builds it for a one-box layout."""
    wins = atomic._Windows(np.zeros((1, eta.n), dtype=int),
                           np.array([eta.extents]))
    return atomic._Moments(wins, eta.values.ravel(), eta.origin[None],
                           eta.h, d, np.zeros(1, dtype=int))


def _level_fit(eta, vals, d):
    """(center, scale, coeffs, values) of the eta-weighted projection of
    vals by the levels' path, values on eta's box, zero off its positive
    cells."""
    m = _record(eta, d)
    coeffs, fit = atomic._fit(m.V, m.w, m.count, vals.ravel()[m.at])
    out = np.zeros(eta.values.size)
    out[m.at] = fit
    return (tuple(m.center[0]), float(m.scale[0]), coeffs[0],
            out.reshape(eta.extents))


def _assert_fit_is_slow_fit(eta, vals, d):
    """The level path fits vals as the per-call fit does, bits and errors:
    a Gram matrix of cells on one line (2-D, d >= 1) is singular in both,
    and both take the minimum-norm weighted least-squares fit."""
    try:
        (center, scale, _, coeffs), out = eta_reference.eta_fit(vals, eta, d)
    except UnderdeterminedError:
        with pytest.raises(UnderdeterminedError):
            _level_fit(eta, vals, d)
        return
    c, s, got, values = _level_fit(eta, vals, d)
    assert (c, s) == (center, scale)
    assert np.array_equal(got, coeffs)
    assert np.array_equal(values, out)


@settings(max_examples=200, deadline=None)
@given(_sparse_weights())
def test_moment_record_fit_is_the_per_call_fit_bit_for_bit(case):
    """One eta's record, built once, fits any right-hand side with the
    bits of the per-call fit that rebuilt bounds, centers and the Gram
    matrix each time, for n = 1, 2 and d = 0, 1, 2, with or without a
    Gram matrix."""
    eta, vals, d = case
    m = _record(eta, d)
    assert m.V.shape == (int((eta.values > 0).sum()),
                         len(multi_indices(eta.n, d)))
    for rhs in (vals, np.sin(3 * vals) - vals):
        _assert_fit_is_slow_fit(eta, rhs, d)


@pytest.mark.parametrize("n,d,cells", [(1, 1, 1), (1, 2, 2), (2, 1, 2),
                                       (2, 2, 5)])
def test_moment_record_without_gram_matrix_interpolates(n, d, cells):
    """Fewer positive cells than monomials: no Gram matrix is formed, and
    the minimum-norm fit interpolates, as the per-call fit does."""
    w = np.zeros((3,) * n)
    w.flat[:cells] = 0.5
    eta = GridFunction((0.25,) * n, 0.125, w)
    vals = np.arange(w.size, dtype=float).reshape(w.shape) ** 2
    assert _record(eta, d).V.shape[0] == cells < len(multi_indices(n, d))
    _assert_fit_is_slow_fit(eta, vals, d)
    np.testing.assert_allclose(_level_fit(eta, vals, d)[3][w > 0],
                               vals[w > 0], rtol=0, atol=1e-12)


def test_singular_gram_matrix_takes_the_least_squares_fit():
    """A 4 x 4 box at d = 4 holds more cells (16) than monomials (15), but
    x^4 and y^4 are cubics on its 4 abscissae, and at a uniform weight its
    Gram matrix is singular (np.linalg.solve raises, as it did on a 2-D
    degree-4 run): the fit is the minimum-norm weighted least-squares
    one, as in the per-call fit, and f - P has vanishing moments."""
    eta = GridFunction((0.0, 0.0), 0.125, np.full((4, 4), 0.5))
    vals = np.random.default_rng(5).normal(size=(4, 4))
    m = _record(eta, 4)
    assert m.V.shape == (16, 15) and np.linalg.matrix_rank(m.V) == 13
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(m.V.T @ (m.V * m.w[:, None]), m.V.T @ m.w)
    residual = (vals - _level_fit(eta, vals, 4)[3]).ravel()[m.at]
    np.testing.assert_allclose(m.V.T @ (m.w * residual), 0.0, atol=1e-12)
    _assert_fit_is_slow_fit(eta, vals, 4)


@st.composite
def _moment_layouts(draw):
    """A level-like layout of 1 to 8 boxes of 1 to 6 cells per axis, in
    1-D or 2-D, each with some positive weights (tiny ones too, and often
    fewer than the degree-d monomials), the records of most boxes, and
    fits of their own samples and of random right-hand sides of records
    drawn again and again, as partners are, as one right-hand side or as
    1 to 4 columns of them: (source, mom, recs, vals)."""
    n, d = draw(st.sampled_from([1, 2])), draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    boxes = draw(st.integers(1, 8))
    ext = rng.integers(1, 7 if n == 1 else 4, size=(boxes, n))
    wins = atomic._Windows(rng.integers(0, 20, size=(boxes, n)), ext)
    scale = np.where(rng.random(wins.start[-1]) < 0.2,
                     10.0 ** rng.uniform(-300, -100, wins.start[-1]),
                     rng.uniform(1e-3, 1.0, wins.start[-1]))
    eta = np.where(rng.random(wins.start[-1]) < 0.6, scale, 0.0)
    eta[wins.start[:-1]] = scale[wins.start[:-1]]  # one positive cell each
    h = draw(st.sampled_from([2.0 ** -5, 2.0 ** -3, 0.3]))
    origin = rng.uniform(-2.0, 2.0, n) + wins.lo * h
    keep = rng.random(boxes) < 0.8
    keep[rng.integers(boxes)] = True
    ids = np.flatnonzero(keep)
    mom = atomic._Moments(wins, eta, origin, h, d, ids)
    recs = np.concatenate([np.arange(ids.size), rng.integers(
        0, ids.size, size=draw(st.integers(0, 12)))])
    cols = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    vals = rng.normal(size=(int(mom.count[recs].sum()),) + cols)
    return (wins, eta, origin, h, d), mom, recs, vals


@settings(max_examples=300, deadline=None)
@given(_moment_layouts())
def test_stacked_moment_solves_are_the_per_call_solves_bit_for_bit(case):
    """The stacked Gram matrices, right-hand sides and solves of _fit, one
    call per system shape, give each fit the bits, or the error, of the
    per-call eta_reference.moment_fit on a system rebuilt from its eta
    alone, at d = 0 and 1, in 1-D and 2-D, with and without a Gram
    matrix, for one right-hand side or a column of them per field."""
    source, mom, recs, vals = case
    e = np.concatenate([mom.first[r] + np.arange(mom.count[r])
                        for r in recs])
    try:
        ref = eta_reference.record_fits(*source, mom, recs, vals)
    except UnderdeterminedError:
        with pytest.raises(UnderdeterminedError):
            atomic._fit(mom.V[e], mom.w[e], mom.count[recs], vals)
        return
    got = atomic._fit(mom.V[e], mom.w[e], mom.count[recs], vals)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


def test_weighted_projection_degenerate_weight():
    eta = GridFunction.constant(0.0, (0.0,), 0.25, (8,))
    with pytest.raises(UnderdeterminedError):
        _level_fit(eta, np.ones(8), 0)


# -- Whitney covering -------------------------------------------------------

def test_whitney_empty():
    O = GridFunction.constant(0.0, (0.0,), 0.25, (8,))
    assert whitney_decompose(O) == []


def test_whitney_full_box_rejected():
    O = GridFunction.constant(1.0, (0.0,), 0.25, (8,))
    with pytest.raises(NoBoundaryError):
        whitney_decompose(O)


def _interval_set(h, cells, lo, hi):
    vals = np.zeros(cells)
    centers = (np.arange(cells) + 0.5) * h
    vals[(centers > lo) & (centers < hi)] = 1.0
    return GridFunction((0.0,), h, vals)


def test_whitney_covers_exactly():
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    covered = np.zeros(O.extents, dtype=bool)
    for Q in cubes:
        covered |= O.cell_mask(Q)
    assert np.array_equal(covered, O.values > 0)


def test_whitney_distance_inequality():
    """diam <= dist to the complement for every non-leaf cube."""
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    comp = O.axis_centers(0)[O.values == 0]
    assert any(Q.side > h for Q in cubes)
    for Q in cubes:
        if Q.side <= h:  # leaves bottom out at the grid floor
            continue
        dist = min(min(abs(c - Q.lo[0]), abs(c - Q.hi[0])) for c in comp)
        assert Q.side <= dist + h  # one-cell quadrature slack


@st.composite
def _edt_masks(draw):
    """Random masks with at least one False cell, some with whole rows or
    columns False or True, some with the whole box edge False (as the
    Whitney cover pads its set)."""
    n = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(1, 60), min_size=n,
                                max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random(shape) < draw(st.sampled_from([0.05, 0.5, 0.9, 1.0]))
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.integers(0, n - 1))
        line = draw(st.integers(0, shape[axis] - 1))
        index = (slice(None),) * axis + (line,)
        mask[index] = draw(st.booleans())
    if draw(st.booleans()):
        mask = np.pad(mask, 1)
    if mask.all():
        mask.flat[draw(st.integers(0, mask.size - 1))] = False
    return mask


@settings(max_examples=200, deadline=None)
@given(mask=_edt_masks())
def test_edt_is_distance_transform_edt_bit_for_bit(mask):
    """The exact transform against ndimage.distance_transform_edt."""
    got = atomic._edt(mask)
    assert got.dtype == float
    assert np.array_equal(got, scipy_reference.edt(mask))


def _overlap_max(n):
    """Bounded-overlap cap for the dilated Whitney cubes."""
    return 12 ** n


def test_whitney_bounded_overlap():
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    counts = np.zeros(O.extents)
    for Q in cubes:
        dilated = Cube(Q.center, Q.side * (9 / 8))
        counts += O.cell_mask(dilated).astype(float)
    assert counts.max() <= _overlap_max(1)


@st.composite
def _whitney_sets(draw):
    """A 1-D or 2-D open set on a box whose extents are not powers of two:
    one to three boxes with a share of their cells removed at random, so
    that wide cubes and grid-floor cubes both occur."""
    n = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 300 if n == 1 else 60)
                       .filter(lambda e: e & (e - 1))) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.zeros(shape)
    for _ in range(draw(st.integers(1, 3))):
        lo = rng.integers(0, shape)
        values[tuple(map(slice, lo, rng.integers(lo + 1, shape,
                                                 endpoint=True)))] = 1.0
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.01, 0.1]))] = 0
    values.flat[rng.integers(values.size)] = 1.0
    if values.all():
        values.flat[rng.integers(values.size)] = 0.0
    h = draw(st.sampled_from([2.0 ** -k for k in range(2, 7)] + [0.3]))
    origin = tuple(draw(st.floats(-3.0, 3.0, allow_subnormal=False))
                   for _ in range(n))
    return GridFunction(origin, h, values)


@settings(max_examples=150, deadline=None)
@given(_whitney_sets())
def test_whitney_cover_of_random_open_sets(O):
    """The cubes tile {O > 0} exactly; each cube wider than one cell has
    diam(Q) <= dist(Q, complement), the complement being the cells of
    O <= 0 and the outside of the box, in exact integer cell units; each
    floor cube's eta has one positive cell; the etas overlap at most
    _overlap_max(n) times."""
    mask = O.values > 0
    cubes = whitney_decompose(O)
    etas = eta_reference.local_etas(cubes, O)
    comp = np.argwhere(~np.pad(mask, 1)) - 1
    tiles = np.zeros(O.extents, dtype=int)
    overlap = np.zeros(O.extents, dtype=int)
    for Q, eta in zip(cubes, etas):
        m = int(round(Q.side / O.h))
        lo = np.rint((np.array(Q.lo) - O.origin) / O.h).astype(int)
        tiles[tuple(map(slice, lo, lo + m))] += 1
        if m > 1:
            gap = np.maximum(np.maximum(comp - (lo + m), lo - 1 - comp), 0)
            assert m * m * O.n <= (gap ** 2).sum(axis=1).min()
        else:
            assert np.count_nonzero(eta.values > 0) == 1
        overlap[_eta_box(O, eta)] += eta.values > 0
    assert np.array_equal(tiles, mask.astype(int))
    assert overlap.max() <= _overlap_max(O.n)


def _eta_box(O, eta):
    """Index box of eta's samples on O's grid."""
    lo = np.rint((eta.origin - O.origin) / O.h).astype(int)
    return tuple(map(slice, lo, lo + eta.extents))


def _disk_set(h, cells, radius):
    g = GridFunction((0.0, 0.0), h, np.zeros((cells, cells)))
    pts = g.centers() - cells * h / 2
    g.values[np.hypot(pts[..., 0], pts[..., 1]) < radius] = 1.0
    return g


def _assert_partition_of_unity(O):
    """Each eta lives on its own box; embedded into O's box, the etas
    sum to 1 on O and to exactly 0 off it."""
    cubes = whitney_decompose(O)
    etas = eta_reference.local_etas(cubes, O)
    assert any(e.extents != O.extents for e in etas)
    total = np.sum([e.embed(O.origin, O.extents).values for e in etas],
                   axis=0)
    assert np.array_equal(total > 0, O.values > 0)
    np.testing.assert_allclose(total[O.values > 0], 1.0, rtol=0,
                               atol=1e-14)
    for e in etas:
        assert e.values.min() >= 0
        assert e.values.max() <= 1 + 1e-14


def test_partition_of_unity_sums_to_indicator():
    _assert_partition_of_unity(_interval_set(2.0 ** -6, 128, 0.25, 1.25))


def test_partition_of_unity_sums_to_indicator_2d():
    _assert_partition_of_unity(_disk_set(2.0 ** -4, 32, 0.7))


@st.composite
def _open_sets(draw):
    """A small 1-D or 2-D grid whose positive cells neither vanish nor
    fill the box, on a lattice or off-lattice origin."""
    n = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(2, 40 if n == 1 else 14))
                  for _ in range(n))
    h = draw(st.sampled_from([2.0 ** -k for k in range(2, 7)] + [0.3]))
    origin = tuple(draw(st.floats(-3.0, 3.0, allow_subnormal=False))
                   for _ in range(n))
    flat = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape)))
                .filter(lambda v: any(v) and not all(v)))
    return GridFunction(origin, h, np.reshape(flat, shape).astype(float))


@settings(max_examples=150, deadline=None)
@given(_open_sets())
def test_local_etas_match_full_grid_reference(O):
    cubes = whitney_decompose(O)
    local = eta_reference.local_etas(cubes, O)
    full = cz_reference.partition_of_unity(cubes, O)
    assert len(local) == len(full)
    for e, ref in zip(local, full):
        assert np.array_equal(e.embed(O.origin, O.extents).values,
                              ref.values)


@st.composite
def _box_unions(draw):
    """A 1-D or 2-D grid with any spacing whose open set is a union of one
    to three boxes inside it.  Only cubes of 16 cells or more have
    dilations that overlap at a cell center, where eta is not 0 or 1 and
    so shows the bits of the profiles; these sets hold such cubes."""
    n = draw(st.sampled_from([1, 2]))
    m = 256 if n == 1 else 64
    values = np.zeros((m,) * n)
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.integers(1, m - 2)) for _ in range(n)]
        values[tuple(slice(a, draw(st.integers(a + 1, m - 1)))
                     for a in lo)] = 1.0
    h = draw(st.floats(0.01, 0.5))
    origin = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(n))
    return GridFunction(origin, h, values)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_open_sets(), _box_unions()))
def test_per_axis_bumps_match_the_per_cube_loop(O):
    """The bump profiles of all cubes, one flat array of their windows per
    axis, give every eta of the loop over cubes bit for bit, on the same
    box."""
    cubes = whitney_decompose(O)
    fast = eta_reference.local_etas(cubes, O)
    slow = eta_reference.partition_of_unity(cubes, O)
    assert len(fast) == len(slow) == len(cubes)
    for e, ref in zip(fast, slow):
        assert np.array_equal(e.origin, ref.origin)
        assert np.array_equal(e.values, ref.values)


def test_partition_of_unity_supports():
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    for Q, eta in zip(cubes, eta_reference.local_etas(cubes, O)):
        dilated = Cube(Q.center, Q.side * (9 / 8))
        outside = eta.values[~eta.cell_mask(dilated)]
        assert np.abs(outside).max(initial=0.0) == 0.0


# -- decomposition pipeline -------------------------------------------------

def test_cz_zero_function(cz_setup):
    f = GridFunction.constant(0.0, (0.0,), 2.0 ** -7, (64,))
    dec = cz_decompose(f, cz_setup)
    assert len(dec.entries) == 0
    assert reconstruct(dec).max_abs() == 0.0


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
def test_cz_params_reject_a_nonpositive_size_exponent(dictionary_1d, r):
    sp = SliceParams(1.0, 2.0, orlicz.power(2.0))
    with pytest.raises(PreconditionError, match="size exponent"):
        CZParams(slice_params=sp, maximal=MaximalParams(dictionary_1d), r=r)
    assert typing.get_type_hints(CZParams)["maximal"] is MaximalParams


@pytest.mark.parametrize("make,named", [
    (lambda sp, mp: CZParams(sp, mp, c0=np.nan), "c0 .*: nan"),
    (lambda sp, mp: CZParams(sp, mp, c0=0.0), "c0 .*: 0.0"),
    (lambda sp, mp: CZParams(sp, mp, c0=-4.5), "c0 .*: -4.5"),
    (lambda sp, mp: CZParams(sp, mp, c0=np.inf), "c0 .*: inf"),
    (lambda sp, mp: CZParams(sp, mp, tol_moment=np.nan), "tol_moment .*: nan"),
    (lambda sp, mp: CZParams(sp, mp, tol_moment=-1e-8),
     "tol_moment .*: -1e-08"),
    (lambda sp, mp: CZParams(sp, mp, tol_moment=np.inf), "tol_moment .*: inf"),
    (lambda sp, mp: CampanatoParams(sp, d=-1), "d .*: -1"),
    (lambda sp, mp: CampanatoParams(sp, d=1.5), "d .*: 1.5"),
    (lambda sp, mp: CampanatoParams(sp, d="1"), "d .*: '1'"),
    (lambda sp, mp: orlicz.from_tag("power:abc"), "'power:abc'"),
], ids=["c0-nan", "c0-zero", "c0-negative", "c0-inf", "tol_moment-nan",
        "tol_moment-negative", "tol_moment-inf", "campanato-d-negative",
        "campanato-d-float", "campanato-d-str", "tag-power-abc"])
def test_bad_parameters_raise_named_errors_at_construction(dictionary_1d,
                                                           make, named):
    """Each bad value raises a PreconditionError that names it, in the
    domain ScenarioConfig.validate gives its key, when the object is
    built."""
    sp = SliceParams(1.0, 2.0, orlicz.power(2.0))
    with pytest.raises(PreconditionError, match=named):
        make(sp, MaximalParams(dictionary_1d))


def test_cz_degree_hypothesis(dictionary_1d):
    mp = MaximalParams(dictionary_1d)
    sp = SliceParams(1.0, 0.25, orlicz.power(0.25))
    params = CZParams(slice_params=sp, maximal=mp, d=0)
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -7, (64,))
    with pytest.raises(PreconditionError):
        cz_decompose(f, params)


@pytest.fixture(scope="module")
def bump_dec(cz_setup):
    h = 2.0 ** -7
    f = GridFunction.from_callable(
        lambda x: np.exp(-40 * (x - 1.2) ** 2)
        + 0.4 * np.sin(15 * x) * np.exp(-25 * (x - 2.4) ** 2),
        (0.0,), h, (int(4 / h),))
    return f, cz_decompose(f, cz_setup)


def test_cz_far_faint_bump_exhausts_the_level_range():
    """A unit bump at x = 1 and a 1e-11 one at x = 39 on [0, 40): the
    maximal function on the faint bump's dilated support stays below the
    lowest level MAX_LEVELS under the top one."""
    cfg = ScenarioConfig(h=2.0 ** -6).validate()
    f = GridFunction.from_callable(
        lambda x: bump_profile((x - 1.0)[:, None])
        + 1e-11 * bump_profile((x - 39.0)[:, None]),
        (0.0,), cfg.h, (int(40 / cfg.h),))
    with pytest.raises(DecompositionRangeError, match="no level within"):
        cz_decompose(f, cfg.cz_params(cfg.maximal_params()))


def test_cz_round_trip(bump_dec):
    f, dec = bump_dec
    rec = reconstruct(dec)
    fe = f.embed(rec.origin, rec.extents)
    err = np.abs(rec.values - fe.values).max() / f.max_abs()
    assert err <= 1e-10


def test_cz_atoms_validate(bump_dec, cz_setup):
    _, dec = bump_dec
    assert len(dec.entries) > 0
    for atom in dec.entries:
        rep = validate_atom(atom, cz_setup)
        assert rep.summary["valid"], (atom.level, atom.index, rep.rows)


def test_cz_pointwise_level_bound(bump_dec):
    _, dec = bump_dec
    K = dec.pointwise_constant
    assert np.isfinite(K) and K > 0
    for atom in dec.entries:
        sup = atom.lam * atom.values.max_abs()
        assert sup <= K * 2.0 ** atom.level * (1 + 1e-12)


def test_cz_reconstruct_order_independent(bump_dec):
    _, dec = bump_dec
    r1 = reconstruct(dec)
    import copy
    shuffled = copy.copy(dec)
    shuffled.entries = list(reversed(dec.entries))
    r2 = reconstruct(shuffled)
    assert np.array_equal(r1.values, r2.values)


@st.composite
def _atom_lists(draw):
    """A decomposition of 0 to 12 atoms on one lattice of h, 1-D or 2-D:
    whole-cell origins off the remainder's box and overlapping, samples
    with zeros and signed zeros, tied sort keys, and a zero remainder."""
    n = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([2.0 ** -6, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    base = rng.uniform(-3.0, 3.0, n)
    residual = GridFunction(base, h, np.zeros(tuple(rng.integers(1, 9, n))))
    atoms = []
    for i in range(draw(st.integers(0, 12))):
        v = rng.normal(size=tuple(rng.integers(1, 7, n)))
        v[rng.random(v.shape) < 0.2] = rng.choice([0.0, -0.0])
        origin = base + rng.integers(-6, 12, n) * h
        atoms.append(Atom(Cube(tuple(origin), 1.0), GridFunction(origin, h, v),
                          int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                          float(rng.uniform(0.1, 9))))
    return atomic.Decomposition(atoms, 0, 2, residual, None)


@settings(max_examples=200, deadline=None)
@given(_atom_lists())
def test_reconstruct_is_the_chained_sum_bit_for_bit(dec):
    """One covering buffer gives the origin, the extents and the bytes of
    the chained sum of grid functions in the same entry order."""
    got, ref = reconstruct(dec), cz_reference.reconstruct(dec)
    assert np.array_equal(got.origin, ref.origin)
    assert got.extents == ref.extents
    assert got.values.tobytes() == ref.values.tobytes()


@pytest.fixture(scope="module")
def cz_2d():
    """A 32x32 log-damped bump, its config and its decomposition."""
    cfg = ScenarioConfig(n=2, h=1 / 8, functional_tag="log_damped", t=0.5,
                         q=1.0, b=5.0, N=6, ladder_depth=2,
                         family_spec="bumps:count=1").validate()
    (f,) = cfg.family(0)
    return cfg, f, cz_decompose(f, cfg.cz_params(cfg.maximal_params()))


def _assert_round_trip_and_valid_atoms(f, dec, params):
    rec = reconstruct(dec)
    fe = f.embed(rec.origin, rec.extents)
    assert np.abs(rec.values - fe.values).max() / f.max_abs() \
        <= ScenarioConfig.tol_rec
    for atom in dec.entries:
        rep = validate_atom(atom, params)
        assert rep.summary["valid"], (atom.level, atom.index, rep.rows)


def test_cz_degree_one(bump_dec, cz_setup):
    """d = 1 decomposes although the grid-floor Whitney cubes carry
    one-cell etas, whose degree-1 weighted systems are singular."""
    f, _ = bump_dec
    params = dataclasses.replace(cz_setup, d=1)
    dec = cz_decompose(f, params)
    assert len(dec.entries) > 0
    _assert_round_trip_and_valid_atoms(f, dec, params)


def test_cz_two_dimensional_degree_one(cz_2d):
    _, f, dec = cz_2d
    params = dataclasses.replace(dec.params, d=1)
    dec = cz_decompose(f, params)
    assert len(dec.entries) > 0
    _assert_round_trip_and_valid_atoms(f, dec, params)


def test_cz_two_dimensional_round_trip_and_atoms(cz_2d):
    """A 32x32 log-damped bump decomposes, reconstructs to tol_rec and
    emits only valid atoms."""
    cfg, f, dec = cz_2d
    assert f.extents == (32, 32)
    assert len(dec.entries) > 0
    rec = reconstruct(dec)
    fe = f.embed(rec.origin, rec.extents)
    assert np.abs(rec.values - fe.values).max() / f.max_abs() <= cfg.tol_rec
    for atom in dec.entries:
        rep = validate_atom(atom, dec.params)
        assert rep.summary["valid"], (atom.level, atom.index, rep.rows)


@cache
def _cz_params(n):
    """The CZ parameters of a 1-D power:2 config at h = 2^-6, and of the
    2-D log_damped config of the cz_2d fixture (h = 1/8)."""
    if n == 1:
        cfg = ScenarioConfig(h=2.0 ** -6)
    else:
        cfg = ScenarioConfig(n=2, h=1 / 8, functional_tag="log_damped",
                             t=0.5, q=1.0, b=5.0, N=6, ladder_depth=2)
    cfg = cfg.validate()
    return cfg.h, cfg.cz_params(cfg.maximal_params())


@st.composite
def _bump_families(draw):
    """n, d and a sum of one to three Gaussian bumps on [0, L)^n, L = 4
    in 1-D (256 cells) and 2 in 2-D (16 x 16), each with a signed
    amplitude, its own width and its own center."""
    n, d = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    h, _ = _cz_params(n)
    L = 4.0 if n == 1 else 2.0
    x = np.meshgrid(*[(np.arange(int(L / h)) + 0.5) * h] * n, indexing="ij")
    vals = np.zeros(x[0].shape)
    for _ in range(draw(st.integers(1, 3))):
        amp = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1, 1]))
        width = draw(st.floats(0.05, 0.5))
        center = draw(st.lists(st.floats(L / 8, 7 * L / 8), min_size=n,
                               max_size=n))
        vals += amp * np.exp(-sum(((xi - c) / width) ** 2
                                  for xi, c in zip(x, center)))
    return n, d, GridFunction((0.0,) * n, h, vals)


@settings(max_examples=24, deadline=None)
@given(_bump_families())
def test_reconstruction_of_random_bump_families(case):
    """In 1-D and 2-D, at d = 0 and 1, the atoms and the remainder sum
    back to f within tol_rec, and every atom is valid."""
    n, d, f = case
    params = dataclasses.replace(_cz_params(n)[1], d=d)
    _assert_round_trip_and_valid_atoms(f, cz_decompose(f, params), params)


def _assert_same_atoms(dec, ref):
    assert len(dec.entries) == len(ref.entries) > 0
    assert dec.pointwise_constant == ref.pointwise_constant
    for a, b in zip(dec.entries, ref.entries):
        assert (a.cube, a.lam, a.level, a.index) == \
            (b.cube, b.lam, b.level, b.index)
        assert np.array_equal(a.values.origin, b.values.origin)
        assert np.array_equal(a.values.values, b.values.values)


def test_local_pipeline_matches_full_grid_reference_1d(monkeypatch):
    """Atoms of the default 1-D family, bit for bit against every eta,
    bad part and corrected piece held on the whole grid."""
    cfg = ScenarioConfig().validate()
    params = cfg.cz_params(cfg.maximal_params())
    family = cfg.family(0)
    decs = [cz_decompose(f, params) for f in family]
    cz_reference.use_full_grid(monkeypatch)
    for f, dec in zip(family, decs):
        _assert_same_atoms(dec, cz_decompose(f, params))


def test_local_pipeline_matches_full_grid_reference_2d(cz_2d, monkeypatch):
    cfg, f, dec = cz_2d
    cz_reference.use_full_grid(monkeypatch)
    _assert_same_atoms(dec, cz_decompose(f, dec.params))


@cache
def _scaling_case(member):
    """(f, params, decomposition) of default member 0 to 9 (1-D), or of the
    cz_2d workload's 64 x 64 member (10)."""
    if member < 10:
        cfg = ScenarioConfig().validate()
        f = cfg.family(0)[member]
    else:
        cfg = ScenarioConfig(n=2, h=1 / 16, functional_tag="log_damped",
                             t=0.5, q=1.0, b=5.0, N=6,
                             family_spec="bumps:count=1").validate()
        (f,) = cfg.family(0)
    params = cfg.cz_params(cfg.maximal_params())
    return f, params, cz_decompose(f, params)


@settings(max_examples=40, deadline=None)
@example(member=1, e=-600).via("a default member far down")
@example(member=4, e=-37).via("a member with subnormal samples")
@example(member=2, e=700).via("far up")
@example(member=10, e=-37).via("the 2-D member")
@example(member=10, e=700).via("the 2-D member far up")
@given(member=st.integers(0, 10), e=st.integers(-850, 700))
def test_decomposition_commutes_with_powers_of_two(member, e):
    """cz_decompose(2^e f) is cz_decompose(f) with every lambda times 2^e
    and every level, j_lo and j_hi moved by e: the same cubes, indices,
    atom samples and pointwise constant, bit for bit, and 2^e times its
    reconstruction.  e is raised until no sample of 2^e f is subnormal;
    below about e = -900 the products of the default members with the
    partition's smallest weights go subnormal, so e stays above -850."""
    f, params, dec = _scaling_case(member)
    mag = np.abs(f.values)
    e = max(e, -1021 - int(np.frexp(mag[mag > 0].min())[1]))
    got = cz_decompose(GridFunction(f.origin, f.h, np.ldexp(f.values, e)),
                       params)
    assert (got.j_lo, got.j_hi) == (dec.j_lo + e, dec.j_hi + e)
    assert got.pointwise_constant == dec.pointwise_constant
    assert len(got.entries) == len(dec.entries) > 0
    for a, b in zip(got.entries, dec.entries):
        assert (a.cube, a.index, a.level) == (b.cube, b.index, b.level + e)
        assert a.lam == math.ldexp(b.lam, e)
        assert np.array_equal(a.values.origin, b.values.origin)
        assert a.values.values.tobytes() == b.values.values.tobytes()
    rec, ref = reconstruct(got), reconstruct(dec)
    assert np.array_equal(rec.origin, ref.origin)
    assert np.array_equal(rec.values, np.ldexp(ref.values, e))


@pytest.mark.parametrize("e", [-700, 700])
def test_atomic_quasinorm_of_a_power_of_two_multiple(bump_dec, cz_setup, e):
    """At e = +-700, where |f|^2 over- or underflows, the atomic quasi-norm
    of 2^e f's decomposition is finite, without a NumPy warning, and 2^e
    times f's."""
    f, dec = bump_dec
    far = cz_decompose(GridFunction(f.origin, f.h, np.ldexp(f.values, e)),
                       cz_setup)
    for s in (0.5, 0.9):
        assert atomic_quasinorm(far, s) == pytest.approx(
            math.ldexp(atomic_quasinorm(dec, s), e), rel=1e-13, abs=0)


def test_atoms_are_validated_against_the_tol_moment_of_their_params(
        bump_dec, cz_setup):
    """validate_atom(atom, dec.params) reads the moment tolerance of the
    CZParams that made the atom: at tol_moment 0 and 1e-6, each moments
    row's bound is that tol_moment, and its ok says slack <= tol_moment.
    Every atom is valid at both: the decomposition keeps a cube small by
    the slack of the atom, the piece over lambda, that validate_atom
    measures."""
    f, _ = bump_dec
    for tol in (0.0, 1e-6):
        dec = cz_decompose(f, dataclasses.replace(cz_setup, tol_moment=tol))
        rows = []
        for atom in dec.entries:
            rep = validate_atom(atom, dec.params)
            moments = [row for row in rep.rows if row[0] == "moments"]
            assert len(moments) == (atom.cube.side < 1.0)
            rows += moments
            assert rep.summary["valid"]
        assert rows
        for _, slack, bound, ok in rows:
            assert bound == dec.params.tol_moment == tol
            assert ok == (slack <= tol)


def test_atomic_quasinorm_single_atom(cz_setup):
    """lambda = ||1_Q|| collapses the functional to ||1_Q|| itself."""
    h = 2.0 ** -7
    sp = cz_setup.slice_params
    norm_1q = cube_indicator_slice_norm(sp, int(1 / h), h, 1)
    # 1_Q / ||1_Q||, Q = [0, 1) the whole grid
    vals = GridFunction.constant(1.0, (0.0,), h, (int(1 / h),)) / norm_1q
    atom = Atom(cube=Cube((0.5,), 1.0), values=vals, level=0, index=0,
                lam=norm_1q)
    dec = atomic.Decomposition([atom], 0, 0, vals * 0.0, cz_setup)
    assert atomic_quasinorm(dec, 0.9) == pytest.approx(norm_1q, rel=1e-9)


def test_atomic_quasinorm_empty(cz_setup):
    z = GridFunction.constant(0.0, (0.0,), 2.0 ** -7, (8,))
    dec = atomic.Decomposition([], 0, -1, z, cz_setup)
    assert atomic_quasinorm(dec, 0.9) == 0.0


def test_atomic_quasinorm_exponent_range(bump_dec):
    _, dec = bump_dec
    with pytest.raises(PreconditionError):
        atomic_quasinorm(dec, 1.5)


def test_validate_atom_flags_size_violation(cz_setup):
    h = 2.0 ** -7
    sp = cz_setup.slice_params
    norm_1q = cube_indicator_slice_norm(sp, int(1 / h), h, 1)
    # 2 1_Q / ||1_Q||, Q = [0, 1) the whole grid
    vals = GridFunction.constant(1.0, (0.0,), h, (int(1 / h),)) \
        * (2.0 / norm_1q)
    atom = Atom(cube=Cube((0.5,), 1.0), values=vals, level=0, index=0,
                lam=1.0)
    rep = validate_atom(atom, cz_setup)
    assert not rep.summary["valid"]
    assert rep.summary["size_slack"] == pytest.approx(np.log(2.0))


def _cz_fixtures(bump_dec, cz_setup, cz_2d):
    """(f, params) of the 1-D and 2-D fixtures at d = 0 and d = 1."""
    (f1, _), (_, f2, dec2) = bump_dec, cz_2d
    return [(f, dataclasses.replace(p, d=d))
            for f, p in ((f1, cz_setup), (f2, dec2.params))
            for d in (0, 1)]


def _floor_zero_cubes(cubes, etas, above):
    """Indices of the small cubes of a level whose eta is one cell of
    value 1.0 where no eta of the level above (above: its etas and its
    skipped cubes) is positive but one of a skipped cube, counted eta by
    eta: those whose pieces are exactly 0.  Also the number of those
    where such a skipped cube's eta is positive."""
    out, on_skipped = [], 0
    for k, (Q, eta) in enumerate(zip(cubes, etas)):
        if Q.side < 1.0 and eta.values.size == 1 \
                and eta.values.item() == 1.0:
            positive = []
            for i, e in enumerate(above[0]):
                cell = np.rint((eta.origin - e.origin) / e.h).astype(int)
                if np.all((cell >= 0) & (cell < e.extents)) \
                        and e.values[tuple(cell)] > 0:
                    positive.append(i)
            if not positive or (len(positive) == 1
                                and positive[0] in above[1]):
                out.append(k)
                on_skipped += bool(positive)
    return out, on_skipped


def test_one_moment_record_per_small_cube_and_level(bump_dec, cz_setup,
                                                    cz_2d, monkeypatch):
    """Each level builds one set of moment records, one record per small
    cube that it does not skip, and skips exactly the one-cell etas of
    value 1.0 on a cell where no eta of level j+1 is positive but that of
    a skipped cube; those cubes, and only those, have no piece.  The
    partner fits use level j+1's records, building none."""
    builds, levels = [], []
    moments, level = atomic._Moments, atomic._level

    def counted_moments(*args):
        builds.append(len(args[-1]))
        return moments(*args)

    def counted_level(f, m, j, params, nxt):
        builds.clear()
        record, pieces = level(f, m, j, params, nxt)
        O = GridFunction(m.origin, m.h, (m.values > 2.0 ** j).astype(float))
        etas = eta_reference.local_etas(record["cubes"], O)
        skip, on_skipped = _floor_zero_cubes(record["cubes"], etas,
                                             levels[-1][0] if levels
                                             else ([], []))
        assert np.flatnonzero(record["skip"]).tolist() == skip
        assert pieces[0].tolist() == sorted(set(range(len(etas)))
                                            - set(skip))
        small = sum(Q.side < 1.0 for Q in record["cubes"])
        assert builds == [small - len(skip)]
        levels.append(((etas, skip), small, len(skip), on_skipped))
        return record, pieces

    monkeypatch.setattr(atomic, "_Moments", counted_moments)
    monkeypatch.setattr(atomic, "_level", counted_level)
    on_skipped = 0
    for f, params in _cz_fixtures(bump_dec, cz_setup, cz_2d):
        levels.clear()
        dec = cz_decompose(f, params)
        assert len(levels) == dec.j_hi - dec.j_lo + 1
        assert sum(small - skip for _, small, skip, _ in levels) > 0
        assert sum(skip for _, _, skip, _ in levels) > 0
        on_skipped += sum(n for *_, n in levels)
    assert on_skipped > 0


def test_one_solve_per_system_shape_and_level(cz_2d, monkeypatch):
    """At d = 0 and 1, each level of the 2-D fixture makes one
    np.linalg.solve call per shape (cells x monomials) of the systems it
    fits, its own records' and its partners' together."""
    solve, fit, level = np.linalg.solve, atomic._fit, atomic._level
    calls, shapes, fits = [], [], []

    def counted_solve(*args):
        calls[-1] += 1
        return solve(*args)

    def counted_fit(V, w, count, vals):
        shapes[-1] |= {c for c in count.tolist() if c >= V.shape[1]}
        fits.append(int((count >= V.shape[1]).sum()))
        return fit(V, w, count, vals)

    def counted_level(*args):
        calls.append(0)
        shapes.append(set())
        return level(*args)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(atomic, "_fit", counted_fit)
    monkeypatch.setattr(atomic, "_level", counted_level)
    _, f, dec = cz_2d
    for d in (0, 1):
        cz_decompose(f, dataclasses.replace(dec.params, d=d))
    assert len(fits) == len(calls)
    assert calls == [len(s) for s in shapes]
    assert sum(fits) > 2 * sum(calls) > 0


def test_atoms_with_the_per_call_fit_are_bit_identical(bump_dec, cz_setup,
                                                       cz_2d, monkeypatch):
    """Atoms at d = 0 and d = 1, in 1-D and 2-D, are those of the per-call
    fit bit for bit (tests/cz_reference.py covers d = 0 only)."""
    cases = _cz_fixtures(bump_dec, cz_setup, cz_2d)
    decs = [cz_decompose(f, params) for f, params in cases]
    eta_reference.use_slow_fit(monkeypatch)
    for (f, params), dec in zip(cases, decs):
        _assert_same_atoms(dec, cz_decompose(f, params))


# -- grid-floor cubes that keep the whole per-cube path ---------------------

def _assert_atoms_as_without_skips(f, params, monkeypatch):
    """Atoms of f at params.d bit for bit as those of the per-call fit, of
    the pipeline with no cube skipped, and at d = 0 of the full-grid
    reference."""
    dec = cz_decompose(f, params)
    with monkeypatch.context() as mp:
        eta_reference.use_slow_fit(mp)
        _assert_same_atoms(dec, cz_decompose(f, params))
    with monkeypatch.context() as mp:
        mp.setattr(atomic, "_floor_zeros",
                   lambda small, *_: np.zeros_like(small))
        _assert_same_atoms(dec, cz_decompose(f, params))
    if params.d == 0:
        with monkeypatch.context() as mp:
            cz_reference.use_full_grid(mp)
            _assert_same_atoms(dec, cz_decompose(f, params))


def _step_maximal(monkeypatch, h, values):
    """Make cz_decompose's maximal function the given samples on [0, 4),
    so the test chooses every level set."""
    m = GridFunction((0.0,), h, values)
    monkeypatch.setattr(MaximalParams, "grand_fields", lambda *_: [m])
    return m.pad(2)


def _split_wide_cubes(O):
    """The Whitney cover of O with each cube wider than 9 cells split into
    its first m - 1 cells and a single last cell: a floor cube within
    reach of a dilated cube wider than 8 cells, so its eta is below 1."""
    out = []
    for Q in whitney_decompose(O):
        m = int(round(Q.side / O.h))
        if m > 9:
            out += [Cube((Q.center[0] - O.h / 2,), (m - 1) * O.h),
                    Cube((Q.center[0] + (m - 1) * O.h / 2,), O.h)]
        else:
            out.append(Q)
    return out



@pytest.mark.parametrize("d", [0, 1])
def test_floor_cube_below_one_keeps_its_piece(d, cz_setup, monkeypatch):
    """One-cell etas below 1, beside cubes of 15 or 31 cells: the degree-0
    fit (v w) / w can round v, and then the residual and the piece at the
    top level are not 0.  The sample of each eta below 0.999 is chosen so
    that it rounds."""
    h = 2.0 ** -6
    m = _step_maximal(monkeypatch, h, np.where(
        (np.arange(256) >= 16) & (np.arange(256) < 240), 1.5, 0.75))
    monkeypatch.setattr(atomic, "whitney_decompose", _split_wide_cubes)
    top = GridFunction(m.origin, h, (m.values > 1.0).astype(float))
    cubes = _split_wide_cubes(top)
    etas = [eta for eta in eta_reference.local_etas(cubes, top)
            if eta.values.size == 1 and eta.values.item() < 0.999]
    assert len(etas) >= 3
    vals = np.cos(5 * (np.arange(256) + 0.5) * h) + 0.3
    for eta in etas:
        i = int(np.rint(eta.origin[0] / h))
        vals[i] = next(v for v in vals[i] + np.arange(4096) * 2.0 ** -40
                       if _level_fit(eta, np.array([v]), 0)[3][0] != v)
    f = GridFunction((0.0,), h, vals)
    _assert_atoms_as_without_skips(f, dataclasses.replace(cz_setup, d=d),
                                   monkeypatch)


@pytest.mark.parametrize("d", [0, 1])
def test_floor_cube_inside_the_next_level_keeps_its_piece(d, cz_setup,
                                                          monkeypatch):
    """O_1 = [1/4, 2) inside O_0 = [1/4, 15/4).  In a Whitney cover a floor
    cube of O_0 inside O_1 is also one of O_1, whose residual is 0, so its
    piece is 0 too.  Here the cover of O_0 has its cubes of 2 to 8 cells
    taken apart into single cells, which puts one-cell etas of value 1.0
    on cells that O_1 covers with wider cubes: their pieces carry
    -b_sum eta and the partners' fits, and are not 0."""
    h = 2.0 ** -6
    cells = np.arange(256)
    m = _step_maximal(monkeypatch, h, np.select(
        [(cells >= 16) & (cells < 128), (cells >= 128) & (cells < 240)],
        [3.0, 1.5], 0.75))
    level0 = GridFunction(m.origin, h, (m.values > 1.0).astype(float))
    level1 = GridFunction(m.origin, h, (m.values > 2.0).astype(float))

    def shattered(O):
        cover = whitney_decompose(O)
        if not np.array_equal(O.values, level0.values):
            return cover
        return [P for Q in cover for P in (
            [Q] if Q.side > 8 * h else
            [Cube((Q.lo[0] + (i + 0.5) * h,), h)
             for i in range(int(round(Q.side / h)))])]

    monkeypatch.setattr(atomic, "whitney_decompose", shattered)
    cubes = shattered(level0)
    wide = [Q for Q in whitney_decompose(level1) if Q.side > h]
    etas = eta_reference.local_etas(cubes, level0)
    inside = [Q for Q, eta in zip(cubes, etas)
              if eta.values.size == 1 and eta.values.item() == 1.0
              and any(contains_points(P, Q.center)[0] for P in wide)]
    assert inside
    f = GridFunction((0.0,), h, np.cos(5 * (cells + 0.5) * h) + 0.3)
    _assert_atoms_as_without_skips(f, dataclasses.replace(cz_setup, d=d),
                                   monkeypatch)


@pytest.mark.parametrize("d", [0, 1])
def test_floor_cube_beside_a_tiny_eta_keeps_its_piece(d, cz_setup,
                                                      monkeypatch):
    """O_1 = [100 h, 109 h), covered by a floor cube at cell 100 and a cube
    of 8 cells whose dilated side reaches cell 100's center at |u| > 0.99:
    its bump there (about 1e-33) rounds the floor cube's eta to 1.0, and
    level 1 skips that cube, but cell 100 holds two positive etas.  The
    floor cube of level 0 there keeps its piece: -b_sum eta and the wide
    cube's partner fit."""
    h = 2.0 ** -6
    cells = np.arange(256)
    m = _step_maximal(monkeypatch, h, np.select(
        [(cells >= 100) & (cells < 109), (cells >= 16) & (cells < 240)],
        [3.0, 1.5], 0.75))
    level1 = [Cube((100.5 * h,), h), Cube((104.97 * h,), 8 * h)]

    def cover(O):
        if np.array_equal(O.values, (m.values > 2.0).astype(float)):
            return level1
        if np.array_equal(O.values, (m.values > 1.0).astype(float)):
            return [Cube(((i + 0.5) * h,), h) for i in range(16, 240)]
        return whitney_decompose(O)

    monkeypatch.setattr(atomic, "whitney_decompose", cover)
    floor, wide = eta_reference.local_etas(
        level1, GridFunction(m.origin, h, (m.values > 2.0).astype(float)))
    assert floor.values.tolist() == [1.0]
    assert 0 < wide.values[0] < 1e-30 and wide.origin[0] == floor.origin[0]
    f = GridFunction((0.0,), h, np.cos(5 * (cells + 0.5) * h) + 0.3)
    _assert_atoms_as_without_skips(f, dataclasses.replace(cz_setup, d=d),
                                   monkeypatch)
