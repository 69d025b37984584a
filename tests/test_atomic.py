"""Whitney covering, projections, CZ decomposition, atoms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cz_reference
import eta_reference
import scipy_reference
from slicehardy import atomic, orlicz
from slicehardy.atomic import Atom, CZParams, atomic_quasinorm, \
    cz_decompose, load_decomposition, minimizing_polynomial, multi_indices, \
    partition_of_unity, reconstruct, save_decomposition, validate_atom, \
    weighted_projection, whitney_decompose
from slicehardy.config import ScenarioConfig
from slicehardy.errors import NoBoundaryError, PreconditionError, \
    UnderdeterminedError
from slicehardy.grid import Cube, GridFunction
from slicehardy.maximal import MaximalParams
from slicehardy.slice_norms import SliceParams, cube_indicator_slice_norm


@pytest.fixture(scope="module")
def cz_setup(dictionary_1d):
    mp = MaximalParams(dictionary=dictionary_1d,
                       ladder=dictionary_1d.scales)
    sp = SliceParams(1.0, 2.0, orlicz.power(2.0))
    return CZParams(slice_params=sp, maximal=mp, d=0)


# -- polynomials ------------------------------------------------------------

def test_multi_indices_counts():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert multi_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                   (2, 0)]


def test_minimizing_polynomial_constant():
    h = 2.0 ** -6
    f = GridFunction.constant(3.5, (0.0,), h, (64,))
    P = minimizing_polynomial(f, Cube((0.5,), 1.0), 2)
    assert P(np.array([[0.123]])) == pytest.approx(3.5)


def test_minimizing_polynomial_mean_value():
    h = 2.0 ** -8
    f = GridFunction.from_callable(lambda x: x, (0.0,), h, (int(1 / h),))
    P = minimizing_polynomial(f, Cube((0.5,), 1.0), 0)
    assert P(np.array([[0.9]])) == pytest.approx(0.5, abs=1e-12)


def test_minimizing_polynomial_quadratic_oracle():
    """x^2 on [0,1] with d=1 projects to x - 1/6 (2x2 moment system)."""
    h = 2.0 ** -9
    f = GridFunction.from_callable(lambda x: x ** 2, (0.0,), h,
                                   (int(1 / h),))
    P = minimizing_polynomial(f, Cube((0.5,), 1.0), 1)
    for x in (0.0, 0.3, 1.0):
        assert P(np.array([[x]])) == pytest.approx(x - 1 / 6, abs=1e-5)


def test_minimizing_polynomial_idempotent():
    h = 2.0 ** -6
    f = GridFunction.from_callable(lambda x: np.sin(3 * x), (0.0,), h,
                                   (64,))
    Q = Cube((0.5,), 1.0)
    P1 = minimizing_polynomial(f, Q, 1)
    P2 = minimizing_polynomial(GridFunction(f.origin, f.h, P1(f.centers())),
                               Q, 1)
    assert np.allclose(P1.coeffs, P2.coeffs, atol=1e-10)


def test_minimizing_polynomial_underdetermined():
    f = GridFunction.constant(1.0, (0.0,), 0.5, (4,))
    with pytest.raises(UnderdeterminedError):
        minimizing_polynomial(f, Cube((0.25,), 0.5), 3)


def test_weighted_projection_constant():
    h = 2.0 ** -6
    g = GridFunction.constant(2.0, (0.0,), h, (64,))
    eta = GridFunction.from_callable(
        lambda x: np.maximum(1 - np.abs(x - 0.5), 0.0), (0.0,), h, (64,))
    c = weighted_projection(g, eta, 1)
    assert c(np.array([[0.7]])) == pytest.approx(2.0)


def test_weighted_projection_quadrature_oracle():
    """d = 0 projection is the weighted mean int(x eta)/int(eta)."""
    h = 2.0 ** -8
    g = GridFunction.from_callable(lambda x: x, (0.0,), h, (int(1 / h),))
    eta = GridFunction.from_callable(
        lambda x: np.exp(-(x - 0.5) ** 2), (0.0,), h, (int(1 / h),))
    c = weighted_projection(g, eta, 0)
    expected = (g * eta).integrate() / eta.integrate()
    assert c(np.array([[0.0]])) == pytest.approx(expected, rel=1e-12)


def test_weighted_projection_one_cell_weight_interpolates():
    """A one-cell weight holds fewer cells than the degree-1 monomials: the
    projection interpolates g there, so every weighted moment vanishes."""
    g = GridFunction.from_callable(lambda x: 1 + x ** 2, (0.0,), 0.25, (8,))
    eta = GridFunction((0.5,), 0.25, np.array([0.7]))
    c = weighted_projection(g, eta, 1)
    assert c(eta.centers()) == pytest.approx([1 + 0.625 ** 2], abs=1e-14)


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
        return np.prod([atomic._axis_bump((xi - c) / radius)
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
    the decomposition gives, bit for bit, the values of the public
    projection on eta's positive cells, and zero elsewhere."""
    f, Q, eta, d = case
    pts = f.centers()
    np.testing.assert_allclose(minimizing_polynomial(f, Q, d)(pts),
                               f.values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(weighted_projection(f, eta, d)(pts),
                               f.values, rtol=0, atol=1e-9)
    g = f + GridFunction(f.origin, f.h, np.sin(3 * pts.sum(axis=-1)))
    box = g.cube_slices(Q)
    r = g.box_view(box).copy()
    r.values -= minimizing_polynomial(g, Q, d, box)(g.centers(box))
    assert atomic._moment_slack(r, Q, d) <= 1e-10
    pos = eta.values > 0
    _, vals = atomic._EtaMoments(eta, d).fit(g.values)
    assert np.array_equal(
        vals[pos], weighted_projection(g, eta, d)(eta.centers())[pos])
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


def _assert_fit_is_slow_fit(m, eta, vals, d):
    """eta's record m fits vals as the per-call fit does, bits and errors:
    a Gram matrix of cells on one line (2-D, d >= 1) is singular in both."""
    try:
        (center, scale, _, coeffs), out = eta_reference.eta_fit(vals, eta, d)
    except UnderdeterminedError:
        with pytest.raises(UnderdeterminedError):
            m.fit(vals)
        return
    assert (m.center, m.scale) == (center, scale)
    c, values = m.fit(vals)
    assert np.array_equal(c, coeffs)
    assert np.array_equal(values, out)


@settings(max_examples=200, deadline=None)
@given(_sparse_weights())
def test_moment_record_fit_is_the_per_call_fit_bit_for_bit(case):
    """One eta's record, built once, fits any right-hand side with the
    bits of the per-call fit that rebuilt bounds, centers and the Gram
    matrix each time, for n = 1, 2 and d = 0, 1, 2, with or without a
    Gram matrix."""
    eta, vals, d = case
    m = atomic._EtaMoments(eta, d)
    assert (m.G is None) == (m.w.size < len(multi_indices(eta.n, d)))
    for rhs in (vals, np.sin(3 * vals) - vals):
        _assert_fit_is_slow_fit(m, eta, rhs, d)


@pytest.mark.parametrize("n,d,cells", [(1, 1, 1), (1, 2, 2), (2, 1, 2),
                                       (2, 2, 5)])
def test_moment_record_without_gram_matrix_interpolates(n, d, cells):
    """Fewer positive cells than monomials: no Gram matrix is stored, and
    the minimum-norm fit interpolates, as the per-call fit does."""
    w = np.zeros((3,) * n)
    w.flat[:cells] = 0.5
    eta = GridFunction((0.25,) * n, 0.125, w)
    vals = np.arange(w.size, dtype=float).reshape(w.shape) ** 2
    m = atomic._EtaMoments(eta, d)
    assert m.G is None
    _assert_fit_is_slow_fit(m, eta, vals, d)
    np.testing.assert_allclose(m.fit(vals)[1][w > 0], vals[w > 0],
                               rtol=0, atol=1e-12)


def test_weighted_projection_degenerate_weight():
    g = GridFunction.constant(1.0, (0.0,), 0.25, (8,))
    eta = GridFunction.constant(0.0, (0.0,), 0.25, (8,))
    with pytest.raises(UnderdeterminedError):
        weighted_projection(g, eta, 0)


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


def test_whitney_bounded_overlap():
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    counts = np.zeros(O.extents)
    for Q in cubes:
        counts += O.cell_mask(Q.scaled(9 / 8)).astype(float)
    assert counts.max() <= atomic.overlap_max(1)


def _disk_set(h, cells, radius):
    g = GridFunction((0.0, 0.0), h, np.zeros((cells, cells)))
    pts = g.centers() - cells * h / 2
    g.values[np.hypot(pts[..., 0], pts[..., 1]) < radius] = 1.0
    return g


def _assert_partition_of_unity(O):
    """Each eta lives on its own box; embedded into O's box, the etas
    sum to 1 on O and to exactly 0 off it."""
    cubes = whitney_decompose(O)
    etas = partition_of_unity(cubes, O)
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
    local = partition_of_unity(cubes, O)
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
    fast = partition_of_unity(cubes, O)
    slow = eta_reference.partition_of_unity(cubes, O)
    assert len(fast) == len(slow) == len(cubes)
    for e, ref in zip(fast, slow):
        assert np.array_equal(e.origin, ref.origin)
        assert np.array_equal(e.values, ref.values)


def test_partition_of_unity_supports():
    h = 2.0 ** -6
    O = _interval_set(h, 128, 0.25, 1.25)
    cubes = whitney_decompose(O)
    for Q, eta in zip(cubes, partition_of_unity(cubes, O)):
        out = eta.values - eta.restrict(Q.scaled(9 / 8)).values
        assert np.abs(out).max(initial=0.0) == 0.0


# -- decomposition pipeline -------------------------------------------------

def test_cz_zero_function(cz_setup):
    f = GridFunction.constant(0.0, (0.0,), 2.0 ** -7, (64,))
    dec = cz_decompose(f, cz_setup)
    assert len(dec.entries) == 0
    assert reconstruct(dec).max_abs() == 0.0


def test_cz_degree_hypothesis(dictionary_1d):
    mp = MaximalParams(dictionary=dictionary_1d,
                       ladder=dictionary_1d.scales)
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
        rep = validate_atom(atom, cz_setup.slice_params)
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


@pytest.fixture(scope="module")
def cz_2d():
    """A 32x32 log-damped bump, its config and its decomposition."""
    cfg = ScenarioConfig(n=2, h=1 / 8, functional_tag="log_damped", t=0.5,
                         q=1.0, b=5.0, N=6, ladder_depth=2,
                         family_spec="bumps:count=1").validate()
    (f,) = cfg.family(0)
    return cfg, f, cz_decompose(f, cfg.cz_params())


def _assert_round_trip_and_valid_atoms(f, dec, params):
    rec = reconstruct(dec)
    fe = f.embed(rec.origin, rec.extents)
    assert np.abs(rec.values - fe.values).max() / f.max_abs() \
        <= ScenarioConfig.tol_rec
    for atom in dec.entries:
        assert atom.degree == params.d
        rep = validate_atom(atom, params.slice_params, params.tol_moment)
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
    cfg, f, _ = cz_2d
    params = dataclasses.replace(cfg.cz_params(), d=1)
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
        rep = validate_atom(atom, cfg.slice_params(), cfg.tol_moment)
        assert rep.summary["valid"], (atom.level, atom.index, rep.rows)


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
    params = cfg.cz_params()
    family = cfg.family(0)
    decs = [cz_decompose(f, params) for f in family]
    cz_reference.use_full_grid(monkeypatch)
    for f, dec in zip(family, decs):
        _assert_same_atoms(dec, cz_decompose(f, params))


def test_local_pipeline_matches_full_grid_reference_2d(cz_2d, monkeypatch):
    cfg, f, dec = cz_2d
    cz_reference.use_full_grid(monkeypatch)
    _assert_same_atoms(dec, cz_decompose(f, cfg.cz_params()))


def test_atomic_quasinorm_single_atom(cz_setup):
    """lambda = ||1_Q|| collapses the functional to ||1_Q|| itself."""
    h = 2.0 ** -7
    sp = cz_setup.slice_params
    norm_1q = cube_indicator_slice_norm(sp, 1.0, h)
    vals = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), h,
                                  (int(1 / h),)) / norm_1q
    atom = Atom(cube=Cube((0.5,), 1.0), values=vals, r=np.inf, degree=0,
                level=0, index=0, lam=norm_1q)
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
    norm_1q = cube_indicator_slice_norm(sp, 1.0, h)
    vals = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), h,
                                  (int(1 / h),)) * (2.0 / norm_1q)
    atom = Atom(cube=Cube((0.5,), 1.0), values=vals, r=np.inf, degree=0,
                level=0, index=0, lam=1.0)
    rep = validate_atom(atom, sp)
    assert not rep.summary["valid"]
    assert rep.summary["size_slack"] == pytest.approx(np.log(2.0))


def test_serialization_round_trip(bump_dec, cz_setup, tmp_path):
    _, dec = bump_dec
    save_decomposition(dec, tmp_path / "dec")
    back = load_decomposition(tmp_path / "dec", cz_setup)
    assert len(back.entries) == len(dec.entries)
    assert back.j_lo == dec.j_lo and back.j_hi == dec.j_hi
    for a, b in zip(dec.entries, back.entries):
        assert a.lam == b.lam
        assert a.cube == b.cube
        assert np.array_equal(a.values.values, b.values.values)
    r1, r2 = reconstruct(dec), reconstruct(back)
    assert np.array_equal(r1.values, r2.values)


def _cz_fixtures(bump_dec, cz_setup, cz_2d):
    """(f, params) of the 1-D and 2-D fixtures at d = 0 and d = 1."""
    (f1, _), (cfg, f2, _) = bump_dec, cz_2d
    return [(f, dataclasses.replace(p, d=d))
            for f, p in ((f1, cz_setup), (f2, cfg.cz_params()))
            for d in (0, 1)]


def test_one_moment_record_per_small_cube_and_level(bump_dec, cz_setup,
                                                    cz_2d, monkeypatch):
    """_level_pieces builds one moment record per small cube, and
    _assemble_level fits every partner against those, building none."""
    builds, phase, levels = [], [], []
    build = atomic._EtaMoments
    level_pieces, assemble_level = atomic._level_pieces, \
        atomic._assemble_level

    def counted_build(eta, d):
        builds.append(phase[-1])
        return build(eta, d)

    def counted_level(f, m, j, params):
        phase.append("level")
        level = level_pieces(f, m, j, params)
        levels.append((builds.count("level"),
                       sum(Q.side < 1.0 for Q in level["cubes"])))
        builds.clear()
        return level

    def counted_assemble(f, level, nxt, params):
        phase.append("assemble")
        out = assemble_level(f, level, nxt, params)
        assert "assemble" not in builds
        return out

    monkeypatch.setattr(atomic, "_EtaMoments", counted_build)
    monkeypatch.setattr(atomic, "_level_pieces", counted_level)
    monkeypatch.setattr(atomic, "_assemble_level", counted_assemble)
    for f, params in _cz_fixtures(bump_dec, cz_setup, cz_2d):
        levels.clear()
        dec = cz_decompose(f, params)
        assert len(levels) == dec.j_hi - dec.j_lo + 1
        assert all(built == small for built, small in levels)
        assert sum(small for _, small in levels) > 0


def test_atoms_with_the_per_call_fit_are_bit_identical(bump_dec, cz_setup,
                                                       cz_2d, monkeypatch):
    """Atoms at d = 0 and d = 1, in 1-D and 2-D, are those of the per-call
    fit bit for bit (tests/cz_reference.py covers d = 0 only)."""
    cases = _cz_fixtures(bump_dec, cz_setup, cz_2d)
    decs = [cz_decompose(f, params) for f, params in cases]
    eta_reference.use_slow_fit(monkeypatch)
    for (f, params), dec in zip(cases, decs):
        _assert_same_atoms(dec, cz_decompose(f, params))
