"""Campanato/bmo sweeps and the atom duality pairing."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import campanato_reference as ref
from slicehardy import orlicz
from slicehardy.campanato import CampanatoParams, bmo_sweep_report, \
    bmo_variant_norm, cube_sweep, pairing_bounds
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


NO_ATOMS = SimpleNamespace(entries=[])


def _norm(g, p):
    """g's Campanato norm over p's sweep: pairing_bounds' norm for a
    decomposition without atoms."""
    [((norm,), _, _)] = pairing_bounds([NO_ATOMS], [g], p)
    return float(norm)


def _pairing(a, g):
    """<a, g> by pairing_bounds: a the one atom of a decomposition (on a
    one-cell cube at its first cell), g the one field, an empty sweep."""
    atom = SimpleNamespace(cube=Cube(tuple(a.origin + a.h / 2), a.h),
                           values=a, level=0, index=0)
    p = CampanatoParams(SliceParams(1.0, 2.0, orlicz.power(2.0)), sweep=[])
    [(_, pairs, _)] = pairing_bounds([SimpleNamespace(entries=[atom])], [g],
                                     p)
    return float(pairs[0, 0])


def test_campanato_zero(sweep, slice_params):
    g = _field(lambda x: 0.0 * x)
    p = CampanatoParams(slice_params, r=1.0, d=1, sweep=sweep)
    assert _norm(g, p) == 0.0


def test_campanato_polynomial_small_branch_vanishes(slice_params):
    small_only = [Q for Q in cube_sweep(range(-5, 0),
                                        np.arange(-1.0, 1.5, 0.5), 1)]
    g = _field(lambda x: 1.0 + 2.0 * x)
    p = CampanatoParams(slice_params, r=1.0, d=1, sweep=small_only)
    assert _norm(g, p) == pytest.approx(0.0, abs=1e-10)


def test_campanato_sweep_monotone(sweep, slice_params):
    g = _field(lambda x: np.sin(4 * x))
    half = sweep[::2]
    p_half = CampanatoParams(slice_params, r=1.0, d=0, sweep=half)
    p_full = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    assert _norm(g, p_half) <= _norm(g, p_full) + 1e-14


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
    with pytest.raises(PreconditionError):
        bmo_variant_norm(_field(lambda x: x), "bmo_squared", sweep)


def test_dual_pairing_bilinear(rng):
    f = GridFunction((0.0,), H, rng.standard_normal(32))
    g = GridFunction((0.0,), H, rng.standard_normal(32))
    k = GridFunction((0.0,), H, rng.standard_normal(32))
    lhs = _pairing(f + 2.0 * g, k)
    rhs = _pairing(f, k) + 2.0 * _pairing(g, k)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dual_pairing_half_oracle():
    f = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), H, (int(1 / H),))
    g = GridFunction.from_callable(lambda x: x, (0.0,), H, (int(1 / H),))
    assert _pairing(f, g) == pytest.approx(0.5, abs=H ** 2)
    assert _pairing(f, g) == pytest.approx(ref.dual_pairing(f, g),
                                           rel=1e-14)


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
    assert ref.dual_pairing(f, g) == pytest.approx(expected, rel=1e-14,
                                                   abs=0.0)
    assert _pairing(f, g) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert _pairing(g, f) == pytest.approx(expected, rel=1e-14, abs=0.0)
    if shift >= 10:
        assert _pairing(f, g) == 0.0


def test_dual_pairing_rejects_incompatible_grids():
    f = GridFunction((0.0,), H, np.ones(8))
    with pytest.raises(InvalidDataError):
        _pairing(f, GridFunction((H / 3,), H, np.ones(8)))
    with pytest.raises(InvalidDataError):
        _pairing(f, GridFunction((0.0,), H / 2, np.ones(8)))


def test_atom_orthogonal_to_polynomials(slice_params):
    """A mean-zero small-cube atom pairs to ~0 with degree-0 fields."""
    vals = np.zeros(int(1 / H))
    vals[:16] = 1.0
    vals[16:32] = -1.0
    a = GridFunction((0.0,), H, vals)
    g = GridFunction.constant(3.0, (0.0,), H, (int(1 / H),))
    assert abs(_pairing(a, g)) < 1e-12


def test_pairing_bound_holds_for_cz_atoms(dictionary_1d, sweep,
                                          slice_params):
    from slicehardy.atomic import CZParams, cz_decompose
    from slicehardy.maximal import MaximalParams

    mp = MaximalParams(dictionary_1d)
    params = CZParams(slice_params=slice_params, maximal=mp, d=0)
    f = GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.8) ** 2), (0.0,), H, (int(2 / H),))
    dec = cz_decompose(f, params)
    g = _field(lambda x: np.cos(5 * x), -2.0, 4.0)
    cp = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    [(norms, pairs, ratios)] = pairing_bounds([dec], [g], cp)
    assert ratios.max() <= 1.01
    want = ref.pairing_bound_check(dec, g, cp)
    assert want.summary["ok"]
    _close(norms[0], want.summary["campanato_norm"])
    _close(pairs[:, 0], want.column("pairing"))
    _close(ratios[:, 0], want.column("ratio"))


def test_pairing_bound_zero_field(dictionary_1d, sweep, slice_params):
    from slicehardy.atomic import CZParams, cz_decompose
    from slicehardy.maximal import MaximalParams

    mp = MaximalParams(dictionary_1d)
    params = CZParams(slice_params=slice_params, maximal=mp, d=0)
    f = GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.8) ** 2), (0.0,), H, (int(2 / H),))
    dec = cz_decompose(f, params)
    z = _field(lambda x: 0.0 * x)
    cp = CampanatoParams(slice_params, r=1.0, d=0, sweep=sweep)
    [(norms, pairs, ratios)] = pairing_bounds([dec], [z], cp)
    assert norms[0] == 0.0
    assert pairs.shape == ratios.shape == (len(dec.entries), 1)
    assert not pairs.any() and not ratios.any()
    assert "skipped" in ref.pairing_bound_check(dec, z, cp).summary


# -- the stacked pass against the per-field reference ------------------------

def _fields(rng, n, h):
    """Random fields on four different boxes, one of them outside every
    cube of the sweep, and a zero field."""
    shapes = [((-1.0,) * n, (int(3 / h),) * n),
              ((0.5,) + (-0.25,) * (n - 1), (int(2 / h),) * n),
              ((-2.0,) * n, (int(1.5 / h),) + (int(1 / h),) * (n - 1)),
              ((8.0,) * n, (int(1 / h),) * n)]
    fields = [GridFunction(o, h, np.cumsum(rng.standard_normal(e), axis=0)
                           * 0.1 + rng.standard_normal(e))
              for o, e in shapes]
    return fields[:2] + [GridFunction.constant(0.0, (0.0,) * n, h,
                                               (8,) * n)] + fields[2:]


def _decompositions(rng, n, h):
    """Decompositions with atoms on small random boxes around their cubes,
    some of them outside every field."""
    decs = []
    for count in (5, 0, 7):
        entries = []
        for k in range(count):
            side = 2.0 ** int(rng.integers(-3, 2))
            center = tuple(rng.integers(-16, 32, n) / 8 + side / 2)
            cells = int(side / h) + 2
            values = GridFunction(tuple(c - side / 2 - h for c in center),
                                  h, rng.standard_normal((cells,) * n))
            entries.append(SimpleNamespace(cube=Cube(center, side),
                                           values=values, level=k % 3,
                                           index=k))
        decs.append(SimpleNamespace(entries=entries))
    return decs


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("r", [1.0, 2.0, np.inf])
def test_stacked_pass_matches_per_field_reference(rng, slice_params, n, d,
                                                  r):
    h = 2.0 ** -4 if n == 2 else 2.0 ** -6
    fields, decs = _fields(rng, n, h), _decompositions(rng, n, h)
    p = CampanatoParams(slice_params, r=r, d=d,
                        sweep=cube_sweep(range(-3, 3),
                                         np.arange(-1.0, 2.5, 0.75), n))
    [(base, _, _)] = pairing_bounds([NO_ATOMS], fields, p)
    _close(base, [ref.campanato_local_norm(g, p) for g in fields])
    for dec, (norms, pairs, ratios) in zip(
            decs, pairing_bounds(decs, fields, p)):
        assert norms.shape == (len(fields),)
        assert pairs.shape == ratios.shape == (len(dec.entries),
                                               len(fields))
        for j, g in enumerate(fields):
            want = ref.pairing_bound_check(dec, g, p)
            _close(norms[j], want.summary.get("campanato_norm", 0.0))
            _close(ratios[:, j].max(initial=0.0), want.summary["max_ratio"])
            if "ok" in want.summary:
                assert bool((ratios[:, j] <= 1.01).all()) == \
                    want.summary["ok"]
            if want.rows:
                _close(pairs[:, j], want.column("pairing"))
                _close(ratios[:, j], want.column("ratio"))


@pytest.mark.parametrize("n", [1, 2])
def test_bmo_sweep_matches_per_field_reference(rng, n):
    h = 2.0 ** -4 if n == 2 else 2.0 ** -6
    sweep = cube_sweep(range(-3, 3), np.arange(-1.0, 2.5, 0.75), n)
    for g in _fields(rng, n, h):
        rows = [row for row in bmo_sweep_report(g, sweep).rows
                if row[0] == "bmo"]
        want = list(ref.sweep(g, sweep, 0, 1.0))
        assert [(row[1], row[2]) for row in rows] == \
            [(Q.side, Q.center) for Q, _ in want]
        _close([row[4] for row in rows], [mean for _, mean in want])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("r", [1.0, 2.0, np.inf])
def test_grouped_pass_matches_the_per_cube_loop(rng, slice_params, n, d, r):
    """Cubes grouped by side and box shape, and atoms by overlap shape, give
    the norms, pairings and ratios of the loop over one cube and one atom
    at a time: bit for bit at d = 0, to 1e-12 relative at d = 1, where
    each cube's fit sees its values in another layout."""
    h = 2.0 ** -4 if n == 2 else 2.0 ** -6
    fields, decs = _fields(rng, n, h), _decompositions(rng, n, h)
    p = CampanatoParams(slice_params, r=r, d=d,
                        sweep=cube_sweep(range(-3, 3),
                                         np.arange(-1.0, 2.5, 0.75), n))
    for got, want in zip(pairing_bounds(decs, fields, p),
                         ref.loop_pairing_bounds(decs, fields, p)):
        for a, b in zip(got, want):
            assert a.shape == b.shape
            if d == 0:
                assert a.tobytes() == b.tobytes()
            else:
                _close(a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_grouped_bmo_sweep_matches_the_per_cube_loop(rng, n):
    h = 2.0 ** -4 if n == 2 else 2.0 ** -6
    sweep = cube_sweep(range(-3, 3), np.arange(-1.0, 2.5, 0.75), n) \
        + [Cube((0.5 + h / 4,) * n, h / 2)]  # it holds no cell center
    for g in _fields(rng, n, h):
        rows = [row for row in bmo_sweep_report(g, sweep).rows
                if row[0] == "bmo"]
        assert [(row[1], row[2], row[4]) for row in rows] == \
            [(Q.side, Q.center, mean) for Q, mean in ref.loop_bmo_means(g,
                                                                      sweep)]


@pytest.mark.parametrize("d", [0, 1])
def test_check_duality_rows_match_per_pair_reference(d):
    from slicehardy import cli
    from slicehardy.config import ScenarioConfig
    from slicehardy.families import generate_family

    cfg = ScenarioConfig(h=2.0 ** -6, family_spec="bumps:count=2",
                         s=0.45 if d else None, side_exp_lo=-5).validate()
    assert cfg.d == d
    summary = {}
    run = cli.Run(cfg, 0)
    report, ok = cli._check_duality(run, summary)
    p = CampanatoParams(cfg.slice_params(), r=1.0, d=d,
                        sweep=cfg.sweep_cubes())
    fields = generate_family("bursts:count=10", 1, cfg.h, cfg.n)
    want = [(i, j, ref.pairing_bound_check(dec, g, p, cfg.pairing_slack))
            for i, (_, dec) in enumerate(run.decompositions())
            for j, g in enumerate(fields)]
    assert [row[:2] for row in report.rows] == [w[:2] for w in want]
    _close(report.column("campanato_norm"),
           [w[2].summary.get("campanato_norm", 0.0) for w in want])
    _close(report.column("max_ratio"),
           [w[2].summary["max_ratio"] for w in want])
    assert ok and summary["max_ratio"] == max(report.column("max_ratio"))


def test_pairing_over_a_zero_norm_fails_the_bound(slice_params):
    """A field that no cube sees has norm 0: an atom that pairs with it
    breaks the bound (ratio inf), one that does not has ratio 0."""
    Q = Cube((0.5,), 1.0)
    vals = np.zeros(int(1 / H) + 2)
    vals[0] = 1.0
    reaching = GridFunction((-H,), H, vals)
    disjoint = GridFunction((0.0,), H, np.ones(int(1 / H)))
    dec = SimpleNamespace(entries=[
        SimpleNamespace(cube=Q, values=a, level=0, index=k)
        for k, a in enumerate((reaching, disjoint))])
    g = GridFunction((-H,), H, [2.0])
    p = CampanatoParams(slice_params, sweep=[])
    [(norms, _, ratios)] = pairing_bounds([dec], [g], p)
    assert norms[0] == 0.0
    assert ratios[:, 0].tolist() == [np.inf, 0.0]


def test_small_cube_with_fewer_cells_than_monomials_oscillates_by_zero(
        slice_params):
    """A one-cell cube is interpolated by a degree-1 polynomial, so its
    oscillation vanishes and only the large cubes count."""
    g = _field(lambda x: np.sin(7 * x))
    one_cell = [Cube((H / 2 + k * H,), H) for k in range(-20, 20)]
    large = [Cube((0.0,), 2.0)]
    p = CampanatoParams(slice_params, r=1.0, d=1, sweep=one_cell + large)
    only_large = CampanatoParams(slice_params, r=1.0, d=1, sweep=large)
    assert _norm(g, p) == pytest.approx(_norm(g, only_large), rel=1e-12)


@st.composite
def _sweeps(draw):
    """A 1-D field, a base sweep and extra cubes, all cell-aligned."""
    h = 2.0 ** -5
    cells = draw(st.integers(8, 96))
    origin = draw(st.integers(-64, 32)) * h
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=cells,
                           max_size=cells))
    cube = st.builds(lambda e, k: Cube((k * 2.0 ** -4,), 2.0 ** e),
                     st.integers(-3, 2), st.integers(-48, 48))
    return (GridFunction((origin,), h, values),
            draw(st.lists(cube, max_size=8)), draw(st.lists(cube,
                                                            max_size=8)))


@settings(max_examples=60, deadline=None)
@given(case=_sweeps(), d=st.sampled_from([0, 1]),
       r=st.sampled_from([1.0, 2.0, np.inf]))
def test_norm_over_a_union_is_the_branchwise_max(case, d, r):
    """In each branch the sweep value is a max over cubes, so the norm over
    sweep + extra is max(base, extra) branch by branch: the identity that
    lets the stacked pass compute the base sweep once."""
    g, base, extra = case
    sp = SliceParams(1.0, 2.0, orlicz.power(2.0))

    def branch(cubes, small):
        cubes = [Q for Q in cubes if (Q.side < 1.0) == small]
        return ref.campanato_local_norm(g, CampanatoParams(sp, r, d, cubes))

    union = CampanatoParams(sp, r, d, base + extra)
    expected = max(branch(base, True), branch(extra, True)) + \
        max(branch(base, False), branch(extra, False))
    assert ref.campanato_local_norm(g, union) == expected
    # A fit of a (near-)polynomial field leaves rounding-level residuals,
    # which the stacked pass and the reference round differently.
    assert _norm(g, union) == pytest.approx(
        expected, rel=1e-12, abs=1e-12 * g.max_abs())
