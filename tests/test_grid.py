"""Grid functions: geometry, quadrature, arithmetic, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_reference import contains_points
from slicehardy.errors import InvalidDataError, NumericFailure, \
    PreconditionError
from slicehardy.grid import Cube, GridFunction


def _integral(f, Q=None):
    """Midpoint-rule integral of f over its box, or over the cube Q."""
    values = f.values if Q is None else f.values[f.cube_slices(Q)]
    return float(values.sum() * f.cell_volume)


def test_cube_membership_half_open():
    Q = Cube((0.5,), 1.0)
    assert contains_points(Q, [[0.0]])[0]
    assert contains_points(Q, [[0.999]])[0]
    assert not contains_points(Q, [[1.0]])[0]
    assert not contains_points(Q, [[-0.001]])[0]


@pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
def test_degenerate_cube_rejected(side):
    with pytest.raises(PreconditionError):
        Cube((0.0,), side)


@pytest.mark.parametrize("region", [Cube])
@pytest.mark.parametrize("center", [(np.nan,), (0.0, np.inf)])
def test_nonfinite_center_rejected(region, center):
    with pytest.raises(PreconditionError):
        region(center, 1.0)


def test_indicator_integrates_exactly():
    h = 2.0 ** -6
    f = GridFunction.constant(0.0, (0.0,), h, (128,))
    f.values[f.cell_mask(Cube((0.5,), 1.0))] = 1.0
    assert _integral(f) == pytest.approx(1.0, abs=0)


def test_integrate_over_region():
    h = 2.0 ** -5
    f = GridFunction.constant(2.0, (0.0,), h, (64,))
    assert _integral(f, Cube((0.25,), 0.5)) == pytest.approx(1.0)


def test_midpoint_quadrature_second_order():
    # int_0^1 x^2 dx with midpoint error h^2/24 exactly for quadratics
    errs = []
    for k in (5, 6):
        h = 2.0 ** -k
        f = GridFunction.from_callable(lambda x: x ** 2, (0.0,), h,
                                       (2 ** k,))
        errs.append(abs(_integral(f) - 1 / 3))
    assert errs[1] == pytest.approx(errs[0] / 4, rel=1e-10)


def test_addition_unions_boxes():
    h = 0.25
    f = GridFunction.constant(1.0, (0.0,), h, (4,))
    g = GridFunction.constant(1.0, (0.5,), h, (4,))
    s = f + g
    assert s.origin[0] == 0.0
    assert s.extents == (6,)
    assert s.values.tolist() == [1, 1, 2, 2, 1, 1]


def test_sum_builtin_supported():
    h = 0.5
    fs = [GridFunction.constant(v, (0.0,), h, (2,)) for v in (1.0, 2.0)]
    assert sum(fs).values.tolist() == [3.0, 3.0]


def test_incompatible_grids_rejected():
    f = GridFunction.constant(1.0, (0.0,), 0.5, (2,))
    g = GridFunction.constant(1.0, (0.1,), 0.5, (2,))
    with pytest.raises(InvalidDataError):
        f + g


def test_nonfinite_samples_rejected():
    with pytest.raises(InvalidDataError):
        GridFunction((0.0,), 0.5, [1.0, np.nan])


@pytest.mark.parametrize("origin,h,match", [
    ((0.0,), np.nan, "spacing"), ((0.0,), np.inf, "spacing"),
    ((0.0,), 0.0, "spacing"), ((0.0,), -0.5, "spacing"),
    ((np.nan,), 0.5, "origin"), ((np.inf,), 0.5, "origin"),
    ((0.0, -np.inf), 0.5, "origin"),
])
def test_nonfinite_or_nonpositive_geometry_rejected(origin, h, match):
    values = np.ones((4,) * len(origin))
    with pytest.raises(InvalidDataError, match=match):
        GridFunction(origin, h, values)
    with pytest.raises(InvalidDataError, match=match):
        GridFunction(origin, h, values, check=False)


def test_pad_and_support_bounds():
    f = GridFunction((0.0,), 0.25, [0.0, 1.0, 0.0, 0.0])
    lo, hi = f.support_bounds()
    assert lo[0] == pytest.approx(0.25)
    assert hi[0] == pytest.approx(0.5)
    g = f.pad(2)
    assert g.origin[0] == pytest.approx(-0.5)
    assert g.extents == (8,)
    assert _integral(g) == pytest.approx(_integral(f))


def test_restrict_zeroes_outside():
    f = GridFunction.constant(3.0, (0.0,), 0.25, (8,))
    g = GridFunction(f.origin, f.h,
                     np.where(f.cell_mask(Cube((0.5,), 1.0)), f.values, 0.0))
    assert _integral(g) == pytest.approx(3.0)


def test_lp_norms():
    f = GridFunction((0.0,), 0.5, [3.0, -4.0])
    assert f.lp_norm(np.inf) == 4.0
    assert f.lp_norm(2) == pytest.approx(np.sqrt(12.5))


def _gaussian():
    """exp(-x^2) on [-4, 4) at h = 2^-6."""
    return GridFunction.from_callable(lambda x: np.exp(-x * x), (-4.0,),
                                      2.0 ** -6, (512,))


def test_lp_norm_at_a_huge_exponent_is_the_max():
    """p = 1e300 gives the max limit, finite and nonzero with no warning
    (the plain sum of |f|^p underflows to 0)."""
    f = _gaussian()
    assert f.lp_norm(1e300) == f.max_abs() > 0


def test_lp_norm_past_the_float_range_is_named():
    """At p = 1e-10 the norm, about 8^(1e10), passes the float range."""
    with pytest.raises(NumericFailure, match="float range"):
        _gaussian().lp_norm(1e-10)


def test_embed_rounds_to_whole_cells_or_names_the_misalignment():
    """embed, sums and _require_compatible share one offset rule: an
    origin within 1e-6 cell of the grid's lattice is taken at the whole
    cell, and one 0.4 cell off raises rather than shifting the samples."""
    f = GridFunction((0.0,), 0.25, [1.0, 2.0, 3.0])
    near = f.embed((-0.5 + 1e-9,), (8,))
    assert near.values.tolist() == [0, 0, 1, 2, 3, 0, 0, 0]
    with pytest.raises(InvalidDataError, match="alignment"):
        f.embed((-0.6,), (8,))
    off = GridFunction((-0.6,), 0.25, np.zeros(8))
    with pytest.raises(InvalidDataError, match="alignment"):
        f + off
    with pytest.raises(InvalidDataError, match="alignment"):
        f._require_compatible(off)


def test_embed_rejects_smaller_box():
    f = GridFunction.constant(1.0, (0.0,), 0.5, (4,))
    with pytest.raises(InvalidDataError):
        f.embed((0.5,), (2,))


def test_three_dimensional_rejected():
    with pytest.raises(InvalidDataError):
        GridFunction((0.0, 0.0, 0.0), 0.5, np.zeros((2, 2, 2)))


# -- cube index boxes against the point test --------------------------------

_H = st.sampled_from([2.0 ** -k for k in range(1, 6)] + [0.3])
# cell and cube coordinates on the half-cell lattice put cube edges
# exactly on cell centers; arbitrary floats put them anywhere
_coordinate = st.one_of(st.integers(-40, 40).map(lambda i: ("lattice", i)),
                        st.floats(-6.0, 6.0, allow_subnormal=False)
                        .map(lambda x: ("free", x)))


def _resolve(coordinate, h):
    kind, v = coordinate
    return v * h / 2 if kind == "lattice" else v


def _edge_center(x, side, upper):
    """A center that puts the cube's lower or upper edge, less the 1e-9 side
    membership shift, exactly on x, when a few ulps of search find one."""
    c = x + 1e-9 * side + (-side / 2 if upper else side / 2)
    for _ in range(8):
        Q = Cube((c,), side)
        edge = (Q.hi if upper else Q.lo)[0] - 1e-9 * side
        if edge == x:
            break
        c = np.nextafter(c, np.inf if edge < x else -np.inf)
    return float(c)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2]), h=_H, data=st.data())
def test_cube_slices_match_contains_points(n, h, data):
    """The index box holds exactly the cells that contains_points accepts:
    origins on and off the lattice hZ, cubes partly or wholly outside the
    box, sides below h, and edges that fall exactly on a cell center."""
    origin = [_resolve(data.draw(_coordinate), h) for _ in range(n)]
    extents = tuple(data.draw(st.integers(1, 12)) for _ in range(n))
    center = [_resolve(data.draw(_coordinate), h) for _ in range(n)]
    side = data.draw(st.one_of(
        st.integers(1, 24).map(lambda j: j * h / 2),
        st.floats(1e-3, 8.0, allow_subnormal=False)))
    g = GridFunction(origin, h, np.zeros(extents))
    if data.draw(st.booleans()):
        axis = data.draw(st.integers(0, n - 1))
        x = g.axis_centers(axis)[data.draw(st.integers(0, extents[axis] - 1))]
        center[axis] = _edge_center(x, side, data.draw(st.booleans()))
    Q = Cube(center, side)
    box = g.cube_slices(Q)
    reference = contains_points(Q, g.centers().reshape(-1, n)) \
        .reshape(extents)
    assert np.array_equal(g.cell_mask(Q), reference)
    assert all(0 <= s.start <= s.stop <= m for s, m in zip(box, extents))
    assert g.centers(box).shape == g.values[box].shape + (n,)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2]), h=_H, data=st.data())
def test_box_centers_match_full_centers(n, h, data):
    """centers(box) builds only the box and equals centers()[box] bit for
    bit, for origins on and off the lattice and any slice of each axis."""
    origin = [_resolve(data.draw(_coordinate), h) for _ in range(n)]
    extents = tuple(data.draw(st.integers(1, 12)) for _ in range(n))
    g = GridFunction(origin, h, np.zeros(extents))
    bound = st.one_of(st.none(), st.integers(-14, 14))
    box = tuple(slice(data.draw(bound), data.draw(bound))
                for _ in range(n))
    assert np.array_equal(g.centers(box), g.centers()[box])


def test_cube_regions_use_the_box(rng):
    h = 2.0 ** -3
    f = GridFunction((0.1, -0.3), h, rng.normal(size=(9, 7)))
    Q = Cube((0.6, 0.0), 0.55)
    mask = contains_points(Q, f.centers().reshape(-1, 2)).reshape(f.extents)
    assert np.array_equal(np.where(f.cell_mask(Q), f.values, 0.0),
                          np.where(mask, f.values, 0.0))
    assert _integral(f, Q) == pytest.approx(f.values[mask].sum() * h * h,
                                            rel=1e-14)
    assert np.array_equal(f.cell_mask(Q).astype(float), mask.astype(float))


def test_covering_box_holds_every_cube():
    g = GridFunction.constant(1.0, (0.0,), 0.25, (4,))
    cubes = [Cube((-2.1,), 0.5), Cube((3.0,), 1.0)]
    origin, ext = g.covering_box(cubes)
    ge = g.embed(origin, ext)
    assert ge._require_compatible(g).tolist() == [-10]
    assert _integral(ge) == _integral(g)
    top = ge.origin[0] + ext[0] * 0.25
    for Q in cubes:
        assert ge.origin[0] < Q.lo[0] and Q.hi[0] < top


def _scalar_cube_box(g, Q):
    """One cube's index box by bisection in Python floats, as cube_slices
    found it before cube_boxes took many cubes at once."""
    tol = 1e-9 * Q.side
    return tuple(
        slice(*(int(i) for i in np.searchsorted(
            g.axis_centers(d), (lo - tol, hi - tol))))
        for d, (lo, hi) in enumerate(zip(Q.lo, Q.hi)))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, 2]), h=_H, count=st.integers(0, 12),
       data=st.data())
def test_cube_boxes_are_the_scalar_boxes(n, h, count, data):
    """Many cubes' index boxes at once against one cube at a time in
    Python floats, with the cubes of test_cube_slices_match_contains_points
    (edges exactly on cell centers among them), and no cubes at all."""
    origin = [_resolve(data.draw(_coordinate), h) for _ in range(n)]
    extents = tuple(data.draw(st.integers(1, 12)) for _ in range(n))
    g = GridFunction(origin, h, np.zeros(extents))
    Qs = []
    for _ in range(count):
        center = [_resolve(data.draw(_coordinate), h) for _ in range(n)]
        side = data.draw(st.one_of(
            st.integers(1, 24).map(lambda j: j * h / 2),
            st.floats(1e-3, 8.0, allow_subnormal=False)))
        if data.draw(st.booleans()):
            axis = data.draw(st.integers(0, n - 1))
            x = g.axis_centers(axis)[data.draw(
                st.integers(0, extents[axis] - 1))]
            center[axis] = _edge_center(x, side, data.draw(st.booleans()))
        Qs.append(Cube(center, side))
    boxes = g.cube_boxes(Qs)
    assert len(boxes) == len(Qs)
    for Q, box in zip(Qs, boxes):
        assert box == _scalar_cube_box(g, Q) == g.cube_slices(Q)
