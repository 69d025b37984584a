"""Grid functions: geometry, quadrature, arithmetic, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicehardy.errors import InvalidDataError
from slicehardy.grid import Ball, Cube, GridFunction


def test_cube_membership_half_open():
    Q = Cube((0.5,), 1.0)
    assert Q.contains_points([[0.0]])[0]
    assert Q.contains_points([[0.999]])[0]
    assert not Q.contains_points([[1.0]])[0]
    assert not Q.contains_points([[-0.001]])[0]


def test_cube_scaled_keeps_center():
    Q = Cube((1.0, -2.0), 0.5).scaled(9 / 8)
    assert Q.center == (1.0, -2.0)
    assert Q.side == pytest.approx(0.5625)


def test_ball_membership_strict():
    B = Ball((0.0,), 1.0)
    assert B.contains_points([[0.99]])[0]
    assert not B.contains_points([[1.0]])[0]


@pytest.mark.parametrize("side", [0.0, -1.0])
def test_degenerate_cube_rejected(side):
    with pytest.raises(ValueError):
        Cube((0.0,), side)


def test_indicator_integrates_exactly():
    h = 2.0 ** -6
    f = GridFunction.indicator(Cube((0.5,), 1.0), (0.0,), h, (128,))
    assert f.integrate() == pytest.approx(1.0, abs=0)


def test_integrate_over_region():
    h = 2.0 ** -5
    f = GridFunction.constant(2.0, (0.0,), h, (64,))
    assert f.integrate(Cube((0.25,), 0.5)) == pytest.approx(1.0)


def test_midpoint_quadrature_second_order():
    # int_0^1 x^2 dx with midpoint error h^2/24 exactly for quadratics
    errs = []
    for k in (5, 6):
        h = 2.0 ** -k
        f = GridFunction.from_callable(lambda x: x ** 2, (0.0,), h,
                                       (2 ** k,))
        errs.append(abs(f.integrate() - 1 / 3))
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


def test_pad_and_support_bounds():
    f = GridFunction((0.0,), 0.25, [0.0, 1.0, 0.0, 0.0])
    lo, hi = f.support_bounds()
    assert lo[0] == pytest.approx(0.25)
    assert hi[0] == pytest.approx(0.5)
    g = f.pad(2)
    assert g.origin[0] == pytest.approx(-0.5)
    assert g.extents == (8,)
    assert g.integrate() == pytest.approx(f.integrate())


def test_restrict_zeroes_outside():
    f = GridFunction.constant(3.0, (0.0,), 0.25, (8,))
    g = f.restrict(Cube((0.5,), 1.0))
    assert g.integrate() == pytest.approx(3.0)


def test_lp_norms():
    f = GridFunction((0.0,), 0.5, [3.0, -4.0])
    assert f.lp_norm(np.inf) == 4.0
    assert f.lp_norm(2) == pytest.approx(np.sqrt(12.5))


@pytest.mark.parametrize("n", [1, 2])
def test_text_round_trip_bit_exact(n, rng):
    h = 1 / 3  # deliberately not dyadic
    shape = (7,) if n == 1 else (5, 6)
    origin = (0.1,) * n
    f = GridFunction(origin, h, rng.standard_normal(shape))
    g = GridFunction.from_text(f.to_text())
    assert g.h == f.h
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.origin, f.origin)


def test_save_load(tmp_path, rng):
    f = GridFunction((0.0,), 2.0 ** -4, rng.standard_normal(16))
    p = tmp_path / "f.grid"
    f.save(p)
    assert np.array_equal(GridFunction.load(p).values, f.values)


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
    reference = Q.contains_points(g.centers().reshape(-1, n)) \
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
    mask = Q.contains_points(f.centers().reshape(-1, 2)).reshape(f.extents)
    assert np.array_equal(f.restrict(Q).values,
                          np.where(mask, f.values, 0.0))
    assert f.integrate(Q) == pytest.approx(f.values[mask].sum() * h * h,
                                           rel=1e-14)
    assert np.array_equal(GridFunction.indicator(Q, f.origin, h, f.extents)
                          .values, mask.astype(float))


def test_covering_box_holds_every_cube():
    g = GridFunction.constant(1.0, (0.0,), 0.25, (4,))
    cubes = [Cube((-2.1,), 0.5), Cube((3.0,), 1.0)]
    origin, ext = g.covering_box(cubes)
    ge = g.embed(origin, ext)
    assert ge.compatible_with(g)
    assert ge.integrate() == g.integrate()
    top = ge.origin[0] + ext[0] * 0.25
    for Q in cubes:
        assert ge.origin[0] < Q.lo[0] and Q.hi[0] < top
