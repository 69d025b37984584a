"""Slice norms, the amalgam sum norm, and the maximal-operator checks."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import gauge_reference
import scipy_reference
from slicehardy import orlicz
from slicehardy.errors import InvalidDataError, PreconditionError, \
    ResolutionError
from slicehardy.grid import Cube, GridFunction
from slicehardy.slice_norms import SliceParams, _ball_sums, _cube_counts, \
    _power_window_norms, _Windows, ball_indicator_gauge, \
    ball_indicator_ratio, ball_mask, ball_offset_count, \
    cube_indicator_slice_norm, fefferman_stein_check, hl_maximal, \
    reverse_superadditivity_check, slice_norm, star_norm


def _rows_2d(values, t, h, k):
    """The 2-D window matrix: row i holds the cells of the ball around
    outer point i, the outer points in C order on the box dilated by k."""
    dx, dy = np.nonzero(ball_mask(t, h, 2))
    padded = np.pad(values, 2 * k)
    mx = values.shape[0] + 2 * k
    my = values.shape[1] + 2 * k
    ix, iy = np.meshgrid(np.arange(mx), np.arange(my), indexing="ij")
    ix = ix.ravel()[:, None] + dx[None, :]
    iy = iy.ravel()[:, None] + dy[None, :]
    return padded[ix, iy]


def _window_matrix(values, t, h):
    k = ball_offset_count(values.ndim, t, h)[1]
    if values.ndim == 1:
        return sliding_window_view(np.pad(values, 2 * k), 2 * k + 1)
    return _rows_2d(values, t, h, k)


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
        w, _ = ball_offset_count(n, t, h)
        rows = np.abs(_window_matrix(vals, t, h))
        ref = (rows ** power).sum(axis=1) ** (1.0 / power) \
            * f.cell_volume ** (1.0 / power)
        got = _power_window_norms(f, ball_mask(t, h, n), power).ravel()
        assert got.shape == ref.shape
        assert np.array_equal(got == 0, ref == 0)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        den = ball_indicator_gauge(orlicz.power(power), w, f.cell_volume)
        expected = float(((ref / den) ** 2.0).sum() * f.cell_volume) ** 0.5
        assert slice_norm(f, SliceParams(t, 2.0, orlicz.power(power))) \
            == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [7, 15, 31])
def test_ball_sums_2d_match_convolve2d(k, rng):
    """The 2-D direct convolution against the SciPy routine it replaces:
    exact, in int64, on integer input; within 1e-14 of the maximum on
    lognormal squared fields, on 15², 31² and 63² disks.  Some inputs
    have fewer cells than the disk, and some have even sides."""
    from scipy.signal import convolve2d

    mask = ball_mask((k + 1) * 2.0 ** -5, 2.0 ** -5, 2)
    assert mask.shape == (2 * k + 1,) * 2
    for ints in (rng.integers(0, 5, (128, 128)), rng.integers(0, 5, (3, 4)),
                 np.ones((40, 40), dtype=np.int64)):
        got = _ball_sums(ints, mask)
        assert got.dtype == np.int64
        assert np.array_equal(got, convolve2d(ints, mask.astype(np.int64)))
    for shape in ((128, 128), (5, 6)):
        vals = rng.lognormal(size=shape) ** 2
        got = _ball_sums(vals, mask)
        ref = convolve2d(vals, mask.astype(float))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * ref.max()


@settings(max_examples=60, deadline=None)
@given(cells=st.integers(1, 64), k=st.integers(0, 31))
def test_cube_counts_are_the_ndimage_counts(cells, k):
    """The summed-area box sums against ndimage.convolve of the int64 cube
    indicator, for cubes of 1 to 64 cells and disks 1 to 63 cells
    across."""
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, 2)
    assert mask.shape == (2 * k + 1,) * 2
    got = _cube_counts(cells, mask)
    assert got.dtype == np.int64
    assert np.array_equal(got, scipy_reference.ball_sums(
        np.ones((cells, cells), dtype=np.int64), mask))


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
       k=st.integers(0, 31), power=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       fill=st.sampled_from([0.002, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_power_ball_sums_2d_are_ndimage_bit_for_bit(shape, k, power, fill,
                                                    seed):
    """The shifted sums over the sparser operand against ndimage.convolve,
    which adds the same products in the same order: the same bits, with
    the field or the disk as the sparser operand."""
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.normal(size=shape)) ** power * (rng.random(shape)
                                                      < fill)
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, 2)
    assert np.array_equal(_ball_sums(vals, mask),
                          scipy_reference.ball_sums(vals, mask))


@pytest.mark.parametrize("n,h,shape", [(1, 2.0 ** -7, (9000,)),
                                       (2, 2.0 ** -4, (97, 61))])
def test_general_slice_norm_hands_row_major_rows(n, h, shape, rng,
                                                 monkeypatch):
    """The windows reach luxemburg_norm_rows in one call, as rows
    gathered on demand: each gather C-contiguous, the samples of a row
    adjacent and the rows in order.  The rows are the window matrix and
    the norm is its norm, bit for bit."""
    vals = rng.lognormal(size=shape) * (rng.random(shape) < 0.8)
    f = GridFunction((0.0,) * n, h, vals)
    p = SliceParams(0.5, 1.0, orlicz.log_damped())
    handed = []
    rows_norm = orlicz.luxemburg_norm_rows

    def spy(phi, rows, cell_volume, *tol):
        handed.append(rows)
        return rows_norm(phi, rows, cell_volume, *tol)

    monkeypatch.setattr(orlicz, "luxemburg_norm_rows", spy)
    got = slice_norm(f, p)
    assert len(handed) == 1 and isinstance(handed[0], _Windows)
    matrix = _window_matrix(vals, p.t, h)
    assert handed[0].shape == matrix.shape
    rows = handed[0][np.arange(matrix.shape[0])]
    assert rows.flags.c_contiguous
    assert np.array_equal(rows, matrix)
    num = gauge_reference.one_shot_rows(p.phi, matrix, f.cell_volume)
    den = ball_indicator_gauge(p.phi, matrix.shape[1], f.cell_volume)
    assert got == float((num / den).sum() * f.cell_volume)


@pytest.mark.parametrize("n,h,shape,t_values", [
    (1, 2.0 ** -7, (9000,), [0.5, 2.0]),
    (2, 2.0 ** -4, (97, 61), [0.5, 1.0]),
])
def test_general_slice_norm_matches_window_matrix_across_blocks(
        n, h, shape, t_values, rng, monkeypatch):
    """The blocked window gathers against one evaluation over the whole
    window matrix, bit for bit, on fields whose windows hold more than
    _BLOCK_CELLS cells: each pass over the rows gathers them in order in
    more than one block of at most _BLOCK_CELLS cells, the last one
    partial."""
    vals = rng.lognormal(size=shape) * (rng.random(shape) < 0.8)
    f = GridFunction((0.0,) * n, h, vals)
    phi = orlicz.log_damped()
    gathered = []
    gather = _Windows.__getitem__

    def spy(windows, ix):
        gathered.append(ix)
        return gather(windows, ix)

    monkeypatch.setattr(_Windows, "__getitem__", spy)
    for t in t_values:
        gathered.clear()
        got = slice_norm(f, SliceParams(t, 1.0, phi))
        rows = _window_matrix(vals, t, h)
        step = orlicz._BLOCK_CELLS // rows.shape[1]
        first = [ix.size for ix in gathered[:-(-rows.shape[0] // step)]]
        assert rows.size > orlicz._BLOCK_CELLS
        assert np.array_equal(np.concatenate(gathered[:len(first)]),
                              np.arange(rows.shape[0]))
        assert len(first) > 1 and 0 < first[-1] < first[0] == step
        assert max(ix.size for ix in gathered) == step
        num = gauge_reference.one_shot_rows(phi, rows, f.cell_volume)
        den = ball_indicator_gauge(phi, rows.shape[1], f.cell_volume)
        assert got == float((num / den).sum() * f.cell_volume)


@pytest.mark.parametrize("n,h,shape,t", [(1, 2.0 ** -5, (70,), 0.5),
                                         (2, 2.0 ** -4, (13, 9), 0.5),
                                         (2, 2.0 ** -3, (5, 11), 1.0)])
def test_windows_are_the_window_matrix(n, h, shape, t, rng):
    """_Windows rows against the materialized window matrix, all of them
    in order and a random subset out of order."""
    vals = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    windows = _Windows(vals, ball_mask(t, h, n))
    matrix = _window_matrix(vals, t, h)
    assert windows.shape == matrix.shape
    assert np.array_equal(windows[np.arange(matrix.shape[0])], matrix)
    ix = rng.permutation(matrix.shape[0])[:matrix.shape[0] // 2]
    assert np.array_equal(windows[ix], matrix[ix])


def test_two_dimensional_general_slice_norm_allocates_no_window_matrix(rng):
    """One log_damped slice norm of a 60 x 60 field at t = 1.25, h = 1/16:
    9,604 outer points of 1,245 window cells, 91.2 MiB as a matrix.  Its
    peak allocation stays below eight blocks of _BLOCK_CELLS cells plus
    40 floats per outer point (the padded field, the windows' offsets and
    the solver's state): 3.9 MiB.  It measured 2.1 MiB; gathered in
    chunks of 2^20 window cells, it measured 30 MiB."""
    f = GridFunction((0.0, 0.0), 2.0 ** -4,
                     rng.lognormal(size=(60, 60)) * (rng.random((60, 60))
                                                     < 0.8))
    p = SliceParams(1.25, 1.0, orlicz.log_damped())
    w, k = ball_offset_count(2, p.t, f.h)
    outer = (60 + 2 * k) ** 2
    assert outer * w * 8 > 64 * 2 ** 20
    tracemalloc.start()
    try:
        slice_norm(f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 * orlicz._BLOCK_CELLS + 40 * outer) * 8


def test_ball_mask_counts_offsets_within_the_radius():
    h = 2.0 ** -3
    assert ball_mask(0.5, h, 1).tolist() == [True] * 7
    disk = ball_mask(0.5, h, 2)
    assert disk.shape == (7, 7)
    ax = np.arange(-3, 4) * h
    assert np.array_equal(disk, np.hypot(*np.meshgrid(ax, ax)) < 0.5)


@pytest.mark.parametrize("t, q", [
    (np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0), (0.5, np.inf), (0.0, 1.0),
    (0.5, -1.0),
])
def test_slice_params_reject_nonfinite_or_nonpositive_t_and_q(t, q):
    with pytest.raises(PreconditionError):
        SliceParams(t, q, orlicz.power(2.0))


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


def _star_norm_per_cube(f, phi):
    """star_norm as one Luxemburg gauge per nonzero unit-cube piece."""
    total = 0.0
    for Q in f.unit_cubes():
        piece = f.box_view(f.cube_slices(Q))
        if np.any(piece.values):
            total += orlicz.luxemburg_norm(phi, piece)
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([2.0 ** -3, 0.1, 0.25]), st.floats(-3.0, 3.0),
       st.floats(0.0, 1.0), st.sampled_from(["power:1.5", "log_damped"]),
       st.integers(0, 2 ** 32 - 1))
def test_star_norm_is_the_per_cube_loop_bit_for_bit(n, m0, m1, h, origin,
                                                    fill, tag, seed):
    """The pieces of each shape in one gauge call against one gauge per
    piece: boxes that start and end inside a unit cube, so the edge
    pieces are ragged, zero pieces, and a power Phi."""
    rng = np.random.default_rng(seed)
    shape = (m0,) if n == 1 else (m0, m1)
    vals = rng.normal(size=shape) * (rng.random(shape) < fill)
    f = GridFunction((origin, -origin / 3)[:n], h, vals)
    phi = orlicz.from_tag(tag)
    assert star_norm(f, phi) == _star_norm_per_cube(f, phi)


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
    rep = fefferman_stein_check(fam, 2.0, p)
    # the maximal function dominates the function pointwise
    assert rep.summary["max_ratio"] >= 1.0


def test_ball_indicator_ratio_band():
    rep = ball_indicator_ratio([0.25, 1.0, 4.0], 2.0 ** -6)
    assert rep.summary["band_width"] < 20
    assert rep.summary["min_ratio"] > 0


@pytest.mark.parametrize("n, h, radii", [(1, 2.0 ** -8, [2.0 ** -6, 0.5, 1.0,
                                                         4.0, 16.0]),
                                          (2, 2.0 ** -4, [0.125, 0.5, 1.0,
                                                          2.0])])
def test_ball_indicator_ratio_matches_the_gauge_solves(n, h, radii):
    """The closed-form indicator gauges against star_norm and
    luxemburg_norm, which solve them, on the same ball indicators."""
    phi = orlicz.log_damped()
    rep = ball_indicator_ratio(radii, h, n)
    for (rad, ref, star_ratio, lux_ratio) in rep.rows:
        k = ball_offset_count(n, rad, h)[1]
        ind = GridFunction((-(k + 0.5) * h,) * n, h,
                           ball_mask(rad, h, n).astype(float))
        assert star_ratio == pytest.approx(star_norm(ind, phi) / ref,
                                           rel=1e-9, abs=0)
        assert lux_ratio == pytest.approx(
            orlicz.luxemburg_norm(phi, ind) / ref, rel=1e-9, abs=0)


def test_ball_indicator_gauge_takes_an_array_of_counts():
    phi = orlicz.log_damped()
    counts = [1, 7, 64, 1000]
    got = ball_indicator_gauge(phi, counts, 2.0 ** -8)
    assert got.tolist() == [ball_indicator_gauge(phi, c, 2.0 ** -8)
                            for c in counts]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
@pytest.mark.parametrize("n", [1, 2])
def test_slice_norm_rejects_nonfinite_samples(n, tag, bad):
    """One non-finite cell raises InvalidDataError, not a NaN, an inf, a
    wrong finite value or a NumPy warning."""
    f = GridFunction.constant(1.0, (0.0,) * n, 2.0 ** -4, (16,) * n)
    f.values.flat[5 * f.values.size // 8] = bad
    with pytest.raises(InvalidDataError, match="non-finite"):
        slice_norm(f, SliceParams(0.5, 1.0, orlicz.from_tag(tag)))
