"""Slice norms, the amalgam sum norm, and the maximal-operator checks."""

import math
import tracemalloc
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

import gauge_reference
import scipy_reference
from slicehardy import orlicz
from slicehardy.errors import InvalidDataError, PreconditionError, \
    ResolutionError
from slicehardy.grid import Cube, GridFunction
from slicehardy.slice_norms import SliceParams, _power_window_norms, \
    _Windows, ball_indicator_gauge, ball_indicator_ratio, ball_mask, \
    ball_offset_count, ball_reduce, \
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


def _full_sums(a, mask):
    """The full convolution of a with the ball mask: ball_reduce's sums
    on a padded by the ball's half width."""
    return ball_reduce(np.pad(a, mask.shape[-1] // 2), mask, np.add)


@pytest.mark.parametrize("k", [7, 15, 31])
def test_ball_sums_2d_match_convolve2d(k, rng):
    """The 2-D ball sums against the SciPy direct convolution: exact, in
    int64, on integer input; within 1e-14 of the maximum on lognormal
    squared fields, on 15², 31² and 63² disks.  Some inputs have fewer
    cells than the disk, and some have even sides."""
    from scipy.signal import convolve2d

    mask = ball_mask((k + 1) * 2.0 ** -5, 2.0 ** -5, 2)
    assert mask.shape == (2 * k + 1,) * 2
    for ints in (rng.integers(0, 5, (128, 128)), rng.integers(0, 5, (3, 4)),
                 np.ones((40, 40), dtype=np.int64)):
        got = _full_sums(ints, mask)
        assert got.dtype == np.int64
        assert np.array_equal(got, convolve2d(ints, mask.astype(np.int64)))
    for shape in ((128, 128), (5, 6)):
        vals = rng.lognormal(size=shape) ** 2
        got = _full_sums(vals, mask)
        ref = convolve2d(vals, mask.astype(float))
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * ref.max()


@settings(max_examples=60, deadline=None)
@given(cells=st.integers(1, 64), k=st.integers(0, 31))
def test_cube_counts_are_the_ndimage_counts(cells, k):
    """The int64 ball sums of the cube indicator, as the 2-D
    cube-indicator slice norm takes them, against ndimage.convolve, for
    cubes of 1 to 64 cells and disks 1 to 63 cells across."""
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, 2)
    assert mask.shape == (2 * k + 1,) * 2
    cube = np.ones((cells, cells), dtype=np.int64)
    got = _full_sums(cube, mask)
    assert got.dtype == np.int64
    assert np.array_equal(got, scipy_reference.ball_sums(cube, mask))


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 80), st.integers(1, 80)),
       k=st.integers(0, 31), power=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       fill=st.sampled_from([0.002, 0.05, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_power_ball_sums_2d_match_ndimage(shape, k, power, fill, seed):
    """The 2-D ball sums of |x|^p against ndimage.convolve, on sparse and
    dense fields: zero exactly where ndimage's are, and within 1e-13
    relative elsewhere (the terms are added in another order)."""
    rng = np.random.default_rng(seed)
    vals = np.abs(rng.normal(size=shape)) ** power * (rng.random(shape)
                                                      < fill)
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, 2)
    got, ref = _full_sums(vals, mask), scipy_reference.ball_sums(vals, mask)
    assert np.array_equal(got == 0, ref == 0)
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def _fsum_ball_sums(vals, mask):
    """Same-mode ball sums, each cell's by math.fsum (correctly rounded)
    over its window of the zero-padded field."""
    k = mask.shape[-1] // 2
    padded = np.pad(vals, k)
    out = np.empty(vals.shape)
    for ix in np.ndindex(vals.shape):
        window = padded[tuple(slice(i, i + 2 * k + 1) for i in ix)]
        out[ix] = math.fsum(window[mask])
    return out


@st.composite
def ball_fields(draw):
    """(n, k, shape, seed): a 1-D or 2-D box, some boxes narrower than the
    ball, single rows and single columns among them, and a disk of
    half width 0 to 31 cells."""
    n, k = draw(st.sampled_from([1, 2])), draw(st.integers(0, 31))
    side = st.one_of(st.just(1), st.integers(1, 2 * k + 1),
                     st.integers(1, 24))
    shape = tuple(draw(side) for _ in range(n))
    return n, k, shape, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(field=ball_fields(), fill=st.sampled_from([0.05, 0.5, 1.0]),
       span=st.sampled_from([0.0, 5.0, 50.0]))
def test_ball_reduce_sums_counts_and_maxima(field, fill, span):
    """ball_reduce against its references, in 1-D and 2-D: float sums of
    nonnegative fields with a dynamic range up to e^50 within 1e-14
    relative of math.fsum, zero exactly where fsum's are; int64 sums
    equal to ndimage.convolve's; maxima of signed fields equal to
    ndimage.maximum_filter's, bit for bit."""
    n, k, shape, seed = field
    rng = np.random.default_rng(seed)
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, n)
    assert mask.shape == (2 * k + 1,) * n
    vals = np.exp(rng.uniform(-span, 0.0, shape)) * (rng.random(shape)
                                                     < fill)
    got, ref = ball_reduce(vals, mask, np.add), _fsum_ball_sums(vals, mask)
    assert got.shape == shape
    assert np.array_equal(got == 0, ref == 0)
    assert np.allclose(got, ref, rtol=1e-14, atol=0.0)
    ints = rng.integers(0, 5, shape)
    got = ball_reduce(ints, mask, np.add)
    full = scipy_reference.ball_sums(ints, mask)
    assert got.dtype == np.int64
    assert np.array_equal(got, full[tuple(slice(k, k + m) for m in shape)])
    signed = rng.normal(size=shape)
    assert np.array_equal(ball_reduce(signed, mask, np.maximum),
                          ndimage.maximum_filter(signed, footprint=mask,
                                                 mode="constant"))


@settings(max_examples=60, deadline=None)
@given(field=ball_fields(), members=st.integers(1, 4),
       op=st.sampled_from([np.add, np.maximum]),
       dtype=st.sampled_from([float, np.int64]))
def test_ball_reduce_on_a_stack_is_each_member_alone(field, members, op,
                                                     dtype):
    """The ball runs over the mask's axes only: a stack of members along a
    leading axis reduces to the stack of the members' own reductions, bit
    for bit, in 1-D and 2-D, for sums and maxima of floats and int64."""
    n, k, shape, seed = field
    rng = np.random.default_rng(seed)
    mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, n)
    if dtype is float:
        stack = rng.normal(size=(members,) + shape)
    else:
        stack = rng.integers(-4, 5, (members,) + shape)
    got = ball_reduce(stack, mask, op)
    assert got.dtype == stack.dtype
    assert np.array_equal(got, np.stack([ball_reduce(x, mask, op)
                                         for x in stack]))


@pytest.mark.parametrize("n", [1, 2])
def test_ball_reduce_work_is_bounded_by_the_rows(n):
    """ball_reduce makes at most 4k + bit_length(k) op calls in 2-D and
    3 bit_length(k) + 1 in 1-D, for k up to 127: the work is cells times
    the disk's rows, never cells times the disk's cells."""
    for k in range(128):
        calls = []

        def op(a, b, out=None):
            calls.append(1)
            return np.add(a, b, out=out)

        mask = ball_mask((k + 0.5) * 2.0 ** -4, 2.0 ** -4, n)
        ball_reduce(np.ones((3,) * n), mask, op)
        bound = 4 * k if n == 2 else 2 * k.bit_length() + 1
        assert len(calls) <= bound + k.bit_length(), k


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
    in order and a random subset out of order: 1-D rows from the strided
    view of one contiguous run, 2-D ones by the cell index."""
    vals = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    windows = _Windows(vals, ball_mask(t, h, n))
    assert (windows.run is not None) == (n == 1)
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
    """SliceParams.cube_norm is cube_indicator_slice_norm bit for bit in
    1-D and 2-D, solved once per (side in cells, h, n) for as long as the
    params live; equal params hold their own memo."""
    p = SliceParams(1.0, 1.0, orlicz.log_damped())
    h = 2.0 ** -6
    v1 = cube_indicator_slice_norm(p, 0.5, h)
    v2 = cube_indicator_slice_norm(p, 0.5, h)
    assert v1 == v2
    f = GridFunction.indicator(Cube((7.25,), 0.5), (7.0,), h, (32,))
    assert slice_norm(f, p) == pytest.approx(v1, rel=1e-10)
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return cube_indicator_slice_norm(*args)

    sides = [0.5, 0.5 + h / 4, h / 3, 0.25, 1.0, 0.5]
    with patch("slicehardy.slice_norms.cube_indicator_slice_norm", counted):
        for n, hh in [(1, h), (2, 4 * h), (1, 2 * h)]:
            for side in sides:
                assert p.cube_norm(side, hh, n) == \
                    cube_indicator_slice_norm(p, side, hh, n)
        assert SliceParams(1.0, 1.0, p.phi) == p
        SliceParams(1.0, 1.0, p.phi).cube_norm(0.5, h, 1)
    once = [(cells * hh, hh, n) for n, hh in [(1, h), (2, 4 * h), (1, 2 * h)]
            for cells in dict.fromkeys(max(round(side / hh), 1)
                                       for side in sides)]
    assert calls == once + [(0.5, h, 1)]


def _trapezoid_norm(p, side, h):
    """cube_indicator_slice_norm in 1-D from the trapezoid of window
    counts: 1 .. min(w, cells) cells, each seen from two outer points but
    the largest, seen from |w - cells| + 1."""
    cells = max(int(np.round(side / h)), 1)
    w = int(ball_mask(p.t, h, 1).sum())
    counts = np.arange(1, min(w, cells) + 1)
    mult = np.append(np.full(counts.size - 1, 2), abs(w - cells) + 1)
    gauges = ball_indicator_gauge(p.phi, np.append(counts, w), h)
    return float((mult * (gauges[:-1] / gauges[-1]) ** p.q).sum()
                 * h) ** (1.0 / p.q)


@pytest.mark.parametrize("tag", ["power:2", "log_damped", "power:0.7"])
def test_cube_indicator_counts_are_the_1d_trapezoid_bit_for_bit(tag):
    """The 1-D window counts by ball_reduce give the trapezoid's norm bit
    for bit, for windows narrower and wider than the cube."""
    phi = orlicz.from_tag(tag)
    for h, t, q in product([2.0 ** -8, 2.0 ** -4], [0.01, 0.3, 1.0, 3.0],
                           [0.5, 1.0, 2.0]):
        if t < 2 * h:
            continue
        p = SliceParams(t, q, phi)
        for side in [2.0 ** -8, 0.3, 1.0, 6.0, 32.0]:
            assert cube_indicator_slice_norm(p, side, h, 1) == \
                _trapezoid_norm(p, side, h), (h, t, q, side)


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
    pieces are ragged, zero pieces, and a power Phi.  With every row
    started cold the sums are equal bit for bit; warm started, a gauge
    depends on the other rows of its call in its last bits."""
    rng = np.random.default_rng(seed)
    shape = (m0,) if n == 1 else (m0, m1)
    vals = rng.normal(size=shape) * (rng.random(shape) < fill)
    f = GridFunction((origin, -origin / 3)[:n], h, vals)
    phi = orlicz.from_tag(tag)
    expected = _star_norm_per_cube(f, phi)
    with patch.object(orlicz, "_ANCHOR_STRIDE", 1):  # every row an anchor
        assert star_norm(f, phi) == expected
    assert star_norm(f, phi) == pytest.approx(expected, rel=1e-13, abs=0)


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
