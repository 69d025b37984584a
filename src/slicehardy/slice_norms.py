"""Orlicz-slice norms, the amalgam-style sum norm, and maximal bounds.

The slice quasi-norm averages, over every outer sample point x, the
Luxemburg norm of f restricted to the ball B(x, t) normalized by the
Luxemburg norm of the ball indicator.  Ball restrictions use cells whose
centers lie in the ball, matching the midpoint quadrature convention, so
the indicator normalization is exact and identical for every x.  One
mask, ball_mask, gives the ball's cells in every dimension, and one
reduction, ball_reduce, sums or maximizes over it from growing row
segments: power-type window norms, the cube-indicator counts and the
window maxima of maximal.py, the last on a stack of members at once.
General Phi hand the ball's windows to the gauge solver as _Windows,
which gathers them a block of rows at a time on demand (1-D windows as
rows of a strided view, 2-D ones by a cell index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import orlicz
from .errors import InvalidDataError, PreconditionError, ResolutionError, \
    require_positive
from .grid import Ball, GridFunction
from .kernels import convolve_same
from .reports import Report


@dataclass(frozen=True)
class SliceParams:
    """Parameters (t, q, Phi) of the Orlicz-slice space."""

    t: float
    q: float
    phi: object

    def __post_init__(self):
        require_positive(t=self.t, q=self.q)

    @cached_property
    def _cube_norms(self):
        return {}

    def cube_norm(self, side, h, n):
        """cube_indicator_slice_norm(self, side, h, n), memoized by (side
        in cells, h, n) for as long as these parameters live: a run that
        shares one SliceParams solves each cube size once."""
        key = max(int(np.round(side / h)), 1), h, n
        norm = self._cube_norms.get(key)
        if norm is None:
            norm = self._cube_norms[key] = cube_indicator_slice_norm(
                self, key[0] * h, h, n)
        return norm


def _half_width(r, h):
    """Largest k such that the cell k steps away has its center within r."""
    return int(np.ceil(r / h - 1e-12)) - 1


def ball_mask(r, h, n):
    """Mask of the cell offsets whose centers lie within r, on the cube of
    offsets -k..k per axis, k = _half_width(r, h): all of them in 1-D."""
    k = _half_width(r, h)
    if n == 1:
        return np.ones(2 * k + 1, dtype=bool)
    ax = np.arange(-k, k + 1)
    return (ax[:, None] ** 2 + ax[None, :] ** 2) * h ** 2 \
        < r ** 2 * (1 - 1e-12)


def ball_reduce(values, mask, op):
    """op (np.add or np.maximum) over the cells of mask (a ball_mask of
    half width k) around every cell of values, in same mode, zero outside
    the box, in values' dtype.  The ball runs over the last mask.ndim axes
    of values; leading axes are a batch, each member reduced bit for bit
    as alone (every op is elementwise).

    The ball is a union of centered row segments along the last axis (the
    centre row alone in 1-D).  Runs of 2^j <= k cells come from doubling;
    each distinct half width w of the rows, ascending, grows the segment
    of the previous width w' by two runs of w - w' cells, one table run
    per set bit, so each cell enters once and a sum adds only nonnegative
    terms of a nonnegative field.  Each row offset adds the segment of its
    width, shifted by it: at most 4k + bit_length(k) op calls in 2-D,
    2 popcount(k) + bit_length(k) - 1 in 1-D.  In 1-D, where the segment
    grows once, by k cells on each side, each table adds its left and
    right runs and then makes way for the next, so at most two are alive."""
    k, n = mask.shape[-1] // 2, mask.ndim
    run = np.pad(values, [(0, 0)] * (values.ndim - n) + [(k, k)] * n)
    m = values.shape[-1]
    seg = run[..., k:k + m].copy()
    if n == 1:
        lo = 0
        for j in range(k.bit_length()):
            if k >> j & 1:
                op(seg, run[..., lo:lo + m], out=seg)
                op(seg, run[..., lo + k + 1:lo + k + 1 + m], out=seg)
                lo += 2 ** j
            if 2 ** (j + 1) <= k:
                run = op(run[..., :-2 ** j], run[..., 2 ** j:])
        return seg
    runs = [run]  # runs[j][..., i] reduces cells i .. i + 2^j - 1
    while 2 ** len(runs) <= k:
        half = 2 ** (len(runs) - 1)
        runs.append(op(runs[-1][..., :-half], runs[-1][..., half:]))

    def grow(lo, length):
        """seg takes in the `length` cells from offset lo of each row."""
        for j in range(length.bit_length()):
            if length >> j & 1:
                op(seg, runs[j][..., lo:lo + m], out=seg)
                lo += 2 ** j

    row_cells = mask.reshape(-1, 2 * k + 1).sum(axis=1)
    prev, out = 0, None
    for w in sorted({int(c) // 2 for c in row_cells if c}):
        grow(k - w, w - prev)
        grow(k + prev + 1, w - prev)
        prev = w
        for d in np.flatnonzero(row_cells == 2 * w + 1):
            piece = seg[..., d:d + values.shape[-2], :]
            out = piece.copy() if out is None else op(out, piece, out=out)
    return out


def ball_offset_count(n, t, h):
    """Number of grid cells whose centers fall in a ball of radius t."""
    return int(ball_mask(t, h, n).sum()), _half_width(t, h)


def ball_indicator_gauge(phi, n_cells, cell_volume):
    """Luxemburg norm 1 / Phi^-1(1 / |E|) of an indicator of n_cells > 0
    grid cells, elementwise over an array of counts."""
    return 1.0 / phi.inverse(1.0 / (np.asarray(n_cells) * cell_volume))


def slice_norm(f, p):
    """The Orlicz-slice quasi-norm of f for parameters p.

    The outer integral runs over the support box dilated by t; beyond it
    the integrand vanishes.
    """
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    if f.h * 2 > p.t:
        raise ResolutionError(f"slice radius {p.t} below 2h = {2 * f.h}")
    mask = ball_mask(p.t, f.h, f.n)
    den = ball_indicator_gauge(p.phi, int(mask.sum()), f.cell_volume)
    if p.phi.power_exponent is not None:
        num = _power_window_norms(f, mask, p.phi.power_exponent)
    else:
        num = orlicz.luxemburg_norm_rows(p.phi, _Windows(f.values, mask),
                                         f.cell_volume)
    return float(((num / den) ** p.q).sum() * f.cell_volume) ** (1.0 / p.q)


class _Windows:
    """slice_norm's window matrix, never built: row i holds the samples
    (zero outside the box) in the ball mask around outer point i, in C
    order, the points in C order on the box dilated by the mask's half
    width.  windows[ix] gathers rows ix from the flat padded samples: as
    rows of a strided view when the ball's cells are one contiguous run
    (every 1-D ball), otherwise by an index per cell."""

    def __init__(self, values, mask):
        padded = np.pad(values, mask.shape[0] - 1)
        outer = [p - m + 1 for p, m in zip(padded.shape, mask.shape)]
        self.flat = padded.ravel()
        self.starts = np.ravel_multi_index(
            np.indices(outer).reshape(len(outer), -1), padded.shape)
        self.cells = np.ravel_multi_index(np.nonzero(mask), padded.shape)
        self.shape = self.starts.size, self.cells.size
        self.run = None
        if np.all(np.diff(self.cells) == 1):
            self.run = sliding_window_view(self.flat[self.cells[0]:],
                                           self.cells.size)

    def __getitem__(self, ix):
        if self.run is not None:
            return self.run[self.starts[ix]]
        return self.flat[self.starts[ix, None] + self.cells]


def _power_window_norms(f, mask, power):
    """L^p norms of f on the ball of every outer point: ball_reduce's sums
    of |f|^p, nonnegative terms, on the box dilated by the ball's half
    width (the full convolution with the ball's cells)."""
    k = mask.shape[-1] // 2
    sums = ball_reduce(np.pad(np.abs(f.values) ** power, k), mask, np.add)
    return sums ** (1.0 / power) * f.cell_volume ** (1.0 / power)


def cube_indicator_slice_norm(p, side, h, n=1):
    """Slice norm of a grid-aligned cube indicator, in closed form.

    A window that holds c cells of the cube has the gauge
    ball_indicator_gauge(phi, c, h^n), so the norm needs only how many
    outer points see each count: the integer ball sums (ball_reduce) of
    the cube, padded by the ball's half width.  One vectorized Phi
    inverse covers the distinct counts and the full ball.  The value is
    the same for every cube of equal side (translation invariance).
    SliceParams.cube_norm memoizes it.
    """
    if h * 2 > p.t:
        raise ResolutionError(f"slice radius {p.t} below 2h = {2 * h}")
    cells = max(int(np.round(side / h)), 1)
    mask = ball_mask(p.t, h, n)
    w = int(mask.sum())
    cube = np.ones((cells,) * n, dtype=np.int64)
    windows = ball_reduce(np.pad(cube, mask.shape[-1] // 2), mask, np.add)
    counts, mult = np.unique(windows[windows > 0], return_counts=True)
    vol = h ** n
    gauges = ball_indicator_gauge(p.phi, np.append(counts, w), vol)
    ratio = gauges[:-1] / gauges[-1]
    return float((mult * ratio ** p.q).sum() * vol) ** (1.0 / p.q)


def star_norm(f, phi):
    """Sum of per-unit-cube Luxemburg norms over the integer lattice, added
    one by one in cube order; the nonzero pieces of each shape take one
    luxemburg_norm_rows call on their stacked rows."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    pieces = [f.box_view(box) for box in f.cube_boxes(f.unit_cubes())]
    pieces = [g for g in pieces if np.any(g.values)]
    norms = np.empty(len(pieces))
    for shape in {g.extents for g in pieces}:
        ix = [i for i, g in enumerate(pieces) if g.extents == shape]
        norms[ix] = orlicz.luxemburg_norm_rows(phi, np.stack(
            [pieces[i].values.ravel() for i in ix]), f.cell_volume)
    return float(np.cumsum(np.append(0.0, norms))[-1])  # sequential sum


def hl_maximal(f, pad_cells=0):
    """Centered Hardy-Littlewood maximal function on a dyadic radius ladder.

    Averages are plain means of |f| over the cells whose centers lie in
    B(x, r) (the function is zero outside its box), so the output
    dominates |f| pointwise: the smallest radius window is the cell
    itself.
    """
    g = f.pad(pad_cells)
    vals = np.abs(g.values)
    out = vals.copy()
    diam = max(g.extents) * g.h * 2 * np.sqrt(g.n)
    r = 2 * g.h
    while r <= diam:
        # The FFT stays: ball_reduce sums matched it in 1-D but took 0.39 s
        # against 0.15 s on a 64 x 64 member at h = 1/16 and pad 64.
        mask = ball_mask(r, g.h, g.n).astype(float)
        means = convolve_same(vals, mask) / mask.sum()
        np.maximum(out, np.maximum(means, 0.0), out=out)
        r *= 2
    return GridFunction(g.origin, g.h, out, check=False)


def fefferman_stein_check(family, r, p, t_values=None):
    """Two-sided evaluation of the vector-valued maximal inequality.

    Reports the ratio of the slice norms of the r-aggregated maximal
    family, each maximal function on its member's box padded by 64 cells,
    and the r-aggregated family itself, per slice radius t.
    """
    if r <= 1:
        raise PreconditionError("aggregation exponent r must exceed 1")
    if p.phi.p_minus <= 1 or p.q <= 1:
        raise PreconditionError(
            "Fefferman-Stein hypotheses need lower type > 1 and q > 1")
    t_values = t_values or [p.t]
    report = Report("fefferman_stein",
                    ["t", "lhs", "rhs", "ratio"])
    nonzero = [f for f in family if f.max_abs() > 0]
    if not nonzero:
        report.summary["skipped"] = "all-zero family"
        return report
    maximals = [hl_maximal(f, 64) for f in nonzero]
    lhs_f = _aggregate(maximals, r)
    rhs_f = _aggregate(nonzero, r)
    for t in t_values:
        pt = SliceParams(t, p.q, p.phi)
        lhs = slice_norm(lhs_f, pt)
        rhs = slice_norm(rhs_f, pt)
        report.add(t, lhs, rhs, lhs / rhs)
    ratios = report.column("ratio")
    report.summary["max_ratio"] = max(ratios)
    report.summary["t_spread"] = max(ratios) / min(ratios)
    return report


def _aggregate(family, r):
    acc = None
    for f in family:
        term = GridFunction(f.origin, f.h, np.abs(f.values) ** r,
                            check=False)
        acc = term if acc is None else acc + term
    return GridFunction(acc.origin, acc.h, acc.values ** (1.0 / r),
                        check=False)


def ball_indicator_ratio(radii, h, n=1):
    """Both sides of the ball-indicator equivalence for the log-damped Phi.

    For each radius the reference value is |B| / log(e + 1/|B|); the
    report carries the ratios of the amalgam sum norm and the plain
    Orlicz norm against it, plus their min/max over the sweep, from
    closed-form indicator gauges: the unit cubes' in cube order, the ball's.
    """
    phi = orlicz.log_damped()
    report = Report("ball_indicator_ratio",
                    ["radius", "reference", "star_ratio", "orlicz_ratio"])
    for rad in radii:
        if rad < 2 * h:
            raise ResolutionError(f"radius {rad} below 2h = {2 * h}")
        measure = Ball((0.0,) * n, rad).volume
        ref = measure / np.log(np.e + 1.0 / measure)
        k = _half_width(rad, h)
        ind = GridFunction((-(k + 0.5) * h,) * n, h,
                           ball_mask(rad, h, n).astype(float))
        counts = [np.count_nonzero(ind.values[box])
                  for box in ind.cube_boxes(ind.unit_cubes())]
        counts = [c for c in counts if c] + [np.count_nonzero(ind.values)]
        gauges = ball_indicator_gauge(phi, counts, h ** n).tolist()
        star, lux = sum(gauges[:-1]), gauges[-1]
        report.add(rad, ref, star / ref, lux / ref)
    allr = report.column("star_ratio") + report.column("orlicz_ratio")
    report.summary["min_ratio"] = min(allr)
    report.summary["max_ratio"] = max(allr)
    report.summary["band_width"] = max(allr) / min(allr)
    return report


def reverse_superadditivity_check(family, p):
    """Ratio of the slice norm of a sum against the sum of slice norms.

    Requires nonnegative members, q <= 1 and upper type <= 1; in that
    range the sum norm dominates a constant multiple of the norm sum.
    """
    if p.q > 1 or p.phi.p_plus > 1:
        raise PreconditionError(
            "reverse superadditivity needs q <= 1 and upper type <= 1")
    report = Report("reverse_superadditivity", ["size", "ratio"])
    members = [f for f in family if f.max_abs() > 0]
    if not members:
        report.summary["skipped"] = "empty family"
        return report
    for f in members:
        if f.values.min() < 0:
            raise PreconditionError("family members must be nonnegative")
    total = sum(members)
    lhs = slice_norm(total, p)
    rhs = sum(slice_norm(f, p) for f in members)
    report.add(len(members), lhs / rhs)
    report.summary["min_ratio"] = min(report.column("ratio"))
    return report
