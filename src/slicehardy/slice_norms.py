"""Orlicz-slice norms, the amalgam-style sum norm, and maximal bounds.

The slice quasi-norm averages, over every outer sample point x, the
Luxemburg norm of f restricted to the ball B(x, t) normalized by the
Luxemburg norm of the ball indicator.  Ball restrictions use cells whose
centers lie in the ball, matching the midpoint quadrature convention, so
the indicator normalization is exact and identical for every x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import convolve2d

from . import orlicz
from .errors import PreconditionError, ResolutionError
from .grid import GridFunction
from .reports import Report

_ROW_CHUNK = 8192


@dataclass(frozen=True)
class SliceParams:
    """Parameters (t, q, Phi) of the Orlicz-slice space."""

    t: float
    q: float
    phi: object

    def __post_init__(self):
        if self.t <= 0 or self.q <= 0:
            raise ValueError("t and q must be positive")


def _half_width(r, h):
    """Largest k such that the cell k steps away has its center within r."""
    return int(np.ceil(r / h - 1e-12)) - 1


def disk_mask(r, h):
    """Mask of the cell offsets whose centers lie within r, on the square
    of offsets -k..k per axis, k = _half_width(r, h)."""
    k = _half_width(r, h)
    ax = np.arange(-k, k + 1)
    return (ax[:, None] ** 2 + ax[None, :] ** 2) * h ** 2 \
        < r ** 2 * (1 - 1e-12)


def ball_offset_count(n, t, h):
    """Number of grid cells whose centers fall in a ball of radius t."""
    k = _half_width(t, h)
    return (2 * k + 1 if n == 1 else int(disk_mask(t, h).sum())), k


def ball_indicator_gauge(phi, n_cells, cell_volume):
    """Luxemburg norm of an indicator covering n_cells grid cells."""
    if n_cells <= 0:
        return 0.0
    return 1.0 / phi.inverse(1.0 / (n_cells * cell_volume))


def slice_norm(f, p, tol=orlicz.DEFAULT_TOL):
    """The Orlicz-slice quasi-norm of f for parameters p.

    The outer integral runs over the support box dilated by t; beyond it
    the integrand vanishes.
    """
    if f.h * 2 > p.t:
        raise ResolutionError(f"slice radius {p.t} below 2h = {2 * f.h}")
    w, k = ball_offset_count(f.n, p.t, f.h)
    den = ball_indicator_gauge(p.phi, w, f.cell_volume)
    if p.phi.power_exponent is not None:
        num = _power_window_norms(f, p.t, k, p.phi.power_exponent)
    else:
        if f.n == 1:
            rows = sliding_window_view(np.pad(f.values, 2 * k), 2 * k + 1)
        else:
            rows = _rows_2d(f.values, p.t, f.h, k)
        num = np.empty(rows.shape[0])
        for i in range(0, rows.shape[0], _ROW_CHUNK):
            num[i:i + _ROW_CHUNK] = orlicz.luxemburg_norm_rows(
                p.phi, rows[i:i + _ROW_CHUNK], f.cell_volume, tol)
    return float(((num / den) ** p.q).sum() * f.cell_volume) ** (1.0 / p.q)


def _power_window_norms(f, t, k, power):
    """L^p norms of f on the ball of every outer point: a direct (not FFT)
    full convolution of |f|^p, nonnegative terms, with the ball's cells."""
    a = np.abs(f.values) ** power
    if f.n == 1:
        sums = np.convolve(a, np.ones(2 * k + 1))
    else:
        sums = convolve2d(a, disk_mask(t, f.h).astype(float)).ravel()
    return sums ** (1.0 / power) * f.cell_volume ** (1.0 / power)


def _rows_2d(values, t, h, k):
    dx, dy = np.nonzero(disk_mask(t, h))
    padded = np.pad(values, 2 * k)
    mx = values.shape[0] + 2 * k
    my = values.shape[1] + 2 * k
    ix, iy = np.meshgrid(np.arange(mx), np.arange(my), indexing="ij")
    ix = ix.ravel()[:, None] + dx[None, :]
    iy = iy.ravel()[:, None] + dy[None, :]
    return padded[ix, iy]


def cube_indicator_slice_norm(p, side, h, n=1):
    """Slice norm of a grid-aligned cube indicator, in closed form.

    A window that holds c cells of the cube has the gauge
    ball_indicator_gauge(phi, c, h^n), so the norm needs only how many
    outer points see each count: a trapezoid in 1-D, the integer
    convolution of the cube with the disk mask in 2-D.  One vectorized
    Phi inverse covers the distinct counts and the full ball.  The value
    is the same for every cube of equal side (translation invariance).
    """
    if h * 2 > p.t:
        raise ResolutionError(f"slice radius {p.t} below 2h = {2 * h}")
    cells = max(int(np.round(side / h)), 1)
    w, _ = ball_offset_count(n, p.t, h)
    if n == 1:
        counts = np.arange(1, min(w, cells) + 1)
        mult = np.append(np.full(counts.size - 1, 2), abs(w - cells) + 1)
    else:
        windows = convolve2d(np.ones((cells, cells), dtype=np.int64),
                             disk_mask(p.t, h).astype(np.int64))
        counts, mult = np.unique(windows[windows > 0], return_counts=True)
    vol = h ** n
    gauges = 1.0 / p.phi.inverse(1.0 / (np.append(counts, w) * vol))
    ratio = gauges[:-1] / gauges[-1]
    return float((mult * ratio ** p.q).sum() * vol) ** (1.0 / p.q)


def cube_indicator_norms(p, h, n=1):
    """side -> cube_indicator_slice_norm(p, side, h, n), memoized by the
    side in cells for as long as the returned function lives."""
    of_cells = cache(lambda cells: cube_indicator_slice_norm(p, cells * h,
                                                             h, n))
    return lambda side: of_cells(max(int(np.round(side / h)), 1))


def star_norm(f, phi, tol=orlicz.DEFAULT_TOL):
    """Sum of per-unit-cube Luxemburg norms over the integer lattice."""
    total = 0.0
    for Q in f.unit_cubes():
        piece = f.box_view(f.cube_slices(Q))
        if np.any(piece.values):
            total += orlicz.luxemburg_norm(phi, piece, tol)
    return total


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
    diam = max(g.extents) * g.h * (2 if f.n == 1 else np.sqrt(2) * 2)
    r = 2 * g.h
    if f.n == 1:
        while r <= diam:
            k = int(np.ceil(r / g.h - 1e-12)) - 1
            w = 2 * k + 1
            cs = np.concatenate([[0.0], np.cumsum(np.pad(vals, k))])
            means = (cs[w:] - cs[:-w]) / w
            np.maximum(out, means, out=out)
            r *= 2
    else:
        from scipy.signal import fftconvolve
        while r <= diam:
            mask = disk_mask(r, g.h).astype(float)
            means = fftconvolve(vals, mask, mode="same") / mask.sum()
            np.maximum(out, np.maximum(means, 0.0), out=out)
            r *= 2
    return GridFunction(g.origin, g.h, out, check=False)


def fefferman_stein_check(family, r, p, t_values=None, pad_cells=64):
    """Two-sided evaluation of the vector-valued maximal inequality.

    Reports the ratio of the slice norms of the r-aggregated maximal
    family and the r-aggregated family itself, per slice radius t.
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
    maximals = [hl_maximal(f, pad_cells) for f in nonzero]
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


def ball_indicator_ratio(radii, h, n=1, phi=None):
    """Both sides of the ball-indicator equivalence for the log-damped Phi.

    For each radius the reference value is |B| / log(e + 1/|B|); the
    report carries the ratios of the amalgam sum norm and the plain
    Orlicz norm against it, plus their min/max over the sweep.
    """
    phi = phi or orlicz.log_damped()
    report = Report("ball_indicator_ratio",
                    ["radius", "reference", "star_ratio", "orlicz_ratio"])
    for rad in radii:
        if rad < 2 * h:
            raise ResolutionError(f"radius {rad} below 2h = {2 * h}")
        measure = 2 * rad if n == 1 else np.pi * rad ** 2
        ref = measure / np.log(np.e + 1.0 / measure)
        ind = _ball_indicator(rad, h, n)
        star = star_norm(ind, phi)
        lux = orlicz.luxemburg_norm(phi, ind)
        report.add(rad, ref, star / ref, lux / ref)
    allr = report.column("star_ratio") + report.column("orlicz_ratio")
    report.summary["min_ratio"] = min(allr)
    report.summary["max_ratio"] = max(allr)
    report.summary["band_width"] = max(allr) / min(allr)
    return report


def _ball_indicator(rad, h, n):
    k = _half_width(rad, h)
    origin = (-(k + 0.5) * h,) * n
    if n == 1:
        return GridFunction(origin, h, np.ones(2 * k + 1))
    return GridFunction(origin, h, disk_mask(rad, h).astype(float))


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
