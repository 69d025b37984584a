"""Sampled functions on uniform grids, with cubes and quadrature.

A :class:`GridFunction` represents a compactly supported function on R^n
(n = 1 or 2) sampled at the centers of uniform axis-aligned cells; the
function is extended by zero outside the sampled box.  All integrals are
midpoint-rule sums: each sample stands for its cell, so indicators of
cell-aligned regions integrate exactly.

A region holds the cells whose centers lie in it.  A cube holds the cells
with lo - 1e-9 side <= x < hi - 1e-9 side on every axis: one index box,
which :meth:`GridFunction.cube_boxes` finds for many cubes at once, the
only code that decides a cube's cells (:meth:`Cube.contains_points` is
its pointwise reference).  A ball's cells are slice_norms.ball_mask's.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidDataError, NumericFailure, PreconditionError, \
    require_positive, require_spacing

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube given by its center and side length.

    Membership is half-open, [lo, hi) shifted down by 1e-9 side, so a
    dyadic partition counts every cell center once (see the module note).
    """

    center: tuple
    side: float

    def __post_init__(self):
        require_positive(side=self.side)
        center = tuple(float(c) for c in self.center)
        if not all(map(math.isfinite, center)):
            raise PreconditionError(f"center must be finite: {center}")
        object.__setattr__(self, "center", center)

    @property
    def n(self):
        return len(self.center)

    @property
    def lo(self):
        return tuple(c - self.side / 2 for c in self.center)

    @property
    def hi(self):
        return tuple(c + self.side / 2 for c in self.center)

    @property
    def volume(self):
        return self.side ** self.n

    def contains_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo - _ALIGN_TOL * self.side)
                      & (pts < hi - _ALIGN_TOL * self.side), axis=-1)


def p_mean(a, p, weight, mult=1):
    """(sum of mult a^p, times weight)^(1/p) for nonnegative a and finite
    p > 0, as a float: the plain sum and root, unless that sum is below
    (number of terms, mult included) 2^(53 - 1022) for a nonzero a, where
    subnormal terms may have lost bits, or is not finite, or its root
    overflows; then the sum is taken over max(a), so a large p gives about
    max(a), finite and nonzero, with no warning.  A value past the float
    range raises NumericFailure."""
    with np.errstate(over="ignore"):
        total = float((mult * a ** p).sum() * weight)
    terms = a.size * mult if np.isscalar(mult) else np.sum(mult)
    with contextlib.suppress(OverflowError):
        if terms * 2.0 ** (53 - 1022) <= total < math.inf or not a.any():
            return total ** (1.0 / p)
    top = float(a.max())
    scaled = float((mult * (a / top) ** p).sum() * weight)
    with contextlib.suppress(OverflowError):
        if (value := top * scaled ** (1.0 / p)) < math.inf:
            return value
    raise NumericFailure(f"p-mean at p = {p} passes the float range")


class GridFunction:
    """A real function sampled on a uniform grid, zero outside its box."""

    def __init__(self, origin, h, values, check=True):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise InvalidDataError("only dimensions 1 and 2 are supported")
        origin = np.asarray(origin, dtype=float).reshape(-1)
        if origin.size != values.ndim:
            raise InvalidDataError("origin dimension does not match values")
        require_spacing(h)
        if not all(map(math.isfinite, origin.tolist())):
            raise InvalidDataError(f"grid origin must be finite: {origin}")
        if check and not np.all(np.isfinite(values)):
            raise InvalidDataError("non-finite sample values")
        self.origin = origin
        self.h = float(h)
        self.values = values

    @property
    def n(self):
        return self.values.ndim

    @property
    def extents(self):
        return self.values.shape

    @property
    def cell_volume(self):
        return self.h ** self.n

    def axis_centers(self, axis, part=slice(None)):
        """Cell centers along one axis, or along a slice of it."""
        cells = np.arange(*part.indices(self.extents[axis]))
        return self.origin[axis] + (cells + 0.5) * self.h

    def centers(self, box=None):
        """Cell-center coordinates, shape extents + (n,), or of a box."""
        box = box or (slice(None),) * self.n
        axes = [self.axis_centers(d, s) for d, s in enumerate(box)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def center_radii(self):
        """Euclidean |x| at every cell center."""
        return np.linalg.norm(self.centers(), axis=-1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, fn, origin, h, extents):
        g = cls(origin, h, np.zeros(extents))
        vals = np.asarray(fn(*np.moveaxis(g.centers(), -1, 0)), dtype=float)
        return cls(origin, h, np.broadcast_to(vals, extents).copy())

    @classmethod
    def constant(cls, value, origin, h, extents):
        return cls(origin, h, np.full(extents, float(value)))

    @classmethod
    def indicator(cls, cube, origin, h, extents):
        g = cls(origin, h, np.zeros(extents))
        g.values[g.cell_mask(cube)] = 1.0
        return g

    # -- grid compatibility ------------------------------------------------

    def _cells_from(self, origin):
        """Whole cells from origin to this grid's origin, per axis: the one
        rounding of grid offsets.  An offset more than 1e-6 cell from a
        whole number raises InvalidDataError."""
        off = (self.origin - np.asarray(origin, dtype=float)) / self.h
        cells = np.round(off)
        if not np.all(np.abs(off - cells) < 1e-6):
            raise InvalidDataError("incompatible grids (spacing or alignment)")
        return cells.astype(int)

    def _require_compatible(self, other):
        """_cells_from(other.origin), for a grid of this n and h."""
        if self.n != other.n or abs(self.h - other.h) > _ALIGN_TOL * self.h:
            raise InvalidDataError("incompatible grids (spacing or alignment)")
        return self._cells_from(other.origin)

    def compatible_with(self, other):
        try:
            self._require_compatible(other)
        except InvalidDataError:
            return False
        return True

    def embed(self, origin, extents):
        """Re-sample onto a larger aligned box, padding with zeros."""
        off = self._cells_from(origin)
        if np.any(off < 0) or np.any(off + np.array(self.extents) > extents):
            raise InvalidDataError("target box does not contain this box")
        out = np.zeros(extents)
        sl = tuple(slice(o, o + m) for o, m in zip(off, self.extents))
        out[sl] = self.values
        return GridFunction(origin, self.h, out, check=False)

    def union_box(self, other):
        off = -self._require_compatible(other)
        lo = np.minimum(self.origin, other.origin)
        hi = np.maximum(off + other.extents, self.extents)
        return lo, tuple((hi - np.minimum(off, 0)).tolist())

    def _binary(self, other, op):
        if np.isscalar(other):
            return GridFunction(self.origin, self.h, op(self.values, other),
                                check=False)
        lo, ext = self.union_box(other)
        a = self.embed(lo, ext).values
        b = other.embed(lo, ext).values
        return GridFunction(lo, self.h, op(a, b), check=False)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        if other == 0:  # supports sum()
            return self
        return self.__add__(other)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return GridFunction(self.origin, self.h, self.values / scalar,
                            check=False)

    def __neg__(self):
        return GridFunction(self.origin, self.h, -self.values, check=False)

    def copy(self):
        return GridFunction(self.origin.copy(), self.h, self.values.copy(),
                            check=False)

    def box_view(self, box):
        """The samples of an index box as a grid function (values: a view)."""
        start = np.array([s.start for s in box])
        return GridFunction(self.origin + start * self.h, self.h,
                            self.values[box], check=False)

    def covering_box(self, cubes, others=()):
        """Origin and extents of an aligned box that holds this box, the
        boxes of the compatible grid functions `others` and every cube,
        with at least one spare cell on each side."""
        lo = np.array(self.origin, dtype=float)
        hi = lo + np.array(self.extents) * self.h
        for g in others:
            self._require_compatible(g)
            lo = np.minimum(lo, g.origin)
            hi = np.maximum(hi, g.origin + np.array(g.extents) * g.h)
        for Q in cubes:
            lo = np.minimum(lo, Q.lo)
            hi = np.maximum(hi, Q.hi)
        origin = self.origin - np.ceil((self.origin - lo) / self.h + 1e-9) \
            * self.h
        ext = tuple(int(np.ceil((b - a) / self.h - 1e-9)) + 1
                    for a, b in zip(origin, hi))
        return origin, ext

    # -- cubes and quadrature ----------------------------------------------

    def unit_cubes(self):
        """The unit cubes k + [0, 1)^n, k integer, over the support box,
        in lexicographic order of k."""
        bounds = self.support_bounds()
        if bounds is None:
            return []
        corners = [range(int(np.floor(a)), int(np.ceil(b)) + 1)
                   for a, b in zip(*bounds)]
        return [Cube(tuple(k + 0.5 for k in corner), 1.0)
                for corner in product(*corners)]

    def cube_boxes(self, cubes):
        """Index box (one slice per axis, maybe empty) of the cells whose
        centers lie in each cube: bisection with Cube.contains_points'
        comparisons, one searchsorted per axis for all the cubes."""
        center = np.array([Q.center for Q in cubes]).reshape(-1, self.n)
        side = np.array([Q.side for Q in cubes])
        half, tol = side / 2, _ALIGN_TOL * side
        ends = [np.searchsorted(self.axis_centers(d), [
            center[:, d] - half - tol, center[:, d] + half - tol]).T.tolist()
            for d in range(self.n)]
        return [tuple(slice(*e) for e in box) for box in zip(*ends)]

    def cube_slices(self, Q):
        """The index box of the cells whose centers lie in Q (cube_boxes)."""
        return self.cube_boxes([Q])[0]

    def cell_mask(self, cube):
        """Boolean mask of the cells whose centers lie in the cube (all of
        them for None)."""
        if cube is None:
            return np.ones(self.extents, dtype=bool)
        mask = np.zeros(self.extents, dtype=bool)
        mask[self.cube_slices(cube)] = True
        return mask

    def integrate(self, cube=None):
        """Midpoint-rule integral over a Cube or, for None, the whole box."""
        if cube is None:
            return float(self.values.sum() * self.cell_volume)
        mask = self.cell_mask(cube)
        return float(self.values[mask].sum() * self.cell_volume)

    def restrict(self, cube):
        """Pointwise multiply by the cube's indicator."""
        out = np.where(self.cell_mask(cube), self.values, 0.0)
        return GridFunction(self.origin, self.h, out, check=False)

    def pad(self, cells):
        """Extend the box by `cells` zero cells on every side."""
        cells = int(cells)
        if cells <= 0:
            return self
        pad = [(cells, cells)] * self.n
        out = np.pad(self.values, pad)
        return GridFunction(self.origin - cells * self.h, self.h, out,
                            check=False)

    def support_bounds(self, tol=0.0):
        """Physical lo/hi bounds of the cells where |f| > tol, or None."""
        mask = np.abs(self.values) > tol
        if not mask.any():
            return None
        idx = np.argwhere(mask)
        lo = self.origin + idx.min(axis=0) * self.h
        hi = self.origin + (idx.max(axis=0) + 1) * self.h
        return lo, hi

    def max_abs(self):
        return float(np.abs(self.values).max(initial=0.0))

    def lp_norm(self, p):
        if np.isinf(p):
            return self.max_abs()
        return p_mean(np.abs(self.values), p, self.cell_volume)

    def __repr__(self):
        return (f"GridFunction(n={self.n}, origin={tuple(self.origin)}, "
                f"h={self.h}, extents={self.extents})")
