"""Sampled functions on uniform grids, with cubes, balls and quadrature.

A :class:`GridFunction` represents a compactly supported function on R^n
(n = 1 or 2) sampled at the centers of uniform axis-aligned cells; the
function is extended by zero outside the sampled box.  All integrals are
midpoint-rule sums: each sample stands for its cell, so indicators of
cell-aligned regions integrate exactly.

A region holds the cells whose centers lie in it.  A cube holds the cells
with lo - 1e-9 side <= x < hi - 1e-9 side on every axis: one index box,
which :meth:`GridFunction.cube_slices` finds, the only code that decides
a cube's cells (:meth:`Cube.contains_points` is its pointwise reference).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InvalidDataError

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
        if self.side <= 0:
            raise ValueError("cube side must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

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

    def scaled(self, factor):
        """Dilate about the center, keeping the center fixed."""
        return Cube(self.center, self.side * factor)

    def contains_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo - _ALIGN_TOL * self.side)
                      & (pts < hi - _ALIGN_TOL * self.side), axis=-1)


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball B(center, radius)."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def n(self):
        return len(self.center)

    @property
    def volume(self):
        if self.n == 1:
            return 2 * self.radius
        return np.pi * self.radius ** 2

    def contains_points(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = np.linalg.norm(pts - np.asarray(self.center), axis=-1)
        return d < self.radius


class GridFunction:
    """A real function sampled on a uniform grid, zero outside its box."""

    def __init__(self, origin, h, values, check=True):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise InvalidDataError("only dimensions 1 and 2 are supported")
        origin = np.asarray(origin, dtype=float).reshape(-1)
        if origin.size != values.ndim:
            raise InvalidDataError("origin dimension does not match values")
        if h <= 0:
            raise InvalidDataError("grid spacing must be positive")
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
    def indicator(cls, region, origin, h, extents):
        g = cls(origin, h, np.zeros(extents))
        mask = g.cell_mask(region)
        g.values[mask] = 1.0
        return g

    # -- grid compatibility ------------------------------------------------

    def compatible_with(self, other):
        if self.n != other.n:
            return False
        if abs(self.h - other.h) > _ALIGN_TOL * self.h:
            return False
        off = (self.origin - other.origin) / self.h
        return np.all(np.abs(off - np.round(off)) < 1e-6)

    def _require_compatible(self, other):
        if not self.compatible_with(other):
            raise InvalidDataError("incompatible grids (spacing or alignment)")

    def embed(self, origin, extents):
        """Re-sample onto a larger aligned box, padding with zeros."""
        origin = np.asarray(origin, dtype=float)
        off = np.round((self.origin - origin) / self.h).astype(int)
        if np.any(off < 0) or np.any(off + np.array(self.extents) > extents):
            raise InvalidDataError("target box does not contain this box")
        out = np.zeros(extents)
        sl = tuple(slice(o, o + m) for o, m in zip(off, self.extents))
        out[sl] = self.values
        return GridFunction(origin, self.h, out, check=False)

    def overlap(self, other):
        """Index boxes (in self, in other) of the cells two aligned grids
        share, or None when their boxes are disjoint."""
        self._require_compatible(other)
        off = np.round((other.origin - self.origin) / self.h).astype(int)
        lo = np.maximum(off, 0)
        hi = np.minimum(off + other.extents, self.extents)
        if np.any(lo >= hi):
            return None
        return tuple(map(slice, lo, hi)), tuple(map(slice, lo - off, hi - off))

    def union_box(self, other):
        self._require_compatible(other)
        lo = np.minimum(self.origin, other.origin)
        hi = np.maximum(self.origin + np.array(self.extents) * self.h,
                        other.origin + np.array(other.extents) * other.h)
        ext = tuple(int(np.round((b - a) / self.h)) for a, b in zip(lo, hi))
        return lo, ext

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

    def abs(self):
        return GridFunction(self.origin, self.h, np.abs(self.values),
                            check=False)

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

    # -- regions and quadrature --------------------------------------------

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

    def cube_slices(self, Q):
        """Index box (one slice per axis, maybe empty) of the cells whose
        centers lie in Q: bisection with Cube.contains_points' comparisons."""
        tol = _ALIGN_TOL * Q.side
        return tuple(
            slice(*(int(i) for i in np.searchsorted(
                self.axis_centers(d), (lo - tol, hi - tol))))
            for d, (lo, hi) in enumerate(zip(Q.lo, Q.hi)))

    def cell_mask(self, region):
        """Boolean mask of cells whose centers lie in the region."""
        if region is None:
            return np.ones(self.extents, dtype=bool)
        if isinstance(region, Cube):
            mask = np.zeros(self.extents, dtype=bool)
            mask[self.cube_slices(region)] = True
            return mask
        pts = self.centers().reshape(-1, self.n)
        return region.contains_points(pts).reshape(self.extents)

    def integrate(self, region=None):
        """Midpoint-rule integral over a Cube, Ball or the whole box."""
        if region is None:
            return float(self.values.sum() * self.cell_volume)
        mask = self.cell_mask(region)
        return float(self.values[mask].sum() * self.cell_volume)

    def restrict(self, region):
        """Pointwise multiply by the region indicator."""
        out = np.where(self.cell_mask(region), self.values, 0.0)
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
        return float((np.abs(self.values) ** p).sum()
                     * self.cell_volume) ** (1.0 / p)

    # -- serialization ------------------------------------------------------

    def to_text(self):
        """Plain-text form: header line then row-major samples.

        Floats are written with repr precision so a round trip is bit-exact.
        """
        buf = io.StringIO()
        origin = " ".join(repr(float(v)) for v in self.origin)
        ext = " ".join(str(m) for m in self.extents)
        buf.write(f"gridfunction {self.n} {repr(float(self.h))} "
                  f"{origin} {ext}\n")
        flat = self.values.reshape(-1)
        buf.write(" ".join(repr(float(v)) for v in flat))
        buf.write("\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text):
        lines = text.strip().split("\n")
        head = lines[0].split()
        if head[0] != "gridfunction":
            raise InvalidDataError("not a grid function header")
        n = int(head[1])
        h = float(head[2])
        origin = [float(v) for v in head[3:3 + n]]
        extents = tuple(int(v) for v in head[3 + n:3 + 2 * n])
        vals = np.array([float(v) for v in " ".join(lines[1:]).split()])
        return cls(origin, h, vals.reshape(extents))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    def __repr__(self):
        return (f"GridFunction(n={self.n}, origin={tuple(self.origin)}, "
                f"h={self.h}, extents={self.extents})")
