"""Local Campanato and bmo-type norms, and the atom pairing bounds.

Suprema over all cubes are replaced by finite sweeps; both branches are
monotone in the sweep, so enlarging the sweep never decreases a norm.
The pairing bound against atoms is exact in quadrature whenever the
atoms' cubes belong to the sweep, so pairing_bounds takes each field's
norm over the sweep and the atoms' cubes; with no atoms it is the norm
over the sweep alone.

One pass serves a stack of fields on one zero-padded box: each cube's
box, fit (the mean, else one `atomic._fit` with a right-hand side per
field) and r-means are taken once for all fields, and its indicator norm
comes from the slice parameters' memo (`SliceParams.cube_norm`); cubes
and atom overlaps of one shape are reduced a block at a time (_gather).
A cube's value does not depend on the rest of the sweep, so each branch's
supremum over sweep + atom cubes is max(base, atoms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from operator import ipow

import numpy as np

from .atomic import _unit_fit
from .errors import PreconditionError
from .grid import Cube, GridFunction
from .reports import Report
from .slice_norms import SliceParams


@dataclass
class CampanatoParams:
    """Slice parameters, oscillation exponent, degree and cube sweep."""

    slice_params: SliceParams
    r: float = 1.0
    d: int = 0
    sweep: list = field(default_factory=list)

    def __post_init__(self):
        if not self.r >= 1:
            raise PreconditionError("oscillation exponent r must be >= 1")
        if not (isinstance(self.d, Integral) and self.d >= 0):
            raise PreconditionError(
                f"degree d must be a nonnegative integer: {self.d!r}")


def cube_sweep(side_exponents, centers, n=1):
    """Dyadic-side cubes at each center; spans both sides of side 1."""
    return [Cube((float(c),) * n if np.isscalar(c) else tuple(c), 2.0 ** e)
            for e in side_exponents for c in centers]


def _stack(fields, cubes):
    """(frame, stack): field 0 and all fields on one zero-padded box."""
    lo, ext = fields[0].covering_box(cubes, fields[1:])
    stack = np.stack([g.embed(lo, ext).values for g in fields])
    return GridFunction(lo, fields[0].h, stack[0], check=False), stack


#: cells (fields x boxes x box cells) per block of _gather, one box at least
_GATHER_CELLS = 1 << 15


def _gather(stack, boxes, keys, reduce):
    """(kept, out): whether each box holds a cell, and reduce(key, ix,
    block) per block of the boxes of one key and shape, a column per box
    (0 where it holds none) and a row per field: the block holds their
    values, fields x boxes ix x cells in C order (np.take), so each box's
    reduction along the last axis is bit for bit its own."""
    groups, dims, flat = {}, stack.shape[1:], stack.reshape(len(stack), -1)
    for i, (key, box) in enumerate(zip(keys, boxes)):
        shape = tuple(b.stop - b.start for b in box)
        if min(shape) > 0:
            groups.setdefault((key, shape), []).append(i)
    kept, out = np.zeros(len(boxes), bool), np.zeros((len(stack),
                                                       len(boxes)))
    for (key, shape), ix in groups.items():
        cells = np.ravel_multi_index(np.indices(shape).reshape(len(dims), -1),
                                     dims)
        starts = np.ravel_multi_index(np.array(
            [[b.start for b in boxes[i]] for i in ix]).T, dims)[:, None]
        step = max(_GATHER_CELLS // (len(stack) * cells.size), 1)
        for lo in range(0, len(ix), step):
            part = ix[lo:lo + step]
            kept[part] = True
            out[:, part] = reduce(key, part, np.take(
                flat, starts[lo:lo + step] + cells, axis=1))
    return kept, out


def _sweep(frame, stack, cubes, d, r):
    """(kept, means): whether each cube holds a frame cell, and its r-mean
    per field (row) of the oscillation about the degree-d fit on a small
    cube (side < 1), of |g| on a large one (_gather)."""
    boxes = frame.cube_boxes(cubes)

    def means(side, ix, vals):
        if side < 1.0 and d == 0:
            vals -= vals.mean(axis=2, keepdims=True)
        elif side < 1.0:
            for k, i in enumerate(ix):
                vals[:, k] -= _unit_fit(frame.centers(boxes[i]).reshape(
                    -1, frame.n), cubes[i], d, vals[:, k].T)[1].T
        np.abs(vals, out=vals)
        return vals.max(axis=2) if np.isinf(r) \
            else ipow(vals, r).mean(axis=2) ** (1.0 / r)  # vals **= r in place
    return _gather(stack, boxes, [Q.side for Q in cubes], means)


def _branches(frame, stack, cubes, p, parts):
    """Sweep maxima of |Q| / ||1_Q|| r-mean, per branch (row) and field,
    over the cubes[lo:hi] of each (lo, hi) of parts."""
    scale = {Q.side: Q.volume / p.slice_params.cube_norm(
        Q.side, frame.h, frame.n) for Q in {Q.side: Q for Q in cubes}.values()}
    large = np.array([Q.side >= 1.0 for Q in cubes], dtype=bool)
    values = np.where([[~large], [large]], np.array(
        [scale[Q.side] for Q in cubes]) * _sweep(frame, stack, cubes, p.d,
                                                 p.r)[1], 0.0)
    return [values[..., lo:hi].max(axis=2, initial=0.0) for lo, hi in parts]


_BMO_VARIANTS = ("bmo", "bmo_phi", "bmo_log")


def _bmo_weight(variant, Q):
    if variant == "bmo":
        return 1.0
    w = np.log(np.e + 1.0 / Q.volume)
    if variant == "bmo_phi":
        return w
    far = np.sqrt(sum(max(abs(a), abs(b)) ** 2
                      for a, b in zip(Q.lo, Q.hi)))
    return w + np.log(np.e + far)


def bmo_sweep_report(g, sweep):
    """Per-cube weighted mean-oscillation/mean values, three weights
    (_bmo_weight) on one d = 0, r = 1 Campanato sweep: rows variant by
    variant in _BMO_VARIANTS order, each variant's norm in the summary."""
    report = Report(["variant", "side", "center", "branch", "value"])
    frame, stack = _stack([g], sweep)
    kept, (row,) = _sweep(frame, stack, sweep, 0, 1.0)
    means = [(Q, float(mean)) for Q, mean, k in zip(sweep, row, kept) if k]
    for variant in _BMO_VARIANTS:
        values = [_bmo_weight(variant, Q) * mean for Q, mean in means]
        for (Q, _), value in zip(means, values):
            branch = "oscillation" if Q.side < 1.0 else "mean"
            report.add(variant, Q.side, Q.center, branch, value)
        report.summary[variant] = max(values, default=0.0)
    return report


def bmo_variant_norm(g, variant, sweep):
    """Sweep supremum of the variant's weighted two-branch functional."""
    if variant not in _BMO_VARIANTS:
        raise PreconditionError(f"unknown bmo variant {variant!r}")
    return bmo_sweep_report(g, sweep).summary[variant]


def _pairings(atoms, frame, stack):
    """int a g per atom a (row) and field g (column) over the cells a shares
    with frame, each (h, n) checked once, all origins' alignment at once."""
    for a in {(a.h, a.n): a for a in atoms}.values():
        frame._require_compatible(a)
    at = -frame._cells_from(np.reshape([a.origin for a in atoms],
                                       (-1, frame.n)))
    lo = np.maximum(-at, 0)  # the overlap, in each atom's cells
    hi = np.minimum(frame.extents - at,
                    np.reshape([a.extents for a in atoms], at.shape))

    def pairings(h, ix, block):
        block *= np.array([atoms[i].values[tuple(map(slice, lo[i], hi[i]))]
                           .ravel() for i in ix])
        return block.sum(axis=2) * atoms[ix[0]].cell_volume
    return _gather(stack, [tuple(map(slice, *b)) for b in zip(
        lo + at, hi + at)], [a.h for a in atoms], pairings)[1].T


def pairing_bounds(decs, fields, p):
    """(norms, pairings, ratios) per dec, from one pass over the fields and
    all atoms: each field's (column's) norm over the sweep and dec's atom
    cubes, and <a, g> and |<a, g>| / norm per atom a (row), 0 / 0 is 0."""
    atoms = [a for dec in decs for a in dec.entries]
    cubes = list(p.sweep) + [a.cube for a in atoms]
    frame, stack = _stack(fields, cubes)
    ends = np.cumsum([len(p.sweep)] + [len(dec.entries) for dec in decs])
    base, *maxima = _branches(frame, stack, cubes, p,
                              [(0, ends[0])] + list(zip(ends, ends[1:])))
    out = []
    for pairs, atom_max in zip(np.split(_pairings(
            [a.values for a in atoms], frame, stack), ends[1:-1] - ends[0]),
            maxima):
        norms = np.maximum(base, atom_max).sum(axis=0)
        with np.errstate(divide="ignore"):  # a pairing over a zero norm
            out.append((norms, pairs, np.divide(
                abs(pairs), norms, np.zeros_like(pairs), where=pairs != 0)))
    return out
