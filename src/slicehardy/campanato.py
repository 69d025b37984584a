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
comes from the slice parameters' memo (`SliceParams.cube_norm`).  A
cube's value does not depend on the rest of the sweep, so each branch's
supremum over sweep + atom cubes is max(base, atoms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

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


def _sweep(frame, stack, cubes, d, r):
    """(Q, r-means) for each cube Q that holds a frame cell, one per field:
    of the oscillation about the degree-d minimizing polynomial on a
    small cube (side < 1), of |g| on a large one."""
    for Q, box in zip(cubes, frame.cube_boxes(cubes)):
        vals = stack[(slice(None),) + box].reshape(len(stack), -1)
        if not vals.size:
            continue
        if Q.side < 1.0 and d == 0:
            vals = vals - vals.mean(axis=1, keepdims=True)
        elif Q.side < 1.0:
            vals = vals - _unit_fit(frame.centers(box).reshape(-1, frame.n),
                                    Q, d, vals.T)[1].T
        vals = np.abs(vals)
        yield Q, vals.max(axis=1) if np.isinf(r) \
            else (vals ** r).mean(axis=1) ** (1.0 / r)


def _branches(frame, stack, cubes, p):
    """Sweep maxima of |Q| / ||1_Q|| r-mean, per branch (row) and field."""
    out = np.zeros((2, len(stack)))
    for Q, means in _sweep(frame, stack, cubes, p.d, p.r):
        row = out[int(Q.side >= 1.0)]
        norm = p.slice_params.cube_norm(Q.side, frame.h, frame.n)
        np.maximum(row, Q.volume / norm * means, out=row)
    return out


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


def bmo_sweep_report(g, variant, sweep):
    """Per-cube weighted mean-oscillation/mean values for one variant:
    the d = 0, r = 1 Campanato sweep, weighted by _bmo_weight."""
    if variant not in _BMO_VARIANTS:
        raise PreconditionError(f"unknown bmo variant {variant!r}")
    report = Report(f"bmo_{variant}",
                    ["variant", "side", "center", "branch", "value"])
    frame, stack = _stack([g], sweep)
    for Q, (mean,) in _sweep(frame, stack, sweep, 0, 1.0):
        branch = "oscillation" if Q.side < 1.0 else "mean"
        report.add(variant, Q.side, Q.center, branch,
                   _bmo_weight(variant, Q) * float(mean))
    report.summary["norm"] = max(report.column("value"), default=0.0)
    return report


def bmo_variant_norm(g, variant, sweep):
    """Sweep supremum of the variant's weighted two-branch functional."""
    return bmo_sweep_report(g, variant, sweep).summary["norm"]


def _pairings(a, frame, stack):
    """int a g per stacked field g, over the cells a shares with frame."""
    boxes = a.overlap(frame)
    if boxes is None:
        return np.zeros(len(stack))
    prod = a.values[boxes[0]] * stack[(slice(None),) + boxes[1]]
    return prod.reshape(len(stack), -1).sum(axis=1) * a.cell_volume


def pairing_bounds(decs, fields, p):
    """(norms, pairings, ratios) per dec, from one pass over the fields:
    each field's (column's) norm over the sweep and dec's atom cubes, and
    <a, g> and |<a, g>| / norm per atom a (row), where 0 / 0 is 0."""
    atom_cubes = [[a.cube for a in dec.entries] for dec in decs]
    frame, stack = _stack(fields, list(p.sweep) + sum(atom_cubes, []))
    base = _branches(frame, stack, p.sweep, p)
    out = []
    for dec, cubes in zip(decs, atom_cubes):
        norms = np.maximum(base, _branches(frame, stack, cubes, p)).sum(axis=0)
        pairs = np.array([_pairings(a.values, frame, stack)
                          for a in dec.entries]).reshape(-1, len(stack))
        with np.errstate(divide="ignore"):  # a pairing over a zero norm
            out.append((norms, pairs, np.divide(
                abs(pairs), norms, np.zeros_like(pairs), where=pairs != 0)))
    return out
