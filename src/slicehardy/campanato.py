"""Local Campanato and bmo-type norms, and the atom pairing bounds.

Suprema over all cubes are replaced by finite sweeps; both branches are
monotone in the sweep, so enlarging the sweep never decreases a norm.
The pairing bound against atoms is exact in quadrature whenever the
atoms' cubes belong to the sweep, which pairing_bound_check enforces.

One pass serves a stack of fields on one zero-padded box: each cube's
box, moment system (the mean for d = 0) and r-means are taken once for
all fields.  A cube's value does not depend on the rest of the sweep,
so each branch's supremum over sweep + atom cubes is max(base, atoms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import _fit, _monomials
from .errors import PreconditionError
from .grid import Cube, GridFunction
from .reports import Report
from .slice_norms import SliceParams, cube_indicator_norms


@dataclass
class CampanatoParams:
    """Slice parameters, oscillation exponent, degree and cube sweep."""

    slice_params: SliceParams
    r: float = 1.0
    d: int = 0
    sweep: list = field(default_factory=list)

    def __post_init__(self):
        if self.r < 1:
            raise PreconditionError("oscillation exponent r must be >= 1")


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
    for Q in cubes:
        box = frame.cube_slices(Q)
        vals = stack[(slice(None),) + box].reshape(len(stack), -1)
        if not vals.size:
            continue
        if Q.side < 1.0 and d == 0:
            vals = vals - vals.mean(axis=1, keepdims=True)
        elif Q.side < 1.0:
            V = _monomials(frame.centers(box).reshape(-1, frame.n),
                           Q.center, Q.side, d)
            vals = vals - (V @ _fit(vals.T, np.ones(len(V)), V)).T
        vals = np.abs(vals)
        yield Q, vals.max(axis=1) if np.isinf(r) \
            else (vals ** r).mean(axis=1) ** (1.0 / r)


def _branches(frame, stack, cubes, p, norm_1q):
    """Sweep maxima of |Q| / ||1_Q|| r-mean, per branch (row) and field."""
    out = np.zeros((2, len(stack)))
    for Q, means in _sweep(frame, stack, cubes, p.d, p.r):
        row = out[int(Q.side >= 1.0)]
        np.maximum(row, Q.volume / norm_1q(Q.side) * means, out=row)
    return out


def campanato_local_norm(g, p):
    """Two-branch Campanato value over the sweep.

    Small cubes (side < 1) measure normalized mean oscillation against
    the minimizing polynomial; large cubes measure normalized mean size.
    The normalization |Q| / ||1_Q|| uses the closed-form slice norm of
    the cube indicator, memoized by side for this call only.
    """
    frame, stack = _stack([g], p.sweep)
    norm_1q = cube_indicator_norms(p.slice_params, g.h, g.n)
    return float(_branches(frame, stack, p.sweep, p, norm_1q).sum())


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
        raise ValueError(f"unknown bmo variant {variant!r}")
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


def dual_pairing(f, g):
    """Quadrature inner product int f g over the cells the two boxes
    share; bilinear, grid-compatible only."""
    return float(_pairings(f, g, g.values[None])[0])


def pairing_bound_check(dec, g, p, slack=0.01):
    """|L_g(a)| against the Campanato norm, for every atom of dec.

    The sweep is enlarged by the atoms' cubes so the defining supremum
    sees exactly the cubes the bound's proof integrates over; with the
    conjugate exponent this makes the bound hold in exact quadrature.
    """
    report = Report("pairing_bound",
                    ["level", "index", "pairing", "ratio"])
    if g.max_abs() == 0:
        report.summary.update(skipped="zero field", max_ratio=0.0)
        return report
    [((norm,), pairs, ratios)] = pairing_bounds([dec], [g], p)
    for atom, pr, ratio in zip(dec.entries, pairs[:, 0], ratios[:, 0]):
        report.add(atom.level, atom.index, float(pr), float(ratio))
    report.summary["campanato_norm"] = float(norm)
    report.summary["max_ratio"] = float(ratios.max(initial=0.0))
    report.summary["ok"] = bool((ratios <= 1.0 + slack).all())
    return report


def pairing_bounds(decs, fields, p):
    """(norms, pairings, ratios) per dec, from one pass over the fields:
    each field's (column's) norm over the sweep and dec's atom cubes, and
    <a, g> and |<a, g>| / norm per atom a (row), where 0 / 0 is 0."""
    atom_cubes = [[a.cube for a in dec.entries] for dec in decs]
    frame, stack = _stack(fields, list(p.sweep) + sum(atom_cubes, []))
    norm_1q = cube_indicator_norms(p.slice_params, frame.h, frame.n)
    base = _branches(frame, stack, p.sweep, p, norm_1q)
    out = []
    for dec, cubes in zip(decs, atom_cubes):
        norms = np.maximum(base, _branches(frame, stack, cubes, p,
                                           norm_1q)).sum(axis=0)
        pairs = np.array([_pairings(a.values, frame, stack)
                          for a in dec.entries]).reshape(-1, len(stack))
        with np.errstate(divide="ignore"):  # a pairing over a zero norm
            out.append((norms, pairs, np.divide(
                abs(pairs), norms, np.zeros_like(pairs), where=pairs != 0)))
    return out
