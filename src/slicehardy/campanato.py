"""Local Campanato and bmo-type norms, and the atom pairing bounds.

Suprema over all cubes are replaced by finite sweeps; both branches are
monotone in the sweep, so enlarging the sweep never decreases a norm.
The pairing bound against atoms is exact in quadrature whenever the
atoms' cubes belong to the sweep, which pairing_bound_check enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import minimizing_polynomial
from .errors import PreconditionError
from .grid import Cube
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
    sides = [2.0 ** e for e in side_exponents]
    cubes = []
    for side in sides:
        for c in centers:
            center = (float(c),) * n if np.isscalar(c) else tuple(c)
            cubes.append(Cube(center, side))
    return cubes


def _cube_mean(values, r):
    if np.isinf(r):
        return float(np.abs(values).max(initial=0.0))
    return float((np.abs(values) ** r).mean()) ** (1.0 / r)


def campanato_local_norm(g, p):
    """Two-branch Campanato value over the sweep.

    Small cubes (side < 1) measure normalized mean oscillation against
    the minimizing polynomial; large cubes measure normalized mean size.
    The normalization |Q| / ||1_Q|| uses the closed-form slice norm of
    the cube indicator, memoized by side for this call only.
    """
    if not p.sweep:
        return 0.0
    ge = g.embed(*g.covering_box(p.sweep))
    norm_1q = cube_indicator_norms(p.slice_params, ge.h, ge.n)
    small = 0.0
    large = 0.0
    for Q in p.sweep:
        box = ge.cube_slices(Q)
        vals = ge.values[box]
        if not vals.size:
            continue
        weight = Q.volume / norm_1q(Q.side)
        if Q.side < 1.0:
            poly = minimizing_polynomial(ge, Q, p.d, box)
            osc = vals - poly(ge.centers(box))
            small = max(small, weight * _cube_mean(osc, p.r))
        else:
            large = max(large, weight * _cube_mean(vals, p.r))
    return small + large


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
    """Per-cube weighted mean-oscillation/mean values for one variant."""
    if variant not in _BMO_VARIANTS:
        raise ValueError(f"unknown bmo variant {variant!r}")
    report = Report(f"bmo_{variant}",
                    ["variant", "side", "center", "branch", "value"])
    ge = g.embed(*g.covering_box(sweep))
    for Q in sweep:
        vals = ge.values[ge.cube_slices(Q)]
        if not vals.size:
            continue
        w = _bmo_weight(variant, Q)
        if Q.side < 1.0:
            branch = "oscillation"
            v = w * float(np.abs(vals - vals.mean()).mean())
        else:
            branch = "mean"
            v = w * float(np.abs(vals).mean())
        report.add(variant, Q.side, Q.center, branch, v)
    vals = report.column("value")
    report.summary["norm"] = max(vals) if vals else 0.0
    return report


def bmo_variant_norm(g, variant, sweep):
    """Sweep supremum of the variant's weighted two-branch functional."""
    return bmo_sweep_report(g, variant, sweep).summary["norm"]


def dual_pairing(f, g):
    """Quadrature inner product int f g over the cells the two boxes
    share; bilinear, grid-compatible only."""
    boxes = f.overlap(g)
    return 0.0 if boxes is None else float(
        (f.values[boxes[0]] * g.values[boxes[1]]).sum() * f.cell_volume)


def pairing_bound_check(dec, g, p, slack=0.01):
    """|L_g(a)| against the Campanato norm, for every atom of dec.

    The sweep is enlarged by the atoms' cubes so the defining supremum
    sees exactly the cubes the bound's proof integrates over; with the
    conjugate exponent this makes the bound hold in exact quadrature.
    """
    sweep = list(p.sweep) + [a.cube for a in dec.entries]
    params = CampanatoParams(p.slice_params, r=p.r, d=p.d, sweep=sweep)
    report = Report("pairing_bound",
                    ["level", "index", "pairing", "ratio"])
    if g.max_abs() == 0:
        report.summary["skipped"] = "zero field"
        report.summary["max_ratio"] = 0.0
        return report
    norm = campanato_local_norm(g, params)
    for atom in dec.entries:
        pr = dual_pairing(atom.values, g)
        report.add(atom.level, atom.index, pr, abs(pr) / norm)
    ratios = report.column("ratio")
    report.summary["campanato_norm"] = norm
    report.summary["max_ratio"] = max(ratios) if ratios else 0.0
    report.summary["ok"] = all(r <= 1.0 + slack for r in ratios)
    return report
