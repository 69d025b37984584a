"""Per-field reference for the stacked Campanato pass.

Each call embeds one field on its own covering box, refits the
minimizing polynomial of every small cube for that field alone, and
re-runs the whole sweep (base cubes plus the atoms' cubes) for every
(decomposition, field) pair: the direct form of the definitions, which
the stacked pass in `slicehardy.campanato` must match.
"""

import numpy as np

from slicehardy.atomic import minimizing_polynomial
from slicehardy.campanato import CampanatoParams
from slicehardy.reports import Report
from slicehardy.slice_norms import cube_indicator_norms


def _cube_mean(values, r):
    if np.isinf(r):
        return float(np.abs(values).max(initial=0.0))
    return float((np.abs(values) ** r).mean()) ** (1.0 / r)


def sweep(g, cubes, d, r):
    """(Q, r-mean) for each cube Q that holds a cell of g."""
    ge = g.embed(*g.covering_box(cubes))
    for Q in cubes:
        box = ge.cube_slices(Q)
        vals = ge.values[box]
        if not vals.size:
            continue
        if Q.side < 1.0:
            vals = vals - minimizing_polynomial(ge, Q, d, box)(
                ge.centers(box))
        yield Q, _cube_mean(vals, r)


def dual_pairing(f, g):
    """int f g over the cells the two boxes share."""
    boxes = f.overlap(g)
    return 0.0 if boxes is None else float(
        (f.values[boxes[0]] * g.values[boxes[1]]).sum() * f.cell_volume)


def branches(g, p):
    """(small, large): the two branch maxima of the sweep."""
    norm_1q = cube_indicator_norms(p.slice_params, g.h, g.n)
    small = large = 0.0
    for Q, mean in sweep(g, p.sweep, p.d, p.r):
        value = Q.volume / norm_1q(Q.side) * mean
        if Q.side < 1.0:
            small = max(small, value)
        else:
            large = max(large, value)
    return small, large


def campanato_local_norm(g, p):
    return sum(branches(g, p)) if p.sweep else 0.0


def pairing_bound_check(dec, g, p, slack=0.01):
    """The pairing report of one (decomposition, field) pair, with the
    sweep enlarged by the atoms' cubes."""
    sweep_ = list(p.sweep) + [a.cube for a in dec.entries]
    params = CampanatoParams(p.slice_params, r=p.r, d=p.d, sweep=sweep_)
    report = Report("pairing_bound",
                    ["level", "index", "pairing", "ratio"])
    if g.max_abs() == 0:
        report.summary["skipped"] = "zero field"
        report.summary["max_ratio"] = 0.0
        return report
    norm = campanato_local_norm(g, params)
    for atom in dec.entries:
        pr = dual_pairing(atom.values, g)
        report.add(atom.level, atom.index, pr, abs(pr) / norm if pr else 0.0)
    ratios = report.column("ratio")
    report.summary["campanato_norm"] = norm
    report.summary["max_ratio"] = max(ratios) if ratios else 0.0
    report.summary["ok"] = all(r <= 1.0 + slack for r in ratios)
    return report
