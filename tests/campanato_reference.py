"""References for the Campanato pass of `slicehardy.campanato`.

The per-field reference embeds one field on its own covering box, refits
the minimizing polynomial of every small cube for that field alone (the
unit-weight `eta_reference.moment_fit`, not atomic's stacked solver), and
re-runs the whole sweep (base cubes plus the atoms' cubes) for every
(decomposition, field) pair: the direct form of the definitions, which
the stacked pass must match.

The per-cube loop (`loop_pairing_bounds`, `loop_bmo_means`) is the
stacked pass as it was before cubes and atoms were grouped by box shape:
one cube, one atom overlap at a time, on the same stack.  The grouped
pass must match it bit for bit at d = 0.
"""

import numpy as np

from eta_reference import moment_fit
from slicehardy.atomic import _unit_fit
from slicehardy.campanato import CampanatoParams, _stack
from slicehardy.reports import Report
from slicehardy.slice_norms import cube_indicator_slice_norm


def overlap(f, g):
    """Index boxes (in f, in g) of the cells two aligned grids share, or
    None when their boxes are disjoint."""
    off = -f._require_compatible(g)
    lo = np.maximum(off, 0)
    hi = np.minimum(off + g.extents, f.extents)
    if np.any(lo >= hi):
        return None
    return tuple(map(slice, lo, hi)), tuple(map(slice, lo - off, hi - off))


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
            vals = vals - moment_fit(
                vals.ravel(), np.ones(vals.size),
                ge.centers(box).reshape(-1, ge.n), Q.center, Q.side, d
            )[1].reshape(vals.shape)
        yield Q, _cube_mean(vals, r)


def dual_pairing(f, g):
    """int f g over the cells the two boxes share."""
    boxes = overlap(f, g)
    return 0.0 if boxes is None else float(
        (f.values[boxes[0]] * g.values[boxes[1]]).sum() * f.cell_volume)


def branches(g, p):
    """(small, large): the two branch maxima of the sweep."""
    small = large = 0.0
    for Q, mean in sweep(g, p.sweep, p.d, p.r):
        value = Q.volume / cube_indicator_slice_norm(
            p.slice_params, max(round(Q.side / g.h), 1), g.h, g.n) * mean
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
    report = Report(["level", "index", "pairing", "ratio"])
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


# -- the per-cube loop -------------------------------------------------------

def _loop_sweep(frame, stack, cubes, d, r):
    """(Q, r-means) for each cube Q that holds a frame cell, one per field,
    one cube at a time."""
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


def _loop_branches(frame, stack, cubes, p):
    out = np.zeros((2, len(stack)))
    for Q, means in _loop_sweep(frame, stack, cubes, p.d, p.r):
        row = out[int(Q.side >= 1.0)]
        norm = p.slice_params.cube_norm(Q.side, frame.h, frame.n)
        np.maximum(row, Q.volume / norm * means, out=row)
    return out


def _loop_pairings(a, frame, stack):
    boxes = overlap(a, frame)
    if boxes is None:
        return np.zeros(len(stack))
    prod = a.values[boxes[0]] * stack[(slice(None),) + boxes[1]]
    return prod.reshape(len(stack), -1).sum(axis=1) * a.cell_volume


def loop_pairing_bounds(decs, fields, p):
    """campanato.pairing_bounds, one cube and one atom at a time."""
    atom_cubes = [[a.cube for a in dec.entries] for dec in decs]
    frame, stack = _stack(fields, list(p.sweep) + sum(atom_cubes, []))
    base = _loop_branches(frame, stack, p.sweep, p)
    out = []
    for dec, cubes in zip(decs, atom_cubes):
        norms = np.maximum(base, _loop_branches(frame, stack, cubes, p)
                           ).sum(axis=0)
        pairs = np.array([_loop_pairings(a.values, frame, stack)
                          for a in dec.entries]).reshape(-1, len(stack))
        with np.errstate(divide="ignore"):
            out.append((norms, pairs, np.divide(
                abs(pairs), norms, np.zeros_like(pairs), where=pairs != 0)))
    return out


def loop_bmo_means(g, sweep):
    """(Q, mean) of bmo_sweep_report's d = 0, r = 1 sweep, cube by cube."""
    frame, stack = _stack([g], sweep)
    return [(Q, float(mean))
            for Q, (mean,) in _loop_sweep(frame, stack, sweep, 0, 1.0)]
