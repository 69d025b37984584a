"""The per-call slow paths that the level records of atomic replaced.

`moment_fit` is the weighted moment fit of one system, as it ran before
atomic._fit stacked the systems; `eta_fit` is the eta-weighted fit as it
ran once per call through it, rebuilding eta's bounds, centers,
monomials and Gram matrix each time, and
`partition_of_unity` builds each cube's bump profiles in a loop over the
cubes.  The fast paths must match them bit for bit.  `use_slow_fit`
swaps in `SlowMoments`, which builds each record from its eta as a grid
function, and `slow_fit`, which solves each fit alone with eta_fit's
arithmetic, for atomic's level-wide records and stacked solves, so
`cz_decompose` runs its usual levels on them.
"""

from math import comb

import numpy as np

from slicehardy import atomic
from slicehardy.atomic import WHITNEY_DILATION, _axis_bump, _monomials
from slicehardy.errors import ConstructionError, UnderdeterminedError
from slicehardy.grid import GridFunction


def _combine(V, coeffs):
    """sum_k coeffs[k] V[..., k], term by term: one value per row of V, or
    one per row and column of coeffs."""
    return sum(np.multiply.outer(V[..., k], c) for k, c in enumerate(coeffs))


def moment_fit(vals, w, pts, center, scale, d):
    """(c, P(pts)) for P = sum_k c[k] u^alpha_k, u = (pts - center) /
    scale, with sum w (vals - P) u^alpha = 0 for each alpha, from the Gram
    matrix V^T W V of the monomials, one right-hand side per column of
    vals; with fewer cells than monomials the minimum-norm solution
    interpolates vals."""
    V = _monomials(pts, center, scale, d)
    if len(w) < V.shape[1]:
        c = np.linalg.lstsq(V, vals, rcond=None)[0]
    else:
        try:
            c = np.linalg.solve(V.T @ (V * w[:, None]), V.T @ (vals.T * w).T)
        except np.linalg.LinAlgError as exc:
            raise UnderdeterminedError("singular moment system") from exc
    return c, _combine(V, c)


def eta_fit(vals, eta, d):
    """((center, scale, d, coeffs), values) of the eta-weighted projection
    of vals, samples on eta's box (with a trailing axis of right-hand
    sides, if any): only cells where eta is positive enter the system,
    and values holds the projection there, zero elsewhere."""
    w = eta.values
    if float(w.sum()) <= 0:
        raise UnderdeterminedError("weight has nonpositive mass")
    lo, hi = eta.support_bounds()
    center, scale = tuple((lo + hi) / 2), float((hi - lo).max())
    mask = w > 0
    out = np.zeros(vals.shape)
    coeffs, out[mask] = moment_fit(vals[mask], w[mask],
                                   eta.centers()[mask], center, scale, d)
    return (center, scale, d, coeffs), out


def box_eta(wins, eta, origin, h, k):
    """Box k of a level's eta buffer as a grid function."""
    return GridFunction(origin[k], h, eta[wins.start[k]:wins.start[k + 1]]
                        .reshape(wins.ext[k]), check=False)


class SlowMoments:
    """Stands in for atomic._Moments: each record from its own eta, with
    eta_fit's positive cells, bounds, centers and monomials."""

    def __init__(self, wins, eta, origin, h, d, ids):
        self.ids, parts = ids, []
        for k in ids:
            e = box_eta(wins, eta, origin, h, k)
            if float(e.values.sum()) <= 0:
                raise UnderdeterminedError("weight has nonpositive mass")
            lo, hi = e.support_bounds()
            mask = e.values > 0
            parts.append((wins.start[k] + np.flatnonzero(mask.ravel()),
                          e.values[mask], atomic._monomials(
                              e.centers()[mask], tuple((lo + hi) / 2),
                              float((hi - lo).max()), d)))
        self.count = np.array([p[0].size for p in parts], dtype=int)
        self.first = np.cumsum(self.count) - self.count
        self.at = np.concatenate([p[0] for p in parts] + [np.zeros(0, int)])
        self.w = np.concatenate([p[1] for p in parts] + [np.zeros(0)])
        self.V = np.concatenate([p[2] for p in parts]
                                + [np.zeros((0, comb(wins.ext.shape[1] + d,
                                                     d)))])


def slow_fit(V, w, count, vals):
    """atomic._fit one fit at a time, with moment_fit's arithmetic."""
    coeffs, values, b = [], np.empty(len(vals)), 0
    for c in count.tolist():
        v, ww, y = V[b:b + c], w[b:b + c], vals[b:b + c]
        try:
            cf = np.linalg.lstsq(v, y, rcond=None)[0] if c < v.shape[1] \
                else np.linalg.solve(v.T @ (v * ww[:, None]), v.T @ (y * ww))
        except np.linalg.LinAlgError as exc:
            raise UnderdeterminedError("singular moment system") from exc
        coeffs.append(cf)
        values[b:b + c] = _combine(v, cf)
        b += c
    return np.reshape(coeffs, (len(count), V.shape[1])), values


def record_fits(wins, eta, origin, h, d, mom, recs, vals):
    """eta_fit of record recs[i] of mom, its eta rebuilt from the level's
    buffer, against vals on its positive cells, one record after another:
    (coeffs, values) laid out as atomic._fit's."""
    coeffs, values, b = [], np.empty(vals.shape), 0
    for r in recs.tolist():
        k, c = mom.ids[r], mom.count[r]
        e = box_eta(wins, eta, origin, h, k)
        box = np.zeros((e.values.size,) + vals.shape[1:])
        at = mom.at[mom.first[r]:mom.first[r] + c] - wins.start[k]
        box[at] = vals[b:b + c]
        (_, _, _, cf), fit = eta_fit(box.reshape(e.extents + vals.shape[1:]),
                                     e, d)
        coeffs.append(cf)
        values[b:b + c] = fit.reshape(box.shape)[at]
        b += c
    return np.reshape(coeffs, (len(recs), mom.V.shape[1]) + vals.shape[1:]), \
        values


def use_slow_fit(monkeypatch):
    """Build atomic's moment records eta by eta and solve each fit alone."""
    monkeypatch.setattr(atomic, "_Moments", SlowMoments)
    monkeypatch.setattr(atomic, "_fit", slow_fit)


def partition_of_unity(cubes, O):
    """atomic.partition_of_unity with one cube's profiles at a time."""
    mask = O.values > 0
    if not cubes:
        if mask.any():
            raise ConstructionError("nonempty open set with no cover")
        return []
    total = np.zeros(O.extents)
    betas = []
    for Q in cubes:
        rho = WHITNEY_DILATION * Q.side / 2
        b, box = np.ones(()), ()
        for d in range(O.n):
            p = _axis_bump((O.axis_centers(d) - Q.center[d]) / rho)
            nz = np.flatnonzero(p)
            box += (slice(nz[0], nz[-1] + 1),)
            b = np.multiply.outer(b, p[box[-1]])
        total[box] += b
        betas.append((box, b))
    if np.any(mask & (total <= 0)):
        raise ConstructionError("partition of unity has an uncovered cell")
    safe = np.where(total > 0, total, 1.0)
    return [GridFunction(O.box_view(box).origin, O.h,
                         np.where(mask[box], b / safe[box], 0.0),
                         check=False)
            for box, b in betas]
