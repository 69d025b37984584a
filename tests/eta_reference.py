"""The per-call slow paths that the level records of atomic replaced.

`eta_fit` is the eta-weighted fit as it ran once per call, rebuilding
eta's bounds, centers, monomials and Gram matrix each time, and
`partition_of_unity` builds each cube's bump profiles in a loop over the
cubes.  The fast paths must match them bit for bit.  `use_slow_fit`
swaps `eta_fit` in for atomic's moment records, so `cz_decompose` runs
its usual levels on it.
"""

import numpy as np

from slicehardy import atomic
from slicehardy.atomic import WHITNEY_DILATION, _axis_bump, _moment_fit
from slicehardy.errors import ConstructionError, UnderdeterminedError
from slicehardy.grid import GridFunction


def eta_fit(vals, eta, d):
    """((center, scale, d, coeffs), values) of the eta-weighted projection
    of vals, samples on eta's box: only cells where eta is positive enter
    the system, and values holds the projection there, zero elsewhere."""
    w = eta.values
    if float(w.sum()) <= 0:
        raise UnderdeterminedError("weight has nonpositive mass")
    lo, hi = eta.support_bounds()
    center, scale = tuple((lo + hi) / 2), float((hi - lo).max())
    mask = w > 0
    out = np.zeros(eta.extents)
    coeffs, out[mask] = _moment_fit(vals[mask], w[mask],
                                    eta.centers()[mask], center, scale, d)
    return (center, scale, d, coeffs), out


class SlowFit:
    """Stands in for atomic._EtaMoments: keeps eta and refits per call."""

    def __init__(self, eta, d):
        self.eta, self.d = eta, d

    def fit(self, vals):
        (_, _, _, coeffs), out = eta_fit(vals, self.eta, self.d)
        return coeffs, out


def use_slow_fit(monkeypatch):
    """Run every eta-weighted fit of atomic through eta_fit."""
    monkeypatch.setattr(atomic, "_EtaMoments", SlowFit)


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
