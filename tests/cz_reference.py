"""Full-grid reference for the local-box Calderon-Zygmund pipeline.

Every eta, bad part and corrected piece here is an array on the whole
level grid, and every cross-level pair is tested with a full-grid
product: the direct form of the pipeline, which the local-box one must
match bit for bit.  `use_full_grid(monkeypatch)` swaps these level
functions into `atomic`, so `cz_decompose` runs its usual loop on them.
"""

import numpy as np

from slicehardy import atomic
from slicehardy.atomic import WHITNEY_DILATION, _axis_bump, _monomials
from slicehardy.errors import ConstructionError, UnderdeterminedError
from slicehardy.grid import GridFunction


def weighted_projection(g, eta, d):
    """Weighted projection on the union box of g and eta."""
    g._require_compatible(eta)
    lo, ext = g.union_box(eta)
    gv = g.embed(lo, ext)
    w = eta.embed(lo, ext).values
    if float(w.sum()) <= 0:
        raise UnderdeterminedError("weight has nonpositive mass")
    bounds = eta.support_bounds()
    center = tuple((a + b) / 2 for a, b in zip(*bounds))
    scale = max(float(b - a) for a, b in zip(*bounds))
    mask = w > 0
    V = _monomials(gv.centers()[mask], center, scale, d)
    wm = w[mask]
    coeffs = np.linalg.solve(V.T @ (V * wm[:, None]),
                             V.T @ (gv.values[mask] * wm))
    return atomic.Polynomial(center, scale, d, coeffs)


def partition_of_unity(cubes, O):
    """Every bump and every eta on O's whole box."""
    mask = O.values > 0
    if not cubes:
        if mask.any():
            raise ConstructionError("nonempty open set with no cover")
        return []
    pts = O.centers()
    betas = []
    for Q in cubes:
        rho = WHITNEY_DILATION * Q.side / 2
        b = np.ones(O.extents)
        for d in range(O.n):
            b = b * _axis_bump((pts[..., d] - Q.center[d]) / rho)
        betas.append(b)
    total = np.sum(betas, axis=0)
    if np.any(mask & (total <= 0)):
        raise ConstructionError("partition of unity has an uncovered cell")
    safe = np.where(total > 0, total, 1.0)
    return [GridFunction(O.origin, O.h, np.where(mask, b / safe, 0.0),
                         check=False)
            for b in betas]


def level_pieces(f, m, j, params):
    O = GridFunction(m.origin, m.h, (m.values > 2.0 ** j).astype(float),
                     check=False)
    cubes = atomic.whitney_decompose(O)
    etas = partition_of_unity(cubes, O)
    small = [Q.side < 1.0 for Q in cubes]
    polys = []
    b_parts = []
    for eta, is_small in zip(etas, small):
        if is_small:
            c = weighted_projection(f, eta, params.d)
            b = (f.values - c(f.centers())) * eta.values
        else:
            c = None
            b = f.values * eta.values
        polys.append(c)
        b_parts.append(b)
    b_sum = np.sum(b_parts, axis=0) if b_parts else 0.0
    return {"cubes": cubes, "etas": etas, "small": small,
            "polys": polys, "b": b_parts, "b_sum": b_sum}


def assemble_level(f, level, nxt, params):
    """Corrected pieces on f's whole box."""
    if nxt is None:
        return [GridFunction(f.origin, f.h, b, check=False)
                for b in level["b"]]
    out = []
    for eta_k, b_k in zip(level["etas"], level["b"]):
        A = b_k - nxt["b_sum"] * eta_k.values
        for eta_i, c_i, is_small in zip(nxt["etas"], nxt["polys"],
                                        nxt["small"]):
            if not is_small:
                continue
            if not np.any(eta_i.values * eta_k.values):
                continue
            g = GridFunction(f.origin, f.h,
                             (f.values - c_i(f.centers()))
                             * eta_k.values, check=False)
            c_ki = weighted_projection(g, eta_i, params.d)
            A = A + c_ki(f.centers()) * eta_i.values
        out.append(GridFunction(f.origin, f.h, A, check=False))
    return out


def use_full_grid(monkeypatch):
    """Run cz_decompose's levels through the full-grid reference."""
    monkeypatch.setattr(atomic, "_level_pieces", level_pieces)
    monkeypatch.setattr(atomic, "_assemble_level", assemble_level)
