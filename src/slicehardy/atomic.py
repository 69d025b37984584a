"""Constructive Calderon-Zygmund decomposition into local atoms.

The pipeline thresholds the grand maximal function on dyadic levels,
covers each superlevel set with Whitney cubes, builds a smooth partition
of unity, removes local polynomial projections, and assembles the
cross-level corrected pieces.  Each eta_Q, bad part and correction lives
on the index box of its dilated cube (9/8)Q, with its own origin, not on
the level grid.  The telescoping identity makes the grid reconstruction
exact up to floating-point accumulation; the sub-threshold remainder is
packaged as moment-free unit-cube atoms.  One step, `_moment_solve`,
solves every polynomial fit and returns its values: the eta-weighted
projections here, each on its eta's box against the moment system built
once per small cube and level (`_EtaMoments`), and the Campanato P_Q f.
A grid-floor cube whose eta is one cell of value 1.0, outside O_{j+1},
has the residual and the corrected piece 0 exactly (`_floor_zeros`): it
gets no moment record, no residual, no partner search and no atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from math import comb

import numpy as np

from .errors import ConstructionError, DecompositionRangeError, \
    InvalidDataError, NoBoundaryError, PreconditionError, UnderdeterminedError
from .grid import Cube, GridFunction
from .maximal import grand_maximal
from .reports import Report
from .slice_norms import SliceParams, cube_indicator_norms, slice_norm

WHITNEY_DILATION = 9.0 / 8.0
MAX_LEVELS = 40  # levels below the top that cz_decompose tries


# -- polynomials ------------------------------------------------------------

@cache
def multi_indices(n, d):
    """All exponent tuples alpha with |alpha| <= d, in graded order."""
    return sorted((a for a in product(range(d + 1), repeat=n)
                   if sum(a) <= d), key=sum)


def _monomials(pts, center, scale, d):
    """u^alpha, |alpha| <= d, on a new last axis; u = (pts - center)/scale."""
    u = (np.asarray(pts, dtype=float) - np.asarray(center)) / scale
    alphas = multi_indices(u.shape[-1], d)
    V = np.ones(u.shape[:-1] + (len(alphas),))
    for k, alpha in enumerate(alphas):
        for dim, a in enumerate(alpha):
            if a:
                V[..., k] *= u[..., dim] ** a
    return V


def _combine(V, coeffs):
    """sum_k coeffs[k] V[..., k], term by term: one value per row of V, or
    one per row and column of coeffs."""
    return sum(np.multiply.outer(V[..., k], c) for k, c in enumerate(coeffs))


@dataclass
class Polynomial:
    """A polynomial in the monomials u^alpha, u = (x - center) / scale,
    which keep the moment systems well conditioned at every cube size."""

    center: tuple
    scale: float
    degree: int
    coeffs: np.ndarray

    def __call__(self, pts):
        return _combine(_monomials(pts, self.center, self.scale,
                                   self.degree), self.coeffs)


def _moment_system(w, pts, center, scale, d):
    """(V, G) for the degree-d fits with weights w on pts: the monomials
    u^alpha, u = (pts - center) / scale, one row per cell, and the Gram
    matrix V^T W V, or None with fewer cells than monomials, where it is
    singular."""
    V = _monomials(pts, center, scale, d)
    return V, V.T @ (V * w[:, None]) if len(w) >= V.shape[1] else None


def _moment_solve(V, G, vals, w):
    """(c, P(pts)) for P = sum_k c[k] u^alpha_k with sum w (vals - P)
    u^alpha = 0 for each alpha, from _moment_system's (V, G): one
    right-hand side per column of vals.  Without G the minimum-norm
    solution interpolates vals instead."""
    if G is None:
        c = np.linalg.lstsq(V, vals, rcond=None)[0]
    else:
        try:
            c = np.linalg.solve(G, V.T @ (vals.T * w).T)
        except np.linalg.LinAlgError as exc:
            raise UnderdeterminedError("singular moment system") from exc
    return c, _combine(V, c)


def _moment_fit(vals, w, pts, center, scale, d):
    """_moment_solve on a system built for this one fit."""
    return _moment_solve(*_moment_system(w, pts, center, scale, d), vals, w)


def minimizing_polynomial(f, Q, d, box=None):
    """The degree-<= d P with int_Q (f - P) x^alpha = 0 for |alpha| <= d,
    from the unit-weight moment system on Q's cells.  `box` is
    f.cube_slices(Q), for a caller that already has it."""
    box = f.cube_slices(Q) if box is None else box
    vals = f.values[box].ravel()
    dim = comb(f.n + d, d)
    if vals.size < dim:
        raise UnderdeterminedError(f"cube holds {vals.size} cells, need {dim}")
    return Polynomial(Q.center, Q.side, d, _moment_fit(
        vals, np.ones(vals.size), f.centers(box).reshape(-1, f.n), Q.center,
        Q.side, d)[0])


class _EtaMoments:
    """eta's weighted moment system of degree d, built once and fitted
    against any number of right-hand sides: eta's positive cells (mask)
    and its weights w on them, the scaling (center, scale) from their
    bounds, and _moment_system's (V, G) on their centers.  One argwhere of
    the positive cells gives the bounds and the centers, with the
    arithmetic of support_bounds() and centers()."""

    def __init__(self, eta, d):
        w = eta.values
        if float(w.sum()) <= 0:
            raise UnderdeterminedError("weight has nonpositive mass")
        self.mask = w > 0
        idx = np.argwhere(self.mask)
        lo = eta.origin + idx.min(axis=0) * eta.h
        hi = eta.origin + (idx.max(axis=0) + 1) * eta.h
        self.center = tuple((lo + hi) / 2)
        self.scale = float((hi - lo).max())
        self.w = w[self.mask]
        self.V, self.G = _moment_system(self.w, eta.origin + (idx + 0.5)
                                        * eta.h, self.center, self.scale, d)

    def fit(self, vals):
        """(coeffs, values) of the eta-weighted projection of vals, samples
        on eta's box: values holds it on eta's positive cells, zero
        elsewhere."""
        out = np.zeros(self.mask.shape)
        coeffs, out[self.mask] = _moment_solve(self.V, self.G,
                                               vals[self.mask], self.w)
        return coeffs, out


def weighted_projection(g, eta, d):
    """Projection c of g onto degree-<= d polynomials in the eta-weighted
    norm: <g - c, q eta> = 0 for every polynomial q of degree at most d,
    over the cells where eta is positive, from g's samples on eta's box
    (zero where g has no cell)."""
    vals, boxes = np.zeros(eta.extents), g.overlap(eta)
    if boxes is not None:
        vals[boxes[1]] = g.values[boxes[0]]
    m = _EtaMoments(eta, d)
    return Polynomial(m.center, m.scale, d, m.fit(vals)[0])


# -- Whitney covering and partition of unity --------------------------------

def _edt(mask):
    """Euclidean distance, in cells, from each cell of mask to its nearest
    False cell (mask must hold one), exact: squared distances are
    integers, and one square root ends it.  It is separable: first the
    distance g along axis 0, by a forward and a backward scan; then in 2-D
    min over j' of g[i, j']^2 + (j - j')^2, taken over the offsets
    d = |j - j'| while d^2 is below the largest value so far, past which
    no offset can lower one.  (A lower-envelope pass, vectorized over
    rows, costs a Python loop per column and is slower at these sizes.)"""
    m = mask.shape[0]
    big = sum(mask.shape)  # beyond every distance in the box
    idx = np.arange(m).reshape((m,) + (1,) * (mask.ndim - 1))
    before = np.maximum.accumulate(np.where(mask, -big, idx), axis=0)
    after = np.minimum.accumulate(np.where(mask, 2 * big, idx)[::-1],
                                  axis=0)[::-1]
    g2 = np.minimum(idx - before, after - idx) ** 2
    if mask.ndim == 1:
        return np.sqrt(g2)
    d2 = g2.copy()
    for d in range(1, mask.shape[1]):
        if d * d >= d2.max():
            break
        np.minimum(d2[:, d:], g2[:, :-d] + d * d, out=d2[:, d:])
        np.minimum(d2[:, :-d], g2[:, d:] + d * d, out=d2[:, :-d])
    return np.sqrt(d2)


def whitney_decompose(O):
    """Dyadic Whitney cubes for the open set {O > 0}.

    Cubes satisfy diam(Q) <= dist(Q, complement) with the distance taken
    to the complement cells (the outside of the box counts as
    complement); single-cell cubes are emitted as-is at the grid floor.
    """
    mask = O.values > 0
    if not mask.any():
        return []
    if mask.all():
        raise NoBoundaryError("open set fills the sampled box")
    n, h = O.n, O.h
    padded = np.pad(mask, 1)
    edt = _edt(padded)[tuple(slice(1, -1) for _ in range(n))] * h
    sqrt_n = np.sqrt(n)
    top = 1 << max(int(m - 1).bit_length() for m in O.extents)
    cubes = []

    def visit(idx0, m):
        sl = tuple(slice(max(i, 0), min(i + m, ext))
                   for i, ext in zip(idx0, O.extents))
        if any(s.start >= s.stop for s in sl):
            return
        sub = mask[sl]
        if not sub.any():
            return
        inside_box = all(s.stop - s.start == m for s in sl)
        if inside_box and sub.all():
            dist = float(edt[sl].min()) - h * sqrt_n
            if dist >= m * h * sqrt_n or m == 1:
                cubes.append(_block_cube(O, idx0, m))
                return
        elif m == 1:
            cubes.append(_block_cube(O, idx0, 1))
            return
        half = m // 2
        for offs in product((0, half), repeat=n):
            visit(tuple(i + o for i, o in zip(idx0, offs)), half)

    visit((0,) * n, top)
    return cubes


def _block_cube(O, idx0, m):
    center = tuple(O.origin[d] + (idx0[d] + m / 2) * O.h for d in range(O.n))
    return Cube(center, m * O.h)


def _axis_bump(u):
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def partition_of_unity(cubes, O):
    """Smooth bumps on the dilated cubes, normalized to sum to 1_O.

    Each bump is a product of one-dimensional profiles on (9/8)Q.  The
    profiles of all cubes are taken at once, one flat array per axis that
    holds each cube's window: the cells within (9/8)Q and one more on each
    side, beyond which |u| > 1 with a margin of 1.5 h / rho.  Each bump is
    built on the index box of the cells where it is nonzero, and each eta
    is returned on that box, with its own origin.  The bumps are added
    into one total in cube order; dividing by it makes the sum exactly 1
    on the cells of O and exactly 0 off it.
    """
    mask = O.values > 0
    if not cubes:
        if mask.any():
            raise ConstructionError("nonempty open set with no cover")
        return []
    centers = np.array([Q.center for Q in cubes])
    rho = WHITNEY_DILATION * np.array([Q.side for Q in cubes]) / 2
    axes = []  # per axis: (box slice, nonzero profile) of each cube
    for d in range(O.n):
        c, o = centers[:, d], O.origin[d]
        lo = np.maximum(np.floor((c - rho - o) / O.h).astype(int) - 1, 0)
        hi = np.minimum(np.ceil((c + rho - o) / O.h).astype(int) + 1,
                        O.extents[d])
        start = np.cumsum(hi - lo) - (hi - lo)  # of each window in p
        cube = np.repeat(np.arange(len(cubes)), hi - lo)
        cells = np.arange(cube.size) + (lo - start)[cube]
        p = _axis_bump((O.axis_centers(d)[cells] - c[cube]) / rho[cube])
        nz = np.flatnonzero(p)
        first = nz[np.searchsorted(nz, start)].tolist()
        stop = (nz[np.searchsorted(nz, start + hi - lo) - 1] + 1).tolist()
        axes.append([(slice(int(cells[i]), int(cells[j - 1]) + 1), p[i:j])
                     for i, j in zip(first, stop)])
    total = np.zeros(O.extents)
    betas = []
    for parts in zip(*axes):
        box = tuple(s for s, _ in parts)
        b = reduce(np.multiply.outer, (p for _, p in parts))
        total[box] += b
        betas.append((box, b))
    if np.any(mask & (total <= 0)):
        raise ConstructionError("partition of unity has an uncovered cell")
    safe = np.where(total > 0, total, 1.0)
    return [GridFunction(O.box_view(box).origin, O.h,
                         np.where(mask[box], b / safe[box], 0.0),
                         check=False)
            for box, b in betas]


# -- atoms and decompositions -----------------------------------------------

@dataclass
class Atom:
    """A local atom: cube, samples, size exponent, degree, provenance."""

    cube: Cube
    values: GridFunction
    r: float
    degree: int
    level: int
    index: int
    lam: float


@dataclass
class CZParams:
    """Free parameters of the decomposition pipeline."""

    slice_params: SliceParams
    maximal: MaximalParams
    d: int = 0
    r: float = np.inf
    c0: float = 4.5
    tol_moment: float = 1e-8

    def __post_init__(self):
        if not self.r > 0:
            raise PreconditionError(f"size exponent r must be > 0: {self.r}")

    def require_degree(self, n):
        pmin = min(self.slice_params.phi.p_minus, self.slice_params.q, 1.0)
        need = int(np.floor(n * (1.0 / pmin - 1.0)))
        if self.d < need:
            raise PreconditionError(
                f"degree d={self.d} below the required {need}")


@dataclass
class Decomposition:
    """Atoms by level plus the unpackaged remainder (normally zero)."""

    entries: list
    j_lo: int
    j_hi: int
    residual: GridFunction
    params: CZParams
    pointwise_constant: float = 0.0

    def __len__(self):
        return len(self.entries)


def _level_pieces(f, m, j, params):
    """Whitney cubes, partition of unity and residuals at one level, f on
    m's grid.

    Each small cube's eta gets its moment system once (fits, None for a
    large cube), for its own residual here and for every partner's in
    _assemble_level.  The residual r = f - c of each cube lives on its
    eta's box, cells lo to hi - 1 of f's grid, with c = 0 on a large cube
    and off eta's positive cells; b_sum adds up the bad parts r eta on
    f's grid.

    A cube that _floor_zeros marks (skip) has the residual 0 and the
    corrected piece 0 exactly.  It gets no moment record and no residual
    (None): it adds nothing to b_sum, is no partner in _assemble_level
    and yields no atom.
    """
    O = GridFunction(m.origin, m.h, (m.values > 2.0 ** j).astype(float),
                     check=False)
    cubes = whitney_decompose(O)
    etas = partition_of_unity(cubes, O)
    lo = np.rint((np.reshape([eta.origin for eta in etas], (-1, f.n))
                  - f.origin) / f.h).astype(int)
    hi = lo + np.reshape([eta.extents for eta in etas], (-1, f.n))
    small = np.array([Q.side < 1.0 for Q in cubes], dtype=bool)
    skip = _floor_zeros(small, etas, lo, m, j)
    fits = [_EtaMoments(eta, params.d) if s and not z else None
            for eta, s, z in zip(etas, small, skip)]
    resid = []
    b_sum = np.zeros(f.extents)
    for eta, box, fit, z in zip(etas, map(_box, lo, hi), fits, skip):
        if z:
            resid.append(None)
            continue
        r = f.values[box]
        if fit is not None:
            r = r - fit.fit(r)[1]
        b_sum[box] += r * eta.values
        resid.append(r)
    return {"cubes": cubes, "etas": etas, "fits": fits, "lo": lo, "hi": hi,
            "skip": skip, "resid": resid, "b_sum": b_sum}


def _floor_zeros(small, etas, lo, m, j):
    """Mask of the small cubes of level j whose residual and corrected
    piece are 0 exactly: eta is one cell of value 1.0 (a grid-floor cube
    that no dilated cube wider than 8 cells reaches), cell lo of m's grid,
    where m <= 2^(j+1).  The fit through one point at weight 1 returns
    the sample, so the residual is 0 (at another weight the degree-0 fit
    (v w) / w can round off v).  Outside O_{j+1} no eta and no bad part of
    level j+1 is positive, so the piece r eta - b_sum eta is 0 as well."""
    one = np.array([eta.values.size == 1 and eta.values.flat[0] == 1.0
                    for eta in etas], dtype=bool)
    return small & one & (m.values[tuple(lo.T)] <= 2.0 ** (j + 1))


def _box(lo, hi, start=0):
    """Index box of the cells lo..hi-1 in an array starting at `start`."""
    return tuple(map(slice, lo - start, hi - start))


def _assemble_level(f, level, nxt, params):
    """The corrected pieces A_{j,k} from levels j and j+1, None for a cube
    that _level_pieces skipped.

    A_k lives on the box covering eta_k and the small-cube etas of level
    j+1 that meet it: candidates for every k from one comparison of box
    bounds, each confirmed on the two etas' common cells, and each fitted
    with the moment system _level_pieces built for it.  A skipped cube of
    level j+1 has no moment system and so is no candidate; its residual
    is 0, and its fits would add exact zeros.
    """
    out = [None] * len(level["etas"])
    keep = np.flatnonzero(~level["skip"])
    if nxt is None:
        for k in keep:
            eta = level["etas"][k]
            out[k] = GridFunction(eta.origin, f.h,
                                  level["resid"][k] * eta.values, check=False)
        return out
    lo_i, hi_i = nxt["lo"], nxt["hi"]
    near = np.array([fit is not None for fit in nxt["fits"]], dtype=bool) \
        & np.all((lo_i < level["hi"][keep, None])
                 & (level["lo"][keep, None] < hi_i), axis=2)
    for k, cand in zip(keep, near):
        eta_k, r_k = level["etas"][k], level["resid"][k]
        lo_k, hi_k = level["lo"][k], level["hi"][k]
        partners = {}  # i: eta_k on eta_i's box, zero off their common box
        for i in np.flatnonzero(cand):
            lo, hi = np.maximum(lo_i[i], lo_k), np.minimum(hi_i[i], hi_k)
            eta_ki = np.zeros(nxt["etas"][i].extents)
            eta_ki[_box(lo, hi, lo_i[i])] = eta_k.values[_box(lo, hi, lo_k)]
            if np.any(nxt["etas"][i].values * eta_ki):
                partners[i] = eta_ki
        lo = np.min([lo_k, *lo_i[list(partners)]], axis=0)
        A = np.zeros(np.max([hi_k, *hi_i[list(partners)]], axis=0) - lo)
        A[_box(lo_k, hi_k, lo)] = r_k * eta_k.values \
            - nxt["b_sum"][_box(lo_k, hi_k)] * eta_k.values
        for i, eta_ki in partners.items():
            A[_box(lo_i[i], hi_i[i], lo)] += nxt["etas"][i].values \
                * nxt["fits"][i].fit(nxt["resid"][i] * eta_ki)[1]
        out[k] = GridFunction(f.origin + lo * f.h, f.h, A, check=False)
    return out


def _crop(g):
    """Smallest-box grid function holding the nonzero samples of g."""
    idx = np.argwhere(g.values != 0.0)
    if not idx.size:
        return None
    return g.box_view(_box(idx.min(axis=0), idx.max(axis=0) + 1)).copy()


def _moment_slack(g, cube, d):
    """Worst relative moment of g against the tolerance scaling."""
    l1 = g.lp_norm(1)
    if l1 == 0:
        return 0.0
    V = _monomials(g.centers(), 0.0, 1.0, d)
    worst = 0.0
    for k, alpha in enumerate(multi_indices(g.n, d)):
        mom = float((g.values * V[..., k]).sum() * g.cell_volume)
        worst = max(worst, abs(mom) / (l1 * cube.side ** sum(alpha)))
    return worst


def _package_atom(A, Q_star, j, index, params, norm_1q):
    """Wrap one assembled piece as a scaled atom on an enlarged cube."""
    piece = _crop(A)
    if piece is None:
        return None
    lo, hi = piece.support_bounds()
    half = max(max(abs(float(a) - c), abs(float(b) - c))
               for a, b, c in zip(lo, hi, Q_star.center))
    side_needed = 2 * half + A.h
    side = max(params.c0 * Q_star.side, side_needed)
    if side < 1.0:
        if _moment_slack(piece, Cube(Q_star.center, side), params.d) \
                > params.tol_moment:
            side = max(1.0, side_needed)
    cube = Cube(Q_star.center, side)
    sup = piece.max_abs()
    c_jk = max(params.c0, sup / 2.0 ** j)
    lam = c_jk * 2.0 ** j * norm_1q(side)
    return Atom(cube=cube, values=piece / lam, r=params.r, degree=params.d,
                level=j, index=index, lam=lam)


def cz_decompose(f, params, norm_1q=None):
    """Decompose f into local atoms along dyadic maximal-function levels.

    Levels run from the top threshold down to the first level whose
    superlevel set swallows the support box dilated to unit size; the
    remainder below that level needs no moment conditions and is emitted
    as unit-cube atoms.  norm_1q, if given, is
    cube_indicator_norms(params.slice_params, f.h, f.n), shared by a run.
    """
    params.require_degree(f.n)
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    zero = GridFunction(f.origin, f.h, np.zeros(f.extents), check=False)
    if f.max_abs() == 0:
        return Decomposition([], 0, -1, zero, params)
    mp = params.maximal
    m = grand_maximal(f, mp.dictionary, mp.ladder).pad(2)
    j_hi = int(np.ceil(np.log2(m.max_abs()))) - 1
    target = _unit_dilated_support_mask(f, m)
    j_lo = None
    for j in range(j_hi, j_hi - MAX_LEVELS - 1, -1):
        if np.all(m.values[target] > 2.0 ** j):
            j_lo = j
            break
    if j_lo is None:
        raise DecompositionRangeError(
            f"no level within {MAX_LEVELS} of {j_hi} covers the "
            f"dilated support (min maximal value on it: "
            f"{float(m.values[target].min()):.3e})")

    fb = f.embed(m.origin, m.extents)
    entries = []
    if norm_1q is None:
        norm_1q = cube_indicator_norms(params.slice_params, fb.h, fb.n)
    nxt = None
    for j in range(j_hi, j_lo - 1, -1):
        level = _level_pieces(fb, m, j, params)
        for k, A in enumerate(_assemble_level(fb, level, nxt, params)):
            atom = None if A is None else _package_atom(
                A, level["cubes"][k], j, k, params, norm_1q)
            if atom is not None:
                entries.append(atom)
        nxt = level
    g_res = fb.values - nxt["b_sum"]
    entries.extend(_residual_atoms(g_res, fb, j_lo, params, norm_1q))
    K = max((a.lam * a.values.max_abs() / 2.0 ** a.level for a in entries),
            default=0.0)
    return Decomposition(entries, j_lo, j_hi, zero, params,
                         pointwise_constant=K)


def _unit_dilated_support_mask(f, m):
    """Cells of m inside f's support box expanded to side >= 1 per axis.

    The support is measured above a relative floor: cells holding only
    denormal-scale values would otherwise drag the level range down by
    dozens of dyadic levels without changing the residual packaging.
    """
    lo, hi = f.support_bounds(tol=f.max_abs() * 1e-12)
    mask = np.ones(m.extents, dtype=bool)
    for d in range(m.n):
        mid = (lo[d] + hi[d]) / 2
        half = max((hi[d] - lo[d]) / 2, 0.5)
        centers = m.axis_centers(d)
        ax = (centers > mid - half) & (centers < mid + half)
        shape = [1] * m.n
        shape[d] = -1
        mask &= ax.reshape(shape)
    return mask


def _residual_atoms(values, grid, j_lo, params, norm_1q):
    """Package the sub-threshold remainder as unit-cube atoms."""
    full = GridFunction(grid.origin, grid.h, values, check=False)
    out = []
    for cube in full.unit_cubes():
        piece = _crop(full.box_view(full.cube_slices(cube)))
        if piece is None:
            continue
        lam = piece.max_abs() * norm_1q(1.0)
        out.append(Atom(cube=cube, values=piece / lam, r=params.r,
                        degree=params.d, level=j_lo, index=len(out),
                        lam=lam))
    return out


def reconstruct(dec):
    """Sum of lambda * atom plus the remainder, in a fixed entry order."""
    total = dec.residual
    for atom in sorted(dec.entries, key=lambda a: (a.level, a.index,
                                                   a.cube.center)):
        total = total + atom.lam * atom.values
    return total


def validate_atom(atom, slice_params, tol_moment=1e-8, norm_1q=None):
    """Check support, size and (small cubes) moment conditions of an atom.

    Violations are rows of the report, not errors; each row carries the
    measured value, the bound and the signed slack in log scale.  norm_1q,
    if given, is cube_indicator_norms(slice_params, h, n) on the atom's
    grid, shared by the atoms of a run.
    """
    report = Report("atom_validation",
                    ["check", "measured", "bound", "ok"])
    g = atom.values
    outside = g.values[~g.cell_mask(atom.cube)]
    support_err = float(np.abs(outside).max(initial=0.0))
    report.add("support", support_err, 0.0, support_err == 0.0)

    if norm_1q is None:
        norm_1q = cube_indicator_norms(slice_params, g.h, g.n)
    cube_norm = norm_1q(atom.cube.side)
    if np.isinf(atom.r):
        size = g.max_abs()
        bound = 1.0 / cube_norm
    else:
        size = g.lp_norm(atom.r)
        bound = atom.cube.volume ** (1.0 / atom.r) / cube_norm
    report.add("size", size, bound, size <= bound * (1 + 1e-6))

    if atom.cube.side < 1.0:
        slack = _moment_slack(g, atom.cube, atom.degree)
        report.add("moments", slack, tol_moment, slack <= tol_moment)
    report.summary["valid"] = all(report.column("ok"))
    report.summary["size_slack"] = np.log(size / bound) if size > 0 \
        else -np.inf
    return report


def atomic_quasinorm(dec, s, norm_1q=None):
    """Slice norm of the s-aggregated cube envelope of the decomposition.

    Evaluates the defining functional of the atomic quasi-norm for the
    given (finite) decomposition, an upper bound for the infimum over all
    decompositions.  norm_1q, if given, is cube_indicator_norms of the
    decomposition's slice parameters on its atoms' grid, shared by a run.
    """
    sp = dec.params.slice_params
    s_cap = min(sp.phi.p_minus, sp.q, 1.0)
    if not 0 < s < s_cap:
        raise PreconditionError(
            f"aggregation exponent s={s} outside (0, {s_cap})")
    if not dec.entries:
        return 0.0
    first = dec.entries[0].values
    origin, ext = first.covering_box([a.cube for a in dec.entries])
    acc = GridFunction(origin, first.h, np.zeros(ext), check=False)
    if norm_1q is None:
        norm_1q = cube_indicator_norms(sp, acc.h, acc.n)
    for atom in dec.entries:
        acc.values[acc.cube_slices(atom.cube)] += \
            (atom.lam / norm_1q(atom.cube.side)) ** s
    env = GridFunction(origin, acc.h, acc.values ** (1.0 / s), check=False)
    return slice_norm(env, sp)
