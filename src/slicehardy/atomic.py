"""Constructive Calderon-Zygmund decomposition into local atoms.

The pipeline thresholds the grand maximal function on dyadic levels,
covers each superlevel set with Whitney cubes, builds a smooth partition
of unity, removes local polynomial projections and assembles the
cross-level corrected pieces; the telescoping identity makes the
reconstruction exact up to rounding, and the remainder below the last
level becomes moment-free unit-cube atoms.  A level is arrays, levels j
and j + 1 alive at once: its etas, residuals and pieces are index boxes
laid out in one flat buffer each (`_Windows`), and its eta-weighted fits
are stacked by shape, one solve per shape (`_fit`).  Grid-floor cubes
whose residual and piece are 0 exactly are skipped (`_floor_zeros`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import product

import numpy as np

from .errors import ConstructionError, DecompositionRangeError, \
    NoBoundaryError, PreconditionError, UnderdeterminedError, \
    require_finite, require_positive
from .grid import Cube, GridFunction, p_mean
from .kernels import bump_profile
from .maximal import MaximalParams
from .reports import Report
from .slice_norms import SliceParams, slice_norm

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


def _unit_fit(pts, Q, d, vals):
    """_fit of vals (a column per field) on the cells pts of cube Q at unit
    weights, in the monomials scaled by Q's center and side."""
    return _fit(_monomials(pts, Q.center, Q.side, d), np.ones(len(pts)),
                np.array([len(pts)]), vals)


class _Windows:
    """Index boxes laid out in C order in a flat buffer: box k holds cells
    lo[k] .. lo[k] + ext[k] - 1 at positions start[k] .. start[k + 1] - 1;
    win, local and cells give each position's box and cell in it and in
    the grid."""

    def __init__(self, lo, ext):
        self.lo, self.ext = lo, ext
        size = np.prod(ext, axis=1)
        self.start = np.concatenate([[0], np.cumsum(size)]).astype(int)
        self.win = np.repeat(np.arange(len(size)), size)
        t = np.arange(self.start[-1]) - self.start[self.win]
        self.local = np.empty((t.size, ext.shape[1]), dtype=int)
        for d in reversed(range(ext.shape[1])):
            self.local[:, d] = t % ext[self.win, d]
            t //= ext[self.win, d]
        self.cells = lo[self.win] + self.local

    def position(self, k, cells):
        """Positions of cells, inside box k each, in the buffer."""
        rel = cells - self.lo[k]
        return self.start[k] + (rel[:, 0] * self.ext[k, 1] + rel[:, 1]
                                if rel.shape[1] == 2 else rel[:, 0])


class _Moments:
    """The degree-d eta-weighted moment records of the boxes ids (sorted)
    of wins, eta holding the samples and origin[k] box k's origin: record
    r keeps the count[r] positive cells of box ids[r] (positions at[first
    [r]:][:count[r]]), their weights w and monomials V in the scaling
    (center, scale) from their bounds, as support_bounds() takes them."""

    def __init__(self, wins, eta, origin, h, d, ids):
        keep = np.bincount(ids, minlength=len(wins.lo)) > 0
        self.ids, self.at = ids, np.flatnonzero((eta > 0) & keep[wins.win])
        rec = np.searchsorted(ids, wins.win[self.at])
        self.count = np.bincount(rec, minlength=len(ids))
        if not self.count.all():
            raise UnderdeterminedError("weight has nonpositive mass")
        self.first = np.cumsum(self.count) - self.count
        idx, o = wins.local[self.at], origin[ids]
        lo = o + np.minimum.reduceat(idx, self.first) * h
        hi = o + (np.maximum.reduceat(idx, self.first) + 1) * h
        self.center, self.scale = (lo + hi) / 2, (hi - lo).max(axis=1)
        self.w = eta[self.at]
        self.V = _monomials(o[rec] + (idx + 0.5) * h, self.center[rec],
                            self.scale[rec, None], d)


def _one_fit(V, vals, w):
    """One fit of _fit; if its Gram matrix is singular, the minimum-norm
    weighted least-squares fit, which solves the same moment equations."""
    try:
        return np.linalg.solve(V.T @ (V * w[:, None]), V.T @ (vals.T * w).T)
    except np.linalg.LinAlgError:
        r = np.sqrt(w)
        return np.linalg.lstsq(V * r[:, None], (vals.T * r).T, rcond=None)[0]


def _fit(V, w, count, vals):
    """(coeffs, values) of weighted moment fits: fit i takes the next
    count[i] rows of vals, V (monomials) and w (weights), and solves
    sum w (vals - P) u^alpha = 0 for each alpha from the Gram matrix
    V^T W V, one right-hand side per column of vals if it is 2-D.  The
    fits of as many cells are stacked into one np.linalg.solve call, or,
    if a Gram matrix of the stack is singular, solved one by one (_one_fit);
    with fewer cells than monomials the minimum-norm solution interpolates."""
    first, cols = np.cumsum(count) - count, vals.shape[1:]
    coeffs = np.empty((count.size, V.shape[1]) + cols)
    values = np.empty(vals.shape)
    for c in np.flatnonzero(np.bincount(count)).tolist():
        sel = np.flatnonzero(count == c)
        e = first[sel, None] + np.arange(c)
        Ve, y, we = V[e], vals[e], w[e]
        if c < V.shape[1]:
            coeffs[sel] = [np.linalg.lstsq(v, b, rcond=None)[0]
                           for v, b in zip(Ve, y)]
        else:
            Vt = Ve.transpose(0, 2, 1)
            try:
                coeffs[sel] = np.linalg.solve(
                    np.matmul(Vt, Ve * we[..., None]),
                    np.matmul(Vt, y.reshape(sel.size, c, -1) * we[..., None])
                ).reshape((sel.size, V.shape[1]) + cols)
            except np.linalg.LinAlgError:
                coeffs[sel] = [_one_fit(v, b, ww)
                               for v, b, ww in zip(Ve, y, we)]
        Vx = Ve.reshape(Ve.shape + (1,) * len(cols))
        values[e] = sum(Vx[:, :, k] * coeffs[sel, k, None]
                        for k in range(V.shape[1]))
    return coeffs, values


# -- Whitney covering and partition of unity --------------------------------

def _edt(mask):
    """Exact Euclidean distance, in cells, from each cell of mask to its
    nearest False cell (mask must hold one): the distance g along axis 0
    by two scans, then in 2-D min over j' of g[i, j']^2 + (j - j')^2 over
    the offsets |j - j'| whose square is below the largest value so far
    (a lower-envelope pass costs a Python loop per column: slower here)."""
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
    """Dyadic Whitney cubes for the open set {O > 0}: diam(Q) <=
    dist(Q, complement cells), the outside of the box counting as
    complement; single-cell cubes are emitted as-is at the grid floor."""
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
        sub = mask[sl]
        if not sub.any():
            return
        if m == 1 or (all(s.stop - s.start == m for s in sl) and sub.all()
                      and float(edt[sl].min()) - h * sqrt_n
                      >= m * h * sqrt_n):
            cubes.append(Cube(tuple(O.origin[d] + (idx0[d] + m / 2) * h
                                    for d in range(n)), m * h))
            return
        half = m // 2
        for offs in product((0, half), repeat=n):
            visit(tuple(i + o for i, o in zip(idx0, offs)), half)

    visit((0,) * n, top)
    return cubes


def _partition(cubes, O):
    """partition_of_unity's etas as (wins, eta): eta_k on box k, the cells
    where its bump, a product of bump_profile's on (9/8)Q per axis for all
    cubes at once, is nonzero.  The bumps are summed in cube order, and
    dividing by the sum makes it exactly 1 on O and exactly 0 off it."""
    mask = O.values.ravel() > 0
    centers = np.reshape([Q.center for Q in cubes], (-1, O.n))
    rho = WHITNEY_DILATION * np.array([Q.side for Q in cubes]) / 2
    lo, ext, axes = [], [], []  # per axis: box and nonzero profile
    for d in range(O.n):
        c, o = centers[:, d], O.origin[d]
        a = np.maximum(np.floor((c - rho - o) / O.h).astype(int) - 1, 0)
        b = np.minimum(np.ceil((c + rho - o) / O.h).astype(int) + 1,
                       O.extents[d])
        win = _Windows(a[:, None], (b - a)[:, None])
        p = bump_profile(((O.axis_centers(d)[win.cells[:, 0]] - c[win.win])
                          / rho[win.win])[:, None])
        nz = np.flatnonzero(p)
        first = nz[np.searchsorted(nz, win.start[:-1])]
        lo.append(win.cells[first, 0])
        ext.append(nz[np.searchsorted(nz, win.start[1:]) - 1] + 1 - first)
        axes.append((p, first))
    wins = _Windows(np.stack(lo, axis=1), np.stack(ext, axis=1))
    bump = reduce(np.multiply, (p[first[wins.win] + wins.local[:, d]]
                                for d, (p, first) in enumerate(axes)))
    cell = np.ravel_multi_index(tuple(wins.cells.T), O.extents)
    total = np.bincount(cell, bump, minlength=mask.size)
    if np.any(mask & (total <= 0)):
        raise ConstructionError("partition of unity has an uncovered cell")
    safe = np.where(total > 0, total, 1.0)
    return wins, np.where(mask[cell], bump / safe[cell], 0.0)


def partition_of_unity(cubes, O):
    """Smooth bumps on the dilated cubes, normalized to sum to 1_O: each
    eta on the index box of the cells where its bump is nonzero, with its
    own origin (see _partition)."""
    wins, eta = _partition(cubes, O)
    return [GridFunction(o, O.h, eta[a:b].reshape(e), check=False)
            for o, a, b, e in zip(O.origin + wins.lo * O.h, wins.start[:-1],
                                  wins.start[1:], wins.ext)]


# -- atoms and decompositions -----------------------------------------------

@dataclass
class Atom:
    """A local atom: cube, samples and provenance.  Its size exponent r and
    degree d are those of the CZParams that made it (see validate_atom)."""

    cube: Cube
    values: GridFunction
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
        require_size_exponent(self.r)
        require_positive(c0=self.c0)
        require_tol_moment(self.tol_moment)


def require_size_exponent(r):
    """The atoms' size exponent's domain: r > 0, inf included."""
    if not r > 0:
        raise PreconditionError(f"size exponent r must be > 0: {r}")


def require_tol_moment(tol):
    """The moment tolerance's domain: finite and nonnegative."""
    if not 0 <= tol < np.inf:
        raise PreconditionError(f"tol_moment must be finite and >= 0: {tol}")


def aggregation_cap(p_minus, q):
    """min(p_minus, q, 1), the cap on s and the atoms' exponent p."""
    return min(p_minus, q, 1.0)


def require_aggregation(s, p_minus, q):
    """The aggregation exponent's hypothesis: 0 < s < aggregation_cap."""
    cap = aggregation_cap(p_minus, q)
    if not 0 < s < cap:
        raise PreconditionError(f"hypothesis s in (0, min(p_minus, q, 1)) "
                                f"violated: s={s}, cap={cap}")


def least_degree(n, p):
    """floor(n(1/p - 1)), the least moment degree of atoms of exponent p,
    under its hypothesis: that degree is finite."""
    try:
        return int(np.floor(n * (1.0 / p - 1.0)))
    except (ArithmeticError, ValueError):
        raise PreconditionError(f"moment degree floor(n(1/p - 1)) must be "
                                f"finite: n={n}, p={p}") from None


def require_degree(d, n, p):
    """The atoms' moment hypothesis for exponent p: d >= least_degree."""
    need = least_degree(n, p)
    if not d >= need:
        raise PreconditionError(f"hypothesis d >= floor(n(1/p - 1)) "
                                f"violated: d={d} < {need}")


@dataclass
class Decomposition:
    """Atoms by level plus the unpackaged remainder (normally zero)."""

    entries: list
    j_lo: int
    j_hi: int
    residual: GridFunction
    params: CZParams
    pointwise_constant: float = 0.0


def _level(f, m, j, params, nxt):
    """Level j, f on m's grid, after level j + 1 (nxt, None at the top):
    its record (cubes, etas, moment records of the small cubes not skipped,
    residuals r = f - c on the etas' boxes and b_sum, the sum of r eta)
    and its pieces (keep, wins, A): A_k, k = keep[i], on box i of wins, is
    r_k eta_k - b_sum_{j+1} eta_k plus, partner by partner, eta_i times the
    fit of r_i eta_k; all fits of the level are solved together."""
    O = GridFunction(m.origin, m.h, (m.values > 2.0 ** j).astype(float),
                     check=False)
    cubes = whitney_decompose(O)
    wins, eta = _partition(cubes, O)
    cell = np.ravel_multi_index(tuple(wins.cells.T), f.extents)
    small, first = np.array([Q.side < 1.0 for Q in cubes], dtype=bool), \
        wins.start[:-1]
    skip = _floor_zeros(small, (np.diff(wins.start) == 1)
                        & (eta[first] == 1.0), cell[first], nxt)
    mom = _Moments(wins, eta, O.origin + wins.lo * O.h, f.h, params.d,
                   np.flatnonzero(small & ~skip))
    fv, keep, live = f.values.ravel(), np.flatnonzero(~skip), ~skip[wins.win]
    fits = [(mom.V, mom.w, mom.count, fv[cell[mom.at]])]
    if nxt is not None:
        k, r, e, eta_k = _partners(wins, eta, keep, nxt)
        n_mom = nxt["mom"]
        fits.append((n_mom.V[e], n_mom.w[e], n_mom.count[r],
                     nxt["resid"][n_mom.at[e]] * eta_k))
    fit = _fit(*map(np.concatenate, zip(*fits)))[1]
    resid = fv[cell]
    resid[mom.at] -= fit[:mom.at.size]
    bad = resid * eta
    level = {"cubes": cubes, "wins": wins, "eta": eta, "cell": cell,
             "skip": skip, "mom": mom, "resid": resid,
             "b_sum": np.bincount(cell[live], bad[live], minlength=fv.size)}
    if nxt is None:
        return level, (keep, _Windows(wins.lo[keep], wins.ext[keep]),
                       bad[live])
    return level, (keep, *_assemble(
        wins, keep, bad - nxt["b_sum"][cell] * eta, live, k, r, e,
        fit[mom.at.size:], nxt))


def _floor_zeros(small, one, cell, nxt):
    """Mask of the small cubes whose residual and piece are 0 exactly: eta
    is one cell of value 1.0, on f's cell `cell`, where no eta of level
    j + 1 is positive but that of a skipped cube (an eta of 1.0 can round
    from a sum with tiny ones, so they are counted).  The fit through one
    point at weight 1 returns the sample, and no bad part or record of
    level j + 1 is nonzero there, so r eta - b_sum eta is 0 too."""
    if nxt is None:
        return small & one
    at, size = nxt["cell"], nxt["b_sum"].size
    other = np.bincount(at[nxt["eta"] > 0], minlength=size) - np.bincount(
        at[nxt["wins"].start[:-1][nxt["skip"]]], minlength=size)
    return small & one & (other[cell] == 0)


def _partners(wins, eta, keep, nxt):
    """The pairs of a cube k of keep and a record r of level j + 1 whose
    etas' product is nonzero on a common cell, boxes compared first: k and
    r per pair and, per cell of r, pair by pair, its place e in r's record
    and eta_k there (0 off k's box)."""
    n_wins, mom = nxt["wins"], nxt["mom"]
    lo_i, hi_i = n_wins.lo[mom.ids], (n_wins.lo + n_wins.ext)[mom.ids]
    lo_k, hi_k = wins.lo[keep], (wins.lo + wins.ext)[keep]
    k, r = np.nonzero(np.all((lo_i < hi_k[:, None])
                             & (lo_k[:, None] < hi_i), axis=2))
    k, cut = keep[k], _Windows(np.zeros((r.size, 1), int), mom.count[r, None])
    pair, e = cut.win, mom.first[r][cut.win] + cut.local[:, 0]
    cells = n_wins.cells[mom.at[e]]
    inside = np.all((cells >= wins.lo[k][pair])
                    & (cells < (wins.lo + wins.ext)[k][pair]), axis=1)
    eta_k = np.zeros(pair.size)
    eta_k[inside] = eta[wins.position(k[pair][inside], cells[inside])]
    hit = np.logical_or.reduceat(mom.w[e] * eta_k != 0, cut.start[:-1])
    return k[hit], r[hit], e[hit[pair]], eta_k[hit[pair]]


def _assemble(wins, keep, A_k, live, k, r, e, fit, nxt):
    """(wins, A) of _level's pieces: A_k on the cells live, then pair by
    pair eta_i times the fit, zero on the rest of i's box."""
    n_wins, mom = nxt["wins"], nxt["mom"]
    q, i = np.searchsorted(keep, k), mom.ids[r]
    lo, hi = wins.lo[keep], (wins.lo + wins.ext)[keep]
    np.minimum.at(lo, q, n_wins.lo[i])
    np.maximum.at(hi, q, n_wins.lo[i] + n_wins.ext[i])
    out = _Windows(lo, hi - lo)
    A = np.zeros(out.start[-1])
    A[out.position(np.searchsorted(keep, wins.win[live]),
                   wins.cells[live])] = A_k[live]
    box = _Windows(np.zeros((r.size, 1), int), np.diff(n_wins.start)[i, None])
    pos = n_wins.start[i][box.win] + box.local[:, 0]
    add = np.zeros(pos.size)
    at = np.repeat(np.arange(r.size), mom.count[r])
    add[box.start[at] + mom.at[e] - n_wins.start[i][at]] = mom.w[e] * fit
    np.add.at(A, out.position(q[box.win], n_wins.cells[pos]), add)
    return out, A


def _crops(f, wins, A):
    """(i, piece, sup) for each box i of wins in which A is nonzero: A
    cropped to its nonzero cells, with box_view's origin, and max |A|."""
    nz = np.flatnonzero(A != 0.0)
    seg = np.flatnonzero(np.diff(wins.win[nz], prepend=-1))
    w = wins.win[nz][seg]
    lo, hi = np.minimum.reduceat(wins.local[nz], seg), \
        np.maximum.reduceat(wins.local[nz], seg) + 1
    origin = (f.origin + wins.lo[w] * f.h) + lo * f.h
    return [(i, GridFunction(o, f.h, A[wins.start[i]:wins.start[i + 1]]
                             .reshape(wins.ext[i])[tuple(map(slice, a, b))],
                             check=False),
             s) for i, o, a, b, s in zip(w.tolist(), origin, lo, hi, np.maximum
                                         .reduceat(np.abs(A[nz]), seg).tolist())]


def _moment_slack(g, cube, d):
    """Worst moment of g against u^alpha, |alpha| <= d, u = (x - center) /
    side of the cube, relative to the L^1 norm of g."""
    l1 = g.lp_norm(1)
    if l1 == 0:
        return 0.0
    idx = np.indices(g.extents).reshape(g.n, -1).T
    V = _monomials(g.origin + (idx + 0.5) * g.h, cube.center, cube.side, d)
    return max(abs(float((g.values.ravel() * v).sum() * g.cell_volume))
               for v in V.T) / l1


def _level_atoms(f, cubes, pieces, j, params):
    """Each nonzero piece (keep, wins, A) of level j, cropped to its
    nonzero cells, as a scaled atom on an enlarged cube."""
    keep, wins, A = pieces
    crops = _crops(f, wins, A)
    lo = np.reshape([piece.origin for _, piece, _ in crops], (-1, f.n))
    hi = lo + np.reshape([piece.extents for _, piece, _ in crops],
                         (-1, f.n)) * f.h
    center = np.reshape([cubes[keep[i]].center for i, _, _ in crops],
                        (-1, f.n))
    need = (2 * np.maximum(np.abs(lo - center), np.abs(hi - center))
            .max(axis=1) + f.h).tolist()
    out = []
    for (i, piece, sup), need_i in zip(crops, need):
        Q = cubes[keep[i]]
        scale = max(params.c0, sup / 2.0 ** j) * 2.0 ** j
        side = max(params.c0 * Q.side, need_i)
        lam = scale * params.slice_params.cube_norm(side, f.h, f.n)
        atom = piece / lam  # the slack validate_atom measures is the atom's
        if side < 1.0 and _moment_slack(atom, Cube(Q.center, side),
                                        params.d) > params.tol_moment:
            side = max(1.0, need_i)
            lam = scale * params.slice_params.cube_norm(side, f.h, f.n)
            atom = piece / lam
        out.append(Atom(cube=Cube(Q.center, side), values=atom, level=j,
                        index=int(keep[i]), lam=lam))
    return out


def cz_decompose(f, params):
    """Decompose f into local atoms along dyadic maximal-function levels,
    from the top threshold down to the first level whose superlevel set
    swallows the support box dilated to unit size; the remainder below it
    becomes unit-cube atoms.  Levels are of params.maximal.grand_fields,
    atom scales take their cube norms from params.slice_params.cube_norm."""
    sp = params.slice_params
    require_degree(params.d, f.n, aggregation_cap(sp.phi.p_minus, sp.q))
    require_finite(f)
    zero = GridFunction(f.origin, f.h, np.zeros(f.extents), check=False)
    if f.max_abs() == 0:
        return Decomposition([], 0, -1, zero, params)
    m = params.maximal.grand_fields([f])[0].pad(2)
    j_hi = int(np.ceil(np.log2(m.max_abs()))) - 1
    target = _unit_dilated_support_mask(f, m)
    j_lo = next((j for j in range(j_hi, j_hi - MAX_LEVELS - 1, -1)
                 if np.all(m.values[target] > 2.0 ** j)), None)
    if j_lo is None:
        raise DecompositionRangeError(
            f"no level within {MAX_LEVELS} of {j_hi} covers the "
            f"dilated support (min maximal value on it: "
            f"{float(m.values[target].min()):.3e})")

    fb = f.embed(m.origin, m.extents)
    entries, nxt = [], None
    for j in range(j_hi, j_lo - 1, -1):
        nxt, pieces = _level(fb, m, j, params, nxt)
        entries.extend(_level_atoms(fb, nxt["cubes"], pieces, j, params))
    g_res = fb.values - nxt["b_sum"].reshape(fb.extents)
    entries.extend(_residual_atoms(g_res, fb, j_lo, params))
    K = max((a.lam * a.values.max_abs() / 2.0 ** a.level for a in entries),
            default=0.0)
    return Decomposition(entries, j_lo, j_hi, zero, params,
                         pointwise_constant=K)


def _unit_dilated_support_mask(f, m):
    """Cells of m inside f's support box expanded to side >= 1 per axis,
    the support above a relative floor: denormal-scale cells would drag
    the level range down by dozens of levels for nothing."""
    lo, hi = f.support_bounds(tol=f.max_abs() * 1e-12)
    mid, half = (lo + hi) / 2, np.maximum((hi - lo) / 2, 0.5)
    return reduce(np.logical_and, np.meshgrid(*[
        (c > mid[d] - half[d]) & (c < mid[d] + half[d])
        for d, c in enumerate(map(m.axis_centers, range(m.n)))],
        indexing="ij"))


def _residual_atoms(values, grid, j_lo, params):
    """Package the sub-threshold remainder as unit-cube atoms."""
    full = GridFunction(grid.origin, grid.h, values, check=False)
    cubes = full.unit_cubes()
    box = np.array([[(s.start, s.stop) for s in b] for b in
                    full.cube_boxes(cubes)], dtype=int).reshape(-1, grid.n, 2)
    wins = _Windows(box[..., 0], box[..., 1] - box[..., 0])
    out = []
    for i, piece, sup in _crops(grid, wins, values.ravel()[
            np.ravel_multi_index(tuple(wins.cells.T), grid.extents)]):
        lam = sup * params.slice_params.cube_norm(1.0, grid.h, grid.n)
        out.append(Atom(cube=cubes[i], values=piece / lam, level=j_lo,
                        index=len(out), lam=lam))
    return out


def reconstruct(dec):
    """Sum of lambda * atom plus the remainder, in a fixed entry order, on
    one covering box: the bits of the chained sum of grid functions, but
    for a -0.0 of the remainder, which enters as 0.0."""
    if not dec.entries:
        return dec.residual
    parts = [(dec.residual, 1.0)] + [(a.values, a.lam) for a in sorted(
        dec.entries, key=lambda a: (a.level, a.index, a.cube.center))]
    lo = np.min([g.origin for g, _ in parts], axis=0)
    off = np.rint(([g.origin for g, _ in parts] - lo) / dec.residual.h) \
        .astype(int)
    total = np.zeros(np.max(off + [g.extents for g, _ in parts], axis=0))
    for (g, lam), o in zip(parts, off):
        total[tuple(map(slice, o, o + g.extents))] += g.values * lam
    return GridFunction(lo, dec.residual.h, total, check=False)


def validate_atom(atom, params):
    """Check support, size and (small cubes) moment conditions of an atom
    against the CZParams that made it: its slice parameters, size exponent
    r, degree d and tol_moment.  Violations are report rows (value, bound,
    ok), not errors."""
    report = Report(["check", "measured", "bound", "ok"])
    g = atom.values
    outside = g.values[~g.cell_mask(atom.cube)]
    support_err = float(np.abs(outside).max(initial=0.0))
    report.add("support", support_err, 0.0, support_err == 0.0)
    cube_norm = params.slice_params.cube_norm(atom.cube.side, g.h, g.n)
    if np.isinf(params.r):
        size = g.max_abs()
        bound = 1.0 / cube_norm
    else:
        size = g.lp_norm(params.r)
        # |Q|^(1/r), the L^r norm of 1_Q, by the rule of every p-mean
        bound = p_mean(np.ones(1), params.r, atom.cube.volume) / cube_norm
    report.add("size", size, bound, size <= bound * (1 + 1e-6))
    if atom.cube.side < 1.0:
        slack = _moment_slack(g, atom.cube, params.d)
        report.add("moments", slack, params.tol_moment,
                   slack <= params.tol_moment)
    report.summary["valid"] = all(report.column("ok"))
    report.summary["size_slack"] = np.log(size / bound) if size > 0 \
        else -np.inf
    return report


def atomic_quasinorm(dec, s):
    """Slice norm of the s-aggregated cube envelope of the decomposition:
    the atomic quasi-norm's functional for this decomposition, an upper
    bound for the infimum over all."""
    sp = dec.params.slice_params
    require_aggregation(s, sp.phi.p_minus, sp.q)
    if not dec.entries:
        return 0.0
    first = dec.entries[0].values
    origin, ext = first.covering_box([a.cube for a in dec.entries])
    acc = GridFunction(origin, first.h, np.zeros(ext), check=False)
    for atom, box in zip(dec.entries,
                         acc.cube_boxes([a.cube for a in dec.entries])):
        acc.values[box] += (atom.lam / sp.cube_norm(atom.cube.side, acc.h,
                                                    acc.n)) ** s
    env = GridFunction(origin, acc.h, acc.values ** (1.0 / s), check=False)
    return slice_norm(env, sp)
