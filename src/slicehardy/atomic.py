"""Constructive Calderon-Zygmund decomposition into local atoms.

The pipeline thresholds the grand maximal function on dyadic levels,
covers each superlevel set with Whitney cubes, builds a smooth partition
of unity, removes local polynomial projections, and assembles the
cross-level corrected pieces.  Each eta_Q, bad part and correction lives
on the index box of its dilated cube (9/8)Q, with its own origin, not on
the level grid.  The telescoping identity makes the grid reconstruction
exact up to floating-point accumulation; the sub-threshold remainder is
packaged as moment-free unit-cube atoms.  One monomial basis
(`_monomials`) and one weighted Gram solve (`_fit`) serve every polynomial
fit: the eta-weighted projections here and the Campanato P_Q f.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import ConstructionError, DecompositionRangeError, \
    InvalidDataError, NoBoundaryError, PreconditionError, UnderdeterminedError
from .grid import Cube, GridFunction
from .maximal import grand_maximal
from .reports import Report
from .slice_norms import SliceParams, cube_indicator_norms, \
    cube_indicator_slice_norm, slice_norm

WHITNEY_DILATION = 9.0 / 8.0


def overlap_max(n):
    """Bounded-overlap cap for the dilated Whitney cubes."""
    return 12 ** n


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


@dataclass
class Polynomial:
    """A polynomial in the monomials u^alpha, u = (x - center) / scale,
    which keep the moment systems well conditioned at every cube size."""

    center: tuple
    scale: float
    degree: int
    coeffs: np.ndarray

    def __call__(self, pts):
        V = _monomials(pts, self.center, self.scale, self.degree)
        out = np.zeros(V.shape[:-1])
        for k, c in enumerate(self.coeffs):
            out += c * V[..., k]
        return out


def _fit(vals, w, V):
    """Coefficients c of P = V @ c with sum w (vals - P) u^alpha = 0 for
    every monomial column u^alpha of V (one row per cell).  vals holds one
    right-hand side, or one per column.  With fewer cells than monomials
    the Gram system is singular; its minimum-norm solution interpolates
    vals instead."""
    if len(vals) < V.shape[1]:
        return np.linalg.lstsq(V, vals, rcond=None)[0]
    try:
        return np.linalg.solve(V.T @ (V * w[:, None]), V.T @ (vals.T * w).T)
    except np.linalg.LinAlgError as exc:
        raise UnderdeterminedError("singular moment system") from exc


def minimizing_polynomial(f, Q, d, box=None):
    """The degree-<= d P with int_Q (f - P) x^alpha = 0 for |alpha| <= d,
    from the unit-weight moment system on Q's cells.  `box` is
    f.cube_slices(Q), for a caller that already has it."""
    box = f.cube_slices(Q) if box is None else box
    vals = f.values[box].ravel()
    dim = comb(f.n + d, d)
    if vals.size < dim:
        raise UnderdeterminedError(f"cube holds {vals.size} cells, need {dim}")
    coeffs = _fit(vals, np.ones(vals.size), _monomials(
        f.centers(box).reshape(-1, f.n), Q.center, Q.side, d))
    return Polynomial(Q.center, Q.side, d, coeffs)


def weighted_projection(g, eta, d):
    """Projection of g onto degree-<= d polynomials in the eta-weighted norm.

    Characterized by <g - c, q eta> = 0 for every polynomial q of degree
    at most d; only cells where eta is positive enter the system, which is
    built on eta's box from g's samples there (zero where g has no cell).
    """
    w = eta.values
    if float(w.sum()) <= 0:
        raise UnderdeterminedError("weight has nonpositive mass")
    lo, hi = eta.support_bounds()
    center = tuple((a + b) / 2 for a, b in zip(lo, hi))
    scale = max(float(b - a) for a, b in zip(lo, hi))
    mask = w > 0
    coeffs = _fit(_sampled_on(g, eta)[mask], w[mask],
                  _monomials(eta.centers()[mask], center, scale, d))
    return Polynomial(center, scale, d, coeffs)


def _sampled_on(g, like):
    """g's samples on like's box, zero where g has no cell."""
    out, boxes = np.zeros(like.extents), g.overlap(like)
    if boxes is not None:
        out[boxes[1]] = g.values[boxes[0]]
    return out


# -- Whitney covering and partition of unity --------------------------------

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
    edt = distance_transform_edt(padded)
    edt = edt[tuple(slice(1, -1) for _ in range(n))] * h
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

    Each bump is a product of one-dimensional profiles on (9/8)Q, built
    on the index box of the cells where it is nonzero; each eta is
    returned on that box, with its own origin.  The bumps are added into
    one total in cube order; dividing by it makes the sum exactly 1 on
    the cells of O and exactly 0 off it.
    """
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
    s: float = 0.81
    c0: float = 4.5
    tol_moment: float = 1e-8
    tol_rec: float = 1e-6
    max_levels: int = 40

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
    """Whitney cubes, partition of unity and residuals at one level.

    The residual r = f - c of each cube lives on its eta's box, cells lo
    to hi - 1 of f's grid; b_sum adds up the bad parts r eta on f's grid.
    """
    O = GridFunction(m.origin, m.h, (m.values > 2.0 ** j).astype(float),
                     check=False)
    cubes = whitney_decompose(O)
    etas = partition_of_unity(cubes, O)
    small = [Q.side < 1.0 for Q in cubes]
    lo = np.rint([(eta.origin - f.origin) / f.h for eta in etas]).astype(int)
    hi = lo + [eta.extents for eta in etas]
    resid = []
    b_sum = np.zeros(f.extents)
    for eta, box, is_small in zip(etas, map(_box, lo, hi), small):
        r = f.values[box]
        if is_small:
            r = r - weighted_projection(f, eta, params.d)(eta.centers())
        b_sum[box] += r * eta.values
        resid.append(r)
    return {"cubes": cubes, "etas": etas, "small": small, "lo": lo,
            "hi": hi, "resid": resid, "b_sum": b_sum}


def _box(lo, hi, start=0):
    """Index box of the cells lo..hi-1 in an array starting at `start`."""
    return tuple(map(slice, lo - start, hi - start))


def _assemble_level(f, level, nxt, params):
    """The corrected pieces A_{j,k} from levels j and j+1.

    A_k lives on the box covering eta_k and the small-cube etas of level
    j+1 that meet it: candidates by one comparison of box bounds per k,
    each confirmed on the two etas' common cells.
    """
    if nxt is None:
        return [GridFunction(eta.origin, f.h, r * eta.values, check=False)
                for eta, r in zip(level["etas"], level["resid"])]
    lo_i, hi_i, small = nxt["lo"], nxt["hi"], np.array(nxt["small"])
    out = []
    for eta_k, r_k, lo_k, hi_k in zip(level["etas"], level["resid"],
                                      level["lo"], level["hi"]):
        partners = []
        for i in np.flatnonzero(small & np.all((lo_i < hi_k)
                                               & (lo_k < hi_i), axis=1)):
            lo, hi = np.maximum(lo_i[i], lo_k), np.minimum(hi_i[i], hi_k)
            if np.any(nxt["etas"][i].values[_box(lo, hi, lo_i[i])]
                      * eta_k.values[_box(lo, hi, lo_k)]):
                partners.append(i)
        lo = np.min([lo_k, *lo_i[partners]], axis=0)
        A = np.zeros(np.max([hi_k, *hi_i[partners]], axis=0) - lo)
        A[_box(lo_k, hi_k, lo)] = r_k * eta_k.values \
            - nxt["b_sum"][_box(lo_k, hi_k)] * eta_k.values
        for i in partners:
            eta_i = nxt["etas"][i]
            g = GridFunction(eta_i.origin, f.h, nxt["resid"][i]
                             * _sampled_on(eta_k, eta_i), check=False)
            A[_box(lo_i[i], hi_i[i], lo)] += \
                weighted_projection(g, eta_i, params.d)(eta_i.centers()) \
                * eta_i.values
        out.append(GridFunction(f.origin + lo * f.h, f.h, A, check=False))
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


def cz_decompose(f, params):
    """Decompose f into local atoms along dyadic maximal-function levels.

    Levels run from the top threshold down to the first level whose
    superlevel set swallows the support box dilated to unit size; the
    remainder below that level needs no moment conditions and is emitted
    as unit-cube atoms.
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
    for j in range(j_hi, j_hi - params.max_levels - 1, -1):
        if np.all(m.values[target] > 2.0 ** j):
            j_lo = j
            break
    if j_lo is None:
        raise DecompositionRangeError(
            f"no level within {params.max_levels} of {j_hi} covers the "
            f"dilated support (min maximal value on it: "
            f"{float(m.values[target].min()):.3e})")

    fb = f.embed(m.origin, m.extents)
    entries = []
    norm_1q = cube_indicator_norms(params.slice_params, fb.h, fb.n)
    nxt = None
    for j in range(j_hi, j_lo - 1, -1):
        level = _level_pieces(fb, m, j, params)
        for k, A in enumerate(_assemble_level(fb, level, nxt, params)):
            atom = _package_atom(A, level["cubes"][k], j, k, params,
                                 norm_1q)
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


def validate_atom(atom, slice_params, tol_moment=1e-8, tol_size=1e-6):
    """Check support, size and (small cubes) moment conditions of an atom.

    Violations are rows of the report, not errors; each row carries the
    measured value, the bound and the signed slack in log scale.
    """
    report = Report("atom_validation",
                    ["check", "measured", "bound", "ok"])
    g = atom.values
    outside = g.values[~g.cell_mask(atom.cube)]
    support_err = float(np.abs(outside).max(initial=0.0))
    report.add("support", support_err, 0.0, support_err == 0.0)

    norm_1q = cube_indicator_slice_norm(slice_params, atom.cube.side, g.h,
                                        g.n)
    if np.isinf(atom.r):
        size = g.max_abs()
        bound = 1.0 / norm_1q
    else:
        size = g.lp_norm(atom.r)
        bound = atom.cube.volume ** (1.0 / atom.r) / norm_1q
    report.add("size", size, bound, size <= bound * (1 + tol_size))

    if atom.cube.side < 1.0:
        slack = _moment_slack(g, atom.cube, atom.degree)
        report.add("moments", slack, tol_moment, slack <= tol_moment)
    report.summary["valid"] = all(report.column("ok"))
    report.summary["size_slack"] = np.log(size / bound) if size > 0 \
        else -np.inf
    return report


def atomic_quasinorm(dec, s, tol=1e-10):
    """Slice norm of the s-aggregated cube envelope of the decomposition.

    Evaluates the defining functional of the atomic quasi-norm for the
    given (finite) decomposition, an upper bound for the infimum over all
    decompositions.
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
    norm_1q = cube_indicator_norms(sp, acc.h, acc.n)
    for atom in dec.entries:
        acc.values[acc.cube_slices(atom.cube)] += \
            (atom.lam / norm_1q(atom.cube.side)) ** s
    env = GridFunction(origin, acc.h, acc.values ** (1.0 / s), check=False)
    return slice_norm(env, sp, tol)


# -- serialization ----------------------------------------------------------

def save_decomposition(dec, directory):
    """Write a manifest plus one grid file per atom; bit-exact round trip."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"decomposition {dec.j_lo} {dec.j_hi} "
             f"{repr(float(dec.pointwise_constant))} "
             f"{len(dec.entries)}"]
    for i, atom in enumerate(dec.entries):
        name = f"atom_{i:04d}.grid"
        atom.values.save(os.path.join(directory, name))
        center = " ".join(repr(float(c)) for c in atom.cube.center)
        lines.append(f"{atom.level} {atom.index} "
                     f"{repr(float(atom.lam))} "
                     f"{repr(float(atom.cube.side))} "
                     f"{atom.r} {atom.degree} {name} {center}")
    dec.residual.save(os.path.join(directory, "residual.grid"))
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_decomposition(directory, params):
    with open(os.path.join(directory, "manifest.txt")) as fh:
        lines = fh.read().strip().split("\n")
    head = lines[0].split()
    if head[0] != "decomposition":
        raise InvalidDataError("not a decomposition manifest")
    j_lo, j_hi = int(head[1]), int(head[2])
    K = float(head[3])
    entries = []
    for line in lines[1:]:
        parts = line.split()
        level, index = int(parts[0]), int(parts[1])
        lam, side = float(parts[2]), float(parts[3])
        r, degree, name = float(parts[4]), int(parts[5]), parts[6]
        center = tuple(float(v) for v in parts[7:])
        values = GridFunction.load(os.path.join(directory, name))
        entries.append(Atom(cube=Cube(center, side), values=values, r=r,
                            degree=degree, level=level, index=index,
                            lam=lam))
    residual = GridFunction.load(os.path.join(directory, "residual.grid"))
    return Decomposition(entries, j_lo, j_hi, residual, params, K)
