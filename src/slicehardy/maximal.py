"""Local maximal functions, on which the Hardy-space quasi-norms are built.

Scale suprema run over a dyadic ladder inside (0, 1); for smooth bump
kernels the convolution varies by a bounded factor between consecutive
dyadic scales, which preserves the equivalence bands the reports fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError
from .grid import GridFunction
from .kernels import MollifierDictionary, convolve
from .reports import Report
from .slice_norms import SliceParams, ball_mask, slice_norm

DEFAULT_EPS_CUT = 1e-6
#: output boxes extend PAD_FACTOR * max scale beyond the input box; the
#: omitted far field decays like (|x|/s)^-b
PAD_FACTOR = 4.0


@dataclass
class MaximalParams:
    """Kernel dictionary, aperture and Peetre exponent; the grand order N
    and the scale ladder are the dictionary's."""

    dictionary: MollifierDictionary
    a: float = 1.0
    b: float = 2.5
    eps_cut: float = DEFAULT_EPS_CUT

    N = property(lambda self: self.dictionary.order)
    ladder = property(lambda self: self.dictionary.scales)

    def __post_init__(self):
        if not self.a > 0:
            raise PreconditionError(f"aperture a must be positive: {self.a}")

    def pad_cells(self, h):
        return int(np.ceil(PAD_FACTOR * max(self.ladder) / h))

    def require_hardy(self, n, p_minus, q):
        if self.b <= 2 * n / min(p_minus, q):
            raise PreconditionError(
                f"Peetre exponent b={self.b} must exceed "
                f"2n/min(p_minus, q) = {2 * n / min(p_minus, q)}")

    def peetre_field(self, f):
        """The Peetre maximal function of f that maximal_fields and the
        Hardy quasi-norms use: phi, b, ladder and eps_cut on the shared
        pad."""
        return peetre_maximal(f, self.dictionary.phi, self.b, self.ladder,
                              self.eps_cut, self.pad_cells(f.h))

    def require_grand_comparison(self):
        if self.N < int(np.floor(self.b + 1)):
            raise PreconditionError(
                f"grand order N={self.N} must be >= floor(b+1)="
                f"{int(np.floor(self.b + 1))}")


def _scale_max(f, kernels, ladder, pad_cells, ops):
    """{name: max over scales s of op(c, s, h, n)} on the padded grid, for
    each name: (op, over_kernels) of ops, c being |f * psi_s| of the first
    kernel, or with over_kernels the max of that over all kernels.  Each
    kernel is convolved once per scale, whatever the number of ops.  Each
    op weights c by w >= 0 and rounding is monotone, so taking the max
    over kernels first changes no bit."""
    g = f.pad(pad_cells)
    out = {name: np.zeros(g.extents) for name in ops}
    for s in ladder:
        first = np.abs(convolve(g, kernels[0], s).values)
        grand = first.copy() if len(kernels) > 1 else first
        for kernel in kernels[1:]:
            np.maximum(grand, np.abs(convolve(g, kernel, s).values),
                       out=grand)
        for name, (op, over_kernels) in ops.items():
            c = grand if over_kernels else first
            np.maximum(out[name], op(c, s, g.h, g.n), out=out[name])
    return {name: GridFunction(g.origin, g.h, v, check=False)
            for name, v in out.items()}


def _one_scale_max(f, kernels, ladder, pad_cells, op):
    """_scale_max of one op over all the kernels."""
    return _scale_max(f, kernels, ladder, pad_cells, {"": (op, True)})[""]


def radial_maximal(f, kernel, ladder, pad_cells=None):
    """max over ladder scales s of |f * psi_s| at each grid point (the
    window of aperture 0 holds the point alone)."""
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) / f.h))
    return _one_scale_max(f, [kernel], ladder, pad_cells,
                          partial(_window_max, a=0.0))


def _window_max(values, s, h, n, a):
    """max over |y - x| < a s, per grid point, with zeros outside the box.

    The ball is a union of centered segments, one per offset along axis 0
    (the whole ball in 1-D): the max over each is a running max along the
    last axis, and the ball's max is the max of those, each shifted by its
    offset.  A max is exact in any order."""
    k = int(np.ceil(a * s / h - 1e-12)) - 1
    if k <= 0:
        return values.copy()
    mask = ball_mask(a * s, h, n).reshape(-1, 2 * k + 1)
    padded = np.pad(values, k)
    m = values.shape
    out = None
    runs = {}
    for d, w in enumerate(mask.sum(axis=1) // 2):
        if w not in runs:
            runs[w] = _running_max(padded, 2 * w + 1)
        rows = (slice(d, d + m[0]),) if n == 2 else ()
        piece = runs[w][rows + (slice(k - w, k - w + m[-1]),)]
        out = piece.copy() if out is None else np.maximum(out, piece, out=out)
    return out


def _running_max(x, length):
    """max of each run of `length` consecutive cells along the last axis,
    for every run inside x (x.shape[-1] - length + 1 of them), by doubling
    the run length."""
    span = 1
    while 2 * span <= length:
        x = np.maximum(x[..., :-span], x[..., span:])
        span *= 2
    if span < length:
        x = np.maximum(x[..., :span - length], x[..., length - span:])
    return x


def _shift_slices(d, m):
    """Slices on an axis of m cells such that target[i] gets source[i + d]."""
    return slice(max(-d, 0), m - max(d, 0)), slice(max(d, 0), m - max(-d, 0))


def nontangential_maximal(f, kernel, a, ladder, pad_cells=None):
    """max over s and offsets |y - x| < a*s of |f * psi_s(y)|."""
    if a <= 0:
        raise PreconditionError("aperture must be positive")
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) * (1 + a) / f.h))
    return _one_scale_max(f, [kernel], ladder, pad_cells,
                          partial(_window_max, a=a))


def peetre_reach(b, s_max, eps_cut):
    """Offset radius beyond which the Peetre weight falls under eps_cut."""
    return s_max * (eps_cut ** (-1.0 / b) - 1.0)


def peetre_maximal(f, kernel, b, ladder, eps_cut=DEFAULT_EPS_CUT,
                   pad_cells=None):
    """Peetre-type maximal function with weight (1 + |y|/s)^{-b}.

    Offsets whose weight is below eps_cut are discarded; the discarded
    terms are dominated by eps_cut times the convolution sup.  The 1-D
    sweep prunes exactly, not approximately (see _peetre_sweep).
    """
    if b <= 0:
        raise PreconditionError("Peetre exponent must be positive")
    if pad_cells is None:
        pad_cells = int(np.ceil(4.0 * max(ladder) / f.h))
    return _one_scale_max(f, [kernel], ladder, pad_cells,
                          partial(_peetre_sweep, b=b, eps_cut=eps_cut))


#: cells per tile, and tile pairs per product block, of the 1-D sweep
_TILE, _PAIR_BLOCK = 32, 256


def _peetre_sweep(absc, s, h, n, b, eps_cut):
    """max over offsets d of absc(x - d) (1 + |d| h / s)^{-b}, over the
    d of weight >= eps_cut (in 1-D, up to the first one under it).  The
    1-D pruning is exact: it gives the max over every such d bit for bit,
    skipping only products that cannot exceed one taken (_tile_sweep)."""
    if n == 1:
        return _tile_sweep(absc, _peetre_weights(absc.shape[0], s, h, b,
                                                 eps_cut))
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    out = absc.copy()
    # an offset as long as an axis shifts nothing into the array
    mx, my = absc.shape
    kx = min(kmax, mx - 1)
    ky = min(kmax, my - 1)
    for dx in range(-kx, kx + 1):
        tx, sx = _shift_slices(dx, mx)
        for dy in range(-ky, ky + 1):
            if dx == 0 and dy == 0:
                continue
            w = (1.0 + np.hypot(dx, dy) * h / s) ** (-b)
            if w < eps_cut:
                continue
            ty, sy = _shift_slices(dy, my)
            np.maximum(out[tx, ty], absc[sx, sy] * w, out=out[tx, ty])
    return out


@lru_cache(maxsize=64)
def _peetre_weights(m, s, h, b, eps_cut):
    """The 1-D sweep's weights w[d] for offsets d, zero from the first one
    under eps_cut (or from m on), on whole tiles; read-only, as every
    sweep with these values shares it."""
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    reach = max(min(kmax, m - 1), 0)
    # scalar power, as in the reference offset loop: NumPy's array power
    # differs from it in the last bit for some offsets
    w = np.zeros(-(-m // _TILE) * _TILE)
    w[:reach + 1] = [1.0] + [(1.0 + d * h / s) ** (-b)
                             for d in range(1, reach + 1)]
    w[1:][np.maximum.accumulate(w[1:] < eps_cut)] = 0.0
    w.flags.writeable = False
    return w


def _tile_sweep(absc, w):
    """out[i] = max over j of absc[j] w[|i - j|], w[0] = 1, by branch and
    bound over tiles.  Rounding is monotone, so max(source tile) times the
    largest weight at or beyond two tiles' gap bounds each of their
    products.  Products with the peaks of the 4 source tiles of largest
    bound start the output; a pair is multiplied out only when its bound
    beats the least start value of its target tile."""
    m = absc.size
    nt = w.size // _TILE
    tiles = np.pad(absc, (0, w.size - m)).reshape(nt, _TILE)
    top = tiles.argmax(axis=1)
    peak = tiles[np.arange(nt), top]
    w_beyond = np.maximum.accumulate(w[::-1])[::-1]
    sep = np.abs(np.subtract.outer(np.arange(nt), np.arange(nt)))
    bound = peak * w_beyond[np.maximum(sep * _TILE - _TILE + 1, 0)]
    best = np.argpartition(-bound, min(3, nt - 1), axis=1)[:, :4]
    src = best * _TILE + top[best]
    cells = np.arange(w.size).reshape(nt, 1, _TILE)
    taken = tiles.ravel()[src][:, :, None] \
        * w[np.abs(cells - src[:, :, None])]
    out = np.maximum(taken.max(axis=1), tiles)
    # pairs in target order; rows[w.size - 1 + (t - u) * _TILE - c, a] is
    # the weight between cell c of source tile u and cell a of tile t
    ti, si = np.nonzero(bound > out.min(axis=1)[:, None])
    rows = sliding_window_view(np.concatenate([w[:0:-1], w]), _TILE)
    for lo in range(0, ti.size, _PAIR_BLOCK):
        t, u = ti[lo:lo + _PAIR_BLOCK], si[lo:lo + _PAIR_BLOCK]
        prod = rows[(w.size - 1 + (t - u) * _TILE)[:, None]
                    - np.arange(_TILE)]
        prod *= tiles[u][:, :, None]
        first = np.flatnonzero(np.diff(t, prepend=-1))
        t = t[first]
        out[t] = np.maximum(out[t], np.maximum.reduceat(prod.max(axis=1),
                                                        first))
    return out.ravel()[:m]


def grand_maximal(f, dictionary, ladder=None, pad_cells=None):
    """max over dictionary kernels of the convolution maxima over the
    window |x - y| < s.  The max over kernels is taken before the window,
    once per scale."""
    ladder = ladder if ladder is not None else dictionary.scales
    if pad_cells is None:
        pad_cells = int(np.ceil(2.0 * max(ladder) / f.h))
    return _one_scale_max(f, list(dictionary), ladder, pad_cells,
                          partial(_window_max, a=1.0))


_FIVE = ("radial", "nontangential", "grand", "peetre", "grand_peetre")


def maximal_fields(f, params, peetre=None):
    """The five maximal functions of f on one padded grid, each bit for
    bit the one its own function gives at that pad.

    Each dictionary kernel is convolved once per scale: |f * phi_s|, phi
    being the first kernel, feeds the radial and nontangential fields,
    its max with the other kernels the two grand ones.  The Peetre field
    is peetre, f's params.peetre_field computed earlier, if given, and
    params.peetre_field(f) otherwise.
    """
    fields = _scale_max(
        f, list(params.dictionary), params.ladder, params.pad_cells(f.h),
        {"radial": (partial(_window_max, a=0.0), False),
         "nontangential": (partial(_window_max, a=params.a), False),
         "grand": (partial(_window_max, a=1.0), True),
         "grand_peetre": (partial(_peetre_sweep, b=params.b,
                                  eps_cut=params.eps_cut), True)})
    if peetre is None:
        peetre = params.peetre_field(f)
    elif peetre.extents != fields["radial"].extents \
            or not np.array_equal(peetre.origin, fields["radial"].origin):
        raise PreconditionError(
            "the precomputed Peetre field is not on f's padded grid")
    fields["peetre"] = peetre
    return {name: fields[name] for name in _FIVE}


def pointwise_chain_ok(fields, a, b):
    """Exact chain radial <= nontangential <= (1+a)^b * peetre, to a
    relative 1e-10."""
    r = fields["radial"].values
    nt = fields["nontangential"].values
    pe = fields["peetre"].values
    ok1 = np.all(r <= nt * (1 + 1e-10) + 1e-300)
    ok2 = np.all(nt <= (1 + a) ** b * pe * (1 + 1e-10) + 1e-300)
    return bool(ok1 and ok2)


def maximal_equivalence_report(family, params, phi, q, t_values,
                               peetre=None):
    """All pairwise quasi-norm ratios of the five maximal functions.

    Hypotheses (N >= floor(b+1), b large enough) are rejected up front;
    the fitted bands are empirical, as the equivalence constants are
    existential.  peetre, if given, maps a member to its Peetre field
    (params.peetre_field of it), computed earlier.
    """
    params.require_grand_comparison()
    report = Report("maximal_equivalence",
                    ["index", "t"] + list(_FIVE) + ["chain_ok"])
    n = family[0].n if family else 1
    params.require_hardy(n, phi.p_minus, q)
    ratios = {pair: [] for pair in combinations(_FIVE, 2)}
    for i, f in enumerate(family):
        if f.max_abs() == 0:
            continue
        five = maximal_fields(f, params, peetre(f) if peetre else None)
        chain = pointwise_chain_ok(five, params.a, params.b)
        for t in t_values:
            sp = SliceParams(t, q, phi)
            norms = {k: slice_norm(v, sp) for k, v in five.items()}
            report.add(i, t, *[norms[k] for k in _FIVE], chain)
            for pair in ratios:
                na, nb = norms[pair[0]], norms[pair[1]]
                if nb > 0:
                    ratios[pair].append(na / nb)
    report.summary["chain_all_ok"] = all(report.column("chain_ok"))
    for pair, vals in ratios.items():
        if vals:
            report.summary[f"band:{pair[0]}/{pair[1]}"] = \
                (min(vals), max(vals))
    return report
