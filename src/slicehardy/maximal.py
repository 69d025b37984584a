"""Local maximal functions, on which the Hardy-space quasi-norms are built.

Scale suprema run over a dyadic ladder inside (0, 1); for smooth bump
kernels the convolution varies by a bounded factor between consecutive
dyadic scales, which preserves the equivalence bands the reports fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError, require_positive
from .grid import GridFunction
from .kernels import MollifierDictionary, convolve
from .reports import Report
from .slice_norms import SliceParams, _half_width, ball_mask, \
    ball_reduce, slice_norm

DEFAULT_EPS_CUT = 1e-6
#: output boxes extend PAD_FACTOR * max scale beyond the input box; the
#: omitted far field decays like (|x|/s)^-b
PAD_FACTOR = 4.0


@dataclass(frozen=True)
class MaximalParams:
    """Kernel dictionary, aperture and Peetre exponent; the grand order N
    and the scale ladder are the dictionary's."""

    dictionary: MollifierDictionary
    a: float = 1.0
    b: float = 2.5
    eps_cut = DEFAULT_EPS_CUT  # a constant, not a field

    N = property(lambda self: self.dictionary.order)
    ladder = property(lambda self: self.dictionary.scales)

    def __post_init__(self):
        if not self.a > 0:
            raise PreconditionError(f"aperture a must be positive: {self.a}")
        require_positive(b=self.b)

    def pad_cells(self, h):
        return int(np.ceil(PAD_FACTOR * max(self.ladder) / h))

    def require_hardy(self, n, p_minus, q):
        if self.b <= 2 * n / min(p_minus, q):
            raise PreconditionError(
                f"Peetre exponent b={self.b} must exceed "
                f"2n/min(p_minus, q) = {2 * n / min(p_minus, q)}")

    @cached_property
    def _peetre(self):
        return {}

    def peetre_field(self, f):
        """The Peetre maximal function of f that maximal_fields and the
        Hardy quasi-norms use: phi, b, ladder and eps_cut on the shared
        pad, computed once per sample array for as long as these
        parameters live.  The key is f's values, never its identity, so a
        whole-cell translate shares the read-only values, placed on its
        own padded grid as GridFunction.pad places them."""
        pad = self.pad_cells(f.h)
        key = f.h, f.values.shape, f.values.tobytes()
        values = self._peetre.get(key)
        if values is None:
            values = peetre_maximal(f, self.dictionary.phi, self.b,
                                    self.ladder, self.eps_cut, pad).values
            values.flags.writeable = False
            self._peetre[key] = values
        return GridFunction(f.origin - pad * f.h, f.h, values, check=False)

    def require_grand_comparison(self):
        if self.N < int(np.floor(self.b + 1)):
            raise PreconditionError(
                f"grand order N={self.N} must be >= floor(b+1)="
                f"{int(np.floor(self.b + 1))}")


def _scale_max(f, kernels, ladder, pad_cells, ops, seeds=None):
    """{name: max over scales s of op(c, s, h, n)} on the padded grid, for
    each name: (op, over_kernels) of ops, c being |f * psi_s| of the first
    kernel, or with over_kernels the max of that over all kernels, and of
    seeds[name] if given (values below the result).  Each kernel is
    convolved once per scale, whatever the number of ops.  Each op weights
    c by w >= 0 and rounding is monotone, so taking the max over kernels
    first changes no bit.  An op gets the running max as its `floor`,
    below which it need not look, and returns its max with it."""
    g, seeds = f.pad(pad_cells), seeds or {}
    out = {name: seeds[name].copy() if name in seeds
           else np.zeros(g.extents) for name in ops}
    for s in ladder:
        first = np.abs(convolve(g, kernels[0], s).values)
        grand = first.copy() if len(kernels) > 1 else first
        for kernel in kernels[1:]:
            np.maximum(grand, np.abs(convolve(g, kernel, s).values),
                       out=grand)
        for name, (op, over_kernels) in ops.items():
            c = grand if over_kernels else first
            out[name] = op(c, s, g.h, g.n, floor=out[name])
    return {name: GridFunction(g.origin, g.h, v, check=False)
            for name, v in out.items()}


def _one_scale_max(f, kernels, ladder, pad_cells, op):
    """_scale_max of one op over all the kernels."""
    return _scale_max(f, kernels, ladder, pad_cells, {"": (op, True)})[""]


def _window_max(values, s, h, n, a, floor=None):
    """max over |y - x| < a s, per grid point, with zeros outside the box
    (slice_norms.ball_reduce with np.maximum; a max is exact in any
    order), and with floor if given."""
    if _half_width(a * s, h) <= 0:
        out = values.copy()
    else:
        out = ball_reduce(values, ball_mask(a * s, h, n), np.maximum)
    return out if floor is None else np.maximum(out, floor, out=out)


def peetre_reach(b, s_max, eps_cut):
    """Offset radius beyond which the Peetre weight falls under eps_cut."""
    return s_max * (eps_cut ** (-1.0 / b) - 1.0)


def peetre_maximal(f, kernel, b, ladder, eps_cut=DEFAULT_EPS_CUT,
                   pad_cells=None):
    """Peetre-type maximal function with weight (1 + |y|/s)^{-b}.

    Offsets whose weight is below eps_cut, in (0, 1], are discarded; the
    discarded terms are dominated by eps_cut times the convolution sup.
    The sweep, in 1-D and 2-D, prunes exactly (see _peetre_sweep).
    """
    require_positive(b=b)
    if not 0 < eps_cut <= 1:
        raise PreconditionError(f"eps_cut must lie in (0, 1]: {eps_cut}")
    if pad_cells is None:
        pad_cells = int(np.ceil(4.0 * max(ladder) / f.h))
    return _one_scale_max(f, [kernel], ladder, pad_cells,
                          partial(_peetre_sweep, b=b, eps_cut=eps_cut))


#: cells per tile, and tile pairs per product block, of the row sweeps
_TILE, _PAIR_BLOCK = 32, 256


def _peetre_sweep(absc, s, h, n, b, eps_cut, floor=None):
    """max over offsets d of absc(x - d) (1 + |d| h / s)^{-b}, over the
    d of weight >= eps_cut (along a row, up to the first one under it),
    and of floor if given, bit for bit.  absc is a stack of rows along its
    last axis (1-D is one row): for each row offset r = 0, 1, ... one
    _tile_sweep carries every row to the rows r above and below, pruned
    against the least output taken at the two, until (r, 0)'s weight times
    max(absc) <= min(out).  A higher floor prunes more."""
    rows = absc.reshape(-1, absc.shape[-1])
    nr = rows.shape[0]
    out, top = rows.copy(), rows.max()
    if floor is not None:
        np.maximum(out, floor.reshape(rows.shape), out=out)
    for r in range(nr):
        w = _peetre_weights(rows.shape[1], s, h, b, eps_cut, r)
        if w[0] * top <= out.min():
            break
        # rows k + 2r and k of the padded output are row k's targets
        pad = np.full((nr + 2 * r, rows.shape[1]), np.inf)
        pad[r:r + nr] = out
        got = _tile_sweep(rows, w, np.minimum(pad[2 * r:], pad[:nr]))
        np.maximum(pad[2 * r:], got, out=pad[2 * r:])
        np.maximum(pad[:nr], got, out=pad[:nr])
        out = pad[r:r + nr]
    return out.reshape(absc.shape)


@lru_cache(maxsize=1024)
def _peetre_weights(m, s, h, b, eps_cut, r):
    """The weights w[c] of the offsets (r, c) along a row of m cells, on
    whole tiles, zero from the first under eps_cut, from c = m and for r
    past the reach; read-only and shared, one table per r and scale."""
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    reach = min(kmax, m - 1) if r <= kmax else -1
    # the reference loop's scalar expression: NumPy's array power differs
    # from the scalar one in the last bit for some offsets
    base = 1.0 + np.hypot(np.arange(reach + 1), r) * h / s
    w = np.zeros(-(-m // _TILE) * _TILE)
    w[:reach + 1] = [v ** (-b) for v in base.tolist()]
    w[np.maximum.accumulate(w < eps_cut)] = 0.0
    w.flags.writeable = False
    return w


def _tile_sweep(absc, w, floor):
    """out[k, i] = max(floor[k, i], max over j of absc[k, j] w[|i - j|])
    by branch and bound over tiles.  Rounding is monotone, so max(source
    tile) times the largest weight at or beyond two tiles' gap bounds
    their products.  Tiles no bound can raise are done; products with the
    peaks of the 4 source tiles of largest bound start the others, and a
    pair is multiplied out only if its bound beats its tile's least start."""
    nr, m = absc.shape
    nt = w.size // _TILE
    # tile i is tile i % nt of row i // nt; cells past m hold 0 and start
    # at +inf, so they never lower a tile's least start value
    tiles, out = np.zeros((nr, w.size)), np.full((nr, w.size), np.inf)
    tiles[:, :m], out[:, :m] = absc, floor
    tiles, out = tiles.reshape(-1, _TILE), out.reshape(-1, _TILE)
    top = tiles.argmax(axis=1)
    w_beyond = np.maximum.accumulate(w[::-1])[::-1]
    sep = np.abs(np.subtract.outer(np.arange(nt), np.arange(nt)))
    bound = (tiles[np.arange(nr * nt), top].reshape(nr, 1, nt)
             * w_beyond[np.maximum(sep * _TILE - _TILE + 1, 0)]
             ).reshape(-1, nt)
    live = np.flatnonzero(bound.max(axis=1) > out.min(axis=1))
    i, bound = live[:, None], bound[live]
    best = np.argpartition(-bound, min(3, nt - 1), axis=1)[:, :4] + i - i % nt
    taken = tiles[best, top[best]][:, :, None] * w[np.abs(
        ((i - best) * _TILE - top[best])[:, :, None] + np.arange(_TILE))]
    out[live] = start = np.maximum(out[live], taken.max(axis=1))
    # pairs in target order; rows[w.size - 1 + (t - u) * _TILE - c, a] is
    # the weight between cell c of source tile u and cell a of tile t
    ti, si = np.nonzero(bound > start.min(axis=1)[:, None])
    ti, si = live[ti], si + (i - i % nt)[ti, 0]
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
    return out.reshape(nr, -1)[:, :m]


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


def maximal_fields(f, params):
    """The five maximal functions of f on one padded grid: the radial and
    nontangential maxima of |f * phi_s| over the windows of aperture 0
    and a, the grand one, and the Peetre and grand Peetre sweeps.  The
    grand and Peetre fields are bit for bit grand_maximal's and
    peetre_maximal's at that pad.

    Each dictionary kernel is convolved once per scale: |f * phi_s|, phi
    being the first kernel, feeds the radial and nontangential fields,
    its max with the other kernels the two grand ones.  The Peetre field
    is params.peetre_field(f).  The grand one dominates it at every scale
    (rounding is monotone), so the grand sweeps start from it.
    """
    peetre = params.peetre_field(f)
    fields = _scale_max(
        f, list(params.dictionary), params.ladder, params.pad_cells(f.h),
        {"radial": (partial(_window_max, a=0.0), False),
         "nontangential": (partial(_window_max, a=params.a), False),
         "grand": (partial(_window_max, a=1.0), True),
         "grand_peetre": (partial(_peetre_sweep, b=params.b,
                                  eps_cut=params.eps_cut), True)},
        {"grand_peetre": peetre.values})
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


def maximal_equivalence_report(family, params, phi, q, t_values):
    """All pairwise quasi-norm ratios of the five maximal functions.

    Hypotheses (N >= floor(b+1), b large enough) are rejected up front;
    the fitted bands are empirical, as the equivalence constants are
    existential.
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
        five = maximal_fields(f, params)
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
