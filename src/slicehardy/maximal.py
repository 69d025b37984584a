"""Local maximal functions and the Hardy-space quasi-norms built on them.

Scale suprema run over a dyadic ladder inside (0, 1); for smooth bump
kernels the convolution varies by a bounded factor between consecutive
dyadic scales, which preserves the equivalence bands the reports fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import maximum_filter

from . import orlicz
from .errors import PreconditionError
from .grid import GridFunction
from .kernels import MollifierDictionary, build_dictionary, convolve, \
    scale_ladder
from .reports import Report
from .slice_norms import SliceParams, ball_mask, slice_norm, star_norm

DEFAULT_EPS_CUT = 1e-6


@dataclass
class MaximalParams:
    """Aperture, Peetre exponent, grand order and kernel dictionary."""

    a: float = 1.0
    b: float = 2.5
    N: int = 3
    dictionary: MollifierDictionary = None
    ladder: list = field(default_factory=lambda: scale_ladder(5))
    eps_cut: float = DEFAULT_EPS_CUT
    #: output boxes extend pad_factor * max scale beyond the input box;
    #: the omitted far field decays like (|x|/s)^-b
    pad_factor: float = 4.0

    def pad_cells(self, h):
        return int(np.ceil(self.pad_factor * max(self.ladder) / h))

    def require_hardy(self, n, p_minus, q):
        if self.b <= 2 * n / min(p_minus, q):
            raise PreconditionError(
                f"Peetre exponent b={self.b} must exceed "
                f"2n/min(p_minus, q) = {2 * n / min(p_minus, q)}")

    def require_grand_comparison(self):
        if self.N < int(np.floor(self.b + 1)):
            raise PreconditionError(
                f"grand order N={self.N} must be >= floor(b+1)="
                f"{int(np.floor(self.b + 1))}")


def _scale_max(f, kernels, ladder, pad_cells, op):
    """max over scales s of op(c, s, h, n) on the padded grid, c the max
    over kernels of |f * psi_s|: each op weights c by w >= 0 and rounding
    is monotone, so taking the max over kernels first changes no bit."""
    g = f.pad(pad_cells)
    out = np.zeros(g.extents)
    for s in ladder:
        c = np.abs(convolve(g, kernels[0], s).values)
        for kernel in kernels[1:]:
            np.maximum(c, np.abs(convolve(g, kernel, s).values), out=c)
        np.maximum(out, op(c, s, g.h, g.n), out=out)
    return GridFunction(g.origin, g.h, out, check=False)


def radial_maximal(f, kernel, ladder, pad_cells=None):
    """max over ladder scales s of |f * psi_s| at each grid point (the
    window of aperture 0 holds the point alone)."""
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) / f.h))
    return _scale_max(f, [kernel], ladder, pad_cells,
                      partial(_window_max, a=0.0))


def _window_max(values, s, h, n, a):
    """max over |y - x| < a s, per grid point."""
    k = int(np.ceil(a * s / h - 1e-12)) - 1
    if k <= 0:
        return values.copy()
    return maximum_filter(values, footprint=ball_mask(a * s, h, n),
                          mode="constant")


def _shift_slices(d, m):
    """Slices on an axis of m cells such that target[i] gets source[i + d]."""
    return slice(max(-d, 0), m - max(d, 0)), slice(max(d, 0), m - max(-d, 0))


def nontangential_maximal(f, kernel, a, ladder, pad_cells=None):
    """max over s and offsets |y - x| < a*s of |f * psi_s(y)|."""
    if a <= 0:
        raise PreconditionError("aperture must be positive")
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) * (1 + a) / f.h))
    return _scale_max(f, [kernel], ladder, pad_cells,
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
    return _scale_max(f, [kernel], ladder, pad_cells,
                      partial(_peetre_sweep, b=b, eps_cut=eps_cut))


#: cells per tile, and tile pairs per product block, of the 1-D sweep
_TILE, _PAIR_BLOCK = 32, 256


def _peetre_sweep(absc, s, h, n, b, eps_cut):
    """max over offsets d of absc(x - d) (1 + |d| h / s)^{-b}, over the
    d of weight >= eps_cut (in 1-D, up to the first one under it).  The
    1-D pruning is exact: it gives the max over every such d bit for bit,
    skipping only products that cannot exceed one taken (_tile_sweep)."""
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    if n == 1:
        m = absc.shape[0]
        reach = max(min(kmax, m - 1), 0)
        # scalar power, as in the reference offset loop: NumPy's array
        # power differs from it in the last bit for some offsets
        w = np.zeros(-(-m // _TILE) * _TILE)
        w[:reach + 1] = [1.0] + [(1.0 + d * h / s) ** (-b)
                                 for d in range(1, reach + 1)]
        w[1:][np.maximum.accumulate(w[1:] < eps_cut)] = 0.0
        return _tile_sweep(absc, w)
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
    ti, si = np.nonzero(bound > out.min(axis=1)[:, None])
    # rows[w.size - _TILE + (t - u) * _TILE + a, _TILE - 1 - c] is the
    # weight between cell a of tile t and cell c of tile u
    rows = sliding_window_view(np.concatenate([w[:0:-1], w]), _TILE)
    flipped = tiles[:, ::-1]
    for lo in range(0, ti.size, _PAIR_BLOCK):
        t, u = ti[lo:lo + _PAIR_BLOCK], si[lo:lo + _PAIR_BLOCK]
        first = w.size - _TILE + (t - u) * _TILE
        pair_w = rows[first[:, None] + np.arange(_TILE)]
        np.maximum.at(out, t, (flipped[u][:, None, :] * pair_w).max(axis=2))
    return out.ravel()[:m]


def grand_maximal(f, dictionary, ladder=None, peetre=False, b=None,
                  pad_cells=None, eps_cut=DEFAULT_EPS_CUT):
    """max over dictionary kernels of the windowed convolution maxima.

    The plain variant uses the window |x - y| < s; the Peetre variant
    weights offsets by (1 + |y|/s)^{-b} down to eps_cut.  The max over
    kernels is taken before the window or sweep, once per scale.
    """
    ladder = ladder if ladder is not None else dictionary.scales
    if peetre and (b is None or b <= 0):
        raise PreconditionError("Peetre variant needs a positive exponent b")
    if pad_cells is None:
        pad_cells = int(np.ceil((4.0 if peetre else 2.0)
                                * max(ladder) / f.h))
    op = partial(_peetre_sweep, b=b, eps_cut=eps_cut) if peetre \
        else partial(_window_max, a=1.0)
    return _scale_max(f, list(dictionary), ladder, pad_cells, op)


# -- Hardy quasi-norms ------------------------------------------------------

def parse_space_tag(tag):
    """Parse "slice:PHI:q:t", "star:PHI", "muslog" or "l1"."""
    if tag == "l1":
        return ("l1",)
    if tag == "muslog":
        return ("muslog", orlicz.musielak_log())
    if tag.startswith("star:"):
        return ("star", orlicz.from_tag(tag.split(":", 1)[1]))
    if tag.startswith("slice:"):
        body, qs, ts = tag[len("slice:"):].rsplit(":", 2)
        return ("slice", orlicz.from_tag(body), float(qs), float(ts))
    raise ValueError(f"unknown space tag {tag!r}")


def hardy_quasinorm(f, space_tag, params):
    """Peetre maximal function composed with the tagged outer norm."""
    return hardy_quasinorms(f, [space_tag], params)[0]


def hardy_quasinorms(f, space_tags, params):
    """hardy_quasinorm for several tags, from one Peetre maximal function."""
    tags = [parse_space_tag(t) if isinstance(t, str) else t
            for t in space_tags]
    for tag in tags:
        if tag[0] == "slice":
            params.require_hardy(f.n, tag[1].p_minus, tag[2])
        elif tag[0] in ("star", "muslog"):
            if params.b <= 2 * f.n:
                raise PreconditionError(f"{tag[0]} tag requires b > 2n")
        elif tag[0] != "l1":
            raise ValueError(f"unknown space tag {tag!r}")
    m = peetre_maximal(f, params.dictionary.phi, params.b, params.ladder,
                       params.eps_cut)
    outer = {"slice": lambda t: slice_norm(m, SliceParams(t[3], t[2], t[1])),
             "star": lambda t: star_norm(m, t[1]),
             "muslog": lambda t: orlicz.musielak_norm(t[1], m),
             "l1": lambda t: m.lp_norm(1)}
    return [outer[tag[0]](tag) for tag in tags]


_FIVE = ("radial", "nontangential", "grand", "peetre", "grand_peetre")


def maximal_fields(f, params):
    """The five maximal functions of f on a shared padded grid."""
    pad = params.pad_cells(f.h)
    phi = params.dictionary.phi
    return {
        "radial": radial_maximal(f, phi, params.ladder, pad),
        "nontangential": nontangential_maximal(f, phi, params.a,
                                               params.ladder, pad),
        "grand": grand_maximal(f, params.dictionary, params.ladder,
                               pad_cells=pad),
        "peetre": peetre_maximal(f, phi, params.b, params.ladder,
                                 params.eps_cut, pad),
        "grand_peetre": grand_maximal(f, params.dictionary, params.ladder,
                                      peetre=True, b=params.b,
                                      pad_cells=pad, eps_cut=params.eps_cut),
    }


def pointwise_chain_ok(fields, a, b, rtol=1e-10):
    """Exact chain radial <= nontangential <= (1+a)^b * peetre."""
    r = fields["radial"].values
    nt = fields["nontangential"].values
    pe = fields["peetre"].values
    ok1 = np.all(r <= nt * (1 + rtol) + 1e-300)
    ok2 = np.all(nt <= (1 + a) ** b * pe * (1 + rtol) + 1e-300)
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
        fields = maximal_fields(f, params)
        chain = pointwise_chain_ok(fields, params.a, params.b)
        for t in t_values:
            sp = SliceParams(t, q, phi)
            norms = {k: slice_norm(v, sp) for k, v in fields.items()}
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
