"""Local maximal functions and the Hardy-space quasi-norms built on them.

Scale suprema run over a dyadic ladder inside (0, 1); for smooth bump
kernels the convolution varies by a bounded factor between consecutive
dyadic scales, which preserves the equivalence bands the reports fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.ndimage import maximum_filter

from . import orlicz
from .errors import PreconditionError
from .grid import GridFunction
from .kernels import MollifierDictionary, build_dictionary, convolve, \
    scale_ladder
from .reports import Report
from .slice_norms import SliceParams, disk_mask, slice_norm, star_norm

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


def _padded_convolutions(f, kernel, ladder, pad_cells):
    g = f.pad(pad_cells)
    return g, [convolve(g, kernel, s).values for s in ladder]


def radial_maximal(f, kernel, ladder, pad_cells=None):
    """max over ladder scales s of |f * psi_s| at each grid point."""
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) / f.h))
    g, convs = _padded_convolutions(f, kernel, ladder, pad_cells)
    out = np.zeros(g.extents)
    for c in convs:
        np.maximum(out, np.abs(c), out=out)
    return GridFunction(g.origin, g.h, out, check=False)


def _window_max(values, radius, h, n):
    """max over |y - x| < radius, per grid point."""
    k = int(np.ceil(radius / h - 1e-12)) - 1
    if k <= 0:
        return values.copy()
    footprint = np.ones(2 * k + 1, dtype=bool) if n == 1 \
        else disk_mask(radius, h)
    return maximum_filter(values, footprint=footprint, mode="constant")


def _shift_slices(d, m):
    """Slices on an axis of m cells such that target[i] gets source[i + d]."""
    return slice(max(-d, 0), m - max(d, 0)), slice(max(d, 0), m - max(-d, 0))


def nontangential_maximal(f, kernel, a, ladder, pad_cells=None):
    """max over s and offsets |y - x| < a*s of |f * psi_s(y)|."""
    if a <= 0:
        raise PreconditionError("aperture must be positive")
    if pad_cells is None:
        pad_cells = int(np.ceil(max(ladder) * (1 + a) / f.h))
    g, convs = _padded_convolutions(f, kernel, ladder, pad_cells)
    out = np.zeros(g.extents)
    for s, c in zip(ladder, convs):
        np.maximum(out, _window_max(np.abs(c), a * s, g.h, g.n), out=out)
    return GridFunction(g.origin, g.h, out, check=False)


def peetre_reach(b, s_max, eps_cut):
    """Offset radius beyond which the Peetre weight falls under eps_cut."""
    return s_max * (eps_cut ** (-1.0 / b) - 1.0)


def peetre_maximal(f, kernel, b, ladder, eps_cut=DEFAULT_EPS_CUT,
                   pad_cells=None):
    """Peetre-type maximal function with weight (1 + |y|/s)^{-b}.

    Offsets whose weight is below eps_cut are discarded; the discarded
    terms are dominated by eps_cut times the convolution sup.
    """
    if b <= 0:
        raise PreconditionError("Peetre exponent must be positive")
    if pad_cells is None:
        pad_cells = int(np.ceil(4.0 * max(ladder) / f.h))
    g, convs = _padded_convolutions(f, kernel, ladder, pad_cells)
    out = np.zeros(g.extents)
    for s, c in zip(ladder, convs):
        out = np.maximum(out, _peetre_sweep(np.abs(c), s, b, g.h, g.n,
                                            eps_cut))
    return GridFunction(g.origin, g.h, out, check=False)


def _peetre_sweep(absc, s, b, h, n, eps_cut):
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    out = absc.copy()
    if n == 1:
        m = absc.shape[0]
        for d in range(1, kmax + 1):
            w = (1.0 + d * h / s) ** (-b)
            if w < eps_cut or d >= m:
                break
            np.maximum(out[d:], absc[:-d] * w, out=out[d:])
            np.maximum(out[:-d], absc[d:] * w, out=out[:-d])
        return out
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


def grand_maximal(f, dictionary, ladder=None, peetre=False, b=None,
                  pad_cells=None):
    """max over dictionary kernels of the windowed convolution maxima.

    The plain variant uses the window |x - y| < s; the Peetre variant
    weights all offsets by (1 + |y|/s)^{-b}.
    """
    ladder = ladder if ladder is not None else dictionary.scales
    if peetre and b is None:
        raise PreconditionError("Peetre variant needs the exponent b")
    if pad_cells is None:
        pad_cells = int(np.ceil((4.0 if peetre else 2.0)
                                * max(ladder) / f.h))
    acc = None
    for kernel in dictionary:
        if peetre:
            field_k = peetre_maximal(f, kernel, b, ladder,
                                     pad_cells=pad_cells)
        else:
            field_k = nontangential_maximal(f, kernel, 1.0, ladder,
                                            pad_cells=pad_cells)
        acc = field_k if acc is None else \
            GridFunction(acc.origin, acc.h,
                         np.maximum(acc.values, field_k.values), check=False)
    return acc


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
    tag = parse_space_tag(space_tag) if isinstance(space_tag, str) \
        else space_tag
    kind = tag[0]
    if kind == "slice":
        params.require_hardy(f.n, tag[1].p_minus, tag[2])
    elif kind in ("star", "muslog"):
        if params.b <= 2 * f.n:
            raise PreconditionError(f"{kind} tag requires b > 2n")
    elif kind != "l1":
        raise ValueError(f"unknown space tag {tag!r}")
    m = peetre_maximal(f, params.dictionary.phi, params.b, params.ladder,
                       params.eps_cut)
    if kind == "slice":
        return slice_norm(m, SliceParams(tag[3], tag[2], tag[1]))
    if kind == "star":
        return star_norm(m, tag[1])
    if kind == "muslog":
        return orlicz.musielak_norm(tag[1], m)
    return m.lp_norm(1)


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
                                      pad_cells=pad),
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
