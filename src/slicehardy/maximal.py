"""Local maximal functions, on which the Hardy-space quasi-norms are built.

Scale suprema run over a dyadic ladder inside (0, 1); for smooth bump
kernels the convolution varies by a bounded factor between consecutive
dyadic scales, which preserves the equivalence bands the reports fit.

The fields of a family are computed a stack of members at a time: the
members that share a grid shape are stacked along a leading batch axis,
up to _STACK_CELLS padded cells a stack, and each kernel is sampled and
transformed once per scale and stack, each window maximum and Peetre
tile sweep is one call per scale and stack.  Every step treats the
members apart, so a member's fields are bit for bit those it has alone.
The budget bounds the stack's transforms and sweep tables, which set the
run's peak RSS.
"""

from __future__ import annotations

import math
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
        require_positive(aperture=self.a, b=self.b)

    def pad_cells(self, h):
        return int(np.ceil(PAD_FACTOR * max(self.ladder) / h))

    @cached_property
    def _kept(self):
        return {}

    def peetre_fields(self, members):
        """The Peetre fields of members (phi, b, ladder and eps_cut, on the
        shared pad), bit for bit peetre_maximal's; see _fields."""
        return self._fields(members, "peetre", [self.dictionary.phi],
                            self.pad_cells, (partial(
                                _peetre_sweep, b=self.b,
                                eps_cut=self.eps_cut), True))

    def grand_fields(self, members):
        """The grand fields of members that cz_decompose reads: the max over
        the dictionary's kernels of the window maxima over |x - y| < s, on
        the pad 2 max(ladder) / h, each bit for bit the one its member has
        alone; see _fields."""
        return self._fields(
            members, "grand", self.dictionary,
            lambda h: int(np.ceil(2.0 * max(self.ladder) / h)),
            (partial(_window_max, a=1.0), True))

    def _fields(self, members, name, kernels, pad, op):
        """The op's field of each member, kept read-only by sample array (not
        identity) while these parameters live, the missing ones made in one
        _scale_max pass; each is placed on its member's own padded grid."""
        keys = [(name, f.h, f.values.shape, f.values.tobytes())
                for f in members]
        missing = {}
        for key, f in zip(keys, members):
            if key not in self._kept:
                missing.setdefault(key, f)
        if missing:
            fields = _scale_max(list(missing.values()), list(kernels),
                                self.ladder, pad, {name: op})
            for key, field in zip(missing, fields):
                field[name].values.flags.writeable = False
                self._kept[key] = field[name].values
        return [GridFunction(f.origin - pad(f.h) * f.h, f.h, self._kept[key],
                             check=False) for key, f in zip(keys, members)]


def require_hardy(b, n, p_minus, q):
    """The slice Hardy quasi-norm's hypothesis b > 2n/min(p_minus, q)."""
    bound = 2 * n / min(p_minus, q)
    if not b > bound:
        raise PreconditionError(f"hypothesis b > 2n/min(p_minus, q) "
                                f"violated: b={b} <= {bound}")


def require_hardy_amalgam(b, n):
    """The amalgam and Musielak Hardy quasi-norms' hypothesis b > 2n."""
    if not b > 2 * n:
        raise PreconditionError(f"hypothesis b > 2n violated: b={b} <= "
                                f"{2 * n}")


def require_grand_order(N, b):
    """The grand maximal comparison's hypothesis: N >= floor(b + 1)."""
    if not N >= math.floor(b + 1):
        raise PreconditionError(f"hypothesis N >= floor(b+1) violated: "
                                f"N={N} < {math.floor(b + 1)}")


#: padded cells per stack of _scale_max, five default members (3072 cells
#: each): the stack's spectra and sweep tables grow with it, and with them
#: the run's peak RSS
_STACK_CELLS = 1 << 14


def _scale_max(members, kernels, ladder, pad, ops, seeds=None):
    """For each member f, {name: max over scales s of op(c, s, h, n)} on
    f's grid padded by pad(h) cells, for each name: (op, over_kernels) of
    ops, c being |f * psi_s| of the first kernel, or with over_kernels the
    max of that over all kernels, and of seeds[name][i] for the i-th
    member if given (values below the result).  Members that share h and
    extents are stacked along a leading batch axis, at most _STACK_CELLS
    padded cells a stack (at least one member), and each kernel is
    convolved once per scale and stack, whatever the number of ops; the
    ops take the stack and treat its members apart.  Each op weights c by
    w >= 0 and rounding is monotone, so taking the max over kernels first
    changes no bit.  An op gets the running max as its `floor`, below
    which it need not look, and returns its max with it."""
    seeds, out = seeds or {}, [None] * len(members)
    for ix in _stacks(members, pad):
        h, n = members[ix[0]].h, members[ix[0]].n
        cells = int(pad(h))
        stack = np.pad(np.stack([members[i].values for i in ix]),
                       [(0, 0)] + [(cells, cells)] * n)
        acc = {name: np.stack([seeds[name][i] for i in ix]) if name in seeds
               else np.zeros(stack.shape) for name in ops}
        for s in ladder:
            first = np.abs(convolve(stack, h, kernels[0], s))
            grand = first.copy() if len(kernels) > 1 else first
            for kernel in kernels[1:]:
                np.maximum(grand, np.abs(convolve(stack, h, kernel, s)),
                           out=grand)
            for name, (op, over_kernels) in ops.items():
                c = grand if over_kernels else first
                acc[name] = op(c, s, h, n, floor=acc[name])
        for j, i in enumerate(ix):  # the origin GridFunction.pad gives
            origin = members[i].origin - cells * h
            out[i] = {name: GridFunction(origin, h, v[j], check=False)
                      for name, v in acc.items()}
    return out


def _stacks(members, pad):
    """Indices of the members, in order, grouped by (h, extents) and cut
    into stacks of at most _STACK_CELLS cells padded by pad(h), one
    member at least."""
    groups = {}
    for i, f in enumerate(members):
        groups.setdefault((f.h, f.extents), []).append(i)
    for (h, extents), ix in groups.items():
        cells = math.prod(e + 2 * pad(h) for e in extents)
        step = max(_STACK_CELLS // cells, 1)
        for lo in range(0, len(ix), step):
            yield ix[lo:lo + step]


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
    The sweep, in 1-D and 2-D, prunes exactly (see _peetre_sweep).  The
    default pad is MaximalParams.pad_cells's, PAD_FACTOR max(ladder) / h.
    """
    require_positive(b=b)
    if not 0 < eps_cut <= 1:
        raise PreconditionError(f"eps_cut must lie in (0, 1]: {eps_cut}")
    if pad_cells is None:
        pad_cells = int(np.ceil(PAD_FACTOR * max(ladder) / f.h))
    op = partial(_peetre_sweep, b=b, eps_cut=eps_cut)
    return _scale_max([f], [kernel], ladder, lambda h: pad_cells,
                      {"": (op, True)})[0][""]


#: cells per tile, and tile pairs per product block (of 512 KB), of the
#: row sweeps
_TILE, _PAIR_BLOCK = 32, 64


def _peetre_sweep(absc, s, h, n, b, eps_cut, floor=None):
    """max over offsets d of absc(x - d) (1 + |d| h / s)^{-b}, over the
    d of weight >= eps_cut (along a row, up to the first one under it),
    and of floor if given, bit for bit.  The offsets run over the last n
    axes of absc; leading axes are a batch of members.  A member is a
    stack of rows along its last axis (1-D is one row): for each row
    offset r = 0, 1, ... one _tile_sweep carries every row of the members
    still live to the rows r above and below in the same member, pruned
    against the least output taken at the two.  A member is done once
    (r, 0)'s weight times its max(absc) <= its min(out), as it would be
    alone.  A higher floor prunes more."""
    m = absc.shape[-1]
    nr = math.prod(absc.shape[absc.ndim - n:-1])
    stack = absc.reshape(-1, nr, m)
    out = stack.copy()
    if floor is not None:
        np.maximum(out, floor.reshape(out.shape), out=out)
    top = stack.max(axis=(1, 2))
    for r in range(nr):
        w = _peetre_weights(m, s, h, b, eps_cut, r)
        live = np.flatnonzero(w[0] * top > out.min(axis=(1, 2)))
        if not live.size:
            break
        # rows k + 2r and k of a member's padded output are row k's targets
        pad = np.full((live.size, nr + 2 * r, m), np.inf)
        pad[:, r:r + nr] = out[live]
        got = _tile_sweep(stack[live].reshape(-1, m), w, np.minimum(
            pad[:, 2 * r:], pad[:, :nr]).reshape(-1, m)).reshape(-1, nr, m)
        np.maximum(pad[:, 2 * r:], got, out=pad[:, 2 * r:])
        np.maximum(pad[:, :nr], got, out=pad[:, :nr])
        out[live] = pad[:, r:r + nr]
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


_FIVE = ("radial", "nontangential", "grand", "peetre", "grand_peetre")


def maximal_fields(members, params):
    """The five maximal functions of each member on one padded grid: the
    radial and nontangential maxima of |f * phi_s| over the windows of
    aperture 0 and a, the grand one, and the Peetre and grand Peetre
    sweeps, a dict per member.  The Peetre fields are bit for bit
    peetre_maximal's at that pad, and every field is the one the member
    has alone.

    Each dictionary kernel is convolved once per scale and stack of
    members (see _scale_max): |f * phi_s|, phi being the first kernel,
    feeds the radial and nontangential fields, its max with the other
    kernels the two grand ones.  The Peetre fields are
    params.peetre_fields(members).  The grand one dominates its member's
    at every scale (rounding is monotone), so the grand sweeps start from
    it.
    """
    peetre = params.peetre_fields(members)
    fields = _scale_max(
        members, list(params.dictionary), params.ladder, params.pad_cells,
        {"radial": (partial(_window_max, a=0.0), False),
         "nontangential": (partial(_window_max, a=params.a), False),
         "grand": (partial(_window_max, a=1.0), True),
         "grand_peetre": (partial(_peetre_sweep, b=params.b,
                                  eps_cut=params.eps_cut), True)},
        {"grand_peetre": [p.values for p in peetre]})
    return [{name: p if name == "peetre" else five[name] for name in _FIVE}
            for five, p in zip(fields, peetre)]


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
    require_grand_order(params.N, params.b)
    report = Report(["index", "t"] + list(_FIVE) + ["chain_ok"])
    require_hardy(params.b, family[0].n if family else 1, phi.p_minus, q)
    ratios = {pair: [] for pair in combinations(_FIVE, 2)}
    nonzero = [(i, f) for i, f in enumerate(family) if f.max_abs() != 0]
    fields = maximal_fields([f for _, f in nonzero], params)
    for (i, _), five in zip(nonzero, fields):
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
