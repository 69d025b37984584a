"""Direct references for the maximal functions.

`peetre_sweep_1d` and `peetre_sweep_2d` are the offset loops that the
tile-pruned Peetre sweep replaced.  In 1-D the loop takes the max over
every offset d = 1, 2, ... until the weight falls under eps_cut or d
reaches the array length; in 2-D over every offset of the (2k+1)^2
square, k the reach in cells, whose weight is at least eps_cut.
`grand_per_kernel` is the grand maximal function as the max over kernels
of each kernel's own maximal function.
"""

import numpy as np

from slicehardy.grid import GridFunction
from slicehardy.maximal import nontangential_maximal, peetre_maximal, \
    peetre_reach


def peetre_sweep_1d(absc, s, b, h, eps_cut):
    kmax = int(np.floor(peetre_reach(b, s, eps_cut) / h))
    out = absc.copy()
    m = absc.shape[0]
    for d in range(1, kmax + 1):
        w = (1.0 + d * h / s) ** (-b)
        if w < eps_cut or d >= m:
            break
        np.maximum(out[d:], absc[:-d] * w, out=out[d:])
        np.maximum(out[:-d], absc[d:] * w, out=out[:-d])
    return out


def _shift_slices(d, m):
    """Slices on an axis of m cells such that target[i] gets source[i + d]."""
    return slice(max(-d, 0), m - max(d, 0)), slice(max(d, 0), m - max(-d, 0))


def peetre_sweep_2d(absc, s, b, h, eps_cut):
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


def grand_per_kernel(f, dictionary, ladder, pad_cells, peetre=False,
                     b=None, eps_cut=None):
    """max over kernels of peetre_maximal or nontangential_maximal."""
    acc = None
    for kernel in dictionary:
        if peetre:
            field_k = peetre_maximal(f, kernel, b, ladder, eps_cut, pad_cells)
        else:
            field_k = nontangential_maximal(f, kernel, 1.0, ladder,
                                            pad_cells=pad_cells)
        acc = field_k if acc is None else \
            GridFunction(acc.origin, acc.h,
                         np.maximum(acc.values, field_k.values), check=False)
    return acc
