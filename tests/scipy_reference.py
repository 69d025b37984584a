"""The SciPy routines that src/ no longer calls, as the references its
NumPy replacements are checked against.

Each function is the code the package ran before, on SciPy: the FFT
convolution of kernels.convolve_same, the ball-footprint window max of
maximal._window_max, the distance transform of atomic.whitney_decompose
and the direct convolution with the ball mask that the power-Phi slice
norms and the 2-D cube-indicator counts took.  slice_norms.ball_reduce
now gives the window maxima and the ball sums, in 1-D and 2-D.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.fft import irfftn, next_fast_len, rfftn

from slicehardy.slice_norms import ball_mask


def convolve_same(a, k):
    """Centered a.shape part of the full convolution, on scipy.fft."""
    full = [p + q - 1 for p, q in zip(a.shape, k.shape)]
    fast = [next_fast_len(m, True) for m in full]
    out = irfftn(rfftn(a, fast) * rfftn(k, fast), fast)
    return out[tuple(slice((m - p) // 2, (m - p) // 2 + p)
                     for m, p in zip(full, a.shape))].copy()


def window_max(values, s, h, n, a):
    """max over |y - x| < a s per grid point, zero outside the box."""
    k = int(np.ceil(a * s / h - 1e-12)) - 1
    if k <= 0:
        return values.copy()
    return ndimage.maximum_filter(values, footprint=ball_mask(a * s, h, n),
                                  mode="constant")


def edt(mask):
    """Distance, in cells, from each cell to the nearest False cell."""
    return ndimage.distance_transform_edt(mask)


def ball_sums(a, mask):
    """Full direct convolution of a (1-D or 2-D) with the ball mask, in a's
    dtype, the sparser operand as the weights."""
    b = mask.astype(a.dtype)
    if np.count_nonzero(a) < np.count_nonzero(b):
        a, b = b, a
    pad = [(m // 2, m - 1 - m // 2) for m in b.shape]
    return ndimage.convolve(np.pad(a, pad), b, mode="constant")
