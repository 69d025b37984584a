"""Grid refinement in 1-D: exp(-x^2) on [-8, 8) at h = 2^-6 .. 2^-10.

Between successive halvings of h the slice norm moves by amounts that
halve each time (first order in h: a window of t/h = k cells keeps the
2k + 1 cells whose centres lie strictly inside the ball, a measure of
2t - h), while the Luxemburg norm of the same samples does not move.
"""

import numpy as np
import pytest

from slicehardy import orlicz
from slicehardy.grid import GridFunction
from slicehardy.slice_norms import SliceParams, slice_norm

EXPONENTS = range(6, 11)


def _gaussians():
    for k in EXPONENTS:
        h = 2.0 ** -k
        yield GridFunction.from_callable(lambda x: np.exp(-x * x), (-8.0,),
                                         h, (int(16 / h),))


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
def test_slice_norm_converges_at_first_order(tag, t):
    """log2 |D_k / D_k+1| >= 0.9, D_k the change from h = 2^-k to 2^-k-1
    (1.001 to 1.013 on these grids)."""
    p = SliceParams(t, 1.0, orlicz.from_tag(tag))
    change = np.diff([slice_norm(f, p) for f in _gaussians()])
    orders = np.log2(np.abs(change[:-1] / change[1:]))
    assert orders.min() >= 0.9, orders


@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
def test_luxemburg_norm_does_not_move_with_the_grid(tag):
    """The Luxemburg norms on the five grids agree to 1e-15 relative (the
    midpoint rule is spectrally accurate on a Gaussian)."""
    phi = orlicz.from_tag(tag)
    norms = np.array([orlicz.luxemburg_norm(phi, f) for f in _gaussians()])
    assert np.ptp(norms) <= 1e-15 * norms.max(), norms
