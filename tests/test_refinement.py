"""Grid refinement: exp(-x^2) on [-8, 8) at h = 2^-6 .. 2^-10 in 1-D,
exp(-|x|^2) on [-3, 3)^2 at h = 2^-3 .. 2^-6 in 2-D.

Between successive halvings of h the slice norm moves by amounts that
halve each time, or faster (first order in h: in 1-D a window of t/h = k
cells keeps the 2k + 1 cells whose centres lie strictly inside the ball,
a measure of 2t - h), while in 1-D the Luxemburg norm of the same
samples does not move.
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


def _gaussians_2d(exponents):
    for k in exponents:
        h = 2.0 ** -k
        yield GridFunction.from_callable(
            lambda x, y: np.exp(-x * x - y * y), (-3.0, -3.0), h,
            (int(6 / h),) * 2)


def _orders(norms):
    """log2 |D_k / D_k+1|, D_k the change between successive norms."""
    change = np.diff(norms)
    return np.log2(np.abs(change[:-1] / change[1:]))


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
def test_slice_norm_converges_at_first_order(tag, t):
    """log2 |D_k / D_k+1| >= 0.9, D_k the change from h = 2^-k to 2^-k-1
    (1.001 to 1.013 on these grids)."""
    p = SliceParams(t, 1.0, orlicz.from_tag(tag))
    orders = _orders([slice_norm(f, p) for f in _gaussians()])
    assert orders.min() >= 0.9, orders


@pytest.mark.parametrize("tag,t,exponents", [
    ("power:2", 0.5, range(3, 7)),
    ("power:2", 1.0, range(3, 7)),
    ("log_damped", 0.5, range(3, 6)),
])
def test_2d_slice_norm_converges_at_first_order(tag, t, exponents):
    """The same orders in 2-D, q = 1, >= 0.9 (1.32 to 2.25 on these
    grids)."""
    p = SliceParams(t, 1.0, orlicz.from_tag(tag))
    orders = _orders([slice_norm(f, p) for f in _gaussians_2d(exponents)])
    assert orders.min() >= 0.9, orders


@pytest.mark.parametrize("tag", ["power:2", "log_damped"])
def test_luxemburg_norm_does_not_move_with_the_grid(tag):
    """The Luxemburg norms on the five grids agree to 1e-15 relative (the
    midpoint rule is spectrally accurate on a Gaussian)."""
    phi = orlicz.from_tag(tag)
    norms = np.array([orlicz.luxemburg_norm(phi, f) for f in _gaussians()])
    assert np.ptp(norms) <= 1e-15 * norms.max(), norms
