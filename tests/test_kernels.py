"""Mollifier dictionaries, normalization and grid convolution."""

import numpy as np
import pytest

from slicehardy.errors import ConstructionError, ResolutionError
from slicehardy.grid import GridFunction
from slicehardy.kernels import Kernel, build_dictionary, bump_profile, \
    convolve, derivative_sup_bound, scale_ladder


def test_bump_supported_in_unit_ball():
    x = np.array([[-1.5], [-1.0], [0.0], [0.9999], [2.0]])
    vals = bump_profile(x)
    assert vals[0] == vals[1] == vals[4] == 0.0
    assert vals[2] == pytest.approx(np.exp(-1.0))
    assert vals[3] >= 0.0


def test_scale_ladder_dyadic():
    assert scale_ladder(3) == [1.0, 0.5, 0.25, 0.125]


def test_normalization_bound_below_one(dictionary_1d):
    for name, bound in dictionary_1d.fd_check.items():
        assert 0 < bound <= 1.0, name


def test_dictionary_deterministic():
    d1 = build_dictionary(N=2, M=2, h=2.0 ** -6, count=2, n=1)
    d2 = build_dictionary(N=2, M=2, h=2.0 ** -6, count=2, n=1)
    for k1, k2 in zip(d1, d2):
        assert k1.scale == k2.scale


def test_distinguished_kernel_has_positive_mass(dictionary_1d):
    assert dictionary_1d.phi.mass() > 0


def test_two_dimensional_dictionary_never_calls_mass(monkeypatch):
    """phi's mass is checked on the samples the normalization draws, not
    on a fresh sampling at Kernel.mass's fine default spacing."""
    def no_mass(self, h=1e-3):
        raise AssertionError("Kernel.mass called")

    monkeypatch.setattr(Kernel, "mass", no_mass)
    d = build_dictionary(N=2, M=2, h=2.0 ** -4, count=2, n=2)
    assert d.phi is d.kernels[0]


def test_too_many_kernels_requested():
    with pytest.raises(ConstructionError):
        build_dictionary(N=1, M=1, h=2.0 ** -4, count=40, n=1)


def test_sample_is_centered_and_scaled(dictionary_1d):
    k = dictionary_1d.phi
    h = 2.0 ** -6
    vals = k.sample(0.5, h)
    assert vals.shape[0] % 2 == 1
    assert vals.argmax() == vals.shape[0] // 2
    # s^{-n} scaling: halving the scale doubles the peak
    peak1 = k.sample(0.5, h).max()
    peak2 = k.sample(0.25, h).max()
    assert peak2 == pytest.approx(2 * peak1, rel=1e-12)


def test_sample_rejects_unresolvable_scale(dictionary_1d):
    with pytest.raises(ResolutionError):
        dictionary_1d.phi.sample(2.0 ** -8, 2.0 ** -6)


def test_convolution_reproduces_constants(dictionary_1d):
    """A kernel of mass m maps the constant 1 to m away from the edges."""
    k = dictionary_1d.phi
    h = 2.0 ** -7
    f = GridFunction.constant(1.0, (0.0,), h, (int(4 / h),))
    out = convolve(f, k, 0.5)
    mid = out.values[out.extents[0] // 2]
    assert mid == pytest.approx(k.mass(h), rel=1e-3)


def test_convolution_resolution_guard(dictionary_1d):
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -4, (16,))
    with pytest.raises(ResolutionError):
        convolve(f, dictionary_1d.phi, 2.0 ** -5)


def test_derivative_bound_grows_with_order():
    k = Kernel(bump_profile, 1)
    _, vals = k.sample_unit(1.0 / 256)
    b1 = derivative_sup_bound(vals, 1.0 / 256, 1, 1)
    b3 = derivative_sup_bound(vals, 1.0 / 256, 3, 1)
    assert b3 > b1 > 0


def test_two_dimensional_dictionary():
    d = build_dictionary(N=2, M=1, h=2.0 ** -5, count=3, n=2)
    assert len(d) == 3
    f = GridFunction.constant(1.0, (0.0, 0.0), 2.0 ** -5, (64, 64))
    out = convolve(f, d.phi, 0.5)
    assert out.values[32, 32] == pytest.approx(d.phi.mass(2.0 ** -2),
                                               rel=5e-2)


def test_ladder_must_resolve():
    with pytest.raises(ResolutionError):
        build_dictionary(N=1, M=6, h=2.0 ** -6, count=1, n=1)
