"""Mollifier dictionaries, normalization and grid convolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy_reference
from slicehardy.errors import ConstructionError, PreconditionError, \
    ResolutionError
from slicehardy.grid import GridFunction
from slicehardy.kernels import Kernel, _next_fast_len, build_dictionary, \
    bump_profile, convolve, convolve_same, derivative_sup_bound, scale_ladder


def test_bump_supported_in_unit_ball():
    x = np.array([[-1.5], [-1.0], [0.0], [0.9999], [2.0]])
    vals = bump_profile(x)
    assert vals[0] == vals[1] == vals[4] == 0.0
    assert vals[2] == pytest.approx(np.exp(-1.0))
    assert vals[3] >= 0.0


def test_scale_ladder_dyadic():
    assert scale_ladder(3, 2.0 ** -4) == [1.0, 0.5, 0.25, 0.125]


def test_normalization_bound_below_one():
    """Each kernel's weighted derivative bound, measured at the build's
    finite-difference spacing max(h, 1/256), is 0.999: in (0, 1]."""
    for n, h in [(1, 2.0 ** -7), (2, 2.0 ** -4)]:
        fd_h = max(h, 1.0 / 256)
        for kernel in build_dictionary(N=3, M=2, h=h, count=3, n=n):
            _, vals = kernel.sample_unit(fd_h)
            bound = derivative_sup_bound(vals, fd_h, 3, n)
            assert 0 < bound <= 1.0, (n, kernel.name)
            assert bound == pytest.approx(0.999, rel=1e-12), (n, kernel.name)


def test_dictionary_deterministic():
    d1 = build_dictionary(N=2, M=2, h=2.0 ** -6, count=2, n=1)
    d2 = build_dictionary(N=2, M=2, h=2.0 ** -6, count=2, n=1)
    for k1, k2 in zip(d1, d2):
        assert k1.scale == k2.scale


def _mass(kernel, h=1e-3):
    """Quadrature mass of the kernel on its unit samples at spacing h."""
    _, vals = kernel.sample_unit(h)
    return float(vals.sum() * h ** kernel.n)


def test_distinguished_kernel_has_positive_mass(dictionary_1d):
    assert _mass(dictionary_1d.phi) > 0


def test_two_dimensional_dictionary_never_calls_mass(monkeypatch):
    """phi's mass is checked on the samples the normalization draws, not
    on a fresh sampling at a fine spacing: every kernel is sampled once,
    at the finite-difference spacing."""
    spacings = []
    original = Kernel.sample_unit

    def recorded(self, h):
        spacings.append(h)
        return original(self, h)

    monkeypatch.setattr(Kernel, "sample_unit", recorded)
    d = build_dictionary(N=2, M=2, h=2.0 ** -4, count=2, n=2)
    assert d.phi is d.kernels[0]
    assert spacings == [2.0 ** -4] * 2


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


@pytest.mark.parametrize("n", [1, 2])
def test_sample_is_the_profile_at_the_offsets(n):
    """Each sample against the kernel evaluated point by point at its
    offset, bit for bit, axis 0 first; the 2-D dictionary includes a
    kernel odd in x2, so swapped axes fail."""
    h, s = 2.0 ** -6, 0.25
    offs = np.arange(-15, 16) * h
    grid = np.meshgrid(*[offs] * n, indexing="ij")
    pts = np.stack([g.ravel() / s for g in grid], axis=-1)
    for k in build_dictionary(N=1, M=1, h=h, count=4 + n, n=n):
        expected = np.array([k(pt[None, :])[0] for pt in pts])
        assert np.array_equal(k.sample(s, h).ravel(), expected / s ** n)


def test_sample_rejects_unresolvable_scale(dictionary_1d):
    with pytest.raises(ResolutionError):
        dictionary_1d.phi.sample(2.0 ** -8, 2.0 ** -6)


def test_convolution_reproduces_constants(dictionary_1d):
    """A kernel of mass m maps the constant 1 to m away from the edges."""
    k = dictionary_1d.phi
    h = 2.0 ** -7
    f = GridFunction.constant(1.0, (0.0,), h, (int(4 / h),))
    out = convolve(f.values, h, k, 0.5)
    mid = out[out.shape[0] // 2]
    assert mid == pytest.approx(_mass(k, h), rel=1e-3)


def test_convolution_resolution_guard(dictionary_1d):
    f = GridFunction.constant(1.0, (0.0,), 2.0 ** -4, (16,))
    with pytest.raises(ResolutionError):
        convolve(f.values, f.h, dictionary_1d.phi, 2.0 ** -5)


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
    out = convolve(f.values, f.h, d.phi, 0.5)
    assert out[32, 32] == pytest.approx(_mass(d.phi, 2.0 ** -2),
                                               rel=5e-2)


def test_ladder_must_resolve():
    with pytest.raises(ResolutionError):
        build_dictionary(N=1, M=6, h=2.0 ** -6, count=1, n=1)


@pytest.mark.parametrize("shape, kshape", [
    ((3072,), (301,)), ((200,), (7,)), ((200,), (8,)), ((40,), (97,)),
    ((64, 48), (15, 15)), ((33, 50), (8, 6)), ((20, 12), (31, 31)),
])
def test_convolve_same_is_fftconvolve_same_bit_for_bit(shape, kshape, rng):
    """The helper against the SciPy routine it replaces, with odd and even
    kernels and kernels longer than the signal."""
    from scipy.signal import fftconvolve

    a = rng.lognormal(size=shape) * (rng.random(shape) < 0.8)
    k = rng.normal(size=kshape)
    got = convolve_same(a, k)
    assert got.shape == a.shape and got.flags.owndata
    assert np.array_equal(got, fftconvolve(a, k, mode="same"))


def test_next_fast_len_is_scipys_real_transform_length():
    """The 5-smooth length against scipy.fft.next_fast_len(n, real=True)
    for every n up to 10,000."""
    from scipy.fft import next_fast_len

    lengths = range(1, 10_001)
    assert [_next_fast_len(n) for n in lengths] \
        == [next_fast_len(n, True) for n in lengths]
    assert [_next_fast_len(n) for n in (1279, 3327, 4097)] \
        == [1280, 3375, 4320]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_convolve_same_is_the_scipy_fft_reference_bit_for_bit(n, seed,
                                                              data):
    """numpy.fft at the same lengths, with the inverse scaled once at the
    end, against the scipy.fft code it replaces: the same bits in 1-D
    (100-5000 points, kernels of 5-511 cells) and in 2-D."""
    if n == 1:
        shape = (data.draw(st.integers(100, 5000)),)
        kshape = (data.draw(st.integers(2, 255)) * 2 + 1,)
    else:
        shape = tuple(data.draw(st.lists(st.integers(1, 150), min_size=2,
                                         max_size=2)))
        kshape = (data.draw(st.integers(0, 31)) * 2 + 1,) * 2
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    k = rng.normal(size=kshape)
    assert np.array_equal(convolve_same(a, k),
                          scipy_reference.convolve_same(a, k))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), members=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_convolve_same_on_a_stack_is_each_member_alone(n, members, seed,
                                                      data):
    """A stack of members along a leading axis, the kernel's axes last,
    convolves to the stack of the members' own convolutions, bit for bit,
    in 1-D and 2-D, with kernels longer than the members."""
    side = st.integers(1, 300 if n == 1 else 40)
    shape = (members,) + tuple(data.draw(side) for _ in range(n))
    kshape = tuple(data.draw(st.integers(1, 60 if n == 1 else 15))
                   for _ in range(n))
    rng = np.random.default_rng(seed)
    a, k = rng.normal(size=shape), rng.normal(size=kshape)
    got = convolve_same(a, k)
    assert got.shape == a.shape
    assert np.array_equal(got, np.stack([convolve_same(x, k) for x in a]))


def test_build_dictionary_rejects_grand_order_below_one():
    with pytest.raises(PreconditionError, match="grand order"):
        build_dictionary(0, 3, 2.0 ** -8, 3)


def test_build_dictionary_rejects_a_negative_ladder_depth_up_front(
        monkeypatch):
    """M = -1 gives no scale: build_dictionary raises the ladder guard's
    named error before it samples a kernel or makes a dictionary, where
    an empty ladder would fail later, in a maximal function's max()."""
    from slicehardy import kernels

    made = []
    monkeypatch.setattr(Kernel, "sample_unit",
                        lambda self, h: made.append("kernel"))
    monkeypatch.setattr(kernels, "MollifierDictionary",
                        lambda **kw: made.append("dictionary"))
    with pytest.raises(PreconditionError, match="ladder depth M must be "
                       "nonnegative: -1"):
        build_dictionary(3, -1, 2.0 ** -8, 3)
    assert made == []


def test_dictionary_phi_is_its_first_kernel(dictionary_1d):
    from slicehardy.kernels import MollifierDictionary

    rest = MollifierDictionary(order=3, kernels=dictionary_1d.kernels[1:],
                               scales=dictionary_1d.scales)
    assert rest.phi is dictionary_1d.kernels[1]
    with pytest.raises(PreconditionError, match="at least one kernel"):
        MollifierDictionary(order=3, kernels=[], scales=dictionary_1d.scales)
