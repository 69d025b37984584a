"""Local maximal functions: chains, collapses, quasi-norm plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import peetre_reference
from slicehardy import orlicz
from slicehardy.errors import PreconditionError
from slicehardy.grid import GridFunction
from slicehardy.kernels import build_dictionary, convolve, scale_ladder
from slicehardy.maximal import MaximalParams, _peetre_sweep, \
    grand_maximal, hardy_quasinorm, maximal_fields, nontangential_maximal, \
    parse_space_tag, peetre_maximal, peetre_reach, pointwise_chain_ok, \
    radial_maximal
from slicehardy.slice_norms import SliceParams, slice_norm


@pytest.fixture
def bump(dictionary_1d):
    h = dictionary_1d.h
    return GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.5) ** 2), (0.0,), h, (int(1 / h),))


def test_radial_spike_matches_enumeration(dictionary_1d):
    """A single-cell spike convolves to lam * h * psi_s(x - x0)."""
    h = dictionary_1d.h
    vals = np.zeros(64)
    vals[20] = 3.0
    f = GridFunction((0.0,), h, vals)
    ladder = [0.5, 0.25]
    m = radial_maximal(f, dictionary_1d.phi, ladder)
    # brute force: for each output point take the max over scales
    expected = np.zeros(m.extents)
    x0 = f.axis_centers(0)[20]
    xs = m.axis_centers(0)
    for s in ladder:
        kern = dictionary_1d.phi((xs - x0)[:, None] / s) / s
        expected = np.maximum(expected, np.abs(3.0 * h * kern))
    # atol: fft convolution leaves ~1e-16 * peak roundoff in the far field
    assert np.allclose(m.values, expected, rtol=1e-10,
                       atol=expected.max() * 1e-12)


def test_maximal_outputs_nonnegative(bump, maximal_params):
    fields = maximal_fields(bump, maximal_params)
    for name, g in fields.items():
        assert np.all(g.values >= 0), name


def test_pointwise_chain(bump, maximal_params):
    fields = maximal_fields(bump, maximal_params)
    assert pointwise_chain_ok(fields, maximal_params.a, maximal_params.b)


def test_nontangential_dominates_radial(bump, dictionary_1d):
    ladder = [0.5, 0.25]
    r = radial_maximal(bump, dictionary_1d.phi, ladder, pad_cells=200)
    nt = nontangential_maximal(bump, dictionary_1d.phi, 1.0, ladder,
                               pad_cells=200)
    assert np.all(nt.values >= r.values - 1e-300)


def test_grand_with_single_kernel_collapses(bump, dictionary_1d):
    from slicehardy.kernels import MollifierDictionary

    single = MollifierDictionary(order=dictionary_1d.order,
                                 kernels=[dictionary_1d.phi],
                                 phi=dictionary_1d.phi,
                                 scales=dictionary_1d.scales,
                                 h=dictionary_1d.h)
    g = grand_maximal(bump, single, pad_cells=100)
    nt = nontangential_maximal(bump, dictionary_1d.phi,
                               1.0, dictionary_1d.scales, pad_cells=100)
    assert np.array_equal(g.values, nt.values)


def test_grand_monotone_in_dictionary(bump, dictionary_1d):
    from slicehardy.kernels import MollifierDictionary

    small = MollifierDictionary(order=dictionary_1d.order,
                                kernels=dictionary_1d.kernels[:1],
                                phi=dictionary_1d.phi,
                                scales=dictionary_1d.scales,
                                h=dictionary_1d.h)
    g_small = grand_maximal(bump, small, pad_cells=100)
    g_full = grand_maximal(bump, dictionary_1d, pad_cells=100)
    assert np.all(g_full.values >= g_small.values - 1e-300)


def test_peetre_needs_positive_exponent(bump, dictionary_1d):
    with pytest.raises(PreconditionError):
        peetre_maximal(bump, dictionary_1d.phi, -1.0, [0.5])


def test_peetre_two_dimensional_matches_enumeration():
    """Peetre weights reach past the padded box: offsets longer than an
    axis must be skipped, not shifted with a negative slice stop."""
    h = 2.0 ** -3
    d = build_dictionary(N=2, M=1, h=h, count=1, n=2)
    vals = np.zeros((4, 5))
    vals[1, 2] = 2.0
    vals[3, 0] = -1.0
    f = GridFunction((0.0, 0.0), h, vals)
    b, s, eps = 3.0, 0.5, 1e-6
    assert peetre_reach(b, s, eps) / h > 4 + 2 * 2
    m = peetre_maximal(f, d.phi, b, [s], eps, pad_cells=2)
    absc = np.abs(convolve(f.pad(2), d.phi, s).values)
    ix, iy = np.indices(absc.shape)
    expected = np.zeros_like(absc)
    for x, y in zip(ix.ravel(), iy.ravel()):
        w = (1.0 + np.hypot(ix - x, iy - y) * h / s) ** (-b)
        expected[x, y] = (absc * np.where(w >= eps, w, 0.0)).max()
    assert m.extents == absc.shape
    assert np.allclose(m.values, expected, rtol=1e-12, atol=0.0)


@st.composite
def sweep_fields(draw):
    """|f * phi_s|-like inputs: noise, ties, plateaus, zeros, spikes and
    ramps, on up to 13 tiles (lengths below a tile and off multiples)."""
    m = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(
        ["noise", "ties", "plateau", "zeros", "spikes", "ramp"]))
    if kind == "noise":
        return draw(arrays(float, m, elements=st.floats(0.0, 1e6)))
    if kind == "ties":
        return draw(arrays(float, m, elements=st.sampled_from([0.0, 1.0,
                                                               2.5])))
    vals = np.zeros(m)
    if kind == "plateau":
        lo = draw(st.integers(0, m - 1))
        hi = draw(st.integers(lo + 1, m))
        vals[:] = draw(st.floats(0.0, 1.0))
        vals[lo:hi] = draw(st.floats(0.0, 10.0))
    elif kind == "spikes":
        for i in draw(st.lists(st.integers(0, m - 1), max_size=5)):
            vals[i] = draw(st.floats(0.0, 1e3))
    elif kind == "ramp":
        vals = np.linspace(0.0, draw(st.floats(0.0, 1e3)), m)
        vals = vals[::-1].copy() if draw(st.booleans()) else vals
    return vals


@settings(max_examples=300, deadline=None)
@given(absc=sweep_fields(),
       s=st.sampled_from([1.0, 0.5, 0.125, 2.0 ** -5]),
       b=st.floats(0.5, 40.0),
       eps_cut=st.sampled_from([1e-12, 1e-6, 1e-3, 0.2]),
       h=st.sampled_from([2.0 ** -8, 2.0 ** -4, 0.1]))
def test_peetre_sweep_1d_matches_offset_loop(absc, s, b, eps_cut, h):
    """The tile-pruned sweep is the offset loop, bit for bit, with full
    and truncated reach (large b, small s and a large eps_cut cut the
    loop short of m - 1)."""
    assert np.array_equal(_peetre_sweep(absc, s, h, 1, b, eps_cut),
                          peetre_reference.peetre_sweep_1d(absc, s, b, h,
                                                           eps_cut))


@pytest.mark.parametrize("m", [3072, 3073])
@pytest.mark.parametrize("kind", ["noise", "lognormal", "spikes"])
@pytest.mark.parametrize("s,b,eps_cut", [(1.0, 2.5, 1e-6),
                                         (0.125, 10.0, 1e-12),
                                         (2.0 ** -5, 20.0, 1e-3)])
def test_peetre_sweep_1d_matches_offset_loop_on_long_fields(m, kind, s, b,
                                                           eps_cut):
    rng = np.random.default_rng(m)
    absc = {"noise": np.abs(rng.normal(size=m)),
            "lognormal": np.exp(5.0 * rng.normal(size=m)),
            "spikes": np.where(rng.random(m) < 0.01, rng.random(m), 0.0)}
    h = 2.0 ** -8
    assert np.array_equal(
        _peetre_sweep(absc[kind], s, h, 1, b, eps_cut),
        peetre_reference.peetre_sweep_1d(absc[kind], s, b, h, eps_cut))


@pytest.mark.parametrize("b", [10.0, 6.0])
def test_peetre_sweep_1d_keeps_a_product_equal_to_its_pair_bound(b):
    """Tile 1's first cell, 2.0, reaches the empty last cell of tile 0 at
    the pair's gap, so that product equals the pair's bound and is the
    least start value of tile 0: the pair is not multiplied out, and the
    product must come from the start values."""
    absc = np.zeros(96)
    absc[:31] = 1.0
    absc[32] = 2.0
    s = h = 2.0 ** -6
    expected = peetre_reference.peetre_sweep_1d(absc, s, b, h, 1e-12)
    assert expected[31] == 2.0 * 2.0 ** -b
    assert np.array_equal(_peetre_sweep(absc, s, h, 1, b, 1e-12), expected)


def test_peetre_sweep_1d_multiplies_out_a_pair_that_barely_beats():
    """Tiles 2-4 have huge peaks at their far ends: their bounds put them,
    not tile 1, among the 4 source tiles of tile 0's start values.  Tile
    0's least start value, at its empty last cell, is 1.999 w(1); tile 1's
    first cell, 2.0, beats it there by 0.05 %, so a bound only 0.1 % low
    would lose it."""
    b, s = 10.0, 2.0 ** -6
    w = lambda d: (1.0 + d) ** -b
    absc = np.zeros(192)
    absc[:30] = 1.0
    absc[30] = 1.999
    absc[32] = 2.0
    for u in (2, 3, 4):
        absc[32 * u + 31] = 10.0 * w(1) / w(32 * (u - 1) + 1)
    expected = peetre_reference.peetre_sweep_1d(absc, s, b, s, 1e-30)
    assert expected[31] == 2.0 * 2.0 ** -b
    assert np.array_equal(_peetre_sweep(absc, s, s, 1, b, 1e-30), expected)


@pytest.mark.parametrize("peetre", [False, True])
def test_grand_maximal_matches_per_kernel_maxima(bump, dictionary_1d,
                                                 peetre):
    """Max over kernels before the window or sweep, once per scale, is
    bit for bit the max over the kernels' own maximal functions."""
    ladder, pad = [0.5, 0.25, 0.125], 100
    got = grand_maximal(bump, dictionary_1d, ladder, peetre=peetre, b=2.5,
                        pad_cells=pad, eps_cut=1e-8)
    ref = peetre_reference.grand_per_kernel(bump, dictionary_1d, ladder, pad,
                                            peetre=peetre, b=2.5,
                                            eps_cut=1e-8)
    assert np.array_equal(got.origin, ref.origin)
    assert np.array_equal(got.values, ref.values)


@pytest.mark.parametrize("peetre", [False, True])
def test_grand_maximal_matches_per_kernel_maxima_2d(peetre):
    h = 2.0 ** -3
    d = build_dictionary(N=2, M=1, h=h, count=3, n=2)
    rng = np.random.default_rng(3)
    f = GridFunction((0.0, 0.0), h, rng.normal(size=(5, 6)))
    ladder, pad = [0.5, 0.25], 3
    got = grand_maximal(f, d, ladder, peetre=peetre, b=3.0, pad_cells=pad,
                        eps_cut=1e-4)
    ref = peetre_reference.grand_per_kernel(f, d, ladder, pad, peetre=peetre,
                                            b=3.0, eps_cut=1e-4)
    assert np.array_equal(got.values, ref.values)


def test_grand_peetre_uses_eps_cut():
    """phi is the dictionary's first kernel, so the grand Peetre function
    dominates the Peetre function pointwise at the same eps_cut."""
    h = 2.0 ** -6
    params = MaximalParams(b=10, N=11, eps_cut=1e-12,
                           dictionary=build_dictionary(N=11, M=5, h=h,
                                                       count=3),
                           ladder=scale_ladder(5))
    f = GridFunction.from_callable(lambda x: np.exp(-2e3 * (x - 1.0) ** 2),
                                   (0.0,), h, (128,))
    fields = maximal_fields(f, params)
    assert np.all(fields["grand_peetre"].values >= fields["peetre"].values)


def test_nontangential_two_dimensional_matches_enumeration():
    """The 2-D window max against a brute-force search over all cell pairs
    with |y - x| < a s, for a small and a large scale."""
    h = 2.0 ** -3
    d = build_dictionary(N=2, M=2, h=h, count=1, n=2)
    rng = np.random.default_rng(7)
    f = GridFunction((0.0, 0.0), h, rng.normal(size=(5, 6)))
    a, ladder, pad = 1.5, [0.25, 0.5], 3
    m = nontangential_maximal(f, d.phi, a, ladder, pad_cells=pad)
    g = f.pad(pad)
    ix, iy = np.indices(g.extents)
    expected = np.zeros(g.extents)
    for s in ladder:
        absc = np.abs(convolve(g, d.phi, s).values)
        for x, y in zip(ix.ravel(), iy.ravel()):
            near = np.hypot(ix - x, iy - y) * h < a * s
            expected[x, y] = max(expected[x, y], absc[near].max())
    assert m.extents == g.extents
    assert np.array_equal(m.values, expected)


def test_zero_input_gives_zero(maximal_params, dictionary_1d):
    h = dictionary_1d.h
    z = GridFunction.constant(0.0, (0.0,), h, (32,))
    fields = maximal_fields(z, maximal_params)
    for g in fields.values():
        assert g.max_abs() == 0.0


@pytest.mark.parametrize("tag,kind", [
    ("slice:power:2:2:1", "slice"),
    ("slice:log_damped:1:0.5", "slice"),
    ("star:log_damped", "star"),
    ("muslog", "muslog"),
    ("l1", "l1"),
])
def test_parse_space_tag(tag, kind):
    assert parse_space_tag(tag)[0] == kind


def test_parse_space_tag_values():
    kind, phi, q, t = parse_space_tag("slice:power:2:4:0.5")
    assert phi.power_exponent == 2.0
    assert (q, t) == (4.0, 0.5)


def test_parse_space_tag_unknown():
    with pytest.raises(ValueError):
        parse_space_tag("banana")


def test_hardy_quasinorm_positive(bump, maximal_params):
    v = hardy_quasinorm(bump, "slice:power:2:2:1", maximal_params)
    assert v > 0


def test_hardy_quasinorm_hypothesis_guard(bump, dictionary_1d):
    weak = MaximalParams(b=0.5, N=3, dictionary=dictionary_1d,
                         ladder=[0.5, 0.25])
    with pytest.raises(PreconditionError):
        hardy_quasinorm(bump, "slice:power:2:2:1", weak)
    with pytest.raises(PreconditionError):
        hardy_quasinorm(bump, "star:log_damped", weak)


def test_hardy_quasinorm_tags_share_one_maximal_function(bump,
                                                        maximal_params):
    m = peetre_maximal(bump, maximal_params.dictionary.phi,
                       maximal_params.b, maximal_params.ladder,
                       maximal_params.eps_cut)
    assert hardy_quasinorm(bump, "l1", maximal_params) == m.lp_norm(1)
    assert hardy_quasinorm(bump, "slice:power:2:2:1", maximal_params) == \
        slice_norm(m, SliceParams(1.0, 2.0, orlicz.power(2.0)))
    with pytest.raises(ValueError, match="unknown space tag"):
        hardy_quasinorm(bump, ("banana",), maximal_params)


def test_hardy_quasinorm_monotone_on_indicator_ladder(maximal_params):
    from slicehardy.families import generate_family

    fam = generate_family("indicator-ladder:M=3", 0, h=2.0 ** -7)
    vals = [hardy_quasinorm(f, "slice:power:2:2:1", maximal_params)
            for f in fam]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
