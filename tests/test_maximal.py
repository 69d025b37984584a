"""Local maximal functions: chains, collapses, quasi-norm plumbing."""

import numpy as np
import pytest

from slicehardy import orlicz
from slicehardy.errors import PreconditionError
from slicehardy.grid import GridFunction
from slicehardy.kernels import build_dictionary, convolve
from slicehardy.maximal import MaximalParams, grand_maximal, hardy_quasinorm, \
    maximal_fields, nontangential_maximal, parse_space_tag, peetre_maximal, \
    peetre_reach, pointwise_chain_ok, radial_maximal
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
