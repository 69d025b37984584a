"""Local maximal functions: chains, collapses, quasi-norm plumbing."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import peetre_reference
import scipy_reference
from slicehardy import maximal, orlicz
from slicehardy.embeddings import hardy_embedding_check
from slicehardy.errors import PreconditionError
from slicehardy.grid import GridFunction
from slicehardy.kernels import build_dictionary, convolve
from slicehardy.maximal import MaximalParams, _one_scale_max, _peetre_sweep, \
    _peetre_weights, _window_max, grand_maximal, maximal_fields, \
    peetre_maximal, peetre_reach, pointwise_chain_ok
from slicehardy.slice_norms import SliceParams, slice_norm


@pytest.fixture
def bump(h_1d):
    h = h_1d
    return GridFunction.from_callable(
        lambda x: np.exp(-30 * (x - 0.5) ** 2), (0.0,), h, (int(1 / h),))


def _on_ladder(dictionary, ladder, a=1.0):
    """MaximalParams of the dictionary's kernels on another ladder."""
    return MaximalParams(dataclasses.replace(dictionary, scales=ladder), a=a)


def test_radial_spike_matches_enumeration(dictionary_1d, h_1d):
    """A single-cell spike convolves to lam * h * psi_s(x - x0)."""
    h = h_1d
    vals = np.zeros(64)
    vals[20] = 3.0
    f = GridFunction((0.0,), h, vals)
    ladder = [0.5, 0.25]
    m = maximal_fields([f], _on_ladder(dictionary_1d, ladder))[0]["radial"]
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
    fields = maximal_fields([bump], maximal_params)[0]
    for name, g in fields.items():
        assert np.all(g.values >= 0), name


def test_pointwise_chain(bump, maximal_params):
    fields = maximal_fields([bump], maximal_params)[0]
    assert pointwise_chain_ok(fields, maximal_params.a, maximal_params.b)


def test_nontangential_dominates_radial(bump, dictionary_1d):
    params = _on_ladder(dictionary_1d, [0.5, 0.25])
    fields = maximal_fields([bump], params)[0]
    assert np.all(fields["nontangential"].values
                  >= fields["radial"].values - 1e-300)


def test_grand_with_single_kernel_collapses(bump, dictionary_1d):
    from slicehardy.kernels import MollifierDictionary

    single = MollifierDictionary(order=dictionary_1d.order,
                                 kernels=[dictionary_1d.phi],
                                 scales=dictionary_1d.scales)
    fields = maximal_fields([bump], MaximalParams(single, a=1.0))[0]
    assert np.array_equal(fields["grand"].values,
                          fields["nontangential"].values)


def test_grand_monotone_in_dictionary(bump, dictionary_1d):
    from slicehardy.kernels import MollifierDictionary

    small = MollifierDictionary(order=dictionary_1d.order,
                                kernels=dictionary_1d.kernels[:1],
                                scales=dictionary_1d.scales)
    g_small = grand_maximal(bump, small, pad_cells=100)
    g_full = grand_maximal(bump, dictionary_1d, pad_cells=100)
    assert np.all(g_full.values >= g_small.values - 1e-300)


def test_maximal_params_read_order_and_ladder_from_the_dictionary(
        dictionary_1d):
    """N and the ladder are the dictionary's, and the params are frozen:
    the Peetre fields they keep stay those of their fields."""
    params = MaximalParams(dictionary_1d)
    assert params.N == dictionary_1d.order
    assert params.ladder is dictionary_1d.scales
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.b = 5.0


@pytest.mark.parametrize("a", [0.0, -1.0, np.nan, np.inf])
def test_maximal_params_reject_a_nonpositive_aperture(dictionary_1d, a):
    """maximal_fields takes the nontangential aperture from the params,
    so they guard it: finite and positive, as the config's maximal.a."""
    with pytest.raises(PreconditionError, match="aperture"):
        MaximalParams(dictionary_1d, a=a)


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
    absc = np.abs(convolve(f.pad(2).values, h, d.phi, s))
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


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2]), cells=st.integers(0, 31),
       a=st.sampled_from([0.5, 1.0, 2.0]), data=st.data())
def test_window_max_is_maximum_filter_bit_for_bit(n, cells, a, data):
    """The segment maxima against ndimage.maximum_filter with the ball
    footprint and zeros outside the box, on fields with negative values,
    for balls of 1 to 63 cells across (h = 1/16) and boxes narrower than
    the ball."""
    h = 2.0 ** -4
    s = (cells + 0.5) * h / a
    shape = tuple(data.draw(st.lists(st.integers(1, 70), min_size=n,
                                     max_size=n)))
    values = data.draw(arrays(float, shape, elements=st.floats(-1e6, 1e6)))
    assert np.array_equal(_window_max(values, s, h, n, a),
                          scipy_reference.window_max(values, s, h, n, a))


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


@st.composite
def sweep_fields_nd(draw):
    """1-D and 2-D |f * phi_s|-like inputs from a drawn seed: noise,
    heavy tails, ties, sparse spikes, zeros and a smooth bump, with
    extents that are not multiples of a tile."""
    n = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(1, 200 if n == 1 else 45),
                                min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["noise", "lognormal", "ties", "spikes",
                                 "zeros", "bump"]))
    if kind == "bump":
        x = np.indices(shape) - (np.array(shape) * rng.random(n)).reshape(
            (n,) + (1,) * n)
        return np.exp(-(x ** 2).sum(axis=0) / rng.uniform(1.0, 200.0))
    return {"noise": lambda: np.abs(rng.normal(size=shape)),
            "lognormal": lambda: np.exp(5.0 * rng.normal(size=shape)),
            "ties": lambda: rng.choice([0.0, 1.0, 2.5], size=shape),
            "spikes": lambda: np.where(rng.random(shape) < 0.02,
                                       rng.random(shape), 0.0),
            "zeros": lambda: np.zeros(shape)}[kind]()


@settings(max_examples=150, deadline=None)
@given(absc=sweep_fields_nd(),
       s=st.sampled_from([1.0, 0.5, 0.125, 2.0 ** -5]),
       b=st.floats(2.5, 10.0),
       eps_cut=st.floats(-12.0, np.log10(0.2)).map(lambda e: 10.0 ** e),
       h=st.sampled_from([2.0 ** -4, 2.0 ** -2, 0.1]))
def test_peetre_sweep_matches_offset_loops(absc, s, b, eps_cut, h):
    """The row-wise tile sweep is the offset loop bit for bit, in 1-D and
    2-D, with reaches longer than an axis (small eps_cut, s/h large) and
    cut short (large eps_cut, b large, s/h small)."""
    loop = peetre_reference.peetre_sweep_1d if absc.ndim == 1 \
        else peetre_reference.peetre_sweep_2d
    assert np.array_equal(_peetre_sweep(absc, s, h, absc.ndim, b, eps_cut),
                          loop(absc, s, b, h, eps_cut))


@settings(max_examples=60, deadline=None)
@given(absc=sweep_fields_nd(),
       s=st.sampled_from([1.0, 0.5, 0.125]),
       b=st.floats(2.5, 10.0),
       eps_cut=st.sampled_from([1e-12, 1e-6, 0.2]),
       seed=st.integers(0, 2 ** 16), floor=st.booleans())
def test_peetre_sweep_on_a_stack_is_each_member_alone(absc, s, b, eps_cut,
                                                      seed, floor):
    """The offsets run over the member's axes only: a stack of members
    (the drawn field, a zero member, a scaled copy and a reversed one)
    sweeps to the stack of the members' own sweeps, bit for bit, with and
    without floors.  The zero member sits between nonzero ones, so a row
    offset that crossed from one member into the next would light it up."""
    h = 2.0 ** -4
    rng = np.random.default_rng(seed)
    stack = np.stack([absc, np.zeros(absc.shape),
                      absc * rng.uniform(0.5, 2.0), absc[::-1].copy()])
    F = rng.random(stack.shape) * stack.max() if floor else None
    got = _peetre_sweep(stack, s, h, absc.ndim, b, eps_cut, floor=F)
    alone = [_peetre_sweep(x, s, h, absc.ndim, b, eps_cut,
                           floor=None if F is None else F[i])
             for i, x in enumerate(stack)]
    assert np.array_equal(got, np.stack(alone))


@pytest.mark.parametrize("block", [64, 256])
def test_peetre_sweep_1d_matches_offset_loop_at_either_pair_block(
        monkeypatch, block):
    """Where the product blocks end changes no bit (max is exact): the
    long-field sweep of a lognormal field, about 300 pairs, so both sizes
    cut them into blocks, against the offset loop at 64 and at 256 pairs
    a block."""
    monkeypatch.setattr(maximal, "_PAIR_BLOCK", block)
    absc = np.exp(5.0 * np.random.default_rng(3072).normal(size=3072))
    s, b, eps_cut, h = 0.125, 10.0, 1e-12, 2.0 ** -8
    assert np.array_equal(
        _peetre_sweep(absc, s, h, 1, b, eps_cut),
        peetre_reference.peetre_sweep_1d(absc, s, b, h, eps_cut))


@settings(max_examples=150, deadline=None)
@given(absc=sweep_fields_nd(),
       s=st.sampled_from([1.0, 0.5, 0.125]),
       b=st.floats(2.5, 10.0),
       eps_cut=st.sampled_from([1e-12, 1e-6, 0.2]),
       kind=st.sampled_from(["zero", "below", "mixed", "above"]),
       seed=st.integers(0, 2 ** 16))
def test_peetre_sweep_from_a_floor_is_its_max_with_the_loop(absc, s, b,
                                                            eps_cut, kind,
                                                            seed):
    """With a floor F (the running max of the larger scales in _scale_max)
    the sweep gives max(F, offset loop) bit for bit, for F = 0, F below
    the output, F crossing it cell by cell and F above every output."""
    h = 2.0 ** -4
    loop = peetre_reference.peetre_sweep_1d if absc.ndim == 1 \
        else peetre_reference.peetre_sweep_2d
    ref = loop(absc, s, b, h, eps_cut)
    u = np.random.default_rng(seed).random(absc.shape)
    top = float(ref.max(initial=0.0))
    F = {"zero": np.zeros(absc.shape), "below": ref * u,
         "mixed": ref * 2 * u, "above": (top + 1.0) * (1 + u)}[kind]
    got = _peetre_sweep(absc, s, h, absc.ndim, b, eps_cut, floor=F)
    assert np.array_equal(got, np.maximum(F, ref))


@pytest.mark.parametrize("b,eps_cut,name", [
    (2.5, 0.0, "eps_cut"), (2.5, -1.0, "eps_cut"), (2.5, np.nan, "eps_cut"),
    (2.5, 1.5, "eps_cut"), (np.nan, 1e-6, "b"), (np.inf, 1e-6, "b"),
    (0.0, 1e-6, "b")])
def test_peetre_maximal_names_a_bad_parameter(bump, dictionary_1d, b,
                                              eps_cut, name):
    with pytest.raises(PreconditionError, match=f"^{name} must"):
        peetre_maximal(bump, dictionary_1d.phi, b, [0.5], eps_cut)


def test_maximal_params_name_a_non_finite_peetre_exponent(bump,
                                                          dictionary_1d):
    with pytest.raises(PreconditionError, match="^b must"):
        MaximalParams(dictionary_1d, b=np.nan).peetre_fields([bump])


def _grand(f, dictionary, ladder, pad, peetre, b, eps_cut):
    """The plain grand maximal function, of the dictionary's kernels on
    the ladder, or with peetre its Peetre-swept one: the op maximal_fields
    applies for "grand_peetre"."""
    if not peetre:
        return grand_maximal(f, dataclasses.replace(dictionary, scales=ladder),
                             pad_cells=pad)
    return _one_scale_max(f, list(dictionary), ladder, pad,
                          partial(_peetre_sweep, b=b, eps_cut=eps_cut))


@pytest.mark.parametrize("peetre", [False, True])
def test_grand_maximal_matches_per_kernel_maxima(bump, dictionary_1d,
                                                 peetre):
    """Max over kernels before the window or sweep, once per scale, is
    bit for bit the max over the kernels' own maximal functions."""
    ladder, pad = [0.5, 0.25, 0.125], 100
    got = _grand(bump, dictionary_1d, ladder, pad, peetre, 2.5, 1e-8)
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
    got = _grand(f, d, ladder, pad, peetre, 3.0, 1e-4)
    ref = peetre_reference.grand_per_kernel(f, d, ladder, pad, peetre=peetre,
                                            b=3.0, eps_cut=1e-4)
    assert np.array_equal(got.values, ref.values)


def _each_alone(f, params):
    """The five fields of maximal_fields, each on its own: the radial and
    nontangential ones scale by scale from the reference window maxima,
    the grand Peetre one as the max of the kernels' Peetre functions."""
    pad, ladder, d = params.pad_cells(f.h), params.ladder, params.dictionary
    return {
        "radial": peetre_reference.window_maximal(f, d.phi, 0.0, ladder,
                                                  pad),
        "nontangential": peetre_reference.window_maximal(
            f, d.phi, params.a, ladder, pad),
        "grand": grand_maximal(f, d, pad_cells=pad),
        "peetre": peetre_maximal(f, d.phi, params.b, ladder, params.eps_cut,
                                 pad),
        "grand_peetre": peetre_reference.grand_per_kernel(
            f, d, ladder, pad, peetre=True, b=params.b,
            eps_cut=params.eps_cut)}


@pytest.mark.parametrize("n", [1, 2])
def test_maximal_fields_is_each_function_alone_bit_for_bit(maximal_params,
                                                          h_1d, n):
    """One convolution per kernel and scale gives the five fields the five
    functions give alone at the same pad, whether the params make the
    Peetre field or already keep it."""
    if n == 1:
        params, h = maximal_params, h_1d
        shape = (150,)
    else:
        h = 2.0 ** -3
        params = MaximalParams(build_dictionary(N=6, M=1, h=h, count=3, n=2),
                               a=1.5, b=5.0)
        shape = (6, 5)
    f = GridFunction((0.25,) * n, h,
                     np.random.default_rng(n).normal(size=shape))
    alone = _each_alone(f, params)
    for _ in range(2):
        fields = maximal_fields([f], params)[0]
        assert list(fields) == list(alone)
        for name, g in fields.items():
            assert np.array_equal(g.origin, alone[name].origin), name
            assert np.array_equal(g.values, alone[name].values), name


@pytest.fixture(scope="module")
def params_2d():
    """Three 2-D kernels on the ladder (0.5, 0.25): a pad of 16 cells."""
    d = build_dictionary(N=6, M=2, h=2.0 ** -3, count=3, n=2)
    return MaximalParams(dataclasses.replace(d, scales=[0.5, 0.25]), a=1.5,
                         b=5.0)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16),
       budget=st.sampled_from([1, 700, 3000, 1 << 14]), data=st.data())
def test_family_fields_are_each_member_alone(dictionary_1d, h_1d, params_2d,
                                             n, seed, budget, data):
    """maximal_fields and peetre_fields of a family, with members of two
    extents, whole-cell translates of some, a zero member, in a drawn
    order and stacks cut at a drawn cell budget (1: a member a stack; a
    padded member takes about 300 cells in 1-D, 1,400 in 2-D), give every
    member the five fields it has alone, at its own origin."""
    rng = np.random.default_rng(seed)
    params, h = (_on_ladder(dictionary_1d, [0.25, 0.125]), h_1d) if n == 1 \
        else (params_2d, 2.0 ** -3)
    shapes = [(40,), (57,)] if n == 1 else [(6, 5), (4, 7)]
    family = [GridFunction((0.25 * i,) * n, h,
                           rng.normal(size=shapes[i % 2]))
              for i in range(data.draw(st.integers(1, 5)))]
    family += [GridFunction(f.origin + rng.integers(-50, 50, n) * h, h,
                            f.values) for f in family[::2]]
    family.append(GridFunction((0.0,) * n, h, np.zeros(shapes[1])))
    family = data.draw(st.permutations(family))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maximal, "_STACK_CELLS", budget)
        fields = maximal_fields(family, dataclasses.replace(params))
        peetre = dataclasses.replace(params).peetre_fields(family)
    for f, five, p in zip(family, fields, peetre):
        alone = maximal_fields([f], dataclasses.replace(params))[0]
        assert list(five) == list(alone)
        for name, g in five.items():
            assert np.array_equal(g.origin, alone[name].origin), name
            assert np.array_equal(g.values, alone[name].values), name
        assert np.array_equal(p.origin, five["peetre"].origin)
        assert np.array_equal(p.values, five["peetre"].values)


def test_peetre_fields_fill_the_memo_that_peetre_field_reads(
        maximal_params, h_1d, peetre_builds):
    """One peetre_fields pass over a family and a whole-cell translate of
    its first member makes each distinct sample array's field once; a
    later peetre_fields([f]) hands back the same read-only array, placed at
    f's own origin."""
    from slicehardy.families import generate_family

    h = h_1d
    fam = generate_family("bumps:count=3", 11, h=h)
    far = GridFunction(fam[0].origin + 64 * h, h, fam[0].values.copy())
    fields = maximal_params.peetre_fields(fam + [far])
    assert peetre_builds == fam
    assert fields[3].values is fields[0].values
    for f, m in zip(fam + [far], fields):
        [again] = maximal_params.peetre_fields([f])
        assert again.values is m.values and not m.values.flags.writeable
        assert np.array_equal(again.origin, m.origin)
        assert np.array_equal(m.origin, f.pad(maximal_params.pad_cells(
            h)).origin)
    assert len(peetre_builds) == 3


def _grand_family(n):
    """(family, dictionary): at n = 1 more members than one _scale_max
    stack holds, of three extents, with a zero member and a whole-cell
    translate of the first; at n = 2 members of two extents, a zero one
    and a translate."""
    from slicehardy.families import generate_family

    h = 2.0 ** -7 if n == 1 else 2.0 ** -3
    dictionary = build_dictionary(N=3, M=3 if n == 1 else 1, h=h, count=3,
                                  n=n)
    rng = np.random.default_rng(7)
    if n == 1:
        fam = generate_family("bumps:count=12", 5, h=h) \
            + generate_family("indicator-ladder:M=2", 0, h=h) \
            + [GridFunction((1.0,), h, rng.normal(size=40))]
    else:
        fam = [GridFunction((0.0, 0.5), h, rng.normal(size=(5, 6))),
               GridFunction((1.0, 0.0), h, rng.normal(size=(7, 3))),
               GridFunction((0.0, 0.0), h, rng.normal(size=(5, 6)))]
    zero = GridFunction(fam[0].origin, h, np.zeros(fam[0].extents))
    far = GridFunction(fam[0].origin + 64 * h, h, fam[0].values.copy())
    return fam + [zero, far], dictionary


@pytest.mark.parametrize("n", [1, 2])
def test_grand_fields_are_grand_maximal_bit_for_bit(n):
    """One grand_fields pass over a family is, member by member, the
    grand_maximal of each alone at its default pad, bit for bit, read-only
    and on the member's own padded grid; a translate shares its values."""
    fam, dictionary = _grand_family(n)
    params = MaximalParams(dictionary)
    if n == 1:
        pad = int(np.ceil(2.0 * max(dictionary.scales) / fam[0].h))
        assert sum(np.prod(np.add(f.extents, 2 * pad)) for f in fam) \
            > maximal._STACK_CELLS
    fields = params.grand_fields(fam)
    for f, m in zip(fam, fields):
        alone = grand_maximal(f, dictionary)
        assert np.array_equal(m.origin, alone.origin)
        assert m.values.tobytes() == alone.values.tobytes()
        assert not m.values.flags.writeable
    assert fields[-1].values is fields[0].values
    assert not np.any(fields[-2].values)
    again = params.grand_fields(fam[::-1])
    assert all(a.values is m.values for a, m in zip(again, fields[::-1]))


def test_peetre_weights_are_kept_read_only_by_value():
    """Equal arguments, as new objects, give the one read-only table."""
    w = _peetre_weights(300, 0.5, 2.0 ** -8, 2.5, 1e-6, 3)
    assert w is _peetre_weights(300, float("0.5"), 2.0 ** -8,
                                np.float64(2.5), 1e-6, np.int64(3))
    assert not w.flags.writeable


def test_grand_peetre_uses_eps_cut():
    """phi is the dictionary's first kernel, so the grand Peetre function
    dominates the Peetre function pointwise at the same eps_cut."""
    h = 2.0 ** -6
    params = MaximalParams(build_dictionary(N=11, M=5, h=h, count=3), b=10)
    f = GridFunction.from_callable(lambda x: np.exp(-2e3 * (x - 1.0) ** 2),
                                   (0.0,), h, (128,))
    fields = maximal_fields([f], params)[0]
    assert np.all(fields["grand_peetre"].values >= fields["peetre"].values)


@pytest.fixture(scope="module")
def dictionary_2d():
    return build_dictionary(N=3, M=1, h=2.0 ** -3, count=1, n=2)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), cells=st.integers(-20000, 20000),
       start=st.integers(-300, 300), seed=st.integers(0, 2 ** 16),
       shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
       b=st.floats(2.5, 12.0))
def test_peetre_maximal_of_a_whole_cell_translate_moves_only_its_origin(
        dictionary_1d, h_1d, dictionary_2d, n, cells, start, seed, shape, b):
    """Moving f by a whole number of cells changes no bit of its Peetre
    maximal function and moves its origin by as many cells: the
    convolutions and sweeps read sample values only."""
    d, h = (dictionary_1d, h_1d) if n == 1 else (dictionary_2d, 2.0 ** -3)
    ladder = [0.5, 0.25]
    vals = np.random.default_rng(seed).normal(size=shape[:n])
    f = GridFunction((start * h,) * n, h, vals)
    moved = GridFunction(f.origin + cells * h, h, vals.copy())
    pad = int(np.ceil(4.0 * max(ladder) / h))
    m = peetre_maximal(f, d.phi, b, ladder, pad_cells=pad)
    m_moved = peetre_maximal(moved, d.phi, b, ladder, pad_cells=pad)
    assert np.array_equal(m_moved.values, m.values)
    assert np.array_equal(m_moved.origin, m.origin + cells * h)


def test_nontangential_two_dimensional_matches_enumeration():
    """The 2-D window max against a brute-force search over all cell pairs
    with |y - x| < a s, for a small and a large scale."""
    h = 2.0 ** -3
    d = build_dictionary(N=2, M=2, h=h, count=1, n=2)
    rng = np.random.default_rng(7)
    f = GridFunction((0.0, 0.0), h, rng.normal(size=(5, 6)))
    a, ladder = 1.5, [0.25, 0.5]
    params = _on_ladder(d, ladder, a)
    m = maximal_fields([f], params)[0]["nontangential"]
    g = f.pad(params.pad_cells(h))
    ix, iy = np.indices(g.extents)
    expected = np.zeros(g.extents)
    for s in ladder:
        absc = np.abs(convolve(g.values, h, d.phi, s))
        for x, y in zip(ix.ravel(), iy.ravel()):
            near = np.hypot(ix - x, iy - y) * h < a * s
            expected[x, y] = max(expected[x, y], absc[near].max())
    assert m.extents == g.extents
    assert np.array_equal(m.values, expected)


def test_zero_input_gives_zero(maximal_params, h_1d):
    h = h_1d
    z = GridFunction.constant(0.0, (0.0,), h, (32,))
    fields = maximal_fields([z], maximal_params)[0]
    for g in fields.values():
        assert g.max_abs() == 0.0


#: the slice space of the Hardy quasi-norm these tests take
_SLICE = SliceParams(1.0, 2.0, orlicz.power(2.0))


def test_hardy_quasinorm_positive(bump, maximal_params):
    assert slice_norm(maximal_params.peetre_fields([bump])[0], _SLICE) > 0


@pytest.mark.parametrize("precomputed", [False, True])
def test_hardy_quasinorm_hypothesis_guard(bump, dictionary_1d, precomputed):
    """b > 2n/min(p_minus, q) for the slice quasi-norm, and b > 2n for the
    amalgam and Musielak ones, also when the params keep the Peetre field
    already."""
    weak = MaximalParams(dictionary_1d, b=0.5)
    with pytest.raises(PreconditionError):
        maximal.maximal_equivalence_report([bump], weak, _SLICE.phi,
                                           _SLICE.q, [_SLICE.t])
    if precomputed:
        weak.peetre_fields([bump])
    with pytest.raises(PreconditionError):
        hardy_embedding_check([bump], weak)


def test_hardy_quasinorm_tags_share_one_maximal_function(bump,
                                                        maximal_params):
    """peetre_fields is peetre_maximal at the params' phi, b, ladder and
    eps_cut, bit for bit and read-only, made once per sample array: every
    outer norm of a run reads that one field."""
    m = peetre_maximal(bump, maximal_params.dictionary.phi,
                       maximal_params.b, maximal_params.ladder,
                       maximal_params.eps_cut)
    [field] = maximal_params.peetre_fields([bump])
    assert np.array_equal(field.origin, m.origin)
    assert np.array_equal(field.values, m.values)
    assert not field.values.flags.writeable
    copy = GridFunction(bump.origin, bump.h, bump.values.copy())
    assert maximal_params.peetre_fields([copy])[0].values is field.values
    assert slice_norm(field, _SLICE) == slice_norm(m, _SLICE)


def test_hardy_quasinorm_monotone_on_indicator_ladder(maximal_params):
    from slicehardy.families import generate_family

    fam = generate_family("indicator-ladder:M=3", 0, h=2.0 ** -7)
    vals = [slice_norm(m, _SLICE) for m in maximal_params.peetre_fields(fam)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
