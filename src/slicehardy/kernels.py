"""Mollifier dictionaries and grid convolution.

Kernels are smooth bumps supported in the open unit ball, normalized so
that the weighted derivative sum
``sum_{|beta|<=N} sup_x (1+|x|)^{N+n} |d^beta psi(x)|`` is at most 1,
with derivatives estimated by iterated centered finite differences.  A
finite dictionary of such kernels stands in for the full normalized
kernel class; its size is a convergence knob, not a canonical family.
Grid convolution by FFT is one same-mode helper on numpy.fft,
convolve_same, which the Hardy-Littlewood averages of slice_norms share;
it and convolve take a stack of sample arrays along leading axes, so the
maximal functions of a family transform each kernel once per scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConstructionError, PreconditionError, require_resolution


def bump_profile(x):
    """C-infinity bump exp(-1/(1-r^2)) on the open unit ball, else 0."""
    r2 = np.sum(np.atleast_2d(np.asarray(x, dtype=float)) ** 2, axis=-1)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


@dataclass
class Kernel:
    """A smooth kernel given by an analytic profile on R^n."""

    profile: object
    n: int
    name: str = "kernel"
    scale: float = 1.0  # multiplier applied after profile evaluation

    def __call__(self, pts):
        return self.scale * self.profile(pts)

    def sample(self, s, h):
        """Sample s^{-n} psi(x/s) at grid offsets k*h with |k*h| < s.

        Returns a centered odd-length array (1-D) or square array (2-D).
        """
        require_resolution(s, h, "scale")
        k = int(np.ceil(s / h)) - 1
        return self(_centered_grid(2 * k + 1, h, self.n) / s) / s ** self.n

    def sample_unit(self, h):
        """Sample psi itself (scale 1) at spacing h on [-1, 1]^n."""
        k = int(np.ceil(1.0 / h))
        return np.arange(-k, k + 1) * h, \
            self(_centered_grid(2 * k + 1, h, self.n))


def _centered_grid(m, h, n):
    """The m^n points of spacing h centered on 0, coordinates on the last
    axis."""
    ax = (np.arange(m) - (m - 1) / 2) * h
    return np.stack(np.meshgrid(*[ax] * n, indexing="ij"), axis=-1)


def derivative_sup_bound(values, h, N, n):
    """Finite-difference estimate of the weighted derivative sum.

    `values` are samples of psi on a centered grid with spacing h; all
    partial derivatives up to total order N are formed by iterating
    centered differences (np.gradient), each sup is weighted by
    (1+|x|)^{N+n} and the results are summed.
    """
    pts = _centered_grid(values.shape[0], h, n)
    weight = (1.0 + np.abs(np.hypot.reduce(pts, axis=-1))) ** (N + n)
    current = {(0,) * n: values}  # multi-index -> derivative samples
    total = float((weight * np.abs(values)).max())
    for _ in range(N):
        nxt = {}
        for beta, arr in current.items():
            for axis in range(n):
                nb = list(beta)
                nb[axis] += 1
                nb = tuple(nb)
                if nb in nxt:
                    continue
                nxt[nb] = np.gradient(arr, h, axis=axis)
        for arr in nxt.values():
            total += float((weight * np.abs(arr)).max())
        current = nxt
    return total


@dataclass
class MollifierDictionary:
    """A finite family of normalized kernels, the first of which is the
    distinguished nonzero-mean phi, their grand order and the scale ladder
    every maximal function built on them takes its suprema over."""

    order: int
    kernels: list
    scales: list

    phi = property(lambda self: self.kernels[0])

    def __post_init__(self):
        if not self.kernels:
            raise PreconditionError("a dictionary needs at least one kernel")

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self):
        return len(self.kernels)


def scale_ladder(M, h):
    """Dyadic scales {2^-m : m = 0..M}, all inside (0, 1], under the
    ladder depth's hypothesis: M >= 0, and 2^-M resolves on spacing h."""
    if not M >= 0:
        raise PreconditionError(f"ladder depth M must be nonnegative: {M}")
    require_resolution(math.ldexp(1.0, -M), h, "smallest ladder scale")
    return [2.0 ** -m for m in range(M + 1)]


def modulated_profiles(n, count):
    """The first count built-in kernels' (name, profile) pairs in
    dictionary order, deterministic bump modulations: 1, x1, x1^2 - c,
    cos- and sin-modulated, and in 2-D x2, under the dictionary size's
    hypothesis: count from 1 to the built-in kernels."""
    profiles = [("bump", lambda p: bump_profile(p))]
    mods = [
        ("x1_bump", lambda p: np.atleast_2d(p)[..., 0] * bump_profile(p)),
        ("x1sq_bump", lambda p: (np.atleast_2d(p)[..., 0] ** 2 - 0.15)
         * bump_profile(p)),
        ("cos_bump", lambda p: np.cos(3.0 * np.atleast_2d(p)[..., 0])
         * bump_profile(p)),
        ("sin_bump", lambda p: np.sin(4.0 * np.atleast_2d(p)[..., 0])
         * bump_profile(p)),
    ]
    if n == 2:
        mods.append(("x2_bump",
                     lambda p: np.atleast_2d(p)[..., 1] * bump_profile(p)))
    profiles.extend(mods)
    if not 1 <= count <= len(profiles):
        raise ConstructionError(f"dictionary size {count} outside 1 to "
                                f"{len(profiles)}, the built-in kernels")
    return profiles[:count]


def build_dictionary(N, M, h, count, n=1):
    """Build a deterministic dictionary of `count` normalized kernels
    (modulated_profiles) on the ladder scale_ladder(M, h).

    The first kernel is the distinguished phi, of nonzero mass on its
    samples at the finite-difference spacing max(h, 1/256).  Each kernel's
    derivative bound is measured once there and the kernel scaled by 0.999
    over it, so its bound (linear in the samples) is 0.999.
    """
    if N < 1:
        raise PreconditionError(f"grand order N must be >= 1: {N}")
    scales = scale_ladder(M, h)
    fd_h = max(h, 1.0 / 256)
    kernels = []
    for name, prof in modulated_profiles(n, count):
        _, vals = Kernel(prof, n).sample_unit(fd_h)
        bound = derivative_sup_bound(vals, fd_h, N, n)
        if bound <= 0:
            raise ConstructionError(f"degenerate kernel {name}")
        if not kernels and vals.sum() == 0:
            raise ConstructionError("distinguished kernel has zero mass")
        kernels.append(Kernel(prof, n, name=name, scale=0.999 / bound))
    return MollifierDictionary(order=N, kernels=kernels, scales=scales)


def convolve(values, h, kernel, s):
    """Quadrature convolution of values * psi_s on their grid of spacing h.

    psi_s(x) = s^{-n} psi(x/s); the sum is over grid cells, weighted by
    the cell volume h^n, so a unit-mass kernel reproduces constants away
    from the support boundary.  values is one sample array or a stack of
    them along leading axes, the kernel's n axes last: the kernel is
    sampled (Kernel.sample rejects s < 2h) and transformed once for the
    stack (see convolve_same).
    """
    return convolve_same(values, kernel.sample(s, h)) * h ** kernel.n


def convolve_same(a, k):
    """The centered part, of a's shape, of the full convolution of the
    real arrays a and k, by real FFTs at a 5-smooth length per axis.  The
    transforms run over k's axes, the last k.ndim of a; leading axes of a
    are a batch, each of whose members is convolved with k, bit for bit
    as alone (pocketfft runs the same 1-D plan on each member), while k
    is transformed once.  The inverse runs unscaled and scales once, by
    1 / (product of the lengths), at the end, as pocketfft's multi-axis
    inverse does: the arithmetic, bit for bit, of SciPy's
    fftconvolve(a, k, mode="same") on each member."""
    n = k.ndim
    full = [p + q - 1 for p, q in zip(a.shape[-n:], k.shape)]
    fast = [_next_fast_len(m) for m in full]
    axes = tuple(range(-n, 0))
    spec = np.fft.rfftn(a, fast, axes) * np.fft.rfftn(k, fast, axes)
    if n > 1:
        spec = np.fft.ifftn(spec, axes=axes[:-1], norm="forward")
    out = np.fft.irfft(spec, fast[-1], norm="forward")
    centered = (...,) + tuple(slice((m - p) // 2, (m - p) // 2 + p)
                              for m, p in zip(full, a.shape[-n:]))
    return out[centered] * (1.0 / math.prod(fast))


@cache
def _next_fast_len(n):
    """The least 2^i 3^j 5^k >= n, the length SciPy's next_fast_len(n,
    real=True) picks for a real transform."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best
