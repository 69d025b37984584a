"""Mollifier dictionaries and grid convolution.

Kernels are smooth bumps supported in the open unit ball, normalized so
that the weighted derivative sum
``sum_{|beta|<=N} sup_x (1+|x|)^{N+n} |d^beta psi(x)|`` is at most 1,
with derivatives estimated by iterated centered finite differences.  A
finite dictionary of such kernels stands in for the full normalized
kernel class; its size is a convergence knob, not a canonical family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .errors import ConstructionError, ResolutionError
from .grid import GridFunction


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
        if s < 2 * h:
            raise ResolutionError(f"scale {s} below 2h = {2 * h}")
        k = int(np.ceil(s / h)) - 1
        offs = (np.arange(-k, k + 1)) * h
        if self.n == 1:
            return self(offs[:, None] / s) / s ** self.n
        xx, yy = np.meshgrid(offs, offs, indexing="ij")
        pts = np.stack([xx.ravel() / s, yy.ravel() / s], axis=-1)
        return self(pts).reshape(xx.shape) / s ** self.n

    def sample_unit(self, h):
        """Sample psi itself (scale 1) at spacing h on [-1, 1]^n."""
        k = int(np.ceil(1.0 / h))
        offs = np.arange(-k, k + 1) * h
        if self.n == 1:
            return offs, self(offs[:, None])
        xx, yy = np.meshgrid(offs, offs, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        return offs, self(pts).reshape(xx.shape)

    def mass(self, h=1e-3):
        _, vals = self.sample_unit(h)
        return float(vals.sum() * h ** self.n)


def derivative_sup_bound(values, h, N, n):
    """Finite-difference estimate of the weighted derivative sum.

    `values` are samples of psi on a centered grid with spacing h; all
    partial derivatives up to total order N are formed by iterating
    centered differences (np.gradient), each sup is weighted by
    (1+|x|)^{N+n} and the results are summed.
    """
    if n == 1:
        m = values.shape[0]
        x = (np.arange(m) - (m - 1) / 2) * h
        weight = (1.0 + np.abs(x)) ** (N + n)
    else:
        m = values.shape[0]
        ax = (np.arange(m) - (m - 1) / 2) * h
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        weight = (1.0 + np.hypot(xx, yy)) ** (N + n)

    total = 0.0
    # derivatives[k] maps multi-index order tuple -> array
    current = {(0,) * n: values}
    total += float((weight * np.abs(values)).max())
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
    """A finite family of normalized kernels plus a nonzero-mean phi."""

    order: int
    kernels: list
    phi: Kernel
    scales: list
    h: float
    fd_check: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self):
        return len(self.kernels)


def scale_ladder(M):
    """Dyadic scales {2^-m : m = 0..M}, all inside (0, 1]."""
    return [2.0 ** -m for m in range(M + 1)]


def _modulated_profiles(n, count):
    """Deterministic bump modulations: 1, x1, x1^2 - c, cos-modulated."""
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
    if count > len(profiles):
        raise ConstructionError(
            f"at most {len(profiles)} built-in kernels available")
    return profiles[:count]


def build_dictionary(N, M, h, count, n=1, fd_h=None):
    """Build a deterministic dictionary of `count` normalized kernels.

    The first kernel is the distinguished phi, of nonzero mass on its
    samples at the finite-difference spacing.  Every kernel is rescaled
    so its finite-difference derivative bound is just below 1; the
    measured bounds are recorded in ``fd_check``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if 2.0 ** -M < 2 * h:
        raise ResolutionError("smallest ladder scale below 2h")
    fd_h = fd_h or max(h, 1.0 / 256)
    kernels = []
    fd_check = {}
    for name, prof in _modulated_profiles(n, count):
        k = Kernel(prof, n, name=name)
        _, vals = k.sample_unit(fd_h)
        bound = derivative_sup_bound(vals, fd_h, N, n)
        if bound <= 0:
            raise ConstructionError(f"degenerate kernel {name}")
        k = Kernel(prof, n, name=name, scale=0.999 / bound)
        _, vals = k.sample_unit(fd_h)
        if not kernels and vals.sum() == 0:
            raise ConstructionError("distinguished kernel has zero mass")
        fd_check[name] = derivative_sup_bound(vals, fd_h, N, n)
        kernels.append(k)
    return MollifierDictionary(order=N, kernels=kernels, phi=kernels[0],
                               scales=scale_ladder(M), h=h,
                               fd_check=fd_check)


def convolve(f, kernel, s):
    """Quadrature convolution f * psi_s sampled on f's grid.

    psi_s(x) = s^{-n} psi(x/s); the sum is over grid cells, weighted by
    the cell volume, so a unit-mass kernel reproduces constants away from
    the support boundary.
    """
    if s < 2 * f.h:
        raise ResolutionError(f"scale {s} below 2h = {2 * f.h}")
    kvals = kernel.sample(s, f.h)
    out = fftconvolve(f.values, kvals, mode="same") * f.cell_volume
    return GridFunction(f.origin, f.h, out, check=False)
