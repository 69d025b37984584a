"""Seeded, deterministic test-function families.

A family spec is a string "name" or "name:key=value;...".  Regenerating
with the same spec and seed is bit-identical (a fresh Generator is
created per call).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import ConfigError
from .grid import GridFunction


_ARGS = {"bumps": {"count": int}, "bursts": {"count": int},
         "indicator-ladder": {"M": int},
         "translates": {"R": lambda v: [float(r) for r in v.split(",")]}}
_ONE_DIMENSIONAL = ("bursts", "indicator-ladder", "translates")


def parse_spec(spec, n=1):
    """The generator name and its converted arguments, or ConfigError:
    also for a family with no members, or a 1-D generator when n != 1."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _ARGS:
        raise ConfigError(f"unknown family generator {name!r}")
    args = {}
    for item in rest.split(";") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if not val or key not in _ARGS[name]:
            raise ConfigError(f"bad argument {item!r} for family {name!r}")
        try:
            args[key] = _ARGS[name][key](val)
        except ValueError as exc:
            raise ConfigError(f"bad value {val!r} for {name} argument "
                              f"{key!r}") from exc
    if n != 1 and name in _ONE_DIMENSIONAL:
        raise ConfigError(f"{name} is one-dimensional, the grid has n = {n}")
    if args.get("count", 1) < 1 or args.get("M", 0) < 0:
        raise ConfigError(f"family {spec!r} has no members")
    return name, args


def _bump(x, center, width):
    return np.exp(-((x - center) / width) ** 2)


def _bumps(rng, count, h, n):
    """amp times a bump of width w per axis, multiplied in axis order; the
    centers of axes after the first are drawn after w and amp."""
    out = []
    for _ in range(count):
        c = rng.uniform(0.5, 3.5)
        w = rng.uniform(0.05, 0.5)
        amp = rng.uniform(0.5, 2.0)
        cs = [c] + [rng.uniform(0.5, 3.5) for _ in range(n - 1)]
        out.append(GridFunction.from_callable(
            lambda *x, cs=cs, w=w, amp=amp: reduce(
                lambda v, xc: v * _bump(*xc, w), zip(x, cs), amp),
            (0.0,) * n, h, (int(round(4 / h)),) * n))
    return out


def _bursts(rng, count, h):
    out = []
    for _ in range(count):
        c = rng.uniform(1.0, 3.0)
        w = rng.uniform(0.1, 0.6)
        amp = rng.uniform(0.5, 2.0)
        freq = rng.uniform(2.0, 30.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        f = GridFunction.from_callable(
            lambda x, c=c, w=w, amp=amp, freq=freq, phase=phase:
            amp * np.cos(freq * x + phase) * _bump(x, c, w),
            (0.0,), h, (int(round(4 / h)),))
        out.append(f)
    return out


def _indicator_ladder(depth, h):
    out = []
    cells = int(round(1.0 / h))
    for m in range(depth + 1):
        vals = np.zeros(cells)
        vals[: max(int(round(2.0 ** -m / h)), 1)] = 1.0
        out.append(GridFunction((0.0,), h, vals))
    return out


def _translates(radii, h):
    cells = int(round(1.0 / h))
    out = []
    for R in radii:
        f = GridFunction.from_callable(
            lambda x, R=R: _bump(x, R + 0.5, 0.2),
            (float(R),), h, (cells,))
        out.append(f)
    return out


def generate_family(spec, seed, h=2.0 ** -8, n=1):
    """Build the family named by spec, deterministically from the seed."""
    name, args = parse_spec(spec, n)
    rng = np.random.default_rng(seed)
    if name == "bumps":
        return _bumps(rng, args.get("count", 10), h, n)
    if name == "bursts":
        return _bursts(rng, args.get("count", 10), h)
    if name == "indicator-ladder":
        return _indicator_ladder(args.get("M", 6), h)
    return _translates(args.get("R", [0.0, 4.0, 16.0]), h)
