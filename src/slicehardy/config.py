"""Scenario configuration: flat INI-style sections, validated at load.

:meth:`ScenarioConfig.validate` calls, by key, the library guard of each
key's domain (DOMAINS) and of each derived hypothesis (HYPOTHESES); the
first to fail raises :class:`ConfigError` reading "key: " and the guard's
own message.  What no library object takes it checks itself.
"""

from __future__ import annotations

import configparser
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import orlicz
from .atomic import CZParams, aggregation_cap, least_degree, \
    require_aggregation, require_degree, require_size_exponent, \
    require_tol_moment
from .campanato import cube_sweep
from .errors import ConfigError, PreconditionError, SliceHardyError, \
    require_positive, require_resolution, require_spacing
from .families import generate_family, parse_spec
from .kernels import build_dictionary, modulated_profiles, scale_ladder
from .maximal import MaximalParams, require_grand_order, require_hardy
from .slice_norms import SliceParams

#: log2 of the most cells the largest cube of a sweep may hold
SWEEP_CELLS_LOG2 = 26
#: log2 of the most cells the box that holds every sweep cube may hold
SWEEP_BOX_CELLS_LOG2 = 27
#: log2 of the most cubes a sweep may hold (side lengths times centers)
SWEEP_CUBES_LOG2 = 14
#: log2 of the most cells of a ball's arrays: ball_reduce pads a field padded
#: by k = 2t/h (2t, the largest radius a check takes) by k again
BALL_CELLS_LOG2 = 27
_LEAST_FLOAT_EXP = -1074  # 2.0 ** -1074 is the least positive float


@dataclass
class ScenarioConfig:
    """All free parameters of a scenario run."""

    n: int = 1
    h: float = 2.0 ** -8
    functional_tag: str = "power:2"
    t: float = 1.0
    q: float = 2.0
    a: float = MaximalParams.a
    b: float = MaximalParams.b
    N: int = 3
    dict_size: int = 3
    ladder_depth: int = 3
    d: int = None
    r: float = CZParams.r
    s: float = None
    c0: float = CZParams.c0
    tol_moment: float = CZParams.tol_moment
    tol_rec: float = 1e-6
    pairing_slack: float = 0.01
    side_exp_lo: int = -6
    side_exp_hi: int = 5
    center_lo: float = -4.0
    center_hi: float = 4.0
    center_step: float = 1.0
    family_spec: str = "bumps:count=10"
    checks: tuple = ()

    def __post_init__(self):
        cap = aggregation_cap(self.phi().p_minus, self.q)
        if self.s is None:
            self.s = 0.9 * cap
        if self.d is None:  # a degree that is not finite: validate names s
            with contextlib.suppress(PreconditionError):
                self.d = max(least_degree(self.n, self.s), 0)

    # -- derived objects ---------------------------------------------------

    def phi(self):
        try:
            return orlicz.from_tag(self.functional_tag)
        except ValueError as exc:
            raise ConfigError(f"functional.tag: {exc}") from exc

    def slice_params(self):
        return SliceParams(self.t, self.q, self.phi())

    def maximal_params(self):
        return MaximalParams(build_dictionary(self.N, self.ladder_depth,
                                              self.h, self.dict_size, self.n),
                             a=self.a, b=self.b)

    def cz_params(self, maximal):
        return CZParams(slice_params=self.slice_params(), maximal=maximal,
                        d=self.d, r=self.r, c0=self.c0,
                        tol_moment=self.tol_moment)

    def sweep_cubes(self):
        sides = range(self.side_exp_lo, self.side_exp_hi + 1)
        centers = np.arange(self.center_lo,
                            self.center_hi + self.center_step / 2,
                            self.center_step)
        return cube_sweep(sides, centers, self.n)

    def family(self, seed):
        return generate_family(self.family_spec, seed, self.h, self.n)

    # -- validation --------------------------------------------------------

    def validate(self):
        for key in ("atomic.tol_rec", "tolerances.pairing_slack",
                    "sweep.center_lo", "sweep.center_hi"):
            if not np.isfinite(v := getattr(self, key.partition(".")[2])):
                raise ConfigError(f"{key} must be finite: {v}")
        if self.n not in (1, 2):
            raise ConfigError(f"grid.n must be 1 or 2: {self.n}")
        for key, message in broken(DOMAINS + HYPOTHESES, self):
            raise ConfigError(f"{key}: {message}")
        if self.n * math.log2(8 * self.t / self.h + 1) > BALL_CELLS_LOG2:
            raise ConfigError(f"slice.t = {self.t}, grid.h = {self.h}: the "
                              f"arrays of a ball of radius 2t would hold more "
                              f"than 2^{BALL_CELLS_LOG2} cells")
        if self.side_exp_lo >= 0:
            raise ConfigError(f"sweep.side_exp_lo must be negative, so the "
                              f"cube sweep straddles side length 1: "
                              f"{self.side_exp_lo}")
        if self.side_exp_lo < _LEAST_FLOAT_EXP:
            raise ConfigError(f"sweep.side_exp_lo must be at least "
                              f"{_LEAST_FLOAT_EXP}, so every side length is "
                              f"a positive float: {self.side_exp_lo}")
        if self.side_exp_hi < 0:
            raise ConfigError(f"sweep.side_exp_hi must be nonnegative, so "
                              f"the cube sweep straddles side length 1: "
                              f"{self.side_exp_hi}")
        if self.side_exp_hi > SWEEP_CELLS_LOG2 / self.n + math.log2(self.h):
            raise ConfigError(
                f"sweep.side_exp_hi = {self.side_exp_hi}: the sweep's largest "
                f"cube would hold more than 2^{SWEEP_CELLS_LOG2} cells")
        if self.center_hi < self.center_lo:
            raise ConfigError("sweep.center_hi is below sweep.center_lo")
        width = self.center_hi - self.center_lo + 2.0 ** self.side_exp_hi
        if self.n * math.log2(width / self.h) > SWEEP_BOX_CELLS_LOG2:
            raise ConfigError(
                f"sweep.center_lo, sweep.center_hi: the box that holds the "
                f"sweep's cubes on [{self.center_lo}, {self.center_hi}] "
                f"would hold more than 2^{SWEEP_BOX_CELLS_LOG2} cells")
        # np.arange's length in sweep_cubes, times the side lengths
        centers = (self.center_hi + self.center_step / 2 - self.center_lo) \
            / self.center_step
        sides = self.side_exp_hi - self.side_exp_lo + 1
        if not centers <= 2 ** SWEEP_CUBES_LOG2 \
                or math.ceil(centers) * sides > 2 ** SWEEP_CUBES_LOG2:
            raise ConfigError(
                f"sweep.center_step = {self.center_step}, sweep.side_exp_lo "
                f"= {self.side_exp_lo}: {centers:.6g} centers times {sides} "
                f"side lengths exceed 2^{SWEEP_CUBES_LOG2} sweep cubes")
        return self


#: (key, guard call on a config) of each key domain that the library guards
DOMAINS = (
    ("grid.h", lambda c: require_spacing(c.h)),
    ("slice.t", lambda c: require_positive(t=c.t)),
    ("slice.q", lambda c: require_positive(q=c.q)),
    ("maximal.a", lambda c: require_positive(aperture=c.a)),
    ("maximal.b", lambda c: require_positive(b=c.b)),
    ("atomic.r", lambda c: require_size_exponent(c.r)),
    ("atomic.c0", lambda c: require_positive(c0=c.c0)),
    ("atomic.tol_moment", lambda c: require_tol_moment(c.tol_moment)),
    ("sweep.center_step", lambda c: require_positive(step=c.center_step)),
    ("family.spec", lambda c: parse_spec(c.family_spec, c.n)),
)
#: and of each hypothesis, checked after DOMAINS; the degree rule takes p = s
HYPOTHESES = (
    ("slice.t", lambda c: require_resolution(c.t, c.h, "slice radius")),
    ("maximal.dict_size", lambda c: modulated_profiles(c.n, c.dict_size)),
    ("maximal.ladder_depth", lambda c: scale_ladder(c.ladder_depth, c.h)),
    ("maximal.b", lambda c: require_hardy(c.b, c.n, c.phi().p_minus, c.q)),
    ("maximal.N", lambda c: require_grand_order(c.N, c.b)),
    ("atomic.s", lambda c: require_aggregation(c.s, c.phi().p_minus, c.q)),
    ("atomic.s", lambda c: least_degree(c.n, c.s)),
    ("atomic.d", lambda c: require_degree(c.d, c.n, c.s)),
)


def broken(hypotheses, cfg):
    """(key, message) of each (key, guard) whose guard(cfg) raises, lazily."""
    for key, guard in hypotheses:
        try:
            guard(cfg)
        except SliceHardyError as exc:
            yield key, str(exc)


_SECTIONS = {
    "grid": {"n": int, "h": float},
    "functional": {"tag": ("functional_tag", str)},
    "slice": {"t": float, "q": float},
    "maximal": {"a": float, "b": float, "N": int, "dict_size": int,
                "ladder_depth": int},
    "atomic": {"d": int, "r": float, "s": float, "c0": float,
               "tol_moment": float, "tol_rec": float},
    "sweep": {"side_exp_lo": int, "side_exp_hi": int, "center_lo": float,
              "center_hi": float, "center_step": float},
    "family": {"spec": ("family_spec", str)},
    "tolerances": {"pairing_slack": float},
    "checks": {"run": ("checks", lambda v: tuple(
        s.strip() for s in v.split(",") if s.strip()))},
}


def load_config(path=None):
    """Read a config file (or defaults) and validate every hypothesis."""
    kwargs = {}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (N vs n)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            schema = _SECTIONS[section]
            for key, raw in parser.items(section):
                if key not in schema:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
                spec = schema[key]
                name, conv = spec if isinstance(spec, tuple) else (key, spec)
                try:
                    kwargs[name] = conv(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r}") from exc
    return ScenarioConfig(**kwargs).validate()
