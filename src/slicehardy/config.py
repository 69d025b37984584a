"""Scenario configuration: flat INI-style sections, validated at load.

Every derived hypothesis of the computational definitions is checked in
:meth:`ScenarioConfig.validate`; a violation raises :class:`ConfigError`
naming the hypothesis, so no operation can be reached with parameters
outside its documented preconditions.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from . import orlicz
from .errors import ConfigError
from .families import generate_family, parse_spec
from .kernels import build_dictionary, scale_ladder
from .maximal import MaximalParams
from .slice_norms import SliceParams


@dataclass
class ScenarioConfig:
    """All free parameters of a scenario run."""

    n: int = 1
    h: float = 2.0 ** -8
    functional_tag: str = "power:2"
    t: float = 1.0
    q: float = 2.0
    a: float = 1.0
    b: float = 2.5
    N: int = 3
    dict_size: int = 3
    ladder_depth: int = 3
    d: int = None
    r: float = np.inf
    s: float = None
    c0: float = 4.5
    tol_moment: float = 1e-8
    tol_rec: float = 1e-6
    pairing_slack: float = 0.01
    side_exp_lo: int = -6
    side_exp_hi: int = 5
    center_lo: float = -4.0
    center_hi: float = 4.0
    center_step: float = 1.0
    family_spec: str = "bumps:count=10"
    checks: tuple = ()
    _dictionary: object = field(default=None, repr=False)
    #: CZ decompositions of the family by seed, shared by one run's checks
    decompositions: dict = field(default_factory=dict, init=False,
                                 repr=False)

    def __post_init__(self):
        phi = self.phi()
        cap = min(phi.p_minus, self.q, 1.0)
        if self.s is None:
            self.s = 0.9 * cap
        if self.d is None and np.isfinite(self.s) and self.s > 0:
            self.d = max(int(np.floor(self.n * (1.0 / self.s - 1.0))), 0)

    # -- derived objects ---------------------------------------------------

    def phi(self):
        return orlicz.from_tag(self.functional_tag)

    def slice_params(self, t=None):
        return SliceParams(self.t if t is None else t, self.q, self.phi())

    def dictionary(self):
        if self._dictionary is None:
            self._dictionary = build_dictionary(
                self.N, self.ladder_depth, self.h, self.dict_size, self.n)
        return self._dictionary

    def maximal_params(self):
        return MaximalParams(a=self.a, b=self.b, N=self.N,
                             dictionary=self.dictionary(),
                             ladder=scale_ladder(self.ladder_depth))

    def cz_params(self):
        from .atomic import CZParams

        return CZParams(slice_params=self.slice_params(),
                        maximal=self.maximal_params(), d=self.d, r=self.r,
                        s=self.s, c0=self.c0, tol_moment=self.tol_moment,
                        tol_rec=self.tol_rec)

    def sweep_cubes(self):
        from .campanato import cube_sweep

        sides = range(self.side_exp_lo, self.side_exp_hi + 1)
        centers = np.arange(self.center_lo,
                            self.center_hi + self.center_step / 2,
                            self.center_step)
        return cube_sweep(sides, centers, self.n)

    def family(self, seed):
        return generate_family(self.family_spec, seed, self.h, self.n)

    # -- validation --------------------------------------------------------

    def validate(self):
        for section, schema in _SECTIONS.items():
            for key, spec in schema.items():
                v = getattr(self, spec[0] if isinstance(spec, tuple) else key)
                if isinstance(v, float) and not np.isfinite(v) \
                        and not (key == "r" and v == np.inf):
                    raise ConfigError(f"{section}.{key} must be finite: {v}")
        phi = self.phi()
        if self.q <= 0:
            raise ConfigError(f"slice.q must be positive: {self.q}")
        if self.n not in (1, 2):
            raise ConfigError("dimension n must be 1 or 2")
        if self.h <= 0:
            raise ConfigError("grid spacing must be positive")
        if self.t < 2 * self.h:
            raise ConfigError("slice radius t must be at least 2h")
        if self.dict_size < 1:
            raise ConfigError("maximal.dict_size must be at least 1")
        if self.ladder_depth < 0:
            raise ConfigError("maximal.ladder_depth must be nonnegative")
        if 2.0 ** -self.ladder_depth < 2 * self.h:
            raise ConfigError("smallest ladder scale below 2h")
        cap = min(phi.p_minus, self.q)
        if self.b <= 2 * self.n / cap:
            raise ConfigError(
                f"hypothesis b > 2n/min(p_minus, q) violated: "
                f"b={self.b} <= {2 * self.n / cap}")
        if self.N < int(np.floor(self.b + 1)):
            raise ConfigError(
                f"hypothesis N >= floor(b+1) violated: N={self.N} < "
                f"{int(np.floor(self.b + 1))}")
        s_cap = min(phi.p_minus, self.q, 1.0)
        if not 0 < self.s < s_cap:
            raise ConfigError(
                f"hypothesis atomic.s in (0, min(p_minus, q, 1)) violated: "
                f"s={self.s}, cap={s_cap}")
        need_d = int(np.floor(self.n * (1.0 / self.s - 1.0)))
        if self.d < need_d:
            raise ConfigError(
                f"hypothesis d >= floor(n(1/s - 1)) violated: "
                f"d={self.d} < {need_d}")
        if self.side_exp_lo >= 0 or self.side_exp_hi < 0:
            raise ConfigError("cube sweep must straddle side length 1")
        if self.center_step <= 0:
            raise ConfigError("sweep.center_step must be positive")
        if self.center_hi < self.center_lo:
            raise ConfigError("sweep.center_hi is below sweep.center_lo")
        try:
            parse_spec(self.family_spec, self.n)
        except ConfigError as exc:
            raise ConfigError(f"family.spec: {exc}") from exc
        return self


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
    try:
        cfg = ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
