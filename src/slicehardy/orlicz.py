"""Orlicz and Musielak-Orlicz functionals, modulars and Luxemburg norms.

The Luxemburg gauge inf{lambda > 0 : modular(f / lambda) <= 1} is the root
of log modular = 0 in log lambda.  One vectorized solver finds it for
many rows at once: it brackets by doubling, then runs safeguarded Illinois
regula falsi on the rows not yet converged.  The gauges, the Musielak
gauge and the inverse of Phi all call that solver.  Power functionals take
a closed-form shortcut (the gauge is the plain L^p quadrature norm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDataError, NumericFailure

DEFAULT_TOL = 1e-10
_MAX_DOUBLINGS = 200
_MAX_ITERATIONS = 200
_LOG2 = np.log(2.0)
_LOG_LAM_MIN = np.log(1e-300)  # gauges below this scale are taken as 0


class OrliczFunction:
    """A Young-type functional with declared lower/upper type exponents.

    The exponents are user inputs; :func:`validate_orlicz` checks them
    empirically on a log-spaced sample grid.
    """

    def __init__(self, evaluate, p_minus, p_plus, c_lower=1.0, c_upper=1.0,
                 name="orlicz", power_exponent=None):
        if p_minus <= 0 or p_plus <= 0:
            raise ValueError("type exponents must be positive")
        if c_lower <= 0 or c_upper <= 0:
            raise ValueError("type constants must be positive")
        self._evaluate = evaluate
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.c_lower = float(c_lower)
        self.c_upper = float(c_upper)
        self.name = name
        #: set for tau -> tau^p; enables the closed-form gauge
        self.power_exponent = power_exponent

    def __call__(self, tau):
        return self._evaluate(np.asarray(tau, dtype=float))

    def inverse(self, y, tol=1e-14):
        """Solve Phi(u) = y for u >= 0, elementwise over an array y.

        u = 0 where y <= 0.  Otherwise u is the root of the nonincreasing
        map v -> y / Phi(v) = 1, found by the gauge solver of this module;
        a scalar y gives a float.
        """
        y = np.asarray(y, dtype=float)
        u = np.zeros(y.shape)
        pos = y > 0
        yp = y[pos]
        if self.power_exponent is not None:
            u[pos] = yp ** (1.0 / self.power_exponent)
        elif yp.size:
            u[pos] = _solve_gauge(lambda v, idx: np.log(yp[idx] / self(v)),
                                  yp, tol)
        return float(u) if u.ndim == 0 else u

    def __repr__(self):
        return f"OrliczFunction({self.name})"


class MusielakFunction:
    """A point-dependent functional theta(x, tau)."""

    def __init__(self, evaluate, name="musielak"):
        self._evaluate = evaluate
        self.name = name

    def __call__(self, x_norm, tau):
        return self._evaluate(np.asarray(x_norm, dtype=float),
                              np.asarray(tau, dtype=float))

    def __repr__(self):
        return f"MusielakFunction({self.name})"


# -- built-in functionals ---------------------------------------------------

def power(p):
    """Phi(tau) = tau^p; lower and upper type are both p."""
    p = float(p)
    if p <= 0:
        raise ValueError("power exponent must be positive")
    return OrliczFunction(lambda tau: tau ** p, p, p,
                          name=f"power:{p:g}", power_exponent=p)


def log_damped(p_minus=0.9):
    """Phi(tau) = tau / log(e + tau), upper type 1, declared lower type.

    The lower type exponent is not canonical; any value in (0, 1) validates
    on the standard sweep with a constant depending on it.
    """
    if not 0 < p_minus < 1:
        raise ValueError("declared lower type must lie in (0, 1)")
    c_lower = _log_damped_lower_constant(p_minus)
    return OrliczFunction(lambda tau: tau / np.log(np.e + tau),
                          p_minus, 1.0, c_lower=c_lower,
                          name="log_damped")


def _log_damped_lower_constant(p_minus):
    # sup over s in (0,1), tau > 0 of s^(1-p) log(e+tau)/log(e+s tau),
    # estimated on a coarse log grid and padded by 10%.
    s = np.exp(np.linspace(np.log(1e-8), 0.0, 120))[:, None]
    tau = np.exp(np.linspace(np.log(1e-8), np.log(1e8), 120))[None, :]
    ratio = s ** (1 - p_minus) * np.log(np.e + tau) / np.log(np.e + s * tau)
    return 1.1 * float(ratio.max())


def musielak_log():
    """theta(x, tau) = tau / (log(e+|x|) + log(e+tau))."""
    return MusielakFunction(
        lambda x, tau: tau / (np.log(np.e + x) + np.log(np.e + tau)),
        name="musielak_log")


def from_tag(tag):
    """Resolve a string tag: "power:p", "log_damped", "musielak_log"."""
    if tag.startswith("power:"):
        return power(float(tag.split(":", 1)[1]))
    if tag == "log_damped":
        return log_damped()
    if tag == "musielak_log":
        return musielak_log()
    raise ValueError(f"unknown functional tag {tag!r}")


# -- modulars and norms -----------------------------------------------------

def modular(phi, f, lam):
    """Quadrature value of the Orlicz modular of f at scale lam."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    return float(phi(np.abs(f.values) / lam).sum() * f.cell_volume)


def musielak_modular(theta, f, lam):
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    x = f.center_radii()
    return float(theta(x, np.abs(f.values) / lam).sum() * f.cell_volume)


def _solve_gauge(log_modular, start, tol):
    """Gauges of many rows at once by safeguarded Illinois regula falsi.

    log_modular(lam, idx) is the log of the modular of rows idx at scales
    lam; it is nonincreasing in lam, and its root is sought in log lam.
    Each row is bracketed by doubling or halving lam from start, then
    refined by regula falsi with the Illinois down-weighting of a retained
    end (Dowell & Jarratt 1971); only rows not yet converged are evaluated.
    A row stops at the secant point once |log modular| <= tol or its
    bracket is narrower than tol in log lam.  A row whose modular stays
    <= 1 as lam shrinks to 1e-300 has gauge 0.
    """
    x = np.maximum(np.log(np.asarray(start, dtype=float)), _LOG_LAM_MIN)
    out = np.zeros(x.shape)
    g = log_modular(np.exp(x), np.arange(x.size))
    a, ga = x.copy(), g.copy()  # modular > 1 at a
    b, gb = x.copy(), g.copy()  # modular <= 1 at b
    up = g > 0
    step = np.where(up, _LOG2, -_LOG2)
    pend = np.arange(x.size)
    for _ in range(_MAX_DOUBLINGS):
        x[pend] += step[pend]
        pend = pend[x[pend] >= _LOG_LAM_MIN]
        gp = log_modular(np.exp(x[pend]), pend)
        above = gp > 0
        a[pend[above]], ga[pend[above]] = x[pend[above]], gp[above]
        b[pend[~above]], gb[pend[~above]] = x[pend[~above]], gp[~above]
        pend = pend[above == up[pend]]
        if not pend.size:
            break
    else:
        if up[pend].any():
            raise NumericFailure("failed to bracket the Luxemburg gauge")
    # rows whose modular stayed <= 1 down to a tiny lam have gauge 0
    idx = np.setdiff1d(np.nonzero(x >= _LOG_LAM_MIN)[0], pend,
                       assume_unique=True)
    a, ga, b, gb = a[idx], ga[idx], b[idx], gb[idx]
    side = np.zeros(idx.size, dtype=int)  # end replaced last: a 1, b -1
    for _ in range(_MAX_ITERATIONS):
        x = b - gb * (b - a) / (gb - ga)
        bad = ~((x > a) & (x < b))
        x[bad] = 0.5 * (a[bad] + b[bad])
        gx = log_modular(np.exp(x), idx)
        done = (np.abs(gx) <= tol) | (b - a <= tol) | (x <= a) | (x >= b)
        out[idx[done]] = np.exp(x[done])
        above = gx > 0
        gb = np.where(above & (side == 1), 0.5 * gb, gb)
        ga = np.where(~above & (side == -1), 0.5 * ga, ga)
        a, ga = np.where(above, x, a), np.where(above, gx, ga)
        b, gb = np.where(above, b, x), np.where(above, gb, gx)
        keep = ~done
        side = np.where(above, 1, -1)[keep]
        idx, a, ga, b, gb = idx[keep], a[keep], ga[keep], b[keep], gb[keep]
        if not idx.size:
            return out
    raise NumericFailure("Luxemburg gauge iteration did not converge")


def luxemburg_norm(phi, f, tol=DEFAULT_TOL):
    """Luxemburg gauge of f in the Orlicz space of phi."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    if phi.power_exponent is not None:
        return f.lp_norm(phi.power_exponent)
    return float(luxemburg_norm_rows(phi, f.values.reshape(1, -1),
                                     f.cell_volume, tol)[0])


def musielak_norm(theta, f, tol=DEFAULT_TOL):
    """Luxemburg-type gauge for the point-dependent modular of theta."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    m = f.max_abs()
    if m == 0.0:
        return 0.0
    x, vals = f.center_radii().ravel(), np.abs(f.values).ravel()
    return float(_solve_gauge(
        lambda lam, idx: np.log(theta(x, vals / lam[:, None]).sum(axis=1)
                                * f.cell_volume),
        [m], tol)[0])


def luxemburg_norm_rows(phi, rows, cell_volume, tol=DEFAULT_TOL):
    """Vectorized Luxemburg gauge of many sample vectors at once.

    `rows` has shape (m, w); row i holds the samples of one function and
    the result is the array of m gauges.  The slice norm of a non-power
    functional uses it for one gauge per outer sample point.
    """
    rows = np.abs(np.asarray(rows, dtype=float), order="C")  # row-contiguous
    m = rows.max(axis=1)
    out = np.zeros(rows.shape[0])
    active = m > 0
    if not active.any():
        return out
    sub = rows if active.all() else rows[active]

    def log_modular(lam, idx):
        s = sub if idx.size == sub.shape[0] else sub[idx]
        return np.log(phi(s / lam[:, None]).sum(axis=1) * cell_volume)

    out[active] = _solve_gauge(log_modular, m[active], tol)
    return out


# -- empirical validation ---------------------------------------------------

@dataclass
class SampleSpec:
    """Log-spaced (s, tau) sweep used by validate_orlicz."""

    s_min: float = 2.0 ** -20
    s_max: float = 2.0 ** 20
    tau_min: float = 2.0 ** -20
    tau_max: float = 2.0 ** 20
    count: int = 64


@dataclass
class ValidationReport:
    passed: bool
    violations: list = field(default_factory=list)

    def __bool__(self):
        return self.passed


def validate_orlicz(phi, spec=None):
    """Empirically check monotonicity and the declared type inequalities.

    Violations are report content, not errors; each carries the witness
    (kind, s, tau, lhs, rhs).
    """
    spec = spec or SampleSpec()
    viol = []
    tau = np.exp(np.linspace(np.log(spec.tau_min), np.log(spec.tau_max),
                             spec.count))
    vals = phi(tau)
    if abs(float(phi(0.0))) > 0:
        viol.append(("zero", 0.0, 0.0, float(phi(0.0)), 0.0))
    bad = np.nonzero(vals <= 0)[0]
    for i in bad:
        viol.append(("positive", None, float(tau[i]), float(vals[i]), 0.0))
    drops = np.nonzero(np.diff(vals) < -1e-14 * np.abs(vals[:-1]))[0]
    for i in drops:
        viol.append(("nondecreasing", None, float(tau[i + 1]),
                     float(vals[i + 1]), float(vals[i])))

    s_lower = np.exp(np.linspace(np.log(spec.s_min), 0.0, spec.count))
    s_lower = s_lower[s_lower < 1.0]
    s_upper = np.exp(np.linspace(0.0, np.log(spec.s_max), spec.count))
    for s_grid, p, c, kind in (
            (s_lower, phi.p_minus, phi.c_lower, "lower_type"),
            (s_upper, phi.p_plus, phi.c_upper, "upper_type")):
        lhs = phi(s_grid[:, None] * tau[None, :])
        rhs = c * s_grid[:, None] ** p * vals[None, :]
        bad = np.argwhere(lhs > rhs * (1 + 1e-12))
        for i, j in bad[:20]:
            viol.append((kind, float(s_grid[i]), float(tau[j]),
                         float(lhs[i, j]), float(rhs[i, j])))
    return ValidationReport(passed=not viol, violations=viol)
