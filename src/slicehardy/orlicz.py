"""Orlicz and Musielak-Orlicz functionals, modulars and Luxemburg norms.

The Luxemburg gauge inf{lambda > 0 : modular(f / lambda) <= 1} is the root
of log modular = 0 in log lambda.  One vectorized solver finds it for
many rows at once: it brackets by doubling, then runs safeguarded Illinois
regula falsi on the rows not yet converged.  The gauges, the Musielak
gauge and the inverse of Phi all call that solver.  Power functionals take
a closed-form shortcut (the gauge is the plain L^p quadrature norm).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataError, NumericFailure, PreconditionError, \
    require_positive

DEFAULT_TOL = 1e-10
_INVERSE_TOL = 1e-14
_MAX_DOUBLINGS = 200
_MAX_ITERATIONS = 200
_LOG2 = np.log(2.0)
_LOG_LAM_MIN = np.log(1e-300)  # gauges below this scale are taken as 0


class OrliczFunction:
    """A Young-type functional with declared lower/upper type exponents.

    The exponents are user inputs, taken as declared; the tests check the
    built-in ones empirically on a log-spaced sample grid.
    """

    def __init__(self, evaluate, p_minus, p_plus, name="orlicz",
                 power_exponent=None):
        require_positive(p_minus=p_minus, p_plus=p_plus)
        self._evaluate = evaluate
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.name = name
        #: set for tau -> tau^p; enables the closed-form gauge
        self.power_exponent = power_exponent

    def __call__(self, tau):
        return self._evaluate(np.asarray(tau, dtype=float))

    def inverse(self, y):
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
                                  yp, _INVERSE_TOL)
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
    require_positive(power_exponent=p)
    return OrliczFunction(lambda tau: tau ** p, p, p,
                          name=f"power:{p:g}", power_exponent=p)


def log_damped(p_minus=0.9):
    """Phi(tau) = tau / log(e + tau), upper type 1, declared lower type.

    The lower type exponent is not canonical; any value in (0, 1) holds
    with a constant depending on it.
    """
    if not 0 < p_minus < 1:
        raise PreconditionError("declared lower type must lie in (0, 1)")
    return OrliczFunction(lambda tau: tau / np.log(np.e + tau),
                          p_minus, 1.0, name="log_damped")


def musielak_log():
    """theta(x, tau) = tau / (log(e+|x|) + log(e+tau))."""
    return MusielakFunction(
        lambda x, tau: tau / (np.log(np.e + x) + np.log(np.e + tau)),
        name="musielak_log")


def from_tag(tag):
    """Resolve a string tag: "power:p" or "log_damped"."""
    if tag.startswith("power:"):
        return power(float(tag.split(":", 1)[1]))
    if tag == "log_damped":
        return log_damped()
    raise PreconditionError(f"unknown functional tag {tag!r}")


# -- modulars and norms -----------------------------------------------------

def modular(phi, f, lam):
    """Quadrature value of the Orlicz modular of f at scale lam."""
    require_positive(lam=lam)
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
    return float(phi(np.abs(f.values) / lam).sum() * f.cell_volume)


def musielak_modular(theta, f, lam):
    require_positive(lam=lam)
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


def musielak_norm(theta, f):
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
        [m], DEFAULT_TOL)[0])


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
