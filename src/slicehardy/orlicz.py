"""Orlicz and Musielak-Orlicz functionals, modulars and Luxemburg norms.

The Luxemburg gauge inf{lambda > 0 : modular(f / lambda) <= 1} is the root
of log modular = 0 in log lambda.  One vectorized solver finds it for
many rows at once.  For a functional that gives tau Phi'(tau), as
log_damped does from its own values, each row takes Newton steps in log
lambda from its L^1 mass, kept inside the Illinois bracket its
evaluations build; otherwise it brackets by doubling, then runs
safeguarded Illinois regula falsi on the rows not yet converged.  The
gauges, the Musielak gauge and the inverse of Phi all call that solver.
Power functionals take a closed-form shortcut (the gauge is the plain L^p
quadrature norm).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataError, NumericFailure, PreconditionError, \
    require_positive

DEFAULT_TOL = 1e-10
_INVERSE_TOL = 1e-14
_MAX_STEPS = 400
_LOG2 = np.log(2.0)
_LAM_MIN = 1e-300  # gauges below this scale are taken as 0
_LOG_LAM_MIN = np.log(_LAM_MIN)


class OrliczFunction:
    """A Young-type functional with declared lower/upper type exponents.

    The exponents are user inputs, taken as declared; the tests check the
    built-in ones empirically on a log-spaced sample grid.
    """

    def __init__(self, evaluate, p_minus, p_plus, name="orlicz",
                 power_exponent=None, tau_dphi=None):
        require_positive(p_minus=p_minus, p_plus=p_plus)
        self._evaluate = evaluate
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.name = name
        #: set for tau -> tau^p; enables the closed-form gauge
        self.power_exponent = power_exponent
        #: (tau, Phi(tau)) -> tau Phi'(tau), free to overwrite tau; enables
        #: Newton steps in the gauge solver
        self.tau_dphi = tau_dphi

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
            u[pos] = _solve_gauge(
                lambda v, idx: (np.log(yp[idx] / self(v)), None),
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
                          p_minus, 1.0, name="log_damped",
                          tau_dphi=_log_damped_tau_dphi)


def _log_damped_tau_dphi(tau, val):
    """tau Phi'(tau) = Phi - Phi^2 / (e + tau) for Phi = tau / log(e + tau),
    from the values val = Phi(tau), in tau's buffer: no second log."""
    tau += np.e
    np.divide(val, tau, out=tau)
    tau *= val
    return np.subtract(val, tau, out=tau)


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
    """Gauges of many rows at once by safeguarded Newton steps in log lam.

    log_modular(lam, idx) returns, for rows idx at scales lam, the log of
    the modular, nonincreasing in lam, and its slope in log lam, or None
    for the slope.  Its root is sought in log lam.  From start, a row steps
    to the Newton point of its last evaluation whenever the slope is known
    and that point lies strictly inside what it knows of the bracket.
    Otherwise it doubles or halves lam until it is bracketed, then takes
    the safeguarded Illinois regula falsi point with the Illinois
    down-weighting of a retained end (Dowell & Jarratt 1971).  Only rows
    not yet converged are evaluated.  A row stops once |log modular| <=
    tol, at that point or, with a slope, at its Newton point, or once its
    bracket is narrower than tol in log lam.  A row whose modular stays
    <= 1 as lam shrinks to 1e-300 has gauge 0.
    """
    x = np.log(np.maximum(start, _LAM_MIN))
    out = np.zeros(x.shape)
    idx = np.arange(x.size)
    g, d = log_modular(np.exp(x), idx)
    up = g > 0
    a, ga = np.where(up, x, -np.inf), g  # modular > 1 at a
    b, gb = np.where(up, np.inf, x), g  # modular <= 1 at b
    side = np.zeros(x.size, dtype=int)  # end replaced last: a 1, b -1
    for _ in range(_MAX_STEPS):
        width = b - a  # inf until bracketed
        xn = np.where(np.isinf(b), x + _LOG2, x - _LOG2)
        br = np.flatnonzero(width < np.inf)
        if br.size:
            lo, hi = a[br], b[br]
            sec = hi - gb[br] * width[br] / (gb[br] - ga[br])
            xn[br] = np.where((sec > lo) & (sec < hi), sec, 0.5 * (lo + hi))
        if d is not None:
            newton = x - g / d
            xn = np.where((newton > a) & (newton < b), newton, xn)
        keep = xn >= _LOG_LAM_MIN
        if not keep.all():
            if not keep.any():
                return out
            idx, xn, a, ga, b, gb, side, width = (
                v[keep] for v in (idx, xn, a, ga, b, gb, side, width))
        g, d = log_modular(np.exp(xn), idx)
        hit = np.abs(g) <= tol
        done = hit | (width <= tol) | (xn <= a) | (xn >= b)
        if done.any():
            root = xn if d is None else np.where(hit, xn - g / d, xn)
            out[idx[done]] = np.exp(root[done])
            if done.all():
                return out
            keep = ~done
            idx, xn, g, d, a, ga, b, gb, side, width = (
                v if v is None else v[keep]
                for v in (idx, xn, g, d, a, ga, b, gb, side, width))
        above = g > 0
        gb = np.where(above & (side == 1), 0.5 * gb, gb)
        ga = np.where(~above & (side == -1), 0.5 * ga, ga)
        a, ga = np.where(above, xn, a), np.where(above, g, ga)
        b, gb = np.where(above, b, xn), np.where(above, gb, g)
        side = np.where(width < np.inf, np.where(above, 1, -1), 0)
        x = xn
    if np.isinf(b).any():
        raise NumericFailure("failed to bracket the Luxemburg gauge")
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
        lambda lam, idx: (np.log(theta(x, vals / lam[:, None]).sum(axis=1)
                                 * f.cell_volume), None),
        [m], DEFAULT_TOL)[0])


def luxemburg_norm_rows(phi, rows, cell_volume, tol=DEFAULT_TOL):
    """Vectorized Luxemburg gauge of many sample vectors at once.

    `rows` has shape (m, w); row i holds the samples of one function and
    the result is the array of m gauges.  The slice norm of a non-power
    functional uses it for one gauge per outer sample point.  With
    phi.tau_dphi, each row takes Newton steps from its L^1 mass, an upper
    bound of the gauge when Phi(tau) <= tau, as for log_damped; without
    it, Illinois steps from its max.  |rows| is taken inside each
    evaluation, so no absolute copy of `rows` outlives one.
    """
    rows = np.asarray(rows, dtype=float)
    out = np.zeros(rows.shape[0])
    m = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    act = np.flatnonzero(m)
    if not act.size:
        return out
    tau_dphi = phi.tau_dphi

    def log_modular(lam, idx):
        if idx.size == rows.shape[0]:
            tau = np.abs(rows)
        else:
            tau = rows[act[idx]]
            np.abs(tau, out=tau)
        tau /= lam[:, None]
        val = phi(tau)
        total = val.sum(axis=1)
        g = np.log(total * cell_volume)
        if tau_dphi is None:
            return g, None
        return g, -tau_dphi(tau, val).sum(axis=1) / total

    if tau_dphi is None:
        start = m[act]
    else:
        start = np.abs(rows).sum(axis=1)[act] * cell_volume
    out[act] = _solve_gauge(log_modular, start, tol)
    return out
