"""Orlicz and Musielak-Orlicz functionals, modulars and Luxemburg norms.

The Luxemburg gauge inf{lambda > 0 : modular(f / lambda) <= 1} is the root
of log modular = 0 in log lambda.  One vectorized solver finds it for
many rows at once, by Newton steps in log lambda with a bisection guard,
so every functional gives its slope tau Phi'(tau) (tau d theta / d tau
for a Musielak one).  The gauges, the Musielak gauge and the inverse of
Phi all call that solver.  The gauges of many rows are warm started:
every 8th row is solved first, and the others start from those rows'
gauge-to-mass ratios, interpolated along the row order.  Power
functionals take the closed form in luxemburg_norm_rows: the gauge is
the L^p quadrature norm, grid.p_mean of each row.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDataError, NumericFailure, PreconditionError, \
    require_finite, require_positive
from .grid import p_mean

DEFAULT_TOL = 1e-10
_INVERSE_TOL = 1e-14
_MAX_STEPS = 400
_LOG2 = np.log(2.0)
_LAM_MIN = 1e-300  # gauges below this scale are taken as 0
_LOG_LAM_MIN = np.log(_LAM_MIN)
_LOG_LAM_MAX = np.log(1e308)  # a row that needs a larger scale fails
_FLOAT_MAX = np.finfo(float).max
#: window cells (128 KB) per evaluation block of luxemburg_norm_rows
_BLOCK_CELLS = 1 << 14
#: rows per anchor of _warm_gauges
_ANCHOR_STRIDE = 8


class OrliczFunction:
    """A Young-type functional with declared lower/upper type exponents.

    The exponents are user inputs, taken as declared; the tests check the
    built-in ones empirically on a log-spaced sample grid.
    """

    def __init__(self, evaluate, p_minus, p_plus, *, tau_dphi, name="orlicz",
                 power_exponent=None):
        require_positive(p_minus=p_minus, p_plus=p_plus)
        if not callable(tau_dphi):
            raise PreconditionError("tau_dphi must be callable")
        self._evaluate = evaluate
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.name = name
        #: set for tau -> tau^p; enables the closed-form gauge
        self.power_exponent = power_exponent
        #: (tau, Phi(tau)) -> tau Phi'(tau), free to overwrite tau: the
        #: slope of the gauge solver's Newton steps
        self.tau_dphi = tau_dphi

    def __call__(self, tau):
        return self._evaluate(np.asarray(tau, dtype=float))

    def inverse(self, y):
        """Solve Phi(u) = y for u >= 0, elementwise over an array y.

        u = 0 where y <= 0.  Otherwise u = w y for the root w of the
        nonincreasing map w -> y / Phi(w y) = 1, which the gauge solver of
        this module finds from w = 1, clear of its floor at any y.  A
        scalar y gives a float; a non-finite y is rejected, and a y above
        Phi(largest float), whose root passes the float range, raises
        NumericFailure.  Below it, a w y that overflows is capped, unwarned,
        and taken as too large.
        """
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise InvalidDataError("non-finite value in y")
        u = np.zeros(y.shape)
        pos = y > 0
        yp = y[pos]
        with np.errstate(over="ignore"):
            top = self(_FLOAT_MAX)
            if np.any(yp > top):
                raise NumericFailure(f"Phi^-1(y) passes the float range for "
                                     f"y above Phi(largest float) = {top:.6g}")
            if self.power_exponent is not None:
                u[pos] = yp ** (1.0 / self.power_exponent)
            elif yp.size:
                def log_ratio(w, idx):
                    v = np.minimum(w * yp[idx], _FLOAT_MAX)
                    val = self(v)
                    g = np.where(v < _FLOAT_MAX, np.log(yp[idx] / val),
                                 -np.inf)
                    return g, -self.tau_dphi(v, val) / val

                u[pos] = yp * _solve_gauge(log_ratio, np.ones(yp.size),
                                           _INVERSE_TOL)
        u = np.minimum(u, _FLOAT_MAX)
        return float(u) if u.ndim == 0 else u

    def __repr__(self):
        return f"OrliczFunction({self.name})"


class MusielakFunction:
    """A point-dependent functional theta(x, tau)."""

    def __init__(self, evaluate, *, tau_dtheta, name="musielak"):
        self._evaluate = evaluate
        #: (tau, theta(x, tau)) -> tau d theta / d tau, as tau_dphi
        self.tau_dtheta = tau_dtheta
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
                          tau_dphi=lambda tau, val: p * val,
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
    from the values val = Phi(tau), in tau's buffer: no second log.  The
    same formula gives tau d theta / d tau of musielak_log."""
    tau += np.e
    np.divide(val, tau, out=tau)
    tau *= val
    return np.subtract(val, tau, out=tau)


def musielak_log():
    """theta(x, tau) = tau / (log(e+|x|) + log(e+tau))."""
    return MusielakFunction(
        lambda x, tau: tau / (np.log(np.e + x) + np.log(np.e + tau)),
        tau_dtheta=_log_damped_tau_dphi,
        name="musielak_log")


def from_tag(tag):
    """Resolve a string tag: "power:p" or "log_damped"."""
    if tag.startswith("power:"):
        try:
            p = float(tag.split(":", 1)[1])
        except ValueError as exc:
            raise PreconditionError(
                f"power exponent of {tag!r} is not a number") from exc
        return power(p)
    if tag == "log_damped":
        return log_damped()
    raise PreconditionError(f"unknown functional tag {tag!r}")


# -- modulars and norms -----------------------------------------------------

def musielak_modular(theta, f, lam):
    require_positive(lam=lam)
    require_finite(f)
    x = f.center_radii()
    return float(theta(x, np.abs(f.values) / lam).sum() * f.cell_volume)


def _solve_gauge(log_modular, start, tol):
    """Gauges of many rows at once: Newton steps in log lam, bisection guard.

    log_modular(lam, idx) returns, for rows idx at scales lam, the log of
    the modular, nonincreasing in lam, and its slope in log lam.  From
    start, each row steps to its Newton point if that lies strictly
    inside the row's bracket; if not, it doubles or halves lam until
    bracketed, then bisects.  Only rows not yet converged are evaluated.
    A row stops once |log modular| <= tol, at that Newton point, or once
    its bracket is narrower than tol or its step lands on a bracket end
    (near lam = 1e300 the spacing of log lam passes tol).  The Newton
    point is lam exp(-step), lam the scale evaluated, not exp(log lam -
    step): above lam = 1e223 the spacing of log lam is 1.1e-13 relative.
    Gauges below 1e-300 are 0; needing lam above 1e308 is a failure to
    bracket.
    """
    x = np.log(np.maximum(start, _LAM_MIN))
    out = np.zeros(x.shape)
    idx = np.arange(x.size)
    a = np.full(x.shape, -np.inf)  # modular > 1 at a
    b = np.full(x.shape, np.inf)  # modular <= 1 at b
    for _ in range(_MAX_STEPS):
        lam = np.exp(x)
        g, d = log_modular(lam, idx)
        hit = np.abs(g) <= tol
        done = hit | (b - a <= tol) | (x <= a) | (x >= b)
        if done.any():
            out[idx[done]] = (lam * np.exp(np.where(hit, -g / d, 0.0)))[done]
            if done.all():
                return out
            idx, x, g, d, a, b = (v[~done] for v in (idx, x, g, d, a, b))
        above = g > 0
        a, b = np.where(above, x, a), np.where(above, b, x)
        newton = x - g / d
        mid = 0.5 * (a + b)  # +-inf until bracketed
        x = np.where(np.isinf(mid), x + np.copysign(_LOG2, mid), mid)
        x = np.where((newton > a) & (newton < b), newton, x)
        if (x > _LOG_LAM_MAX).any():
            break
        keep = x >= _LOG_LAM_MIN
        if not keep.all():
            if not keep.any():
                return out
            idx, x, a, b = (v[keep] for v in (idx, x, a, b))
    if np.isinf(b).any():
        raise NumericFailure("failed to bracket the Luxemburg gauge")
    raise NumericFailure("Luxemburg gauge iteration did not converge")


def luxemburg_norm(phi, f, tol=DEFAULT_TOL):
    """Luxemburg gauge of f in the Orlicz space of phi."""
    require_finite(f)
    return float(luxemburg_norm_rows(phi, f.values.reshape(1, -1),
                                     f.cell_volume, tol)[0])


def musielak_norm(theta, f):
    """Luxemburg-type gauge for the point-dependent modular of theta."""
    require_finite(f)
    m = f.max_abs()
    if m == 0.0:
        return 0.0
    x, vals = f.center_radii().ravel(), np.abs(f.values).ravel()

    def log_modular(lam, idx):
        tau = vals / lam[:, None]
        val = theta(x, tau)
        total = val.sum(axis=1)
        return (np.log(total * f.cell_volume),
                -theta.tau_dtheta(tau, val).sum(axis=1) / total)

    return float(_solve_gauge(log_modular, [m], DEFAULT_TOL)[0])


def _warm_gauges(log_modular, start, tol):
    """_solve_gauge, in fewer steps where gauge / start varies slowly
    along the row order (as over the slice norm's windows).

    Every _ANCHOR_STRIDE-th row and the last one are anchors, solved from
    their cold starts `start`.  Every other row i is then solved, in one
    more call, from start_i exp(r_i), r_i the log of gauge / start of the
    anchors interpolated linearly by position.  An anchor whose gauge is
    0 (below 1e-300) or whose start is 0 or not finite gives r = 0.
    """
    pos = np.arange(start.size)
    anchor = pos % _ANCHOR_STRIDE == 0
    anchor[-1:] = True
    at, rest = pos[anchor], pos[~anchor]
    lam = np.empty(start.size)
    lam[at] = _solve_gauge(lambda scale, idx: log_modular(scale, at[idx]),
                           start[at], tol)
    if rest.size:
        ok = (lam[at] >= _LAM_MIN) & (start[at] >= _LAM_MIN) \
            & (start[at] <= _FLOAT_MAX)
        r = np.log(lam[at], out=np.zeros(at.size), where=ok) \
            - np.log(start[at], out=np.zeros(at.size), where=ok)
        warm = start[rest] * np.exp(np.interp(rest, at, r))
        lam[rest] = _solve_gauge(
            lambda scale, idx: log_modular(scale, rest[idx]), warm, tol)
    return lam


def luxemburg_norm_rows(phi, rows, cell_volume, tol=DEFAULT_TOL):
    """Vectorized Luxemburg gauge of many sample vectors at once.

    `rows` has shape (m, w); row i holds the samples of one function and
    the result is the array of m gauges.  Only rows.shape and rows[ix], ix
    an index array, are read, so the slice norm hands over windows that
    are gathered on demand, a block of at most _BLOCK_CELLS cells (at
    least one row) per evaluation.  A row's cold start is its L^1 mass,
    an upper bound of the gauge when Phi(tau) <= tau (as for log_damped);
    _warm_gauges solves every 8th row from it and starts the others from
    the interpolated gauge-to-mass ratios.  A power Phi = tau^p takes the
    closed form instead, each row's grid.p_mean, so its gauge is
    GridFunction.lp_norm bit for bit.  A non-finite sample raises
    InvalidDataError; rows of width 0 have gauge 0."""
    step = max(_BLOCK_CELLS // max(rows.shape[1], 1), 1)
    p = phi.power_exponent

    def blocks(ix):
        """(positions in ix, |rows[ix]| there) one block at a time."""
        for i in range(0, ix.size, step):
            tau = rows[ix[i:i + step]]
            yield slice(i, i + step), np.abs(tau, out=tau)

    def log_modular(lam, idx):
        total, slope = np.empty(idx.size), np.empty(idx.size)
        for at, tau in blocks(act[idx]):
            tau /= lam[at, None]
            val = phi(tau)
            total[at] = val.sum(axis=1)
            slope[at] = phi.tau_dphi(tau, val).sum(axis=1)
        return np.log(total * cell_volume), -slope / total

    out, mass = np.zeros(rows.shape[0]), np.zeros(rows.shape[0])
    with np.errstate(over="ignore"):
        for at, tau in blocks(np.arange(rows.shape[0])):
            mass[at] = tau.sum(axis=1)
        start = np.minimum(mass * cell_volume, _FLOAT_MAX)
    # a NaN sample makes its row's mass NaN, an inf one makes it inf; a
    # finite row can overflow its mass too, so inf masses look at the row,
    # and its solve starts from the largest float
    big = np.flatnonzero(~np.isfinite(mass))
    if big.size and (np.isnan(mass[big]).any()
                     or not np.isfinite(rows[big]).all()):
        raise InvalidDataError("non-finite sample in rows")
    if p is not None:
        for at, tau in blocks(np.arange(rows.shape[0])):
            out[at] = [p_mean(row, p, cell_volume) for row in tau]
        return out
    act = np.flatnonzero(mass)  # a sum of |samples| is 0 only if all are
    if act.size:
        out[act] = _warm_gauges(log_modular, start[act], tol)
    return out
