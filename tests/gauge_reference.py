"""The Illinois-only Luxemburg gauge, as the reference for the Newton one.

This is the solver orlicz ran before it took Newton steps in log lambda:
bracket each row by doubling or halving lambda from the row's max, then
safeguarded Illinois regula falsi (Dowell & Jarratt 1971) on the rows not
yet converged.  It needs no slope.  The tests check
orlicz.luxemburg_norm_rows against luxemburg_norm_rows here, and
OrliczFunction.inverse and orlicz.musielak_norm against solve_gauge.

one_shot_rows is orlicz.luxemburg_norm_rows as it ran before it took its
rows a block at a time: every evaluation over all rows still to solve at
once, with the same Newton solver.  The blocked gauges must equal it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from slicehardy.errors import NumericFailure
from slicehardy.orlicz import DEFAULT_TOL, _solve_gauge

_MAX_DOUBLINGS = 200
_MAX_ITERATIONS = 200
_LOG2 = np.log(2.0)
_LOG_LAM_MIN = np.log(1e-300)  # gauges below this scale are taken as 0


def solve_gauge(log_modular, start, tol):
    """Gauges of many rows at once by safeguarded Illinois regula falsi;
    log_modular(lam, idx) is the log of the modular of rows idx."""
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


def luxemburg_norm_rows(phi, rows, cell_volume, tol=DEFAULT_TOL):
    """Luxemburg gauge of each row of `rows`, started at the row's max."""
    rows = np.abs(np.asarray(rows, dtype=float), order="C")
    m = rows.max(axis=1)
    out = np.zeros(rows.shape[0])
    active = m > 0
    if not active.any():
        return out
    sub = rows if active.all() else rows[active]

    def log_modular(lam, idx):
        s = sub if idx.size == sub.shape[0] else sub[idx]
        return np.log(phi(s / lam[:, None]).sum(axis=1) * cell_volume)

    out[active] = solve_gauge(log_modular, m[active], tol)
    return out


def one_shot_rows(phi, rows, cell_volume, tol=DEFAULT_TOL):
    """The Newton gauge of every row of the array `rows`, each evaluation
    on all rows not yet converged at once, started at the L^1 mass."""
    rows = np.asarray(rows, dtype=float)
    out = np.zeros(rows.shape[0])
    m = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    act = np.flatnonzero(m)
    if not act.size:
        return out

    def log_modular(lam, idx):
        if idx.size == rows.shape[0]:
            tau = np.abs(rows)
        else:
            tau = rows[act[idx]]
            np.abs(tau, out=tau)
        tau /= lam[:, None]
        val = phi(tau)
        total = val.sum(axis=1)
        return (np.log(total * cell_volume),
                -phi.tau_dphi(tau, val).sum(axis=1) / total)

    start = np.abs(rows).sum(axis=1)[act] * cell_volume
    out[act] = _solve_gauge(log_modular, start, tol)
    return out
