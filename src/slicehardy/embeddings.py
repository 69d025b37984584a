"""Numerical checks of the amalgam-to-Musielak embeddings.

Both checks fit one-sided constants only: the reverse inclusions are
known to fail, but no function witness is constructive, so the reports
never assert strictness.
"""

from __future__ import annotations

from . import orlicz
from .maximal import require_hardy_amalgam
from .reports import Report
from .slice_norms import star_norm


def star_to_muslog_check(family):
    """Normalized-modular and norm-ratio check of the space inclusion.

    Each member is normalized in the amalgam sum norm; the log-weighted
    Musielak modular of the normalized member must stay uniformly
    bounded, and the Musielak norm must stay within one fitted constant
    of the amalgam norm.  Families should include translates far from
    the origin, where the spatial log weight does its work.  Phi is
    log_damped, theta musielak_log.
    """
    phi = orlicz.log_damped()
    theta = orlicz.musielak_log()
    report = Report(["index", "star", "muslog", "ratio", "modular"])
    for i, f in enumerate(family):
        if f.max_abs() == 0:
            continue
        star = star_norm(f, phi)
        mus = orlicz.musielak_norm(theta, f)
        modular = orlicz.musielak_modular(theta, f / star, 1.0)
        report.add(i, star, mus, mus / star, modular)
    ratios = report.column("ratio")
    mods = report.column("modular")
    report.summary["fitted_C"] = max(ratios) if ratios else 0.0
    report.summary["fitted_C_modular"] = max(mods) if mods else 0.0
    return report


def hardy_embedding_check(family, params):
    """One-sided fitted constant for the Hardy-space inclusion.

    Computes the Musielak-type Hardy quasi-norm and the amalgam-type one
    from one Peetre maximal function for every member, and reports the
    fitted max ratio of the former to the latter; the reverse direction
    is never asserted.  The Peetre fields are params.peetre_fields of the
    nonzero members, made in one pass.
    """
    require_hardy_amalgam(params.b, family[0].n if family else 1)
    phi = orlicz.log_damped()
    theta = orlicz.musielak_log()
    report = Report(["index", "h_star", "h_log", "ratio"])
    nonzero = [(i, f) for i, f in enumerate(family) if f.max_abs() != 0]
    fields = params.peetre_fields([f for _, f in nonzero])
    for (i, _), m in zip(nonzero, fields):
        h_star = star_norm(m, phi)
        h_log = orlicz.musielak_norm(theta, m)
        report.add(i, h_star, h_log, h_log / h_star)
    ratios = report.column("ratio")
    report.summary["fitted_C"] = max(ratios) if ratios else 0.0
    return report
