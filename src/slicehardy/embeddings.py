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

    Each member is normalized in the amalgam sum norm: the log-weighted
    Musielak modular at that scale must stay uniformly bounded, and the
    Musielak norm must stay within one fitted constant of the amalgam
    norm.  Families should include translates far from the origin, where
    the spatial log weight does its work.  Phi is log_damped, theta
    musielak_log.
    """
    phi = orlicz.log_damped()
    theta = orlicz.musielak_log()
    report = Report(["index", "star", "muslog", "ratio", "modular"])
    for i, f in enumerate(family):
        if f.max_abs() == 0:
            continue
        star = star_norm(f, phi)
        mus = orlicz.musielak_norm(theta, f)
        modular = orlicz.musielak_modular(theta, f, star)
        report.add(i, star, mus, mus / star, modular)
    report.summary["fitted_C"] = max(report.column("ratio"), default=0.0)
    report.summary["fitted_C_modular"] = max(report.column("modular"),
                                             default=0.0)
    return report


def hardy_embedding_check(family, params):
    """One-sided fitted constant for the Hardy-space inclusion: the
    Lebesgue check (star_to_muslog_check) of the Peetre maximal functions,
    params.peetre_fields of the nonzero members made in one pass, each row
    keeping its member's index.  The reverse direction is never asserted.
    """
    require_hardy_amalgam(params.b, family[0].n if family else 1)
    nonzero = [i for i, f in enumerate(family) if f.max_abs() != 0]
    report = star_to_muslog_check(
        params.peetre_fields([family[i] for i in nonzero]))
    report.rows = [(nonzero[j], *row) for j, *row in report.rows]
    return report
