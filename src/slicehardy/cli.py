"""Command-line scenario runner: one subcommand per check, plus `all`.

Each check returns a report, written as one CSV into the output
directory, and a verdict (or None), which the summary CSV (check, key,
value), written last, records as `status`.  Runs are deterministic given
the seed, and re-running overwrites the artifacts byte-identically.  A
check's hypotheses on the config are checked before the output directory
exists: a check the user named fails the run with a ConfigError, one of
the default all-checks list is recorded as `skipped`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import click
import numpy as np

from . import orlicz
from .atomic import atomic_quasinorm, cz_decompose, reconstruct, \
    validate_atom
from .campanato import CampanatoParams, bmo_sweep_report, pairing_bounds
from .config import broken, load_config
from .embeddings import hardy_embedding_check, star_to_muslog_check
from .errors import ConfigError, SliceHardyError, require_resolution
from .families import generate_family
from .grid import GridFunction
from .maximal import maximal_equivalence_report, require_hardy_amalgam
from .reports import Report
from .slice_norms import ball_indicator_ratio, fefferman_stein_check, \
    require_fefferman_stein, slice_norm, star_norm


class Run:
    """One run: the config, the seed, the family and the parameters its
    checks share: one MaximalParams (the run's one kernel dictionary,
    which keeps each Peetre and grand field) and one SliceParams (which
    keeps each cube-indicator norm), the latter that of the run's CZParams.
    The decompositions are made, after one grand-field pass, by whichever
    check asks first, so the order of the checks changes no result."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.seed = seed
        self.family = cfg.family(seed)
        self.maximal = cfg.maximal_params()
        self.cz_params = cfg.cz_params(self.maximal)
        self.slice_params = self.cz_params.slice_params
        self._decompositions = None

    def decompositions(self):
        """(member, decomposition) for every nonzero member."""
        if self._decompositions is None:
            nonzero = [f for f in self.family if f.max_abs() != 0]
            self.maximal.grand_fields(nonzero)  # one pass for the family
            self._decompositions = [(f, cz_decompose(f, self.cz_params))
                                    for f in nonzero]
        return self._decompositions


def _check_norms(run, summary):
    cfg = run.cfg
    sp = run.slice_params
    phi = sp.phi
    report = Report(["index", "luxemburg", "slice", "star", "lp"])
    for i, f in enumerate(run.family):
        report.add(i, orlicz.luxemburg_norm(phi, f), slice_norm(f, sp),
                   star_norm(f, phi), f.lp_norm(max(cfg.q, 1.0)))
    summary["members"] = len(run.family)
    return report, None


def _check_maximal_equivalence(run, summary):
    cfg = run.cfg
    report = maximal_equivalence_report(
        run.family, run.maximal, run.slice_params.phi, cfg.q,
        [cfg.t / 2, cfg.t, 2 * cfg.t])
    summary.update(report.summary)
    return report, bool(report.summary.get("chain_all_ok"))


def _check_cz_roundtrip(run, summary):
    cfg = run.cfg
    report = Report(["index", "atoms", "rel_sup_error", "quasinorm_ratio"])
    decs = run.decompositions()
    peetre = run.maximal.peetre_fields([f for f, _ in decs])
    for i, ((f, dec), m) in enumerate(zip(decs, peetre)):
        rec = reconstruct(dec)
        fe = f.embed(rec.origin, rec.extents)
        err = float(np.abs(rec.values - fe.values).max()) / f.max_abs()
        aq = atomic_quasinorm(dec, cfg.s)
        hq = slice_norm(m, run.slice_params)
        report.add(i, len(dec.entries), err, aq / hq if hq > 0 else 0.0)
    errs = report.column("rel_sup_error")
    summary["max_rel_error"] = max(errs) if errs else 0.0
    return report, all(e <= cfg.tol_rec for e in errs)


def _check_atom_validation(run, summary):
    report = Report(["index", "level", "atom", "check", "measured", "bound",
                     "ok"])
    all_ok = True
    for i, (_, dec) in enumerate(run.decompositions()):
        for atom in dec.entries:
            rep = validate_atom(atom, run.cz_params)
            for check, measured, bound, ok in rep.rows:
                report.add(i, atom.level, atom.index, check, measured,
                           bound, ok)
            all_ok = all_ok and rep.summary["valid"]
    return report, all_ok


def _check_duality(run, summary):
    cfg = run.cfg
    report = Report(["index", "field", "campanato_norm", "max_ratio"])
    cp = CampanatoParams(run.slice_params, r=1.0, d=cfg.d,
                         sweep=cfg.sweep_cubes())
    spec = "bursts:count=10" if cfg.n == 1 else "bumps:count=10"
    fields = generate_family(spec, run.seed + 1, cfg.h, cfg.n)
    decs = [dec for _, dec in run.decompositions()]
    for i, (norms, _, ratios) in enumerate(
            pairing_bounds(decs, fields, cp)):
        for jg, worst in enumerate(ratios.max(axis=0, initial=0.0)):
            report.add(i, jg, float(norms[jg]), float(worst))
    summary["max_ratio"] = max(report.column("max_ratio"), default=0.0)
    return report, summary["max_ratio"] <= 1.0 + cfg.pairing_slack


def _check_embeddings(run, summary):
    cfg = run.cfg
    family = run.family
    if cfg.n == 1:  # far translates, where the spatial log weight acts
        family = family + generate_family("translates:R=0,4,16,64",
                                          run.seed, cfg.h, cfg.n)
    rep1 = star_to_muslog_check(family)
    rep2 = hardy_embedding_check(family, run.maximal)
    summary["lebesgue_fitted_C"] = rep1.summary["fitted_C"]
    summary["modular_fitted_C"] = rep1.summary["fitted_C_modular"]
    summary["hardy_fitted_C"] = rep2.summary["fitted_C"]
    merged = Report(["check", "index", "lhs", "rhs", "ratio"])
    for check, rep in (("lebesgue", rep1), ("hardy", rep2)):
        for idx, star, mus, ratio, _ in rep.rows:
            merged.add(check, idx, mus, star, ratio)
    return merged, np.isfinite(
        [rep1.summary["fitted_C"], rep2.summary["fitted_C"]]).all()


def _check_lemma888(run, summary):
    cfg = run.cfg
    radii = [2.0 ** e for e in range(-6, 7) if 2.0 ** e >= 2 * cfg.h]
    report = ball_indicator_ratio(radii, cfg.h, 1)
    summary.update(report.summary)
    return report, report.summary["band_width"] <= 20


def _check_fefferman_stein(run, summary):
    cfg = run.cfg
    report = fefferman_stein_check(run.family, 2.0, run.slice_params,
                                   [cfg.t / 2, cfg.t, 2 * cfg.t])
    summary.update(report.summary)
    return report, np.isfinite(report.summary.get("max_ratio", np.inf))


def _check_bmo_facts(run, summary):
    cfg = run.cfg
    half = 33.0
    cells = int(round(2 * half / cfg.h))
    one = GridFunction.constant(1.0, (-half,) * cfg.n, cfg.h,
                                (cells,) * cfg.n)
    report = bmo_sweep_report(one, cfg.sweep_cubes())
    summary.update(report.summary)
    summary["bmo_phi_expected"] = target = np.log(1.0 + np.e)
    return report, abs(summary["bmo_phi"] - target) <= 1e-6


@dataclass(frozen=True)
class Check:
    """A check: called with (run, summary), it returns its report and a
    verdict or None; hypotheses holds the (key, guard call on a config)
    of each hypothesis it needs beyond the config's own validation."""

    check: object
    hypotheses: tuple = ()

    def __call__(self, run, summary):
        return self.check(run, summary)


#: the slice norms at radius t/2 of maximal-equivalence and fefferman-stein
_HALF_T = ("slice.t",
           lambda c: require_resolution(c.t / 2, c.h, "slice radius"))

CHECKS = {
    "norms": Check(_check_norms),
    "maximal-equivalence": Check(_check_maximal_equivalence, (_HALF_T,)),
    "cz-roundtrip": Check(_check_cz_roundtrip),
    "atom-validation": Check(_check_atom_validation),
    "duality": Check(_check_duality),
    "embeddings": Check(_check_embeddings, (
        ("maximal.b", lambda c: require_hardy_amalgam(c.b, c.n)),)),
    "lemma888": Check(_check_lemma888),
    "fefferman-stein": Check(_check_fefferman_stein, (
        _HALF_T,
        ("functional.tag",
         lambda c: require_fefferman_stein(p_minus=c.phi().p_minus)),
        ("slice.q", lambda c: require_fefferman_stein(q=c.q)))),
    "bmo-facts": Check(_check_bmo_facts),
}


def _run(names, config_path, seed, out):
    """Run the named checks (None: the config's, or else all of them) and
    exit 0, or 1 if a check failed, or 2 on a bad config or check name,
    or when a named check's hypotheses fail."""
    try:
        cfg = load_config(config_path)
        named = names is not None or bool(cfg.checks)
        source = "--check" if names is not None else "checks.run"
        if names is None:
            names = list(cfg.checks) if cfg.checks else list(CHECKS)
        unknown = [s for s in names if s not in CHECKS]
        if unknown:
            raise SliceHardyError(f"{source}: unknown checks {unknown}")
        skipped = {}
        for name in names:
            failing = list(broken(CHECKS[name].hypotheses, cfg))
            if failing and named:
                key, message = failing[0]
                raise ConfigError(
                    f"{key} breaks a hypothesis of {name}: {message}")
            if failing:
                skipped[name] = "; ".join(f"{key}: {message}"
                                          for key, message in failing)
        run = Run(cfg, seed)
        os.makedirs(out, exist_ok=True)
        summary = Report(["check", "key", "value"])
        failed = False
        for name in names:
            if name in skipped:
                summary.add(name, "status", "skipped")
                summary.add(name, "reason", skipped[name])
                continue
            info = {}
            report, ok = CHECKS[name](run, info)
            report.write_csv(os.path.join(out, f"{name}.csv"))
            if ok is not None:
                info["status"] = "pass" if ok else "fail"
                failed = failed or not ok
            for key, value in info.items():
                summary.add(name, key, value)
        summary.write_csv(os.path.join(out, "summary.csv"))
    except SliceHardyError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(1 if failed else 0)


def _common(fn):
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(), help="Scenario config file.")(fn)
    fn = click.option("--seed", default=0, type=click.IntRange(min=0),
                      help="Family generator seed.")(fn)
    fn = click.option("--out", default="out", type=click.Path(),
                      help="Output directory for CSV artifacts.")(fn)
    return fn


@click.group()
def main():
    """Desk-scale checks for local Orlicz-slice Hardy spaces."""


def _make_command(name):
    @main.command(name)
    @_common
    def cmd(config_path, seed, out):
        _run([name], config_path, seed, out)


for _name in CHECKS:
    _make_command(_name)


@main.command("all")
@_common
@click.option("--check", "subset", default=None,
              help="Comma-separated subset of checks to run.")
def run_all(config_path, seed, out, subset):
    names = [s.strip() for s in subset.split(",") if s.strip()] \
        if subset else None
    _run(names, config_path, seed, out)


if __name__ == "__main__":
    main()
