"""Command-line scenario runner: one subcommand per check, plus `all`.

Each check returns a report, written as one CSV into the output
directory, and a verdict (or None), which the summary CSV (check, key,
value), written last, records as `status`.  Runs are deterministic given
the seed, and re-running overwrites the artifacts byte-identically.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import orlicz
from .atomic import atomic_quasinorm, cz_decompose, reconstruct, \
    validate_atom
from .campanato import CampanatoParams, bmo_sweep_report, pairing_bounds
from .config import load_config
from .embeddings import hardy_embedding_check, star_to_muslog_check
from .errors import ConfigError, SliceHardyError
from .families import generate_family
from .grid import GridFunction
from .maximal import hardy_quasinorm, maximal_equivalence_report
from .reports import Report
from .slice_norms import ball_indicator_ratio, fefferman_stein_check, \
    slice_norm, star_norm


def _check_norms(cfg, seed, summary):
    family = cfg.family(seed)
    phi = cfg.phi()
    sp = cfg.slice_params()
    report = Report("norms", ["index", "luxemburg", "slice", "star", "lp"])
    for i, f in enumerate(family):
        report.add(i, orlicz.luxemburg_norm(phi, f), slice_norm(f, sp),
                   star_norm(f, phi), f.lp_norm(max(cfg.q, 1.0)))
    summary["members"] = len(family)
    return report, None


def _check_maximal_equivalence(cfg, seed, summary):
    family = cfg.family(seed)
    report = maximal_equivalence_report(
        family, cfg.maximal_params(), cfg.phi(), cfg.q,
        [cfg.t / 2, cfg.t, 2 * cfg.t])
    summary.update(report.summary)
    return report, bool(report.summary.get("chain_all_ok"))


def _decompositions(cfg, seed):
    """(member, decomposition) for every nonzero member, computed once per
    seed and kept on the config, so the checks of one run share them."""
    if seed not in cfg.decompositions:
        params = cfg.cz_params()
        cfg.decompositions[seed] = [(f, cz_decompose(f, params))
                                    for f in cfg.family(seed)
                                    if f.max_abs() != 0]
    return cfg.decompositions[seed]


def _check_cz_roundtrip(cfg, seed, summary):
    report = Report("cz_roundtrip",
                    ["index", "atoms", "rel_sup_error", "quasinorm_ratio"])
    for i, (f, dec) in enumerate(_decompositions(cfg, seed)):
        rec = reconstruct(dec)
        fe = f.embed(rec.origin, rec.extents)
        err = float(np.abs(rec.values - fe.values).max()) / f.max_abs()
        aq = atomic_quasinorm(dec, cfg.s)
        hq = hardy_quasinorm(f, ("slice", cfg.phi(), cfg.q, cfg.t),
                             cfg.maximal_params())
        report.add(i, len(dec.entries), err, aq / hq if hq > 0 else 0.0)
    errs = report.column("rel_sup_error")
    summary["max_rel_error"] = max(errs) if errs else 0.0
    return report, all(e <= cfg.tol_rec for e in errs)


def _check_atom_validation(cfg, seed, summary):
    report = Report("atom_validation",
                    ["index", "level", "atom", "check", "measured", "bound",
                     "ok"])
    sp = cfg.slice_params()
    all_ok = True
    for i, (_, dec) in enumerate(_decompositions(cfg, seed)):
        for atom in dec.entries:
            rep = validate_atom(atom, sp, cfg.tol_moment)
            for check, measured, bound, ok in rep.rows:
                report.add(i, atom.level, atom.index, check, measured,
                           bound, ok)
            all_ok = all_ok and rep.summary["valid"]
    return report, all_ok


def _check_duality(cfg, seed, summary):
    report = Report("duality",
                    ["index", "field", "campanato_norm", "max_ratio"])
    cp = CampanatoParams(cfg.slice_params(), r=1.0, d=cfg.d,
                         sweep=cfg.sweep_cubes())
    spec = "bursts:count=10" if cfg.n == 1 else "bumps:count=10"
    fields = generate_family(spec, seed + 1, cfg.h, cfg.n)
    decs = [dec for _, dec in _decompositions(cfg, seed)]
    for i, (norms, _, ratios) in enumerate(pairing_bounds(decs, fields, cp)):
        for jg, worst in enumerate(ratios.max(axis=0, initial=0.0)):
            report.add(i, jg, float(norms[jg]), float(worst))
    summary["max_ratio"] = max(report.column("max_ratio"), default=0.0)
    return report, summary["max_ratio"] <= 1.0 + cfg.pairing_slack


def _check_embeddings(cfg, seed, summary):
    family = cfg.family(seed)
    if cfg.n == 1:  # far translates, where the spatial log weight acts
        family = family + generate_family("translates:R=0,4,16,64", seed,
                                          cfg.h, cfg.n)
    rep1 = star_to_muslog_check(family)
    rep2 = hardy_embedding_check(family, cfg.maximal_params())
    summary["lebesgue_fitted_C"] = rep1.summary["fitted_C"]
    summary["modular_fitted_C"] = rep1.summary["fitted_C_modular"]
    summary["hardy_fitted_C"] = rep2.summary["fitted_C"]
    merged = Report("embeddings",
                    ["check", "index", "lhs", "rhs", "ratio"])
    for idx, star, mus, ratio, _ in rep1.rows:
        merged.add("lebesgue", idx, mus, star, ratio)
    for idx, h_star, h_log, ratio in rep2.rows:
        merged.add("hardy", idx, h_log, h_star, ratio)
    return merged, np.isfinite(
        [rep1.summary["fitted_C"], rep2.summary["fitted_C"]]).all()


def _check_lemma888(cfg, seed, summary):
    radii = [2.0 ** e for e in range(-6, 7)]
    radii = [r for r in radii if r >= 2 * cfg.h]
    report = ball_indicator_ratio(radii, cfg.h, 1)
    summary.update(report.summary)
    return report, report.summary["band_width"] <= 20


def _check_fefferman_stein(cfg, seed, summary):
    family = cfg.family(seed)
    report = fefferman_stein_check(family, 2.0, cfg.slice_params(),
                                   [cfg.t / 2, cfg.t, 2 * cfg.t])
    summary.update(report.summary)
    return report, np.isfinite(report.summary.get("max_ratio", np.inf))


def _check_bmo_facts(cfg, seed, summary):
    half = 33.0
    cells = int(round(2 * half / cfg.h))
    one = GridFunction.constant(1.0, (-half,) * cfg.n, cfg.h,
                                (cells,) * cfg.n)
    sweep = cfg.sweep_cubes()
    merged = Report("bmo_facts",
                    ["variant", "side", "center", "branch", "value"])
    for variant in ("bmo", "bmo_phi", "bmo_log"):
        rep = bmo_sweep_report(one, variant, sweep)
        merged.rows.extend(rep.rows)
        summary[variant] = rep.summary["norm"]
    summary["bmo_phi_expected"] = target = np.log(1.0 + np.e)
    return merged, abs(summary["bmo_phi"] - target) <= 1e-6


CHECKS = {
    "norms": _check_norms,
    "maximal-equivalence": _check_maximal_equivalence,
    "cz-roundtrip": _check_cz_roundtrip,
    "atom-validation": _check_atom_validation,
    "duality": _check_duality,
    "embeddings": _check_embeddings,
    "lemma888": _check_lemma888,
    "fefferman-stein": _check_fefferman_stein,
    "bmo-facts": _check_bmo_facts,
}

#: the checks that evaluate slice norms at radius t/2, which must be >= 2h
_HALF_T = ("maximal-equivalence", "fefferman-stein")


def _run(names, config_path, seed, out):
    """Run the named checks (None: the config's, or else all of them) and
    exit 0, or 1 if a check failed, or 2 on a bad config or check name."""
    try:
        cfg = load_config(config_path)
        if names is None:
            names = list(cfg.checks) if cfg.checks else list(CHECKS)
        unknown = [s for s in names if s not in CHECKS]
        if unknown:
            raise SliceHardyError(f"unknown checks {unknown}")
        half_t = [s for s in names if s in _HALF_T]
        if half_t and cfg.t < 4 * cfg.h:
            raise ConfigError(
                f"slice.t = {cfg.t} below 4h = {4 * cfg.h}, needed by "
                f"{', '.join(half_t)} (radius t/2 must be >= 2h)")
        os.makedirs(out, exist_ok=True)
        summary = Report("summary", ["check", "key", "value"])
        failed = False
        for name in names:
            info = {}
            report, ok = CHECKS[name](cfg, seed, info)
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
    fn = click.option("--seed", default=0, type=int,
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
