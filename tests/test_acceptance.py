"""Acceptance suite: twelve go/no-go criteria for the whole package.

Each test prints a single PASS/FAIL line (visible even without -s) so a
full run doubles as a checklist.  The criteria mix exact anchors, whose
values are known in closed form, with band/stability checks whose
constants are only known to exist and are therefore fitted once and
required to be stable across the declared parameter sweeps.
"""

import numpy as np
import pytest

from slicehardy import orlicz
from slicehardy.atomic import CZParams, atomic_quasinorm, cz_decompose, \
    reconstruct, validate_atom
from slicehardy.campanato import CampanatoParams, bmo_variant_norm, \
    cube_sweep, pairing_bounds
from slicehardy.embeddings import star_to_muslog_check
from slicehardy.families import generate_family
from slicehardy.grid import Cube, GridFunction
from slicehardy.kernels import build_dictionary
from slicehardy.maximal import MaximalParams, maximal_equivalence_report, \
    peetre_maximal
from slicehardy.orlicz import OrliczFunction
from slicehardy.slice_norms import SliceParams, ball_indicator_ratio, \
    fefferman_stein_check, reverse_superadditivity_check, slice_norm


def _verdict(capsys, num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: "
              f"{label}{tail}")
    assert ok, f"criterion {num} failed: {label}{tail}"


def _maximal_params(h):
    return MaximalParams(build_dictionary(3, 3, h, 3, 1), a=1.0, b=2.5)


@pytest.fixture(scope="module")
def cz_setup():
    """Shared decomposition of a 20-member family (criteria 5, 6, 8)."""
    h = 2.0 ** -8
    family = generate_family("bumps:count=10", 5, h=h) + \
        generate_family("bursts:count=10", 6, h=h)
    mp = _maximal_params(h)
    sp = SliceParams(1.0, 1.0, orlicz.log_damped())
    params = CZParams(slice_params=sp, maximal=mp, d=0)
    decs = [cz_decompose(f, params) for f in family]
    return family, decs, params, mp


def test_criterion_01_bmo_phi_anchor(capsys):
    h = 2.0 ** -8
    one = GridFunction.constant(1.0, (-33.0,), h, (int(round(66 / h)),))
    sweep = cube_sweep(range(-6, 6), np.arange(-4.0, 5.0), 1)
    v = bmo_variant_norm(one, "bmo_phi", sweep)
    target = np.log(1.0 + np.e)
    err = abs(v - target)
    _verdict(capsys, 1, "bmo^phi of 1 equals log(1+e)", err <= 1e-6,
             f"value {v:.9f}, |error| {err:.2e}")


def test_criterion_02_luxemburg_vs_lp(capsys, rng):
    h = 2.0 ** -5
    worst = 0.0
    for p in (1.0, 2.0, 4.0):
        # declare the power functional WITHOUT its closed form so the
        # generic bracketing gauge is what gets tested
        phi = OrliczFunction(lambda u, p=p: u ** p, p, p, name=f"pow{p}",
                             tau_dphi=lambda u, v, p=p: p * v)
        for _ in range(50):
            f = GridFunction((0.0,), h, rng.uniform(-2, 2, 128))
            lux = orlicz.luxemburg_norm(phi, f, tol=1e-12)
            ref = f.lp_norm(p)
            worst = max(worst, abs(lux - ref) / ref)
    _verdict(capsys, 2, "gauge matches L^p for power functionals",
             worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_criterion_03_slice_vs_lq(capsys):
    def worst_error(h):
        f = GridFunction.from_callable(
            lambda x: np.exp(-8 * (x - 1.7) ** 2) * (1 + np.sin(3 * x)),
            (0.0,), h, (int(round(4 / h)),))
        worst = 0.0
        for q in (1.0, 2.0):
            ref = f.lp_norm(q)
            for t in (0.5, 1.0, 2.0):
                v = slice_norm(f, SliceParams(t, q, orlicz.power(q)))
                worst = max(worst, abs(v - ref) / ref)
        return worst

    coarse = worst_error(2.0 ** -8)
    fine = worst_error(2.0 ** -9)
    ok = coarse <= 0.02 and fine <= 0.01
    _verdict(capsys, 3, "slice norm identifies with L^q",
             ok, f"error {coarse:.4f} at h=2^-8, {fine:.4f} at h=2^-9")


def test_criterion_04_ball_indicator_band(capsys):
    radii = [2.0 ** e for e in range(-6, 7)]
    rep1 = ball_indicator_ratio(radii, 2.0 ** -8)
    rep2 = ball_indicator_ratio(radii, 2.0 ** -9)
    drift = max(abs(rep2.summary["min_ratio"] / rep1.summary["min_ratio"]
                    - 1),
                abs(rep2.summary["max_ratio"] / rep1.summary["max_ratio"]
                    - 1))
    ok = rep1.summary["band_width"] <= 20 and drift <= 0.10
    _verdict(capsys, 4, "ball-indicator ratios in one band of width <= 20",
             ok, f"width {rep1.summary['band_width']:.3f}, "
             f"refinement drift {100 * drift:.2f}%")


def test_criterion_05_cz_roundtrip(capsys, cz_setup):
    family, decs, params, _ = cz_setup
    worst_err = 0.0
    all_valid = True
    K = 0.0
    atoms = 0
    for f, dec in zip(family, decs):
        rec = reconstruct(dec)
        fe = f.embed(rec.origin, rec.extents)
        worst_err = max(worst_err, float(
            np.abs(rec.values - fe.values).max()) / f.max_abs())
        for atom in dec.entries:
            rep = validate_atom(atom, params.slice_params,
                                params.tol_moment)
            all_valid = all_valid and rep.summary["valid"]
            K = max(K, atom.values.max_abs() / 2.0 ** atom.level)
            atoms += 1
    ok = worst_err <= 1e-6 and all_valid and np.isfinite(K)
    _verdict(capsys, 5, "CZ decomposition reconstructs f and emits valid "
             "atoms", ok, f"{atoms} atoms, sup error {worst_err:.2e}, "
             f"level bound K {K:.3f}")


def test_criterion_06_atomic_norm_band(capsys, cz_setup):
    family, decs, params, mp = cz_setup
    phi = params.slice_params.phi
    peetre = [peetre_maximal(f, mp.dictionary.phi, mp.b, mp.ladder)
              for f in family]
    fitted = {}
    for t in (0.5, 1.0, 2.0):
        sp = SliceParams(t, 1.0, phi)
        if t == 1.0:
            decs_t = decs
        else:
            pt = CZParams(slice_params=sp, maximal=mp, d=0)
            decs_t = [cz_decompose(f, pt) for f in family]
        ratios = [atomic_quasinorm(dec, 0.81) / slice_norm(m, sp)
                  for dec, m in zip(decs_t, peetre)]
        fitted[t] = max(ratios)
    spread = max(fitted.values()) / min(fitted.values())
    ok = all(np.isfinite(v) for v in fitted.values()) and spread <= 1.25
    _verdict(capsys, 6, "atomic quasi-norm within one fitted constant of "
             "the maximal quasi-norm", ok,
             f"C fitted {fitted[1.0]:.3f}, spread over t {spread:.3f}")


def test_criterion_07_maximal_equivalence(capsys):
    h = 2.0 ** -7
    family = generate_family("bumps:count=6", 7, h=h)
    mp = _maximal_params(h)
    phi = orlicz.power(2.0)
    bands = {}
    chain_ok = True
    for t in (0.5, 1.0, 2.0):
        rep = maximal_equivalence_report(family, mp, phi, 2.0, [t])
        chain_ok = chain_ok and rep.summary["chain_all_ok"]
        for key, value in rep.summary.items():
            if key.startswith("band:"):
                bands.setdefault(key, []).append(value[1])
    spreads = {k: max(v) / min(v) for k, v in bands.items()}
    worst = max(spreads.values())
    ok = chain_ok and worst <= 1.25
    _verdict(capsys, 7, "pointwise maximal chain holds and pairwise bands "
             "are t-stable", ok,
             f"worst band spread over t {worst:.3f}")


def test_criterion_08_duality_bound(capsys, cz_setup):
    _, decs, params, _ = cz_setup
    h = 2.0 ** -8
    fields = generate_family("bursts:count=10", 8, h=h)
    cp = CampanatoParams(params.slice_params, r=1.0, d=0,
                         sweep=cube_sweep(range(-6, 6),
                                          np.arange(-4.0, 9.0), 1))
    worst = max(float(ratios.max(initial=0.0))
                for _, _, ratios in pairing_bounds(decs, fields, cp))
    _verdict(capsys, 8, "atom pairings bounded by the Campanato norm",
             worst <= 1.01, f"worst |<a,g>| / norm ratio {worst:.4f}")


def test_criterion_09_embedding(capsys):
    def maxima(h):
        fam = generate_family("bumps:count=96", 9, h=h) + \
            generate_family("translates:R=0,4,16,64", 9, h=h)
        rep = star_to_muslog_check(fam)
        return rep.summary["fitted_C"], rep.summary["fitted_C_modular"]

    c1, m1 = maxima(2.0 ** -8)
    c2, m2 = maxima(2.0 ** -9)
    drift = max(abs(c2 / c1 - 1), abs(m2 / m1 - 1))
    ok = np.isfinite(c1) and m1 <= 5.0 and drift <= 0.10
    _verdict(capsys, 9, "amalgam-to-Musielak embedding constants bounded "
             "and refinement-stable", ok,
             f"C {c1:.3f}, modular {m1:.3f}, drift {100 * drift:.2f}%")


def test_criterion_10_fefferman_stein(capsys):
    h = 2.0 ** -6
    p = SliceParams(1.0, 2.0, orlicz.power(2.0))
    worst_spread = 0.0
    finite = True
    for seed in range(100, 120):
        fam = generate_family("bumps:count=4", seed, h=h)
        rep = fefferman_stein_check(fam, 2.0, p, [0.25, 1.0, 4.0])
        finite = finite and np.isfinite(rep.summary["max_ratio"])
        worst_spread = max(worst_spread, rep.summary["t_spread"])
    ok = finite and worst_spread <= 4.0
    _verdict(capsys, 10, "vector-maximal ratios finite with t-independent "
             "constant", ok, f"worst spread over t {worst_spread:.3f}")


def test_criterion_11_reverse_superadditivity(capsys):
    h = 2.0 ** -6
    p = SliceParams(1.0, 1.0, orlicz.log_damped())
    floor = np.inf
    for seed in range(200, 250):
        fam = generate_family("bumps:count=3", seed, h=h)
        rep = reverse_superadditivity_check(fam, p)
        floor = min(floor, rep.summary["min_ratio"])
    _verdict(capsys, 11, "sum-vs-norm-sum ratio has a positive floor",
             floor >= 0.2, f"empirical floor {floor:.4f}")


def test_criterion_12_bmo_log_unbounded(capsys):
    h = 2.0 ** -8
    vals = []
    for R in (1.0, 4.0, 16.0, 64.0):
        one = GridFunction.constant(1.0, (R - 1.0,), h,
                                    (int(round(2 / h)),))
        vals.append(float(bmo_variant_norm(one, "bmo_log",
                                           [Cube((R,), 1.0)])))
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    target = 2.0 * np.log(1.0 + np.e)
    ok = increasing and vals[-1] >= target
    _verdict(capsys, 12, "bmo^log of 1 grows with |x| past 2x the bmo^phi "
             "value", ok, f"values {[round(v, 3) for v in vals]}")
