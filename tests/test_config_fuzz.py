"""Property test of the config as a table: small configs drawn from the
README's domain table, each key in its domain or one key moved out of it,
run through the CLI in-process with RuntimeWarning as an error."""

import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicehardy import orlicz
from slicehardy.cli import CHECKS, main
from slicehardy.config import BALL_CELLS_LOG2, _SECTIONS

#: every config key, "section.key"
KEYS = [f"{section}.{key}" for section, schema in _SECTIONS.items()
        for key in schema]
HUGE = str(10 ** 400)


@st.composite
def configs(draw):
    """({key: text} of a small config with every key in its domain, the
    key moved out of its domain or None, the seed)."""
    n = draw(st.sampled_from([1, 2]))
    # 2-D runs only on a coarse grid, so each example stays well under 1 s
    k = draw(st.sampled_from([3, 4, 5, 6] if n == 1 else [2]))
    h = 2.0 ** -k
    tag = draw(st.sampled_from(["power:2", "power:1", "power:1.5",
                                "log_damped"]))
    q = draw(st.sampled_from([0.5, 1.0, 2.0]))
    p_minus = orlicz.from_tag(tag).p_minus
    bound = 2 * n / min(p_minus, q)
    b = bound + draw(st.sampled_from([0.5, 1.5]))
    N = math.floor(b + 1) + draw(st.sampled_from([0, 1]))
    cap = min(p_minus, q, 1.0)
    s = cap * draw(st.sampled_from([0.6, 0.9]))  # 0.9 cap is the default
    least = max(math.floor(n * (1 / s - 1)), 0)
    kernels = 5 if n == 1 else 6
    ladder_max = k - 1  # 2^-M >= 2h
    lo, hi = draw(st.sampled_from([(-4.0, 4.0), (-1.0, 1.0), (0.0, 0.0)]))
    cfg = {
        "grid.n": n, "grid.h": h, "functional.tag": tag,
        # up to 64 cells: a general-Phi slice norm costs cells x ball cells
        "slice.t": draw(st.sampled_from([2 * h, 4 * h, 16 * h, 64 * h, 0.5,
                                         1.0])),
        "slice.q": q, "maximal.a": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "maximal.b": b, "maximal.N": N,
        "maximal.dict_size": draw(st.integers(1, 3)),
        "maximal.ladder_depth": draw(st.integers(0, min(ladder_max, 3))),
        "atomic.s": s, "atomic.d": least + draw(st.sampled_from([0, 1])),
        "atomic.r": draw(st.sampled_from([1.0, 2.0, math.inf])),
        "atomic.c0": draw(st.sampled_from([4.5, 2.0])),
        "atomic.tol_moment": draw(st.sampled_from([1e-8, 0.0])),
        "atomic.tol_rec": 1e-6, "tolerances.pairing_slack": 0.01,
        "sweep.side_exp_lo": draw(st.sampled_from([-6, -3, -1])),
        "sweep.side_exp_hi": draw(st.sampled_from([0, 2, 5])),
        "sweep.center_lo": lo, "sweep.center_hi": hi,
        "sweep.center_step": draw(st.sampled_from([1.0, 2.0])),
        "family.spec": draw(st.sampled_from(
            ["bumps:count=1", "bumps:count=2", "bursts:count=1",
             "indicator-ladder:M=2", "translates:R=0,4"] if n == 1
            else ["bumps:count=1"])),
    }
    if s == 0.9 * cap and draw(st.booleans()):  # the derived defaults
        del cfg["atomic.s"]
    if cfg["atomic.d"] == least and draw(st.booleans()):
        del cfg["atomic.d"]
    if n == 2 or draw(st.booleans()):  # 2-D: at most two checks
        cfg["checks.run"] = ", ".join(draw(st.permutations(list(CHECKS)))[
            :draw(st.integers(1, 2 if n == 2 else len(CHECKS)))])
    out_of_domain = {
        "grid.n": [0, 3],
        "grid.h": [0, -h, "nan", "inf"],
        "functional.tag": ["foo", "power:-1", "power:abc", "power:nan"],
        # past the ball bound, (8t/h + 1)^n > 2^BALL_CELLS_LOG2
        "slice.t": [h, 0, "nan", "inf", 1e300,
                    h * 2.0 ** (BALL_CELLS_LOG2 / n - 2)],
        "slice.q": [0, -1, "nan", "inf"],
        "maximal.a": [0, -1, "nan", "inf"],
        "maximal.b": [bound, 0, "nan", "inf"],
        "maximal.N": [math.floor(b + 1) - 1],
        "maximal.dict_size": [0, kernels + 1, HUGE],
        "maximal.ladder_depth": [-1, ladder_max + 1, HUGE],
        "atomic.s": [0, cap, -0.5, "nan", "inf"],
        "atomic.d": [least - 1],
        "atomic.r": [0, -1, "nan", "-inf"],
        "atomic.c0": [0, "nan", "inf"],
        "atomic.tol_moment": [-1e-8, "nan", "inf"],
        "atomic.tol_rec": ["nan", "inf"],
        "tolerances.pairing_slack": ["nan", "-inf"],
        "sweep.side_exp_lo": [0, -1075, "-" + HUGE],
        "sweep.side_exp_hi": [-1, 40, HUGE],
        "sweep.center_lo": ["nan", "-inf"],
        "sweep.center_hi": [lo - 1, "nan", "inf"],
        "sweep.center_step": [0, -1, "nan", "inf"],
        "family.spec": ["sawtooth:count=1", "bumps:count=0", "bumps:count=x"]
        + (["bursts:count=1"] if n == 2 else []),
        "checks.run": ["frobnicate"],
    }
    assert set(out_of_domain) == set(KEYS)
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(out_of_domain))))
    if bad is not None:
        cfg[bad] = draw(st.sampled_from(out_of_domain[bad]))
    return cfg, bad, draw(st.sampled_from([0, 1]))


def _ini(cfg):
    sections = {}
    for key, value in cfg.items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"{name} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines)
                   for section, lines in sections.items())


def _invoke(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, args)
    # an uncaught exception, a RuntimeWarning among them, is a failure
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), result.exception
    return result


def _csvs(out):
    """{name: bytes} of each CSV the run wrote."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _summary(csvs):
    """The summary's rows as {(check, key): value}."""
    rows = csv.DictReader(io.StringIO(csvs["summary.csv"].decode()))
    return {(row["check"], row["key"]): row["value"] for row in rows}


#: the 2-D config on which a degree-4 decomposition met a 4 x 4 box whose
#: Gram matrix is singular, and which the pinned examples below vary
SINGULAR = {
    "grid.n": 2, "grid.h": 0.125, "functional.tag": "power:2",
    "slice.t": 0.25, "slice.q": 0.5, "maximal.a": 0.5, "maximal.b": 8.5,
    "maximal.N": 9, "maximal.dict_size": 1, "maximal.ladder_depth": 0,
    "atomic.s": 0.3, "atomic.d": 4, "atomic.r": 1.0, "atomic.c0": 4.5,
    "atomic.tol_moment": 1e-08, "atomic.tol_rec": 1e-06,
    "tolerances.pairing_slack": 0.01, "sweep.side_exp_lo": -6,
    "sweep.side_exp_hi": 0, "sweep.center_lo": -4.0, "sweep.center_hi": 4.0,
    "sweep.center_step": 1.0, "family.spec": "bumps:count=1"}
#: SINGULAR with atomic.d left to its default, derived from atomic.s
DERIVED = {key: v for key, v in SINGULAR.items() if key != "atomic.d"}


@settings(max_examples=60, deadline=None, derandomize=True,
          database=None)
@given(configs())
@example((SINGULAR, None, 0)).via("singular moment system, exit 2")
@example(({**SINGULAR, "checks.run": "frobnicate"}, "checks.run", 0)).via(
    "unknown check named without its key")
@example(({**SINGULAR, "sweep.side_exp_hi": HUGE}, "sweep.side_exp_hi",
          0)).via("OverflowError in the largest-cube cap")
@example(({**SINGULAR, "maximal.ladder_depth": HUGE}, "maximal.ladder_depth",
          0)).via("OverflowError in scale_ladder")
@example(({**DERIVED, "atomic.s": 5e-324}, "atomic.s", 0)).via(
    "OverflowError deriving d from a tiny s")
@example(({**DERIVED, "grid.n": HUGE}, "grid.n", 0)).via(
    "OverflowError deriving d from a huge n")
def test_drawn_config_exits_cleanly_and_repeats(drawn):
    """Exit 0 or 1, or exit 2 naming a key with no output directory; a
    key out of its domain is exit 2 naming it.  A rerun writes the same
    bytes, and the checks that ran, named in reverse order, write the same
    CSVs and the same summary rows (the skipped ones aside), in reverse
    order."""
    cfg, bad, seed = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.ini").write_text(_ini(cfg))
        args = ["all", "--config", str(tmp / "scenario.ini"), "--seed",
                str(seed), "--out"]
        result = _invoke(args + [str(tmp / "out")])
        if bad is not None or result.exit_code == 2:
            assert result.exit_code == 2, result.output
            assert any(key in result.output for key in KEYS), result.output
            assert bad is None or bad in result.output, result.output
            assert not (tmp / "out").exists()
            return
        assert result.exit_code in (0, 1), result.output
        first = _csvs(tmp / "out")
        again = _invoke(args + [str(tmp / "again")])
        assert again.exit_code == result.exit_code
        assert _csvs(tmp / "again") == first
        summary = _summary(first)
        ran = [check for check in dict.fromkeys(c for c, _ in summary)
               if f"{check}.csv" in first]
        reverse = _invoke(["all", "--check", ",".join(reversed(ran))]
                          + args[1:] + [str(tmp / "reverse")])
        assert reverse.exit_code == result.exit_code
        backward = _csvs(tmp / "reverse")
        assert _summary(backward) == {(check, key): value for (check, key),
                                      value in summary.items() if check in ran}
        del first["summary.csv"], backward["summary.csv"]
        assert backward == first
