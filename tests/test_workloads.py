"""Whole `slicehardy all` runs: the workloads against perfbench/reference/
and the public functions they reach, reverse check order, the defaults
written out, configs no workload runs, and the traced benchmark run."""

import ast
import cProfile
import csv
import importlib
import inspect
import json
import os
import pkgutil
import pstats
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import slicehardy
from slicehardy.cli import CHECKS, main
from slicehardy.config import load_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from oracle import compare  # noqa: E402
from scenario import SEED, WORKLOADS  # noqa: E402

MODULES = [importlib.import_module(f"slicehardy.{info.name}")
           for info in pkgutil.iter_modules(slicehardy.__path__)]


def _config(workload):
    config, _ = WORKLOADS[workload]
    return config and ROOT / config


def _all(out, config=None, *args):
    """`slicehardy all` on the config into out, in-process; exits 0."""
    argv = ["all", "--seed", str(SEED), "--out", str(out), *args]
    if config:
        argv += ["--config", str(config)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, (result.output, result.exception)


def _assert_matches(workload, out):
    problems = compare(ROOT / "perfbench" / "reference" / workload, out)
    assert not any(problems.values()), problems


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """The directory of each workload's outputs, one run each, and the
    (file, line, name) of every function those runs called.  SciPy is a
    test-only dependency, so every `scipy` and `scipy.*` key of sys.modules
    is None during the runs: `from scipy.signal import ...` finds a cached
    scipy.signal when only `scipy` is.  Memos start empty, so that memoized
    calls show in the profile too."""
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    root = tmp_path_factory.mktemp("workloads")
    profile = cProfile.Profile()
    with pytest.MonkeyPatch.context() as patch:
        for name in {"scipy", *sys.modules}:
            if name.split(".")[0] == "scipy":
                patch.setitem(sys.modules, name, None)
        for workload in WORKLOADS:
            with profile:
                _all(root / workload, _config(workload))
    return root, {(os.path.realpath(path), line, name)
                  for path, line, name in pstats.Stats(profile).stats}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference(workload, workloads):
    _assert_matches(workload, workloads[0] / workload)


def _public(module):
    """(name, code) of each public function and method defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") \
                or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member.__code__
        elif inspect.isfunction(fn := inspect.unwrap(obj)):
            yield name, fn.__code__


def test_unreached_public_functions_are_the_allowlist(workloads):
    """The public functions and methods that no workload calls and that
    test_acceptance.py does not import are exactly the allowlist: a name
    outside it fails (move it to tests/ or delete it), and so does a
    listed name that a workload reaches or that no longer exists."""
    tests = Path(__file__).parent
    tree = ast.parse((tests / "test_acceptance.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unreached = {f"{module.__name__}.{name}" for module in MODULES
                 for name, code in _public(module)
                 if (module.__name__, name) not in imported
                 and (os.path.realpath(code.co_filename), code.co_firstlineno,
                      code.co_name) not in workloads[1]}
    # one name a line, then its reason; '#' starts a comment line
    with open(tests / "unreached_allowlist.txt") as fh:
        allowed = {line.split()[0] for line in fh
                   if line.strip() and not line.startswith("#")}
    assert unreached == allowed


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_in_reverse_order_match_the_reference(workload, tmp_path):
    config = _config(workload)
    checks = load_config(config).checks or CHECKS
    _all(tmp_path, config, "--check", ",".join(reversed(checks)))
    _assert_matches(workload, tmp_path)


def test_every_key_at_its_default_matches_the_reference(tmp_path):
    """Every key at its README default, the nine checks named in CHECKS
    order: the config reads as no config does."""
    config = tmp_path / "defaults.ini"
    config.write_text(
        "[grid]\nn = 1\nh = 0.00390625\n[functional]\ntag = power:2\n[slice]\n"
        "t = 1\nq = 2\n[maximal]\na = 1\nb = 2.5\nN = 3\ndict_size = 3\n"
        "ladder_depth = 3\n[atomic]\ns = 0.9\nd = 0\nr = inf\nc0 = 4.5\n"
        "tol_moment = 1e-8\ntol_rec = 1e-6\n[tolerances]\npairing_slack = 0.01"
        "\n[sweep]\nside_exp_lo = -6\nside_exp_hi = 5\ncenter_lo = -4\n"
        "center_hi = 4\ncenter_step = 1\n[family]\nspec = bumps:count=10\n"
        f"[checks]\nrun = {', '.join(CHECKS)}\n")
    _all(tmp_path / "out", config)
    _assert_matches("scenario_power", tmp_path / "out")


GRID_2D = "[grid]\nn = 2\nh = 0.125\n"
# name -> (config text, checks that must each pass, least atom count)
CONFIGS = {
    # the one end-to-end run of the multi-right-hand-side moment solve
    "degree-1": ("[functional]\ntag = log_damped\n[atomic]\ns = 0.45\n",
                 "cz-roundtrip,atom-validation,duality", 0),
    # a small cube is kept only if its atom's moments vanish exactly, as
    # validate_atom measures them, so every atom validates
    "tol_moment-0": ("[atomic]\ntol_moment = 0\n",
                     "cz-roundtrip,atom-validation", 0),
    # the one 2-D run of the eta-weighted degree-1 fits
    "2-D-degree-1": (GRID_2D + "[functional]\ntag = log_damped\n"
                     "[slice]\nt = 0.5\nq = 1\n[maximal]\nb = 5\nN = 6\n"
                     "ladder_depth = 2\n[family]\nspec = bumps:count=1\n"
                     "[atomic]\ns = 0.6\n",
                     "cz-roundtrip,atom-validation,duality", 0),
    # 48 levels: the per-level buffers, stacked moment solves and
    # grid-floor skips at a size no workload reaches
    "many-level-2-D": (GRID_2D + "[functional]\ntag = power:3\n[maximal]\n"
                       "ladder_depth = 2\n[family]\nspec = bumps:count=3\n",
                       "cz-roundtrip,atom-validation", 2000),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_config_passes_its_checks(name, tmp_path):
    text, checks, atoms = CONFIGS[name]
    config, out = tmp_path / "config.ini", tmp_path / "out"
    config.write_text(text)
    _all(out, config, "--check", checks)
    with open(out / "summary.csv") as fh:
        status = {r["check"]: r["value"] for r in csv.DictReader(fh)
                  if r["key"] == "status"}
    assert status == dict.fromkeys(checks.split(","), "pass")
    with open(out / "cz-roundtrip.csv") as fh:
        assert sum(int(r["atoms"]) for r in csv.DictReader(fh)) >= atoms


def test_traced_benchmark_run_ends_clean(tmp_path):
    """perfbench/scenario.py and its Peetre probe read the config and
    MaximalParams (ladder, b, eps_cut, dictionary.phi): a traced cz_2d run,
    the one the benchmark probes, exits 0, with no error and the probe ok."""
    run = subprocess.run(
        [sys.executable, "perfbench/scenario.py", "--workload", "cz_2d",
         "--out", str(tmp_path / "out"), "--trace", str(tmp_path / "t.json")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    assert (record["exit_code"], record["error"], record["probe"]["ok"]) \
        == (0, None, True), record
