"""Scenario benchmark for slicehardy.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scenario_power --seed 1 \
        --seconds 10 --trace 0

Each workload is one ``slicehardy all`` scenario (an INI config and
family seed 0, see ``scenario.py``), run one interpreter at a time with
single-threaded BLAS, a fixed hash seed and address-space randomization
off, on one CPU that it shares with a calibrator process
(``calibration.py``); times are reported in the calibrator's reference
seconds.  With ``--trace 0`` the run times set-up in several fresh
interpreters, then repeats the scenario in fresh interpreters until
``--seconds`` have passed, and reports medians of the end-to-end metrics.
With ``--trace 1`` it runs the scenario once untraced and once traced and
reports the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.  Every run compares all CSV output with the committed
reference (``oracle.py``); each check is one operation, and it fails on a
fail status, an exception, a non-zero exit or a changed number.

The scenario inputs are fixed by the workload, so the reference applies
to every run and every run does the same work; ``--seed`` is recorded with
the result.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import INTERVAL_S, REF_SAMPLE_S, to_reference
from oracle import checks_of, compare
from scenario import BLAS_THREAD_VARS, SEED, WORKLOADS
from tracer import child_counts, summarize

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0
SETUP_SAMPLES = 3
SETARCH = shutil.which("setarch")

# per-layer field -> key of the tracer's span statistics; a per-layer
# name "<span>.<field>" with another field is a tracer counter
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "s": "total_s"}


class BenchError(Exception):
    """The benchmark itself could not run."""


def metric_units(kind):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, deadline, *extra):
    """Run scenario.py once; return (start time, its JSON record).

    Address-space randomization is switched off where ``setarch`` exists:
    the slice-norm indicator cache is keyed on ``id()``, so its hit count,
    and with it the traced counts, would otherwise change from run to run.
    The layout still depends on the checkout's path, and so do those counts.
    """
    cmd = [sys.executable, str(BENCH / "scenario.py"), "--workload",
           workload, *extra]
    if SETARCH:
        cmd = [SETARCH, platform.machine(), "-R", *cmd]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within the budget") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return start, json.loads(lines[-1])


class Calibrator:
    """The calibrator process, on the CPU this process is pinned to.

    A context manager: leaving it stops the process and waits for it.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibration.py")], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise BenchError("the calibrator did not start")
        return self

    def stop(self):
        """Stop sampling; return the samples as (start, seconds) pairs."""
        try:
            out, _ = self.proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("the calibrator did not stop") from exc
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"the calibrator exited {self.proc.returncode}")
        return [tuple(pair) for pair in json.loads(lines[-1])]

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()
        return False


def calibrated(seconds, window, samples):
    """Reference seconds of a time measured in window = (lo, hi).

    The calibrator's samples in the window share its CPU: their time is
    taken off, and their mean sets the scale.
    """
    lo, hi = window
    inside = [s for t, s in samples if lo <= t <= hi]
    if not inside:
        raise BenchError("no calibration sample in a measured window")
    return to_reference(seconds - sum(inside), statistics.fmean(inside))


def run_scenario(workload, index, deadline, trace=False):
    """One fresh-interpreter scenario run plus its oracle verdict."""
    out = OUT / workload / f"run{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    extra = ["--out", str(out)]
    if trace:
        extra += ["--trace", str(out / "spans.json")]
    start, record = spawn(workload, deadline, *extra)
    problems = compare(REFERENCE / workload, out)
    # A crash or a non-zero exit that the outputs do not explain fails all.
    if (record["error"] or record["exit_code"] != 0) \
            and not any(problems.values()):
        for found in problems.values():
            found.append(f"exit code {record['exit_code']}")
    record["start"] = start
    record["setup_s"] = record["ready"] - start
    record["problems"] = {c: p for c, p in problems.items() if p}
    record["attempted"] = len(problems)
    record["failed"] = sum(1 for p in problems.values() if p)
    record["out"] = str(out)
    return record


def source_digest():
    """SHA-256 over the library sources: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def scenario_runs(workload, seconds, deadline):
    runs = []
    began = time.monotonic()
    while True:
        runs.append(run_scenario(workload, len(runs), deadline))
        now = time.monotonic()
        if now - began >= seconds \
                or now + 1.5 * runs[-1]["wall_s"] + 10 > deadline:
            break
    return runs


def end_to_end(runs, setups, samples):
    """Medians over the run; setups are (start, ready) pairs."""
    setups = setups + [(r["start"], r["ready"]) for r in runs]
    setup_ref = [calibrated(ready - start, (start, ready), samples)
                 for start, ready in setups]
    values = {"wall_ref_s": statistics.median(r["wall_ref_s"] for r in runs),
              "setup_s": statistics.median(setup_ref),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                               for r in runs)}
    print("samples: " + json.dumps({
        "setup_s": setup_ref, "wall_ref_s": [r["wall_ref_s"] for r in runs],
        "setup_raw_s": [ready - start for start, ready in setups],
        "wall_raw_s": [r["wall_s"] for r in runs]}))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()}


def per_layer(plain, traced):
    with open(Path(traced["out"]) / "spans.json") as fh:
        trace = json.load(fh)
    names, spans = trace["names"], [tuple(s) for s in trace["spans"]]
    stats = summarize(names, spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    calls = stats.get("slice_norms.cube_indicator_slice_norm", empty)["calls"]
    solves = child_counts(names, spans,
                          "slice_norms.cube_indicator_slice_norm",
                          "slice_norms.slice_norm")
    derived = {
        "slice_norms.cube_indicator.solves": solves,
        "slice_norms.cube_indicator.hit_ratio":
            1.0 - solves / calls if calls else 0.0,
        "maximal.peetre_probe.failed":
            int(not traced.get("probe", {"ok": True})["ok"]),
        "trace.overhead_frac":
            traced["wall_ref_s"] / plain["wall_ref_s"] - 1.0}
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        span, field = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif field in SPAN_FIELDS:
            value = stats.get(span, empty)[SPAN_FIELDS[field]]
        else:
            value = trace["counters"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    checks = {name[len("cli."):]: round(entry["total_s"], 6)
              for name, entry in stats.items()
              if name.startswith("cli.") and entry["calls"]}
    print("per-check seconds (traced): " + json.dumps(checks))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # On SIGTERM, unwind so that the running child and the calibrator are
    # killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "slicehardy" / "cli.py").is_file():
        print(f"error: no slicehardy sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    if not checks_of(REFERENCE / args.workload):
        print(f"error: no reference outputs for {args.workload}",
              file=sys.stderr)
        return 2
    affinity = len(os.sched_getaffinity(0))
    # Every child and the calibrator inherit this one CPU.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        with Calibrator() as calibrator:
            # The first set-up in a fresh checkout also byte-compiles the
            # sources; the median over the run's set-ups absorbs it.
            setups = [spawn(args.workload, deadline, "--setup-only")
                      for _ in range(1 if args.trace else SETUP_SAMPLES)]
            print("env: " + json.dumps({
                **setups[0][1]["env"], "nproc": os.cpu_count(),
                "affinity": affinity, "cpu": cpu,
                "aslr_off": bool(SETARCH), "commit": commit(),
                "source_sha256": source_digest(),
                "calibration": {"ref_sample_s": REF_SAMPLE_S,
                                "interval_s": INTERVAL_S},
                "workload": args.workload, "scenario_seed": SEED,
                "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace}))
            if args.trace:
                runs = [run_scenario(args.workload, 0, deadline),
                        run_scenario(args.workload, 1, deadline, trace=True)]
            else:
                runs = scenario_runs(args.workload, args.seconds, deadline)
            samples = calibrator.stop()
        for run in runs:
            run["wall_ref_s"] = calibrated(run["wall_s"], run["window"],
                                           samples)
        if args.trace:
            metrics = per_layer(*runs)
        else:
            metrics = end_to_end(runs, [(start, record["ready"])
                                        for start, record in setups],
                                 samples)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for run in runs:
        print("run: " + json.dumps({k: run[k] for k in (
            "wall_ref_s", "wall_s", "cpu_s", "setup_s", "peak_rss_mb",
            "indicator_solves", "exit_code", "attempted", "failed",
            "problems", "probe") if k in run}))
        if run["error"]:
            print(run["error"], file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
