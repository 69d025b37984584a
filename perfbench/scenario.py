"""Run one benchmark workload in this fresh interpreter and report it.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/scenario.py --workload cz_2d --out DIR [--trace FILE]
    python3 perfbench/scenario.py --workload cz_2d --setup-only

Set-up ends once ``slicehardy.cli`` is imported and the workload's config
is loaded; the line printed last then holds ``time.monotonic()`` at that
moment, so the parent can time set-up from before it started this
process, and the timed part's window on that clock, so the parent can
match it with the calibrator's samples (``calibration.py``).  The timed
part is ``slicehardy all`` on the workload, run through the CLI entry
point in this process.  Every run gets a fresh
interpreter because two caches live as long as the process: the
slice-norm indicator cache and the config's kernel dictionary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

SEED = 0

# name -> (INI config relative to the checkout root or None for the
# defaults, whether to run the Peetre probe after the timed checks)
WORKLOADS = {
    "scenario_power": (None, False),
    "scenario_logdamped": ("perfbench/workloads/scenario_logdamped.ini",
                           False),
    "cz_2d": ("perfbench/workloads/cz_2d.ini", True),
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def environment():
    """Interpreter, library and BLAS versions plus the thread settings."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def _probe(cfg):
    """Peetre maximal function of the first member, outcome only."""
    from slicehardy import maximal

    f = cfg.family(SEED)[0]
    mp = cfg.maximal_params()
    start = time.perf_counter()
    try:
        maximal.peetre_maximal(f, mp.dictionary.phi, mp.b, mp.ladder,
                               mp.eps_cut)
        error = None
    except Exception as exc:  # the outcome is the measurement
        error = f"{type(exc).__name__}: {exc}"
    return {"ok": error is None, "error": error,
            "seconds": time.perf_counter() - start}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--out")
    parser.add_argument("--trace", help="write spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    config_path, probe = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    import slicehardy.cli as cli
    from slicehardy.config import load_config

    cfg = load_config(config_path)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "env": environment()}))
        return 0

    argv = ["all", "--seed", str(SEED), "--out", args.out]
    if config_path:
        argv += ["--config", config_path]
    error = None
    cpu = time.process_time()
    start_mono = time.monotonic()
    start = time.perf_counter()
    try:
        exit_code = cli.main.main(args=argv, prog_name="slicehardy",
                                  standalone_mode=False)
    except SystemExit as exc:
        exit_code = exc.code
    except Exception:  # reported as a failed run, not a crash
        exit_code = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    end_mono = time.monotonic()
    cpu = time.process_time() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Entries of the id()-keyed indicator cache: one per indicator solve.
    from slicehardy import slice_norms

    indicator_solves = len(getattr(slice_norms, "_INDICATOR_CACHE", ()))
    if tracer is not None:
        tracer.restore()
        tracer.dump(args.trace)
    record = {"ready": ready, "window": [start_mono, end_mono],
              "wall_s": wall, "cpu_s": cpu,
              "exit_code": exit_code,
              "error": error, "peak_rss_mb": peak_rss_mb,
              "indicator_solves": indicator_solves}
    if probe:
        record["probe"] = _probe(cfg)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
