"""Write the reference outputs that the oracle compares runs against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each workload runs once, untraced, and every CSV it writes is copied to
``perfbench/reference/<workload>/``.
"""

from __future__ import annotations

import shutil
import sys
import time

from run import BUDGET_S, OUT, REFERENCE, spawn
from scenario import WORKLOADS


def main(names):
    for workload in names or WORKLOADS:
        out = OUT / workload / "reference"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        _, record = spawn(workload, time.monotonic() + BUDGET_S,
                          "--out", str(out))
        if record["error"] or record["exit_code"] != 0:
            print(f"{workload}: exit {record['exit_code']}\n"
                  f"{record['error'] or ''}", file=sys.stderr)
            return 1
        target = REFERENCE / workload
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for path in sorted(out.glob("*.csv")):
            shutil.copy(path, target / path.name)
        print(f"{workload}: {len(list(target.glob('*.csv')))} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
