"""The three benchmark workloads, run in-process, write the outputs that
perfbench/reference/ pins: each CSV cell to the oracle's tolerance
(perfbench/oracle.py) and every check's summary status a pass."""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from slicehardy.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

from oracle import compare  # noqa: E402
from scenario import SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference(workload, tmp_path):
    config, _ = WORKLOADS[workload]
    args = ["all", "--seed", str(SEED), "--out", str(tmp_path)]
    if config:
        args += ["--config", str(BENCH.parent / config)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    problems = compare(BENCH / "reference" / workload, tmp_path)
    assert not any(problems.values()), problems
