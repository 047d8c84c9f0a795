"""Smoke test: the benchmark's self-test and one short run of each workload pass.

The benchmark under mcbench/ reaches the program by function names and checks
its intermediate results (the full spectrum from ``jacobi_eigh``, the
children from ``split_once``); a change that breaks those contracts fails
here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_selftest_passes():
    _run("mcbench/selftest.py")


@pytest.mark.parametrize("workload", ["blobs-2k", "manifold-sweep", "dup-seeds"])
def test_benchmark_workload_runs_correct(workload):
    out = _run("mcbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
