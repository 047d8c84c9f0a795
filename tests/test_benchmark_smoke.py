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


def test_bench_pairs_compares_a_checkout_with_itself():
    out = _run(
        "scripts/bench_pairs.py", str(ROOT), str(ROOT), "--workload", "blobs-2k",
        "--pairs", "1", "--seed", "1", "--seconds", "0",
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {line.split()[0]: line.split() for line in out.splitlines()[2:]}
    assert set(rows) == {m["name"] for m in spec["end_to_end"]}
    assert rows["ari"][1] == rows["ari"][4] == "1.0000"  # same labels on both sides


def test_label_digest_hashes_every_benchmark_call():
    out = _run("scripts/label_digest.py", str(ROOT), str(ROOT))
    lines = [line.split() for line in out.splitlines()]
    assert len(lines) == 2 and lines[0] == lines[1]  # exit status 0: equal digests
    digest, calls = lines[0][:2]
    assert len(digest) == 64 and int(calls) == 108


def test_output_digest_hashes_every_cli_call_without_writing_into_the_checkout():
    before = sorted(p for p in ROOT.rglob("*") if ".git" not in p.parts)
    out = _run("scripts/output_digest.py", str(ROOT), str(ROOT))
    lines = [line.split() for line in out.splitlines()]
    assert len(lines) == 2 and lines[0] == lines[1]  # exit status 0: equal digests
    digest, calls = lines[0][:2]
    assert len(digest) == 64 and int(calls) == 12
    assert sorted(p for p in ROOT.rglob("*") if ".git" not in p.parts) == before
