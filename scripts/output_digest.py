#!/usr/bin/env python3
"""Print one SHA-256 over the CLI's output files on fixed configurations, to compare checkouts.

    python3 scripts/output_digest.py [CHECKOUT ...]

For each checkout (default: this repository) ``microclust cluster
--dump-micro`` runs on the ten configurations below, and ``microclust
sweep`` on two-spirals-300 for mdmsc and gbsc, with microclust imported from
that checkout's src/ and every output written to a temporary directory.
Each call's arguments, exit status, printed lines and output files go into
the digest in order.  JSON files are hashed with their runtime fields
(``runtime_ms``, ``timings_ms``) removed and everything else as written, so
equal digests mean byte-identical labels.csv, similarity.csv and
micro-cluster dumps, and metrics.json and sweep.json equal apart from
runtimes.  One line per checkout: digest, number of calls, checkout.  With
two or more checkouts each runs in its own process, and the exit status is
1 when the digests differ.

Nothing is written into a checkout: bytecode caching is off and every output
goes to a temporary directory.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

RUNTIME_FIELDS = {"runtime_ms", "timings_ms"}
SPIRALS = "synth:two-spirals:300:noise=0"
MOONS = "synth:moons:300:noise=0.05"
DUP_CSV = "dup-blobs-400.csv"  # the dup-seeds points, written into the temporary directory

# name -> arguments of `microclust cluster` (each also gets --dump-micro, --runs and --out-dir)
CLUSTER_CONFIGS = {
    "c5-blobs-150": ["--input", "synth:blobs:150:noise=0.2:seed=2:components=3",
                     "--k", "6", "--clusters", "3"],
    "c1-spirals-k2": ["--input", SPIRALS, "--k", "2", "--clusters", "2"],
    "c1-moons-k10": ["--input", MOONS, "--k", "10", "--clusters", "2"],
    "c2-gbsc-spirals": ["--input", SPIRALS, "--algo", "gbsc", "--k", "10", "--clusters", "2"],
    "blobs-2k": ["--input", "synth:blobs:2000:noise=0.25:seed=1:components=8",
                 "--k", "10", "--clusters", "8"],
    "sc-spirals-60": ["--input", "synth:two-spirals:60:noise=0", "--algo", "sc", "--clusters", "2"],
    "single-cluster-moons": ["--input", MOONS, "--mode", "single-cluster", "--k", "10",
                             "--clusters", "2"],
    "compactness-only-spirals": ["--input", SPIRALS, "--mode", "compactness-only",
                                 "--k", "5", "--beta", "4", "--clusters", "2"],
    "dup-seeds-csv": ["--input", DUP_CSV, "--labels-col", "last", "--k", "10", "--clusters", "2"],
    "zero-noise-blobs-400": ["--input", "synth:blobs:400:noise=0:seed=0:components=3",
                             "--k", "10", "--clusters", "3"],
}
SWEEP_CONFIGS = {
    f"sweep-{algo}-spirals": ["--input", SPIRALS, "--algo", algo, "--k-range", "2:20",
                              "--beta-set", "8,16", "--clusters", "2"]
    for algo in ("mdmsc", "gbsc")
}
RUNS = "2"


def _strip_runtime(value):
    if isinstance(value, dict):
        return {k: _strip_runtime(v) for k, v in value.items() if k not in RUNTIME_FIELDS}
    if isinstance(value, list):
        return [_strip_runtime(v) for v in value]
    return value


def _write_dup_points(mc, path: Path) -> None:
    """The dup-seeds workload's points: 400 blobs rounded to a 0.05 grid, label last."""
    import numpy as np

    base = mc.generate_synthetic("blobs", 400, 0.25, 1, components=2)
    points = np.round(base.points / 0.05) * 0.05
    with open(path, "w") as fh:
        fh.write("x,y,label\n")
        for (x, y), label in zip(points.tolist(), base.labels.tolist()):
            fh.write(f"{x!r},{y!r},{int(label)}\n")


def digest(checkout: Path) -> tuple[str, int]:
    sys.path[:0] = [str(checkout / "src")]
    import microclust as mc
    from microclust.cli import main

    h = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_dup_points(mc, tmp / DUP_CSV)
        jobs = [("cluster", name, args + ["--dump-micro"]) for name, args in CLUSTER_CONFIGS.items()]
        jobs += [("sweep", name, args) for name, args in SWEEP_CONFIGS.items()]
        cwd = os.getcwd()
        os.chdir(tmp)  # the dup-seeds CSV is named relative to it
        try:
            for command, name, args in jobs:
                out_dir = tmp / name
                argv = [command, *args, "--runs", RUNS, "--seed", "0", "--out-dir", str(out_dir)]
                printed, warned = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(warned):
                    status = main(argv)
                calls += 1
                h.update(repr((command, name, args, status)).encode())
                h.update(printed.getvalue().encode() + b"\0" + warned.getvalue().encode())
                for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
                    h.update(path.name.encode() + b"\0")
                    if path.suffix == ".json":
                        payload = _strip_runtime(json.loads(path.read_text()))
                        h.update(json.dumps(payload, indent=2).encode())
                    else:
                        h.update(path.read_bytes())
        finally:
            os.chdir(cwd)
    return h.hexdigest(), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1]])
    args = parser.parse_args(argv)
    if len(args.checkouts) == 1:
        checkout = args.checkouts[0].resolve()
        value, calls = digest(checkout)
        print(f"{value}  {calls} calls  {checkout}")
        return 0
    lines = []
    for checkout in args.checkouts:
        proc = subprocess.run([sys.executable, __file__, str(checkout)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines.append(proc.stdout.strip())
        print(lines[-1])
    return 0 if len({line.split()[0] for line in lines}) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
