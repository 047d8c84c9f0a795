#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating paired runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload manifold-sweep \\
        --pairs 10 --seed 1001 [--seconds 35]

Pair i runs ``mcbench/run.py --seed SEED+i --trace 0`` in both checkouts,
the parent first in even pairs and the change first in odd ones.  For every
end-to-end metric that CHANGE_DIR's BENCHMARK.json declares it prints each
side's median and [q1, q3], the number of pairs the change won, whether the
change's median beats the parent's by more than the parent's interquartile
range ("clear"), and whether it is worse than the parent's median by more
than the metric's relative bound.  Exits 1 when a run crashed, failed a
check or had failed operations.

Stdlib only.  Nothing is written into either checkout: bytecode caching is
off and --trace 0 writes no trace files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "mcbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0  # sign * (change - parent) < 0 means the change is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, *quartiles(change)),
        "wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "clear": sign * (p_med - c_med) > p_q3 - p_q1,
        "worse_than_bound": worse_by > metric["bound"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=35.0, help="seconds per run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in sides}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, args.seed + i, args.seconds)
            results[side].append(res)
            problem = res.get("error") or (
                None if res["correct"] and res["failed"] == 0
                else f"correct={res['correct']} failed={res['failed']}"
            )
            if problem:
                ok = False
                print(f"pair {i + 1} {side}: {problem}", file=sys.stderr)
        print(f"pair {i + 1}/{args.pairs} done (seed {args.seed + i})", file=sys.stderr)

    if not ok:
        return 1
    last_seed = args.seed + args.pairs - 1
    print(f"{args.workload}: {args.pairs} pair(s), seeds {args.seed}..{last_seed}, "
          f"{args.seconds:g} s per run")
    print(f"{'metric':12s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'wins':>6s} {'clear':>6s} {'worse>bound':>12s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        s = summarize(metric, values["parent"], values["change"])
        cells = [f"{m:.4f} [{a:.4f}, {b:.4f}]" for m, a, b in (s["parent"], s["change"])]
        clear = "yes" if s["clear"] else "no"
        worse = "YES" if s["worse_than_bound"] else "no"
        print(f"{name:12s} {cells[0]:>32s} {cells[1]:>32s} {s['wins']:>3d}/{args.pairs:<2d}"
              f" {clear:>6s} {worse:>12s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
