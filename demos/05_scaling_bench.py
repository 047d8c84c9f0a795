#!/usr/bin/env python3
"""Empirical cost of the splitting stage as n grows with bounded cluster size.

Generates blob fields whose component count grows with n (so the largest
micro-cluster stays bounded), times every pipeline stage, and fits a power
law to the splitting stage.  With bounded n* the fitted exponent should sit
near 1 — far below quadratic.  Pass --full for the 16k point run.
"""

import os
import sys
import time

# Before numpy loads OpenBLAS: the Laplacians here are a few hundred rows,
# where a second BLAS thread spends more time waking up than it saves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import microclust as mc  # noqa: E402

sizes = [1000, 2000, 4000, 8000, 16000] if "--full" in sys.argv else [1000, 2000, 4000]

rows = []
print(f"{'n':>7} {'m':>6} {'n*':>5} {'constr':>8} {'split':>8} {'sim':>8} {'spectral':>9} {'total s':>8}")
for n in sizes:
    comps = max(2, n // 500)
    ds = mc.generate_synthetic("blobs", n, 0.25, seed=1, components=comps)
    cfg = mc.RunConfig(k=10, n_clusters=comps, seed=0, runs=1)
    t0 = time.perf_counter()
    res = mc.run_pipeline(ds, cfg)
    total = time.perf_counter() - t0
    t = res.meta["timings_ms"]
    rows.append((n, t["splitting"]))
    print(
        f"{n:>7} {res.meta['m']:>6} {res.meta['n_star_initial']:>5} "
        f"{t['construction']:8.1f} {t['splitting']:8.1f} {t['similarity']:8.1f} "
        f"{t['spectral']:9.1f} {total:8.2f}"
    )

ns = np.log([r[0] for r in rows])
ts = np.log([r[1] for r in rows])
exponent = np.polyfit(ns, ts, 1)[0]
print(f"\nsplitting-stage power-law exponent: {exponent:.2f}  (bounded n* keeps it near 1)")
print("equivalent CLI: microclust bench --datasets synth:blobs:4000:noise=0.25:components=8 "
      "--algos mdmsc,gbsc --runs 1 --k 10")
