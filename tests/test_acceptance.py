"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s``).

Criterion 3 needs the house-votes CSV (435x16, 2 classes); when the file is
absent (this sandbox has no dataset egress) the test SKIPs with instructions
instead of faking a result.  See scripts/fetch_vote.py.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from scipy.linalg import eigh as oracle_eigh
from scipy.linalg import subspace_angles

import microclust as mc
from microclust.cli import main as cli_main
from microclust.cli import run_sweep

from conftest import (
    brute_force_acc,
    brute_force_knn,
    brute_force_mst_weight,
    brute_force_tree_diameter,
)

VOTE_PATHS = (
    os.environ.get("MICROCLUST_VOTE_CSV", ""),
    os.path.join(os.path.dirname(__file__), "..", "data", "house-votes-84.csv"),
)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def _best(ds, algorithm="mdmsc", mode="full", ks=range(2, 21), betas=(8, 16), seed=0):
    cfg = mc.RunConfig(
        algorithm=algorithm,
        mode=mode,
        n_clusters=int(np.unique(ds.labels).size),
        seed=seed,
        runs=1,
    )
    return run_sweep(ds, cfg, list(ks), list(betas))


def spirals300():
    return mc.generate_synthetic("two-spirals", 300, 0.0, 0)


def test_criterion_1_synthetic_manifold_recovery():
    worst_ari = 1.0
    worst_ms = 0.0
    details = []
    for ds in (spirals300(), mc.generate_synthetic("moons", 300, 0.05, 0)):
        rep = _best(ds)
        worst_ari = min(worst_ari, rep["best"]["ari"])
        slowest = max(r["runtime_ms"] for r in rep["rows"] if not r["failed"])
        worst_ms = max(worst_ms, slowest)
        details.append(f"{ds.name}: ARI {rep['best']['ari']:.3f}, max {slowest:.0f} ms/config")
    _report(
        "C1 synthetic manifold recovery",
        worst_ari >= 0.99 and worst_ms <= 10_000,
        "; ".join(details),
    )


def test_criterion_2_baseline_contrast():
    ds = spirals300()
    mdmsc_acc = _best(ds, "mdmsc")["best"]["acc"]
    gbsc_acc = _best(ds, "gbsc")["best"]["acc"]
    _report(
        "C2 baseline contrast",
        mdmsc_acc - gbsc_acc >= 0.05,
        f"MDMSC {mdmsc_acc:.3f} vs GBSC {gbsc_acc:.3f}",
    )


def test_criterion_3_vote_soft_target():
    path = next((p for p in VOTE_PATHS if p and os.path.exists(p)), None)
    if path is None:
        print("\n[ACCEPTANCE] C3 vote soft target: SKIP (dataset not available; "
              "run scripts/fetch_vote.py on a machine with network access, or set "
              "MICROCLUST_VOTE_CSV)")
        pytest.skip("house-votes-84.csv not available in this environment")
    ds = mc.load_csv(path, label_column="last")
    assert ds.n == 435 and ds.d == 16
    t0 = time.perf_counter()
    rep = _best(ds, ks=range(2, 51), betas=(8, 16))
    elapsed = time.perf_counter() - t0
    best = rep["best"]
    _report(
        "C3 vote soft target",
        best["acc"] >= 0.83 and best["ari"] >= 0.50 and elapsed <= 60,
        f"ACC {best['acc']:.3f}, ARI {best['ari']:.3f}, sweep {elapsed:.1f} s",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2024)
    failures = []

    # exact k-NN vs all-pairs brute force: 200 random instances
    for i in range(200):
        n = int(rng.integers(301, 2001)) if i % 20 == 0 else int(rng.integers(3, 301))
        d = int(rng.integers(1, 21))
        k = int(rng.integers(1, min(12, n)))
        ds = mc.Dataset(rng.standard_normal((n, d)))
        nt = mc.compute_knn(ds, k)
        oracle_idx, _ = brute_force_knn(ds.points, k)
        if not np.array_equal(nt.indices, oracle_idx):
            failures.append(f"knn instance {i} (n={n}, d={d}, k={k})")

    # MST total weight vs scipy oracle, clusters up to 200 points
    for i in range(30):
        n = int(rng.integers(2, 201))
        ds = mc.Dataset(rng.standard_normal((n, int(rng.integers(1, 6)))))
        edges, weights = mc.build_mst(np.arange(n), ds)
        if not np.isclose(weights.sum(), brute_force_mst_weight(ds.points), rtol=1e-9):
            failures.append(f"mst instance {i}")
        # tree-diameter endpoints vs all-pairs tree paths
        if n >= 2:
            _, path_dist = mc.find_endpoints(edges, weights)
            if not np.isclose(path_dist, brute_force_tree_diameter(edges, weights), rtol=1e-9):
                failures.append(f"endpoints instance {i}")

    # Hungarian accuracy vs permutation enumeration, label alphabets <= 7
    for i in range(60):
        n = int(rng.integers(2, 60))
        pred = rng.integers(0, int(rng.integers(1, 8)), n)
        truth = rng.integers(0, int(rng.integers(1, 8)), n)
        if not np.isclose(mc.acc(pred, truth), brute_force_acc(pred, truth)):
            failures.append(f"acc instance {i}")

    # Shipped eigensolver (numpy's LAPACK, dsyevd) vs an independent dense
    # oracle (scipy's LAPACK, QR driver dsyev), matrices up to 50x50
    for i in range(30):
        n = int(rng.integers(1, 51))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        w, v = mc.jacobi_eigh(a)
        w_o, v_o = oracle_eigh(a, driver="ev")
        if np.abs(w - w_o).max() > 1e-8:
            failures.append(f"eig values instance {i}")
            continue
        scale = max(1.0, float(np.abs(w_o).max()))
        start = 0
        for j in range(1, n + 1):
            if j == n or w_o[j] - w_o[j - 1] > 1e-6 * scale:
                if subspace_angles(v[:, start:j], v_o[:, start:j]).max() > 1e-6:
                    failures.append(f"eig subspace instance {i}")
                    break
                start = j

    _report(
        "C4 oracle equivalence",
        not failures,
        "knn x200, mst/endpoints x30, hungarian x60, eigen x30"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_5_invariant_suite(tmp_path):
    problems = []

    # curvature, partition, and split-log invariants across datasets/algorithms
    datasets = [
        spirals300(),
        mc.generate_synthetic("moons", 200, 0.05, 1),
        mc.generate_synthetic("blobs", 300, 0.2, 2, components=3),
    ]
    for ds in datasets:
        cfg = mc.RunConfig(
            k=6, n_clusters=int(np.unique(ds.labels).size), runs=1, dump_micro=True
        )
        res = mc.run_pipeline(ds, cfg)
        sizes = 0
        seen = set()
        for rec in res.meta["micro_clusters"]:
            sizes += rec["size"]
            seen.update(rec["members"])
            if rec["mc"] is not None and rec["mc"] < 1.0 - 1e-12:
                problems.append(f"{ds.name}: MC {rec['mc']} < 1")
        if sizes != ds.n or len(seen) != ds.n:
            problems.append(f"{ds.name}: split_all broke the partition")
        for rec in res.meta["split_records"]:
            if not rec["dm_weight"] < rec["dm"]:
                problems.append(f"{ds.name}: accepted split without DM improvement")

        norm = mc.normalize_minmax(ds)
        log: list[dict] = []
        balls = mc.gb_generate(norm, min_size=8, split_log=log)
        members = np.sort(np.concatenate([b.members for b in balls]))
        if not np.array_equal(members, np.arange(ds.n)):
            problems.append(f"{ds.name}: gb_generate broke the partition")
        for rec in log:
            if not rec["dm_weight"] < rec["dm"]:
                problems.append(f"{ds.name}: gb split without DM improvement")

        # Laplacian spectrum stays in [0, 2] up to roundoff
        nt = mc.compute_knn(norm, 6)
        pcs = mc.build_pseudo_clusters(norm, 6, nt=nt)
        s = mc.build_similarity_matrix(pcs, nt, norm)
        w, _ = mc.jacobi_eigh(mc.normalized_laplacian(s))
        if w.min() < -1e-8 or w.max() > 2 + 1e-8:
            problems.append(f"{ds.name}: Laplacian eigenvalues out of range")

    # determinism: byte-identical outputs across 3 repeated CLI runs
    blobs = "synth:blobs:150:noise=0.1:components=3:seed=4"
    payloads = []
    for tag in range(3):
        out = tmp_path / f"run{tag}"
        code = cli_main(
            ["cluster", "--input", blobs, "--clusters", "3", "--k", "8",
             "--seed", "11", "--runs", "2", "--out-dir", str(out)]
        )
        if code != 0:
            problems.append("determinism run failed")
            break
        payloads.append((out / "labels.csv").read_bytes())
    if len(set(payloads)) != 1:
        problems.append("labels.csv differs across repeated runs")

    _report(
        "C5 invariant suite",
        not problems,
        "MC>=1, partitions, DM-improving splits, spectrum range, determinism x3"
        + (f"; problems: {problems[:5]}" if problems else ""),
    )


def test_criterion_6_scaling():
    sizes = [2000, 4000, 8000, 16000]
    split_ms = []
    n_stars = []
    total_16k = None
    for n in sizes:
        comps = n // 500
        ds = mc.generate_synthetic("blobs", n, 0.25, 1, components=comps)
        cfg = mc.RunConfig(k=10, n_clusters=comps, seed=0, runs=1)
        t0 = time.perf_counter()
        res = mc.run_pipeline(ds, cfg)
        elapsed = time.perf_counter() - t0
        split_ms.append(res.meta["timings_ms"]["splitting"])
        n_stars.append(res.meta["n_star_initial"])
        if n == 16000:
            total_16k = elapsed
    exponent = float(np.polyfit(np.log(sizes), np.log(split_ms), 1)[0])
    _report(
        "C6 scaling",
        exponent < 1.5 and total_16k is not None and total_16k < 30,
        f"splitting-stage exponent {exponent:.2f} (n* max {max(n_stars)}), "
        f"16k total {total_16k:.1f} s",
    )


@pytest.mark.parametrize("case", ["two-spirals", "wine"])
def test_criterion_7_ablation_direction(case):
    if case == "wine":  # only the wine data needs sklearn
        wine = pytest.importorskip("sklearn.datasets").load_wine()
        ds, ks = mc.Dataset(wine.data, wine.target, name="wine"), range(2, 31)
    else:
        ds, ks = spirals300(), range(2, 21)
    full = _best(ds, mode="full", ks=ks)["best"]["acc"]
    ablations = {
        mode: _best(ds, mode=mode, ks=ks)["best"]["acc"]
        for mode in ("single-cluster", "no-split", "compactness-only")
    }
    _report(
        "C7 ablation direction",
        all(full >= v for v in ablations.values()),
        f"{ds.name}: full {full:.3f} vs "
        + ", ".join(f"{m} {v:.3f}" for m, v in ablations.items()),
    )
