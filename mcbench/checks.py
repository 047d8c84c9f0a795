"""Correctness checks that recompute every quantity without microclust.

Each check takes plain arrays and raises CheckFailed with a reason when the
program's output is wrong.  Only numpy and scipy are used, so a fault in
microclust cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import linear_sum_assignment

TIE_CHUNK = 512  # rows per block of the brute-force distance matrix
SIMILARITY_SAMPLE = 64  # nonzero and random pairs checked per similarity matrix
EIGEN_TOL = 1e-8  # spectrum range, residual and eigenvalue match


class CheckFailed(AssertionError):
    """A program output failed an independent check."""


def _fail(msg: str):
    raise CheckFailed(msg)


# ------------------------------------------------------------------ labels


def check_labels(labels, n: int, n_clusters: int) -> None:
    """Labels cover all n points and use at most n_clusters distinct values."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        _fail(f"labels have shape {labels.shape}, expected ({n},)")
    if not np.issubdtype(labels.dtype, np.integer):
        _fail(f"labels have dtype {labels.dtype}, expected integers")
    used = np.unique(labels).size
    if used > n_clusters:
        _fail(f"labels use {used} values for C={n_clusters}")


def check_propagation(point_labels, micro_labels, assignment) -> None:
    """Each point carries the label of the micro-cluster it belongs to."""
    point_labels = np.asarray(point_labels)
    expected = np.asarray(micro_labels)[np.asarray(assignment)]
    bad = np.flatnonzero(point_labels != expected)
    if bad.size:
        _fail(f"{bad.size} points do not carry their micro-cluster's label (first {bad[0]})")


def check_identical(label_sets, what: str) -> None:
    """Every pass produced the same labels."""
    first = label_sets[0]
    for p, labels in enumerate(label_sets[1:], start=2):
        if labels is None or first is None or not np.array_equal(first, labels):
            _fail(f"{what}: pass {p} labels differ from pass 1")


# ----------------------------------------------------------------- metrics


def contingency(pred, truth) -> np.ndarray:
    _, pi = np.unique(np.asarray(pred), return_inverse=True)
    _, ti = np.unique(np.asarray(truth), return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def ari_acc(pred, truth) -> tuple[float, float]:
    """Adjusted Rand index and best-matching accuracy from one contingency table."""
    table = contingency(pred, truth)
    n = int(table.sum())

    def pairs(x):
        x = x.astype(np.float64)
        return float((x * (x - 1) / 2).sum())

    sum_ij = pairs(table)
    sum_a = pairs(table.sum(axis=1))
    sum_b = pairs(table.sum(axis=0))
    total = n * (n - 1) / 2
    if sum_a == sum_b == 0 or sum_a == sum_b == total:
        ari = 1.0
    else:
        expected = sum_a * sum_b / total
        ari = (sum_ij - expected) / (0.5 * (sum_a + sum_b) - expected)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(ari), float(table[rows, cols].sum() / n)


def check_reported(reported: dict, ari: float, acc: float, what: str) -> None:
    """The ARI/ACC the program reports equal the ones recomputed here."""
    for key, own in (("ari", ari), ("acc", acc)):
        if not np.isclose(reported[key], own, rtol=1e-9, atol=1e-12):
            _fail(f"{what}: program reports {key}={reported[key]!r}, recomputed {own!r}")


def check_floor(value: float, floor: float, what: str) -> None:
    if not value >= floor:
        _fail(f"{what}: {value:.4f} is below the floor {floor}")


def check_margin(better: float, worse: float, margin: float, what: str) -> None:
    if not better - worse >= margin:
        _fail(f"{what}: {better:.4f} - {worse:.4f} is below the margin {margin}")


# -------------------------------------------------------------- neighbours


def check_knn_rows(points, k: int, indices, distances, rows) -> None:
    """Sampled rows equal a brute-force (distance, index) order, self excluded."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    indices = np.asarray(indices)
    distances = np.asarray(distances)
    if indices.shape != (n, k) or distances.shape != (n, k):
        _fail(f"k-NN table has shape {indices.shape}, expected ({n}, {k})")
    order_key = np.arange(n)
    for i in rows:
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        expected = np.lexsort((order_key, d))[:k]
        if not np.array_equal(indices[i], expected):
            _fail(f"k-NN row {i}: {indices[i].tolist()} != brute force {expected.tolist()}")
        if not np.allclose(distances[i], d[expected], rtol=1e-12, atol=1e-15):
            _fail(f"k-NN row {i}: distances differ from brute force")


def count_tie_rows(points, k: int) -> int:
    """Rows whose k-th neighbour distance equals the next one, or that hold a duplicate."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k >= n - 1:
        return 0
    ties = 0
    for start in range(0, n, TIE_CHUNK):
        block = points[start : start + TIE_CHUNK]
        d = np.sqrt(((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        d[np.arange(block.shape[0]), np.arange(start, start + block.shape[0])] = np.inf
        part = np.sort(np.partition(d, k, axis=1)[:, : k + 1], axis=1)
        ties += int(((part[:, k - 1] == part[:, k]) | (part[:, 0] == 0.0)).sum())
    return ties


# ---------------------------------------------------------- micro-clusters


def check_partition(clusters, assignment, n: int) -> None:
    """Micro-clusters are nonempty, disjoint, cover 0..n-1 and match assignment."""
    if any(len(c) == 0 for c in clusters):
        _fail("a micro-cluster is empty")
    members = np.sort(np.concatenate([np.asarray(c) for c in clusters]))
    if not np.array_equal(members, np.arange(n)):
        _fail("micro-clusters do not partition 0..n-1")
    assignment = np.asarray(assignment)
    for t, c in enumerate(clusters):
        if not (assignment[np.asarray(c)] == t).all():
            _fail(f"assignment disagrees with micro-cluster {t}")


def compactness(points) -> float:
    """Mean distance of the points to their centroid."""
    return float(np.linalg.norm(points - points.mean(axis=0), axis=1).mean())


def check_split(points, parent, child1, child2) -> None:
    """An accepted split partitions its parent and lowers the weighted compactness."""
    points = np.asarray(points, dtype=np.float64)
    parent, child1, child2 = (np.asarray(x) for x in (parent, child1, child2))
    if not np.array_equal(np.sort(np.concatenate([child1, child2])), np.sort(parent)):
        _fail("split children do not partition the parent")
    if child1.size == 0 or child2.size == 0:
        _fail("split produced an empty child")
    weighted = (
        child1.size * compactness(points[child1]) + child2.size * compactness(points[child2])
    ) / parent.size
    before = compactness(points[parent])
    if not weighted < before:
        _fail(f"split raised weighted compactness {before!r} -> {weighted!r}")


# ------------------------------------------------------------- similarity


def check_graph(s) -> None:
    """A similarity or adjacency matrix is square, symmetric, nonnegative, zero-diagonal."""
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        _fail(f"similarity has shape {s.shape}")
    if not np.array_equal(s, s.T):
        _fail("similarity is not symmetric")
    if (s < 0).any() or not np.isfinite(s).all():
        _fail("similarity has negative or non-finite entries")
    if np.any(np.diag(s) != 0):
        _fail("similarity diagonal is not zero")


def check_similarity_entries(s, clusters, nbr_indices, points, pairs) -> None:
    """Sampled entries equal |union_i & union_j| / (1 + |c_i - c_j|), recomputed."""
    points = np.asarray(points, dtype=np.float64)
    nbr_indices = np.asarray(nbr_indices)
    unions, cents = {}, {}
    for i, j in pairs:
        for t in (i, j):
            if t not in unions:
                members = np.asarray(clusters[t])
                unions[t] = set(nbr_indices[members].ravel().tolist())
                cents[t] = points[members].mean(axis=0)
        shared = len(unions[i] & unions[j])
        expected = 0.0 if i == j else shared / (1.0 + np.linalg.norm(cents[i] - cents[j]))
        if not np.isclose(s[i, j], expected, rtol=1e-9, atol=1e-12):
            _fail(f"similarity[{i}, {j}] = {s[i, j]!r}, recomputed {expected!r}")


def sample_pairs(s, rng):
    """Up to SIMILARITY_SAMPLE nonzero pairs, and as many random pairs (i != j), of a matrix."""
    m = s.shape[0]
    nz_i, nz_j = np.nonzero(np.triu(s, 1))
    pick = rng.choice(nz_i.size, size=min(SIMILARITY_SAMPLE, nz_i.size), replace=False)
    pairs = list(zip(nz_i[pick].tolist(), nz_j[pick].tolist()))
    i = rng.integers(0, m, size=SIMILARITY_SAMPLE)
    j = rng.integers(0, m, size=SIMILARITY_SAMPLE)
    pairs += [(a, b) for a, b in zip(i.tolist(), j.tolist()) if a != b]
    return pairs


# ------------------------------------------------------------- eigensolve


def check_eigen(lap, w, v, n_clusters: int) -> None:
    """Spectrum in [0, 2], small residuals, smallest C eigenvalues match scipy.linalg.eigh."""
    lap = np.asarray(lap, dtype=np.float64)
    w = np.asarray(w)
    v = np.asarray(v)
    m = lap.shape[0]
    if w.shape != (m,) or v.shape != (m, m):
        _fail(f"eigenpairs have shapes {w.shape}, {v.shape} for order {m}")
    if w.min() < -EIGEN_TOL or w.max() > 2 + EIGEN_TOL:
        _fail(f"Laplacian spectrum [{w.min()!r}, {w.max()!r}] leaves [0, 2]")
    resid = np.linalg.norm(lap @ v - v * w, axis=0)
    worst = int(np.argmax(resid))
    if resid[worst] > EIGEN_TOL * max(1.0, np.linalg.norm(lap)):
        _fail(f"eigenpair {worst} has residual {resid[worst]:.3e}")
    c = min(n_clusters, m)
    ref = eigh(lap, eigvals_only=True, subset_by_index=[0, c - 1])
    if not np.allclose(np.sort(w)[:c], ref, rtol=0, atol=EIGEN_TOL):
        _fail(f"smallest {c} eigenvalues {np.sort(w)[:c]} differ from eigh {ref}")


# ---------------------------------------------------------------- k-means


def check_kmeans(x, labels, n_clusters: int) -> None:
    """Every point's label names its nearest cluster mean."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (x.shape[0],) or labels.min() < 0 or labels.max() >= n_clusters:
        _fail("k-means labels out of range")
    means = np.zeros((n_clusters, x.shape[1]))
    used = np.unique(labels)
    for j in used:
        means[j] = x[labels == j].mean(axis=0)
    d2 = ((x[:, None, :] - means[None, used, :]) ** 2).sum(axis=2)
    own = d2[np.arange(x.shape[0]), np.searchsorted(used, labels)]
    slack = 1e-12 * max(1.0, float(d2.max()))
    bad = np.flatnonzero(own > d2.min(axis=1) + slack)
    if bad.size:
        _fail(f"{bad.size} k-means labels do not name the nearest mean (first point {bad[0]})")
