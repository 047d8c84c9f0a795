"""Exact k-NN, Gaussian-kernel density, leader links, and pseudo-clusters.

A point's leader is its nearest neighbor with strictly higher density;
points with no leader are cores.  Connecting every point to its leader
yields a forest of in-trees, and each weakly connected component (one core
per tree) is a pseudo-cluster.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .data import Dataset

# KD-trees degrade toward brute force in high dimension; cross over early.
_KDTREE_MAX_DIM = 16
_BRUTE_CHUNK = 512
# Suspect KD-tree rows are repaired _REPAIR_CANDIDATES // (k + 2) at a time,
# which bounds the candidate arrays unless a row's k-th shell is crowded.
_REPAIR_CANDIDATES = 1 << 16


@dataclass(frozen=True)
class NeighborTable:
    """Per-point neighbor indices and distances, ascending by (distance, index).

    Every row has exactly k entries and never contains the point itself.
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class LeaderForest:
    """leader[i] is the leader's index or -1; cores are the leaderless points."""

    leader: np.ndarray
    cores: np.ndarray


@dataclass
class PseudoClusterSet:
    """A partition of point indices into micro-clusters.

    clusters[t] holds the sorted member indices of cluster t; assignment maps
    each point to its cluster id; cores[t] is the cluster's root point and
    centroids[t] the arithmetic mean of its members.
    """

    clusters: list[np.ndarray]
    assignment: np.ndarray
    cores: np.ndarray
    centroids: np.ndarray

    @property
    def m(self) -> int:
        return len(self.clusters)

    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.clusters], dtype=np.int64)

    def validate(self) -> None:
        n = self.assignment.shape[0]
        total = np.concatenate(self.clusters) if self.clusters else np.array([], dtype=int)
        ordered = np.sort(total)
        if total.size != n or (ordered[1:] == ordered[:-1]).any():
            raise ValueError("clusters do not partition the point set")
        # The first defective cluster in id order is either empty or holds a
        # member whose assignment names another cluster (never both).  An
        # empty float member array can make `total` float, hence the cast.
        sizes = self.sizes()
        owner = np.repeat(np.arange(sizes.size), sizes)
        wrong = np.flatnonzero(self.assignment[total.astype(np.int64, copy=False)] != owner)
        empty = np.flatnonzero(sizes == 0)
        first_wrong = int(owner[wrong[0]]) if wrong.size else sizes.size
        first_empty = int(empty[0]) if empty.size else sizes.size
        if first_empty < first_wrong:
            raise ValueError(f"cluster {first_empty} is empty")
        if wrong.size:
            raise ValueError(f"assignment inconsistent for cluster {first_wrong}")


def _row_sort(indices: np.ndarray, distances: np.ndarray):
    """Sort each row by (distance, index) so tie order is deterministic."""
    order = np.lexsort((indices, distances), axis=1)
    rows = np.arange(indices.shape[0])[:, None]
    return indices[rows, order], distances[rows, order]


def _first_k(rows: np.ndarray, idx: np.ndarray, dist: np.ndarray, k: int, nrows: int):
    """First k candidates of each row by (distance, index).

    Candidate c is point idx[c] at distance dist[c] from the query of row
    rows[c] (0 <= rows[c] < nrows); every row needs at least k candidates.
    Returns (indices, distances), both (nrows, k).
    """
    order = np.lexsort((idx, dist, rows))
    counts = np.bincount(rows, minlength=nrows)
    if (counts < k).any():
        raise AssertionError("a repaired k-NN row has fewer than k candidates")
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return idx[take], dist[take]


def _duplicate_rows(tree: cKDTree, points: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Neighbours of rows whose k-th neighbour distance is 0.

    Such a row's neighbours are the k smallest-index other points at
    distance 0.  A distance is 0 exactly when every squared coordinate
    difference is 0 (including differences that underflow), so one r = 0
    ball query per set of identical rows returns that set, the row included:
    a group of g clones costs O(g), not g^2 candidates.
    """
    _, first, group = np.unique(points[rows], axis=0, return_index=True, return_inverse=True)
    balls = tree.query_ball_point(points[rows[first]], r=0.0, return_sorted=True)
    head = np.array([ball[: k + 1] for ball in balls], dtype=np.int64)[group.ravel()]
    keep = head != rows[:, None]
    keep[keep.all(axis=1), k] = False  # the row itself lies beyond its first k + 1
    return head[keep].reshape(rows.size, k)


def _ball_rows(tree: cKDTree, points: np.ndarray, rows: np.ndarray, kth: np.ndarray, k: int):
    """Exact rows from every point within the k-th tree distance (kth > 0).

    The radius is raised by a relative 1e-9 and one ulp so that rounding
    differences between the tree's distances and np.linalg.norm cannot drop
    a tied point.  Distances are recomputed with the row formula
    norm(points[j] - points[i]) so they carry the same bits as a full-row
    scan would.
    """
    radius = np.nextafter(kth * (1 + 1e-9), np.inf)
    balls = tree.query_ball_point(points[rows], radius, return_sorted=False)
    counts = np.fromiter(map(len, balls), dtype=np.int64, count=rows.size)
    cand = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(counts.sum()))
    row = np.repeat(np.arange(rows.size), counts)
    other = cand != rows[row]
    cand, row = cand[other], row[other]
    dist = np.linalg.norm(points[cand] - points[rows[row]], axis=1)
    return _first_k(row, cand, dist, k, rows.size)


def _knn_kdtree(points: np.ndarray, k: int):
    n = points.shape[0]
    # Query two extra slots: one for the query point itself (which lands
    # anywhere in its row when duplicates tie at distance 0) and one to make
    # ties at the kept/dropped boundary visible.
    q = min(k + 2, n)
    tree = cKDTree(points)
    dist, idx = tree.query(points, k=q)
    self_mask = idx == np.arange(n)[:, None]
    dist = np.where(self_mask, np.inf, dist)
    idx, dist = _row_sort(idx, dist)
    out_idx, out_dist = idx[:, :k].copy(), dist[:, :k].copy()
    # The tree's choice among equidistant candidates is arbitrary.  Rows
    # where a real neighbor was dropped at the same distance as the k-th
    # kept one (or where duplicates crowded the query point out of its own
    # results, which puts the k-th distance at 0) are recomputed exactly,
    # restoring smallest-index tie order.
    kth = out_dist[:, k - 1]
    suspect = np.flatnonzero(~self_mask.any(axis=1) | (dist[:, k] <= kth))
    zero = suspect[kth[suspect] == 0]
    if zero.size:
        out_idx[zero] = _duplicate_rows(tree, points, zero, k)
        out_dist[zero] = 0.0
    ball = suspect[kth[suspect] > 0]
    step = max(1, _REPAIR_CANDIDATES // (k + 2))
    for start in range(0, ball.size, step):
        rows = ball[start : start + step]
        out_idx[rows], out_dist[rows] = _ball_rows(tree, points, rows, kth[rows], k)
    return out_idx, out_dist


def _knn_brute(points: np.ndarray, k: int):
    # cdist (not the Gram trick) so coincident points get distance exactly 0
    # and exact ties stay exactly tied.
    n = points.shape[0]
    idx_out = np.empty((n, k), dtype=np.int64)
    dist_out = np.empty((n, k), dtype=np.float64)
    q = min(k + 1, n - 1)  # one extra slot exposes ties at the boundary
    for start in range(0, n, _BRUTE_CHUNK):
        stop = min(start + _BRUTE_CHUNK, n)
        d = cdist(points[start:stop], points)
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf  # exclude self
        part = np.argpartition(d, q - 1, axis=1)[:, :q]
        pd = np.take_along_axis(d, part, axis=1)
        pi, pd = _row_sort(part, pd)
        idx_out[start:stop] = pi[:, :k]
        dist_out[start:stop] = pd[:, :k]
        if q > k:
            # argpartition picks arbitrarily among distances tied across the
            # kept/dropped boundary; redo those rows from every point within
            # their k-th distance
            tied = np.flatnonzero(pd[:, k] <= pd[:, k - 1])
            block = d[tied]
            row, cand = np.nonzero(block <= pd[tied, k - 1, None])
            idx_out[start + tied], dist_out[start + tied] = _first_k(
                row, cand, block[row, cand], k, tied.size
            )
    return idx_out, dist_out


def compute_knn(ds: Dataset, k: int) -> NeighborTable:
    """Exact Euclidean k nearest neighbors for every point (self excluded).

    k must be >= 1; a request beyond n-1 is clamped to n-1 with a warning.
    Uses a KD-tree up to d=16 and blocked brute force beyond that.
    """
    n = ds.n
    if n < 2:
        raise ValueError("need at least 2 points for neighbor search")
    if k < 1:
        raise ValueError(f"k out of range: {k}")
    if k > n - 1:
        warnings.warn(f"k={k} exceeds n-1={n - 1}; clamping", stacklevel=2)
        k = n - 1
    if ds.d <= _KDTREE_MAX_DIM:
        idx, dist = _knn_kdtree(ds.points, k)
    else:
        idx, dist = _knn_brute(ds.points, k)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    idx.setflags(write=False)
    dist.setflags(write=False)
    return NeighborTable(idx, dist, k)


def compute_density(nt: NeighborTable) -> np.ndarray:
    """Density of each point: the sum of Gaussian kernels exp(-dist^2)
    over its k nearest neighbors."""
    return np.exp(-nt.distances**2).sum(axis=1)


def compute_leaders(nt: NeighborTable, rho: np.ndarray) -> LeaderForest:
    """Nearest strictly-higher-density neighbor of each point.

    Rows are already ordered by (distance, index), so the first qualifying
    neighbor is the closest one with the smallest index among ties.  Points
    whose neighborhood has no higher density become cores.
    """
    if rho.shape[0] != nt.n:
        raise ValueError("density vector does not match neighbor table")
    higher = rho[nt.indices] > rho[:, None]
    has = higher.any(axis=1)
    first = higher.argmax(axis=1)
    leader = np.where(has, nt.indices[np.arange(nt.n), first], -1)
    cores = np.flatnonzero(leader == -1)
    return LeaderForest(leader.astype(np.int64), cores.astype(np.int64))


def _components_to_clusters(points: np.ndarray, labels: np.ndarray, m: int):
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=m)
    bounds = np.cumsum(counts)[:-1]
    clusters = [np.sort(c) for c in np.split(order, bounds)]
    centroids = np.zeros((m, points.shape[1]))
    np.add.at(centroids, labels, points)
    centroids /= counts[:, None]
    return clusters, centroids


def build_pseudo_clusters(ds: Dataset, k: int, nt: NeighborTable | None = None) -> PseudoClusterSet:
    """Construct pseudo-clusters: k-NN -> density -> leaders -> components.

    The number of clusters equals the number of cores (each leader tree
    roots at exactly one).  Pass a precomputed NeighborTable to avoid a
    second k-NN search.
    """
    if nt is None:
        nt = compute_knn(ds, k)
    elif nt.n != ds.n:
        raise ValueError("neighbor table does not match dataset")
    rho = compute_density(nt)
    lf = compute_leaders(nt, rho)

    src = np.flatnonzero(lf.leader >= 0)
    graph = coo_matrix(
        (np.ones(src.size), (src, lf.leader[src])), shape=(ds.n, ds.n)
    )
    m, labels = connected_components(graph, directed=False)

    clusters, centroids = _components_to_clusters(ds.points, labels, m)
    cores = np.full(m, -1, dtype=np.int64)
    for c in lf.cores:
        t = labels[c]
        if cores[t] != -1:
            raise AssertionError("component with more than one core")
        cores[t] = c
    if (cores == -1).any():
        raise AssertionError("component without a core")

    pcs = PseudoClusterSet(clusters, labels.astype(np.int64), cores, centroids)
    pcs.validate()
    return pcs
