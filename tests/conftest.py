"""Shared fixtures and independent brute-force oracles.

Every oracle here recomputes its quantity by a route different from the
library implementation (all-pairs scans, scipy graph routines, permutation
enumeration, one-vertex-at-a-time loops) so equivalence tests stay
meaningful.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree
from scipy.spatial.distance import cdist

from microclust import Dataset


@pytest.fixture
def collinear_triple() -> Dataset:
    return Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


@pytest.fixture
def right_angle_triple() -> Dataset:
    return Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))


@pytest.fixture
def spread_quadruple() -> Dataset:
    return Dataset(np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]]))


def brute_force_knn(points: np.ndarray, k: int):
    """All-pairs exact k-NN via cdist, rows ordered by (distance, index)."""
    n = points.shape[0]
    dist = cdist(points, points)
    np.fill_diagonal(dist, np.inf)
    idx = np.empty((n, k), dtype=np.int64)
    out = np.empty((n, k))
    for i in range(n):
        order = np.lexsort((np.arange(n), dist[i]))[:k]
        idx[i] = order
        out[i] = dist[i, order]
    return idx, out


def brute_force_mst_weight(points: np.ndarray) -> float:
    """Total MST weight via scipy's sparse-graph routine on the dense matrix."""
    return float(minimum_spanning_tree(cdist(points, points)).sum())


def tree_path_matrix(edges: np.ndarray, weights: np.ndarray, vertices: np.ndarray):
    """All-pairs path lengths on a tree, via scipy Dijkstra."""
    pos = {int(v): i for i, v in enumerate(vertices)}
    s = vertices.size
    rows = [pos[int(a)] for a in edges[:, 0]] + [pos[int(b)] for b in edges[:, 1]]
    cols = [pos[int(b)] for b in edges[:, 1]] + [pos[int(a)] for a in edges[:, 0]]
    graph = csr_matrix((np.concatenate([weights, weights]), (rows, cols)), shape=(s, s))
    return dijkstra(graph, directed=False)


def brute_force_tree_diameter(edges: np.ndarray, weights: np.ndarray) -> float:
    vertices = np.unique(edges)
    return float(tree_path_matrix(edges, weights, vertices).max())


def reference_prim(points: np.ndarray, members: np.ndarray):
    """One-cluster Prim, one vertex per Python iteration: the splitting rule's reference.

    Squared-distance keys from an einsum over difference rows; the frontier
    vertex with the smallest (key, position) wins and the earliest parent is
    kept; weights are the square roots of the chosen keys.  Returns
    (edges, weights) with edges as global (parent, child) pairs in the order
    they are added.
    """
    members = np.asarray(members, dtype=np.int64)
    s = members.size
    if s == 1:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    pts = points[members]
    in_tree = np.zeros(s, dtype=bool)
    key = np.full(s, np.inf)
    parent = np.full(s, -1, dtype=np.int64)
    in_tree[0] = True
    key[0] = 0.0
    diff = pts - pts[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    better = d2 < key
    better[0] = False
    key[better] = d2[better]
    parent[better] = 0
    edges = np.empty((s - 1, 2), dtype=np.int64)
    weights = np.empty(s - 1)
    masked = key.copy()
    masked[0] = np.inf
    for e in range(s - 1):
        u = int(np.argmin(masked))
        in_tree[u] = True
        edges[e] = members[parent[u]], members[u]
        weights[e] = masked[u]
        masked[u] = np.inf
        diff = pts - pts[u]
        d2 = np.einsum("ij,ij->i", diff, diff)
        better = (~in_tree) & (d2 < key)
        key[better] = d2[better]
        parent[better] = u
        masked[better] = d2[better]
    np.sqrt(weights, out=weights)
    return edges, weights


def reference_endpoints(edges: np.ndarray, weights: np.ndarray):
    """Tree-diameter endpoints by two depth-first farthest-point sweeps.

    Vertices are ranked by id; the first sweep starts at the smallest id,
    path lengths are summed outward from the sweep's start, and ties on the
    farthest distance go to the smallest id.  Returns ((a, b), path) with
    a < b.
    """
    verts = np.unique(edges)
    pos = {int(v): i for i, v in enumerate(verts)}
    adj = [[] for _ in verts]
    for (a, b), w in zip(edges.tolist(), weights.tolist()):
        adj[pos[a]].append((pos[b], w))
        adj[pos[b]].append((pos[a], w))

    def farthest(start):
        dist = np.full(verts.size, -1.0)
        dist[start] = 0.0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, length in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + length
                    stack.append(w)
        return int(np.argmax(dist)), dist

    u, _ = farthest(0)
    v, dist = farthest(u)
    a, b = sorted((int(verts[u]), int(verts[v])))
    return (a, b), float(dist[v])


def reference_split_proposal(points: np.ndarray, members: np.ndarray, endpoints):
    """One cluster's split proposal, one cluster at a time: the splitting rule's reference.

    Members go to the nearer endpoint by a per-cluster np.linalg.norm,
    equidistant ones to a; each child's compactness is the mean distance to
    its centroid (sum(axis=0) / s, then the norm sum) and its centroid
    mean(axis=0), both nan when a child is empty.  Returns (children, dms,
    centroids, ties): ties counts the equidistant members.
    """
    members = np.asarray(members, dtype=np.int64)
    a, b = endpoints
    da = np.linalg.norm(points[members] - points[a], axis=1)
    db = np.linalg.norm(points[members] - points[b], axis=1)
    to_a = da <= db
    children = members[to_a], members[~to_a]
    dms, centroids = [np.nan, np.nan], np.full((2, points.shape[1]), np.nan)
    if all(c.size for c in children):
        for j, child in enumerate(children):
            pts = points[child]
            x = pts - pts.sum(axis=0) / child.size
            dms[j] = float(np.sqrt((x * x).sum(axis=1)).sum() / child.size)
            centroids[j] = pts.mean(axis=0)
    return children, tuple(dms), centroids, int((da == db).sum())


def brute_force_acc(pred, truth) -> float:
    """Best injective label matching by full permutation enumeration."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pu, pi = np.unique(pred, return_inverse=True)
    tu, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pu.size, tu.size), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    r, c = counts.shape
    best = 0
    if r <= c:
        for perm in itertools.permutations(range(c), r):
            best = max(best, sum(counts[i, perm[i]] for i in range(r)))
    else:
        for perm in itertools.permutations(range(r), c):
            best = max(best, sum(counts[perm[j], j] for j in range(c)))
    return best / pred.shape[0]


def brute_force_ari(pred, truth) -> float:
    """Pair-counting ARI over all C(n,2) pairs."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = pred.shape[0]
    same_p = pred[:, None] == pred[None, :]
    same_t = truth[:, None] == truth[None, :]
    iu = np.triu_indices(n, k=1)
    a = int((same_p[iu] & same_t[iu]).sum())  # pairs grouped together in both
    total = n * (n - 1) / 2
    # Expected agreement under permutation model (Hubert-Arabie form).
    sum_p = int(same_p[iu].sum())
    sum_t = int(same_t[iu].sum())
    if (sum_p == sum_t == 0) or (sum_p == sum_t == total):
        return 1.0
    expected = sum_p * sum_t / total
    max_index = 0.5 * (sum_p + sum_t)
    return float((a - expected) / (max_index - expected))


def dense_distances(points: np.ndarray) -> np.ndarray:
    return cdist(points, points)


def _reference_kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty(k, dtype=np.int64)
    centers[0] = rng.integers(n)
    d2 = np.einsum("ij,ij->i", x - x[centers[0]], x - x[centers[0]])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            centers[j] = rng.choice(n, p=d2 / total)
        else:
            used = np.zeros(n, dtype=bool)
            used[centers[:j]] = True
            centers[j] = int(np.flatnonzero(~used)[0])
        dj = np.einsum("ij,ij->i", x - x[centers[j]], x - x[centers[j]])
        np.minimum(d2, dj, out=d2)
    return centers


def _reference_lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int):
    n, k = x.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        while (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            donor = int(np.argmax(counts))
            members = np.flatnonzero(new_labels == donor)
            far = members[int(np.argmax(d2[members, donor]))]
            new_labels[far] = empty
            counts = np.bincount(new_labels, minlength=k)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            centers[j] = x[labels == j].mean(axis=0)
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return labels, float(d2[np.arange(n), labels].sum())


def reference_kmeans(x, n_clusters: int, seed: int, n_restarts: int = 10, max_iter: int = 300):
    """k-means as one full Lloyd run per restart, with nothing shared between restarts.

    Restart r seeds k-means++ from the generator (seed, r), runs Lloyd to
    convergence or max_iter on one broadcast distance array per step, and
    keeps the earliest restart within a relative 1e-9 of the best inertia;
    it stops after a restart with inertia 0.  Returns (int32 labels, inertia).
    """
    x = np.asarray(x, dtype=np.float64)
    best_labels, best_inertia = None, np.inf
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        centers = x[_reference_kmeans_pp_init(x, n_clusters, rng)].copy()
        labels, inertia = _reference_lloyd(x, centers, max_iter)
        if inertia < best_inertia * (1.0 - 1e-9):
            best_labels, best_inertia = labels, inertia
        if best_inertia == 0.0:
            break
    return best_labels.astype(np.int32), best_inertia
