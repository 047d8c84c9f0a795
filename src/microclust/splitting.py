"""Micro-cluster quality measures and curvature-guided splitting.

A cluster's convexity is judged by its manifold curvature: the ratio of the
MST path distance between the tree-diameter endpoints to their straight-line
distance.  A ratio near 1 means the members lie along a nearly convex set;
large ratios flag curved structures that get split at the endpoints, but only
when the size-weighted compactness of the two candidate children improves on
the parent's.

A split round is computed in one batch (round_geometry): every candidate's
MST, diameter endpoints and curvature, and with them its split proposal,
the two children at the endpoints with their compactness and centroids.
split_once then only decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .data import Dataset
from .neighbors import PseudoClusterSet

_MODES = ("full", "no-split", "compactness-only")


@dataclass
class SplitConfig:
    """The split rule's parameters.

    lam is the curvature threshold (>= 1): a cluster is curved enough to
    split when its curvature is strictly greater.  beta is the minimum
    splittable size (>= 2).  mode "no-split" disables splitting entirely
    and "compactness-only" drops the curvature gate.  The number of rounds
    is capped at default_max_rounds(n).
    """

    lam: float = 1.5
    beta: int = 8
    mode: str = "full"

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.beta < 2:
            raise ValueError("beta must be >= 2")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


@dataclass
class ClusterGeometry:
    """MST, diameter endpoints, curvature and compactness of one cluster, with its split proposal.

    The proposal splits the members at the endpoints (a, b): each member
    joins the child of the nearer one, a on ties, and children keep member
    order.  child_dms and child_centroids are each child's compactness and
    mean, nan for both children when one is empty.  Singletons have no
    endpoints and no proposal (None).
    """

    mst_edges: np.ndarray      # (s-1, 2) global point indices
    mst_weights: np.ndarray    # (s-1,) Euclidean lengths
    endpoints: tuple[int, int] | None
    path_dist: float
    euclid_dist: float
    mc: float
    dm: float
    children: tuple[np.ndarray, np.ndarray] | None = None
    child_dms: tuple[float, float] | None = None
    child_centroids: np.ndarray | None = None  # (2, d)


@dataclass
class SplitReport:
    """Audit log of split_all: one record per accepted split, plus warnings."""

    records: list[dict] = field(default_factory=list)
    rounds: int = 0
    warnings: list[str] = field(default_factory=list)


def _first_extreme(values: np.ndarray, starts: np.ndarray, seg: np.ndarray, ufunc) -> np.ndarray:
    """Position of each segment's first minimum (ufunc=np.minimum) or maximum.

    Segments are the contiguous, nonempty runs values[starts[t]:starts[t+1]];
    seg maps every position to its segment.
    """
    ext = ufunc.reduceat(values, starts)
    hits = np.flatnonzero(values == ext[seg])
    return hits[np.searchsorted(hits, starts)]


def _prim_forest(clusters, ds: Dataset):
    """Minimum spanning trees of many clusters at once (exact Prim on each).

    Every cluster follows the rule of a one-cluster Prim over squared
    distances: start at the first member, then add the frontier vertex with
    the smallest (key, position), keeping the earliest parent; keys come
    from the same einsum over difference rows and weights are the square
    roots of the chosen keys.  The clusters are laid out back to back,
    largest first, so the ones still growing after e steps form a prefix of
    the layout and each step is one vectorised pass over that prefix: a
    round costs max(s) steps, its working arrays O(sum(s) * d).

    Returns (edges, weights, offsets): cluster t's s_t - 1 edges, as
    (parent, child) pairs in the order Prim adds them, are
    edges[offsets[t]:offsets[t + 1]]; an edge's vertices are positions in
    np.concatenate(clusters).
    """
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("cluster is empty")
    order = np.argsort(-sizes, kind="stable")
    sizes_sorted = sizes[order]
    gid = np.concatenate([np.asarray(clusters[t], dtype=np.int64) for t in order])
    pts = ds.points[gid]
    off = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes_sorted, out=off[1:])
    eoff = off - np.arange(sizes.size + 1)  # s_t - 1 edges per cluster
    seg = np.repeat(np.arange(sizes.size), sizes_sorted)
    # active[e]: clusters that still add an edge at step e (size >= e + 2)
    active = np.searchsorted(-sizes_sorted, -np.arange(2, sizes_sorted[0] + 1), side="right")

    # key is the squared distance to the tree, -1 inside it (no update wins);
    # masked is the same outside the tree and inf inside (never chosen).
    key = np.full(gid.size, np.inf)
    masked = np.full(gid.size, np.inf)
    parent = np.zeros(gid.size, dtype=np.int64)
    head = np.empty(eoff[-1], dtype=np.int64)
    tail = np.empty(eoff[-1], dtype=np.int64)
    weights = np.empty(eoff[-1])

    u = off[:-1]  # every tree starts at its first member
    key[u] = -1.0
    for e, a in enumerate(active.tolist()):
        live = int(off[a])
        from_u = u[:a][seg[:live]]
        diff = pts[:live] - pts.take(from_u, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        better = d2 < key[:live]
        np.copyto(key[:live], d2, where=better)
        np.copyto(masked[:live], d2, where=better)
        np.copyto(parent[:live], from_u, where=better)
        u = _first_extreme(masked[:live], off[:a], seg[:live], np.minimum)
        slot = eoff[:a] + e
        head[slot] = parent[u]
        tail[slot] = u
        weights[slot] = masked[u]
        key[u] = -1.0
        masked[u] = np.inf
    np.sqrt(weights, out=weights)

    # back to the callers' cluster order and vertex positions
    out_off = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes - 1, out=out_off[1:])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    src = np.repeat(eoff[rank] - out_off[:-1], sizes - 1) + np.arange(out_off[-1])
    caller_off = out_off + np.arange(sizes.size + 1)  # s_t vertices per cluster
    to_caller = np.arange(gid.size) + np.repeat(caller_off[order] - off[:-1], sizes_sorted)
    edges = np.column_stack([to_caller[head[src]], to_caller[tail[src]]])
    return edges, weights[src], out_off


def _tree_diameters(edges: np.ndarray, weights: np.ndarray, ids: np.ndarray, starts: np.ndarray):
    """Diameter endpoints and path lengths of every tree in a forest.

    The forest's vertices are positions 0..len(ids)-1; tree t owns the
    contiguous run starts[t]:starts[t + 1] and ids gives each vertex's
    (distinct) point id.  edges holds (u, v) position pairs and weights
    their nonnegative lengths.  Two farthest-point sweeps, exact on trees:
    each sweep is one multi-source Dijkstra over the block-diagonal forest,
    so path lengths are sums outward from the sweep's start.  A sweep starts
    at the tree's smallest id and ties on the farthest distance go to the
    smallest id.  Explicit zero-weight edges (duplicate points) count as
    edges.  Returns (ends, paths): ends[t] = (a, b) point ids with a <= b.
    """
    n = ids.size
    seg = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    heads = starts[:-1]
    src, dst = edges.ravel("F"), edges[:, ::-1].ravel("F")
    by_src = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)  # csgraph works on int32 indices
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    graph = csr_matrix(
        (np.concatenate([weights, weights])[by_src], dst[by_src].astype(np.int32), indptr),
        shape=(n, n),
    )
    no_id = np.iinfo(np.int64).max

    def smallest_id(where):
        best = np.minimum.reduceat(np.where(where, ids, no_id), heads)
        return np.flatnonzero(ids == best[seg])

    def farthest(sources):
        dist = dijkstra(graph, indices=sources, min_only=True)
        return smallest_id(dist == np.maximum.reduceat(dist, heads)[seg]), dist

    u, _ = farthest(smallest_id(True))  # first sweep: from each tree's smallest id
    v, dist = farthest(u)
    return np.sort(np.column_stack([ids[u], ids[v]]), axis=1), dist[v]


def _centroid_dm(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Centroid and compactness of a nonempty block of points.

    The centroid is pts.sum(axis=0) / s, the bits of pts.mean(axis=0); the
    sums are written as the add.reduce calls they make.
    """
    s = pts.shape[0]
    centroid = np.add.reduce(pts, axis=0) / s
    x = pts - centroid
    x *= x
    return centroid, float(np.add.reduce(np.sqrt(np.add.reduce(x, axis=1))) / s)


def compactness_dm(cluster: np.ndarray, ds: Dataset) -> float:
    """Mean member distance to the cluster centroid."""
    pts = ds.points[np.asarray(cluster, dtype=np.int64)]
    if pts.shape[0] == 0:
        raise ValueError("cluster is empty")
    return _centroid_dm(pts)[1]


def _split_proposals(ids: np.ndarray, sizes: np.ndarray, ends: np.ndarray, ds: Dataset):
    """Children of many clusters at their endpoints, with compactness and centroids.

    ids concatenates the clusters (sizes[t] >= 2 members each) and ends[t]
    is cluster t's endpoint pair (a, b).  One row-norm pass over all members
    gives the distances to both endpoints (the bits of a per-cluster
    np.linalg.norm(..., axis=1)); a member joins a's child when it is no
    farther from a.  A stable sort by (cluster, side) lays the children out
    contiguously in member order, and each child's centroid and compactness
    come from its slice of that one gathered array, one reduction per child.
    Returns per cluster (children, dms, centroids): a pair of id arrays, a
    pair of floats and a (2, d) array.  A child is empty only when the
    endpoints coincide; that cluster cannot split, and both its children
    get nan compactness and centroids.
    """
    n_clusters = sizes.size
    owner = np.repeat(np.arange(n_clusters), sizes)
    pts = ds.points[ids]

    def dist_to(end):
        diff = pts - ds.points[end[owner]]
        return np.sqrt(np.add.reduce(diff * diff, axis=1))

    child = 2 * owner + (dist_to(ends[:, 0]) > dist_to(ends[:, 1]))
    order = np.argsort(child, kind="stable")
    ids, pts = ids[order], pts[order]
    bounds = np.zeros(2 * n_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=2 * n_clusters), out=bounds[1:])
    bounds = bounds.tolist()
    centroids = np.full((2 * n_clusters, ds.d), np.nan)
    dms = [math.nan] * (2 * n_clusters)
    for t, (lo, mid, hi) in enumerate(zip(bounds[:-1:2], bounds[1::2], bounds[2::2])):
        if lo < mid < hi:  # an empty child leaves the other one equal to the parent
            centroids[2 * t], dms[2 * t] = _centroid_dm(pts[lo:mid])
            centroids[2 * t + 1], dms[2 * t + 1] = _centroid_dm(pts[mid:hi])
    return [
        ((ids[lo:mid], ids[mid:hi]), (dms[2 * t], dms[2 * t + 1]), centroids[2 * t : 2 * t + 2])
        for t, (lo, mid, hi) in enumerate(zip(bounds[:-1:2], bounds[1::2], bounds[2::2]))
    ]


def _weighted(m1: int, dm1: float, m2: int, dm2: float) -> float:
    return (m1 * dm1 + m2 * dm2) / (m1 + m2)


def round_geometry(clusters, ds: Dataset, dms=None) -> list[ClusterGeometry]:
    """Geometry and split proposals of many clusters, computed as one batch.

    One batched MST, one diameter sweep and one endpoint partition
    (_split_proposals) cover every cluster.  Equal, field for field, to
    computing each cluster on its own.  dms, when given, holds the
    clusters' compactness values (already known to the caller); otherwise
    they are computed.  Singletons get mc=1, no endpoints and no proposal.
    """
    clusters = [np.asarray(c, dtype=np.int64) for c in clusters]
    if not clusters:
        return []
    if dms is None:
        dms = [compactness_dm(c, ds) for c in clusters]
    ids = np.concatenate(clusters)
    local, weights, offsets = _prim_forest(clusters, ds)
    ends, paths = _tree_diameters(local, weights, ids, offsets + np.arange(offsets.size))
    edges = ids[local]
    sizes = np.diff(offsets) + 1
    split = sizes >= 2
    proposals = iter(_split_proposals(ids[np.repeat(split, sizes)], sizes[split], ends[split], ds))
    out = []
    for t, members in enumerate(clusters):
        e, w = edges[offsets[t]:offsets[t + 1]], weights[offsets[t]:offsets[t + 1]]
        if members.size < 2:
            out.append(ClusterGeometry(e, w, None, 0.0, 0.0, 1.0, dms[t]))
            continue
        a, b = int(ends[t, 0]), int(ends[t, 1])
        path_dist = float(paths[t])
        euclid = float(np.linalg.norm(ds.points[a] - ds.points[b]))
        mc = math.inf if euclid == 0.0 else path_dist / euclid
        out.append(ClusterGeometry(e, w, (a, b), path_dist, euclid, mc, dms[t], *next(proposals)))
    return out


def cluster_geometry(cluster: np.ndarray, ds: Dataset) -> ClusterGeometry:
    """Full geometry of one cluster; singletons get mc=1 and no endpoints."""
    return round_geometry([cluster], ds)[0]


def split_once(cluster: np.ndarray, ds: Dataset, cfg: SplitConfig, geom: ClusterGeometry | None = None):
    """One split decision; returns (child1, child2) or None.

    The candidate children and their compactness are geom's split proposal
    (from cluster_geometry when geom is not given).  A cluster splits only
    when it is larger than beta, its curvature is strictly greater than lam
    (skipped in compactness-only mode), both children are nonempty, and the
    weighted child compactness strictly improves on the parent's.  Mode
    no-split always declines.
    """
    members = np.asarray(cluster, dtype=np.int64)
    if cfg.mode == "no-split" or members.size <= cfg.beta or members.size < 2:
        return None
    if geom is None:
        geom = cluster_geometry(members, ds)
    if cfg.mode != "compactness-only" and not geom.mc > cfg.lam:
        return None
    child1, child2 = geom.children
    if child1.size == 0 or child2.size == 0:
        return None
    if _weighted(child1.size, geom.child_dms[0], child2.size, geom.child_dms[1]) >= geom.dm:
        return None
    return child1, child2


def default_max_rounds(n: int) -> int:
    """split_all's cap on rounds for n points: ceil(10 * log2(n)), at least 1."""
    return max(1, math.ceil(10 * math.log2(max(n, 2))))


def _candidate_geometry(candidates, ds: Dataset, memo: dict | None) -> list[ClusterGeometry]:
    """Geometry of split_all's pending candidates, in one round_geometry call.

    With a memo (member bytes -> geometry), only the candidates it lacks are
    computed, and they are stored in it.
    """

    def compute(todo):
        if not todo:
            return []
        dms = [compactness_dm(members, ds) if dm is None else dm for members, _, dm, _ in todo]
        return round_geometry([members for members, *_ in todo], ds, dms)

    if memo is None:
        return compute(candidates)
    keys = [members.tobytes() for members, *_ in candidates]
    missing = [j for j, key in enumerate(keys) if key not in memo]
    for j, geom in zip(missing, compute([candidates[j] for j in missing])):
        memo[keys[j]] = geom
    return [memo[key] for key in keys]


def split_all(pcs: PseudoClusterSet, ds: Dataset, cfg: SplitConfig, geometry: dict | None = None):
    """Split every splittable cluster to exhaustion (or the round cap).

    Each round computes the geometry and split proposals of all its
    candidates (clusters larger than beta) in one round_geometry call, then
    decides them in ascending id order with split_once; children join the
    next round's queue.  Children adopt their endpoint seed as core.  A
    child's compactness and centroid come with its proposal: the
    compactness serves the split record and the child's dm in the next
    round, the centroid the output when the child splits no further.

    geometry, when given, memoizes candidate geometry by member array (the
    bytes of its int64 values, in order): a round computes only the
    candidates it lacks and stores them.  The geometry depends on nothing
    but the members and ds, so runs with another beta, lam or mode on the
    same ds can share one memo.
    Returns the new partition and a SplitReport (one record per accepted
    split).
    """
    report = SplitReport()
    final: list[tuple[np.ndarray, int, np.ndarray | None]] = []
    # (members, core, compactness, centroid); the last two are None until known
    pending = [
        (np.asarray(c, dtype=np.int64), int(pcs.cores[t]), None, None)
        for t, c in enumerate(pcs.clusters)
    ]
    max_rounds = default_max_rounds(ds.n)
    next_id = pcs.m

    while pending:
        if report.rounds >= max_rounds:
            report.warnings.append(
                f"max_rounds={max_rounds} reached with {len(pending)} clusters still pending"
            )
            final.extend((members, core, centroid) for members, core, _, centroid in pending)
            break
        report.rounds += 1
        todo = [
            i for i, (members, *_) in enumerate(pending)
            if cfg.mode != "no-split" and members.size > cfg.beta and members.size >= 2
        ]
        geoms = dict(zip(todo, _candidate_geometry([pending[i] for i in todo], ds, geometry)))
        next_pending = []
        for i, (members, core, _, centroid) in enumerate(pending):
            geom = geoms.get(i)
            result = split_once(members, ds, cfg, geom) if geom is not None else None
            if result is None:
                final.append((members, core, centroid))
                continue
            child1, child2 = result
            e1, e2 = geom.endpoints
            dm1, dm2 = geom.child_dms
            report.records.append(
                {
                    "parent_size": int(members.size),
                    "mc": float(geom.mc) if math.isfinite(geom.mc) else None,
                    "dm": float(geom.dm),
                    "dm_weight": float(_weighted(child1.size, dm1, child2.size, dm2)),
                    "child_sizes": [int(child1.size), int(child2.size)],
                    "child_ids": [next_id, next_id + 1],
                }
            )
            next_id += 2
            # Each endpoint lands in its own child (distance 0 wins), so the
            # children adopt the endpoint seeds as cores.
            next_pending.append((child1, e1, dm1, geom.child_centroids[0]))
            next_pending.append((child2, e2, dm2, geom.child_centroids[1]))
        pending = next_pending

    clusters = [members for members, _, _ in final]
    cores = np.array([core for _, core, _ in final], dtype=np.int64)
    centroids = np.array(
        [ds.points[members].mean(axis=0) if c is None else c for members, _, c in final]
    ).reshape(len(final), ds.d)
    assignment = np.empty(ds.n, dtype=np.int64)
    assignment[np.concatenate(clusters)] = np.repeat(
        np.arange(len(clusters)), [members.size for members in clusters]
    )
    out = PseudoClusterSet(clusters, assignment, cores, centroids)
    out.validate()
    return out, report
