"""Granular-ball baseline: top-down farthest-pair splitting under the
weighted-compactness rule.

Starts from one ball covering the whole dataset and keeps splitting a ball at
its two farthest members (points go to the nearer one) whenever the
size-weighted compactness of the children beats the parent's and the parent
is larger than min_size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .neighbors import PseudoClusterSet
from .splitting import _weighted, compactness_dm

_PAIR_CHUNK = 2048


@dataclass(frozen=True)
class GranularBall:
    members: np.ndarray
    center: np.ndarray
    radius: float
    dm: float


def farthest_pair(members: np.ndarray, ds: Dataset) -> tuple[int, int]:
    """The two members at maximum Euclidean distance (lexicographic ties).

    Exact O(m^2) scan, chunked to bound memory.
    """
    members = np.asarray(members, dtype=np.int64)
    m = members.size
    if m < 2:
        raise ValueError("need at least 2 members")
    pts = ds.points[members]
    sq = np.einsum("ij,ij->i", pts, pts)
    best = (-1.0, 0, 0)
    for start in range(0, m, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, m)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * pts[start:stop] @ pts.T
        # Only j > i counts; row-major argmax gives the smallest (i, j) on ties.
        cols = np.arange(m)[None, :]
        d2[cols <= np.arange(start, stop)[:, None]] = -np.inf
        flat = int(np.argmax(d2))
        i_local, j = divmod(flat, m)
        val = float(d2[i_local, j])
        if val > best[0]:
            best = (val, start + i_local, j)
    _, i, j = best
    return int(members[i]), int(members[j])


def _make_ball(members: np.ndarray, dm: float, ds: Dataset) -> GranularBall:
    pts = ds.points[members]
    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    return GranularBall(members, center, radius, dm)


def gb_generate(ds: Dataset, min_size: int = 8, split_log: list | None = None) -> list[GranularBall]:
    """Generate granular balls covering the dataset.

    Balls are processed FIFO; a ball splits iff the weighted child
    compactness is strictly below the parent's and the ball holds more than
    min_size points.  The optional split_log collects one record per
    accepted split.  Each ball's compactness is computed once, when it is
    made, and travels with it through the queue.
    """
    if ds.n < 1:
        raise ValueError("empty dataset")
    if min_size < 2:
        raise ValueError("min_size must be >= 2")
    root = np.arange(ds.n, dtype=np.int64)
    queue = [(root, compactness_dm(root, ds))]
    balls: list[GranularBall] = []
    while queue:
        members, dm_parent = queue.pop(0)
        if members.size <= min_size:
            balls.append(_make_ball(members, dm_parent, ds))
            continue
        p1, p2 = farthest_pair(members, ds)
        d1 = np.linalg.norm(ds.points[members] - ds.points[p1], axis=1)
        d2 = np.linalg.norm(ds.points[members] - ds.points[p2], axis=1)
        to_p1 = d1 <= d2  # ties go to the lexicographically first seed
        child1, child2 = members[to_p1], members[~to_p1]
        if child1.size == 0 or child2.size == 0:
            balls.append(_make_ball(members, dm_parent, ds))
            continue
        dm1, dm2 = compactness_dm(child1, ds), compactness_dm(child2, ds)
        dm_w = _weighted(child1.size, dm1, child2.size, dm2)
        if dm_w < dm_parent:
            if split_log is not None:
                split_log.append(
                    {
                        "parent_size": int(members.size),
                        "dm": float(dm_parent),
                        "dm_weight": float(dm_w),
                        "child_sizes": [int(child1.size), int(child2.size)],
                    }
                )
            queue.append((child1, dm1))
            queue.append((child2, dm2))
        else:
            balls.append(_make_ball(members, dm_parent, ds))
    return balls


def balls_to_microclusters(balls: list[GranularBall], ds: Dataset) -> PseudoClusterSet:
    """Repackage balls as a micro-cluster partition for the spectral stage.

    The "core" of a ball is its member nearest to the center (smallest index
    on ties); downstream similarity only uses centroids.
    """
    assignment = np.empty(ds.n, dtype=np.int64)
    clusters = []
    cores = np.empty(len(balls), dtype=np.int64)
    centroids = np.empty((len(balls), ds.d))
    for t, ball in enumerate(balls):
        members = np.sort(ball.members)
        clusters.append(members)
        assignment[members] = t
        centroids[t] = ball.center
        dist = np.linalg.norm(ds.points[members] - ball.center, axis=1)
        cores[t] = members[int(np.argmin(dist))]
    pcs = PseudoClusterSet(clusters, assignment, cores, centroids)
    pcs.validate()
    return pcs
