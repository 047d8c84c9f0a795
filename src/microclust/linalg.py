"""Dense symmetric eigensolver and k-means with k-means++.

``jacobi_eigh`` makes one LAPACK call (``np.linalg.eigh``, divide-and-conquer
dsyevd) per connected component of the matrix's nonzero pattern: a
disconnected Laplacian is block diagonal, and its spectrum is the union of
its blocks' spectra.  The name is kept from the cyclic Jacobi it replaced,
because the public API, the tests and the benchmark's tracer and checks reach
the solver by it.  The contract is unchanged: the full spectrum in ascending
order, with deterministically signed eigenvectors.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Relative margin by which a later k-means restart must beat the best inertia
# so far; within it the earlier restart is kept, so the winner does not hinge
# on last-digit rounding of the embedding.
INERTIA_RTOL = 1e-9


class NumericalError(RuntimeError):
    """Clustering failure with diagnostics."""


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a - a.T|, with one m x m temporary (np.allclose makes several)."""
    diff = a - a.T
    return float(np.abs(diff, out=diff).max())


def jacobi_eigh(matrix: np.ndarray):
    """All eigenvalues/eigenvectors of a real symmetric matrix.

    Returns (w, V) with w ascending and eigenvectors in the columns of V,
    each sign-fixed so its largest-magnitude entry is positive (the first
    such entry on ties).  Each connected component of the nonzero pattern is
    solved on its own; its eigenvectors are zero outside it.  Equal
    eigenvalues of different components keep the components' order (by
    smallest member).  A connected matrix is one block, solved whole.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square and nonempty")
    # Non-finite entries make LAPACK return NaNs without an error.
    if not np.isfinite(a).all() or _max_asymmetry(a) > 1e-12:
        raise ValueError("matrix must be finite and symmetric")
    m = a.shape[0]
    n_blocks, block_of = connected_components(csr_matrix(a != 0), directed=False)
    blocks = np.split(np.argsort(block_of, kind="stable"), np.cumsum(np.bincount(block_of))[:-1])
    solved = []
    for idx in blocks:
        wb, vb = np.linalg.eigh(a if n_blocks == 1 else a[np.ix_(idx, idx)])
        lead = np.argmax(np.abs(vb), axis=0)
        vb *= np.where(vb[lead, np.arange(vb.shape[1])] < 0, -1.0, 1.0)
        solved.append((idx, wb, vb))
    w = np.concatenate([wb for _, wb, _ in solved])
    if n_blocks == 1:
        return w, solved[0][2]  # already ascending; no m x m copy
    order = np.argsort(w, kind="stable")
    column = np.argsort(order)  # each block eigenpair's place in the ascending order
    v = np.zeros((m, m))
    start = 0
    for idx, _, vb in solved:
        v[np.ix_(idx, column[start : start + idx.size])] = vb
        start += idx.size
    return w[order], v


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty(k, dtype=np.int64)
    centers[0] = rng.integers(n)
    d2 = np.einsum("ij,ij->i", x - x[centers[0]], x - x[centers[0]])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers[j] = rng.choice(n, p=probs)
        else:
            # All remaining mass at distance 0: take the smallest unused index.
            used = np.zeros(n, dtype=bool)
            used[centers[:j]] = True
            centers[j] = int(np.flatnonzero(~used)[0])
        dj = np.einsum("ij,ij->i", x - x[centers[j]], x - x[centers[j]])
        np.minimum(d2, dj, out=d2)
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int):
    n, k = x.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        # Repair empty clusters: steal the farthest point from the largest one.
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
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def kmeans(x: np.ndarray, n_clusters: int, seed: int, n_restarts: int = 10, max_iter: int = 300):
    """k-means with k-means++ seeding; best of n_restarts by inertia.

    Restart r uses the generator seeded with (seed, r), so results are
    reproducible and restarts could run in parallel.  A later restart wins
    only when its inertia is lower by more than INERTIA_RTOL.  Returns
    (labels, inertia) with int32 labels.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    best_labels, best_inertia = None, np.inf
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        centers = x[_kmeans_pp_init(x, n_clusters, rng)].copy()
        labels, inertia = _lloyd(x, centers, max_iter)
        if inertia < best_inertia * (1.0 - INERTIA_RTOL):
            best_labels, best_inertia = labels, inertia
        if best_inertia == 0.0:
            break  # no later restart can beat it by the margin above
    assert best_labels is not None
    return best_labels.astype(np.int32), best_inertia
