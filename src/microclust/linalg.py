"""Dense symmetric eigensolver and k-means with k-means++.

``jacobi_eigh`` makes one LAPACK call (``np.linalg.eigh``, divide-and-conquer
dsyevd) per connected component of the matrix's nonzero pattern: a
disconnected Laplacian is block diagonal, and its spectrum is the union of
its blocks' spectra.  The name is kept from the cyclic Jacobi it replaced,
because the public API, the tests and the benchmark's tracer and checks reach
the solver by it.  The contract is unchanged: the full spectrum in ascending
order, with deterministically signed eigenvectors.

``kmeans`` runs Lloyd restarts that stop early, with the same result, once
they reach a labelling an earlier restart of the same call converged to.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# Relative margin by which a later k-means restart must beat the best inertia
# so far; within it the earlier restart is kept, so the winner does not hinge
# on last-digit rounding of the embedding.
INERTIA_RTOL = 1e-9

# Cap on the (rows, k, d) broadcast temporary of one Lloyd distance step; rows
# are independent, so computing them in chunks changes no bit.
LLOYD_CHUNK_BYTES = 32 << 20


class NumericalError(RuntimeError):
    """Clustering failure with diagnostics."""


def _max_asymmetry(a: np.ndarray) -> float:
    """max |a - a.T|, with one m x m temporary (np.allclose makes several)."""
    diff = a - a.T
    return float(np.abs(diff, out=diff).max())


def _pattern_components(a: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the nonzero pattern of a square matrix.

    The same count and labels as ``connected_components(csr_matrix(a != 0),
    directed=False)``, with the CSR built straight from ``np.nonzero`` instead
    of through a dense boolean copy.  NaN counts as nonzero, -0.0 as zero.
    """
    m = a.shape[0]
    rows, cols = np.nonzero(a)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    graph = csr_matrix((np.ones(cols.size), cols, indptr), shape=(m, m))
    n_comp, labels = connected_components(graph, directed=False)
    return int(n_comp), labels


def jacobi_eigh(matrix: np.ndarray, components: tuple[int, np.ndarray] | None = None):
    """All eigenvalues/eigenvectors of a real symmetric matrix.

    Returns (w, V) with w ascending and eigenvectors in the columns of V,
    each sign-fixed so its largest-magnitude entry is positive (the first
    such entry on ties).  Each connected component of the nonzero pattern is
    solved on its own; its eigenvectors are zero outside it.  Equal
    eigenvalues of different components keep the components' order (by
    smallest member).  A connected matrix is one block, solved whole.
    components, when given, is that labelling as (count, labels), already
    computed by the caller (from a matrix with the same off-diagonal
    pattern); otherwise it is computed here.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError("matrix must be square and nonempty")
    # Non-finite entries make LAPACK return NaNs without an error.
    if not np.isfinite(a).all() or _max_asymmetry(a) > 1e-12:
        raise ValueError("matrix must be finite and symmetric")
    m = a.shape[0]
    n_blocks, block_of = _pattern_components(a) if components is None else components
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
    diff = x - x[centers[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            # rng.choice(n, p=d2 / total) without its argument checks: the
            # same inverse-CDF draw from the same single double.
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            centers[j] = cdf.searchsorted(rng.random(), side="right")
        else:
            # All remaining mass at distance 0: take the smallest unused index.
            used = np.zeros(n, dtype=bool)
            used[centers[:j]] = True
            centers[j] = int(np.flatnonzero(~used)[0])
        if j + 1 < k:
            diff = x - x[centers[j]]
            np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centers


def _sq_distances(x: np.ndarray, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = ||x_i - c_j||^2, in row chunks of at most LLOYD_CHUNK_BYTES."""
    step = max(1, LLOYD_CHUNK_BYTES // (8 * centers.size))
    for lo in range(0, x.shape[0], step):
        diff = x[lo : lo + step, None, :] - centers[None, :, :]
        np.square(diff, out=diff)
        diff.sum(axis=2, out=out[lo : lo + step])
    return out


def _lloyd(x: np.ndarray, centers: np.ndarray, max_iter: int, optima: dict):
    """Lloyd iterations from centers (updated in place); returns (labels, inertia).

    optima maps the label bytes of every earlier restart of the same call
    that converged to its (labels, inertia).  Centres depend on the labels
    only, so a restart whose labels, after the empty-cluster repair, reach
    one of them would end on that restart's result: it returns it at once.
    A restart that converges adds its own entry.
    """
    n, k = x.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    d2 = np.empty((n, k))
    converged = False
    for _ in range(max_iter):
        _sq_distances(x, centers, d2)
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
            converged = True
            break
        if optima:
            known = optima.get(new_labels.tobytes())
            if known is not None:
                return known
        labels = new_labels
        for j in range(k):
            # The bits of x[labels == j].mean(axis=0), without its wrapper.
            centers[j] = np.add.reduce(x[labels == j], axis=0) / counts[j]
    if not converged:
        _sq_distances(x, centers, d2)  # d2 is from the centres before the last update
    inertia = float(d2[np.arange(n), labels].sum())
    if converged:
        optima[labels.tobytes()] = (labels, inertia)
    return labels, inertia


def kmeans(x: np.ndarray, n_clusters: int, seed: int, n_restarts: int = 10, max_iter: int = 300):
    """k-means with k-means++ seeding; best of n_restarts by inertia.

    Restart r uses the generator seeded with (seed, r), so results are
    reproducible and restarts could run in parallel.  A later restart wins
    only when its inertia is lower by more than INERTIA_RTOL.  A restart
    that reaches a labelling an earlier one converged to stops there with
    that restart's result, which it would have ended on anyway.  Returns
    (labels, inertia) with int32 labels.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    best_labels, best_inertia = None, np.inf
    optima: dict = {}
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        centers = x[_kmeans_pp_init(x, n_clusters, rng)].copy()
        labels, inertia = _lloyd(x, centers, max_iter, optima)
        if inertia < best_inertia * (1.0 - INERTIA_RTOL):
            best_labels, best_inertia = labels, inertia
        if best_inertia == 0.0:
            break  # no later restart can beat it by the margin above
    assert best_labels is not None
    return best_labels.astype(np.int32), best_inertia
