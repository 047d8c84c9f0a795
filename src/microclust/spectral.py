"""Micro-cluster similarity and normalized-cut spectral clustering.

Similarity between two micro-clusters is the number of shared indices in the
unions of their members' k-NN lists, damped by centroid distance:
|union_i ∩ union_j| / (1 + ||centroid_i - centroid_j||).  Spectral clustering
runs on the symmetric normalized Laplacian of that matrix with a
row-normalized embedding and seeded k-means.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .data import Dataset
from .linalg import _pattern_components, jacobi_eigh, kmeans
from .neighbors import NeighborTable, PseudoClusterSet, compute_knn

DEGREE_EPS = 1e-12


def build_similarity_matrix(pcs: PseudoClusterSet, nt: NeighborTable, ds: Dataset) -> np.ndarray:
    """Dense symmetric m x m similarity with zero diagonal.

    Shared-neighbor counts for all pairs come from one product U @ U.T of
    the sparse m x n neighbor-union incidence U (at most n*k nonzeros).
    """
    m = pcs.m
    if m < 2:
        raise ValueError(f"need at least 2 micro-clusters, got {m}")
    rows = np.repeat(np.arange(m), pcs.sizes() * nt.k)
    cols = nt.indices[np.concatenate(pcs.clusters)].ravel()
    # Building the CSR matrix sums repeated (row, column) pairs; setting every
    # stored value to 1 then leaves a 0/1 union membership.
    union = csr_matrix((np.ones(cols.size), (rows, cols)), shape=(m, ds.n))
    union.data[:] = 1.0
    counts = (union @ union.T).toarray()
    # in place, so only counts and one distance array are ever held
    dist = cdist(pcs.centroids, pcs.centroids)
    np.add(dist, 1.0, out=dist)
    np.divide(counts, dist, out=counts)
    np.fill_diagonal(counts, 0.0)
    return counts


def count_graph_components(s: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the nonzero pattern of a similarity matrix: (count, labels).

    spectral_cluster takes the pair as its components argument, so the
    eigensolver does not label the same pattern again.
    """
    return _pattern_components(s)


def normalized_laplacian(s: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} S D^{-1/2}.

    Zero degrees are floored at a tiny epsilon so isolated nodes survive.
    Eigenvalues lie in [0, 2] up to roundoff.
    """
    deg = s.sum(axis=1)
    deg = np.where(deg > 0, deg, DEGREE_EPS)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = -s * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0 + lap.diagonal())
    return lap


def spectral_embedding(s: np.ndarray, n_clusters: int, components=None) -> np.ndarray:
    """Rows of the normalized-Laplacian eigenvector embedding.

    Embedding rows are scaled to unit length (zero rows left zero).
    components, when given, is count_graph_components(s), handed to the
    eigensolver: the Laplacian's off-diagonal pattern is the similarity's.
    """
    w, v = jacobi_eigh(normalized_laplacian(s), components)
    emb = v[:, :n_clusters]
    norms = np.linalg.norm(emb, axis=1)
    keep = norms > 0
    emb = emb.copy()
    emb[keep] /= norms[keep, None]
    return emb


def spectral_cluster(
    s: np.ndarray, n_clusters: int, seed: int, n_restarts: int = 10, components=None
) -> np.ndarray:
    """Normalized-cut labels for an m x m similarity matrix.

    Requires m >= n_clusters >= 2.  Fixed seed gives identical labels on
    every run.  components, when given, is count_graph_components(s).
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("similarity matrix must be square")
    m = s.shape[0]
    if n_clusters < 2:
        raise ValueError("need at least 2 clusters")
    if m < n_clusters:
        raise ValueError(f"cannot form {n_clusters} clusters from {m} micro-clusters")
    if (s < 0).any() or not np.isfinite(s).all():
        raise ValueError("similarity entries must be finite and nonnegative")
    emb = spectral_embedding(s, n_clusters, components)
    labels, _ = kmeans(emb, n_clusters, seed, n_restarts=n_restarts)
    return labels


def propagate_labels(pcs: PseudoClusterSet, micro_labels: np.ndarray) -> np.ndarray:
    """Every point inherits its micro-cluster's label."""
    micro_labels = np.asarray(micro_labels)
    if micro_labels.shape[0] != pcs.m:
        raise ValueError("micro label count does not match cluster count")
    return micro_labels[pcs.assignment]


def knn_adjacency(ds: Dataset, k: int) -> np.ndarray:
    """Symmetric unweighted k-NN graph: edge iff either endpoint lists the other."""
    nt = compute_knn(ds, k)
    a = np.zeros((ds.n, ds.n))
    rows = np.repeat(np.arange(ds.n), nt.k)
    a[rows, nt.indices.ravel()] = 1.0
    return np.maximum(a, a.T)
