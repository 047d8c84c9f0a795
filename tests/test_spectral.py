import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from microclust import (
    Dataset,
    RunConfig,
    ari,
    build_pseudo_clusters,
    build_similarity_matrix,
    compute_knn,
    generate_synthetic,
    jacobi_eigh,
    knn_adjacency,
    normalized_laplacian,
    propagate_labels,
    run_pipeline,
    spectral_cluster,
)
from microclust.neighbors import PseudoClusterSet
from microclust.spectral import count_graph_components


def _manual_clusters(ds, groups):
    assignment = np.empty(ds.n, dtype=np.int64)
    clusters = [np.asarray(g, dtype=np.int64) for g in groups]
    for t, g in enumerate(clusters):
        assignment[g] = t
    centroids = np.vstack([ds.points[g].mean(axis=0) for g in clusters])
    cores = np.array([g[0] for g in clusters], dtype=np.int64)
    return PseudoClusterSet(clusters, assignment, cores, centroids)


def snn_similarity(p_i, p_j, nt, ds):
    """Shared-nearest-neighbor similarity between two disjoint clusters, pair by pair."""
    union_i = np.unique(nt.indices[np.asarray(p_i, dtype=np.int64)])
    union_j = np.unique(nt.indices[np.asarray(p_j, dtype=np.int64)])
    shared = np.intersect1d(union_i, union_j, assume_unique=True).size
    ci = ds.points[np.asarray(p_i, dtype=np.int64)].mean(axis=0)
    cj = ds.points[np.asarray(p_j, dtype=np.int64)].mean(axis=0)
    return float(shared / (1.0 + np.linalg.norm(ci - cj)))


def _pair_similarity(ds, nt, groups):
    """Entry (0, 1) of build_similarity_matrix on the partition into groups."""
    return build_similarity_matrix(_manual_clusters(ds, groups), nt, ds)[0, 1]


def brute_force_snn(p_i, p_j, nt, ds):
    union_i = set()
    for x in p_i:
        union_i.update(int(v) for v in nt.indices[x])
    union_j = set()
    for x in p_j:
        union_j.update(int(v) for v in nt.indices[x])
    ci = ds.points[list(p_i)].mean(axis=0)
    cj = ds.points[list(p_j)].mean(axis=0)
    return len(union_i & union_j) / (1.0 + float(np.linalg.norm(ci - cj)))


def test_build_similarity_in_place_peak_and_bits():
    # m = 500 singleton micro-clusters: the build may hold the m x m counts
    # and one distance array, not the extra 1 + distance and quotient arrays
    rng = np.random.default_rng(31)
    ds = Dataset(rng.standard_normal((500, 3)))
    nt = compute_knn(ds, 10)
    pcs = _manual_clusters(ds, [[i] for i in range(ds.n)])
    tracemalloc.start()
    try:
        s = build_similarity_matrix(pcs, nt, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * pcs.m * pcs.m * 8
    union = np.zeros((pcs.m, ds.n))
    union[np.repeat(np.arange(pcs.m), nt.k), nt.indices.ravel()] = 1.0
    old = (union @ union.T) / (1.0 + cdist(pcs.centroids, pcs.centroids))
    np.fill_diagonal(old, 0.0)
    assert np.array_equal(s, old)


def test_snn_disjoint_unions_zero():
    ds = Dataset(
        np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
    )
    nt = compute_knn(ds, 1)
    assert _pair_similarity(ds, nt, [[0, 1], [2, 3]]) == 0.0


def test_snn_known_value():
    # |SNN| = 4 shared indices at centroid distance 1 -> similarity 2
    ds = Dataset(
        np.array(
            [
                [0.0, 0.0], [0.0, 0.1], [0.0, -0.1],
                [1.0, 0.0], [1.0, 0.1], [1.0, -0.1],
                [0.5, 0.0], [0.5, 0.1], [0.5, -0.1], [0.5, 0.2],
            ]
        )
    )
    nt = compute_knn(ds, 4)
    p_i, p_j = [0, 1, 2], [3, 4, 5]
    union_i = set(int(v) for v in nt.indices[p_i].ravel())
    union_j = set(int(v) for v in nt.indices[p_j].ravel())
    shared = union_i & union_j
    c_dist = np.linalg.norm(ds.points[p_i].mean(0) - ds.points[p_j].mean(0))
    expected = len(shared) / (1.0 + c_dist)
    np.testing.assert_allclose(_pair_similarity(ds, nt, [p_i, p_j, [6, 7, 8, 9]]), expected)


def test_snn_monotone_in_centroid_distance():
    # scaling the geometry keeps the neighbor index structure (hence |SNN|)
    # but grows the centroid distance, so similarity must shrink
    base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    values = []
    for scale in (1.0, 3.0):
        ds = Dataset(base * scale)
        nt = compute_knn(ds, 2)
        np.testing.assert_array_equal(nt.indices, compute_knn(Dataset(base), 2).indices)
        values.append(_pair_similarity(ds, nt, [[0, 1], [2, 3]]))
    assert values[0] > values[1] > 0


def test_build_similarity_matches_entrywise_oracle():
    rng = np.random.default_rng(12)
    ds = Dataset(rng.standard_normal((60, 2)))
    pcs = build_pseudo_clusters(ds, 5)
    if pcs.m < 2:
        pytest.skip("degenerate draw")
    nt = compute_knn(ds, 5)
    s = build_similarity_matrix(pcs, nt, ds)
    assert s.shape == (pcs.m, pcs.m)
    np.testing.assert_array_equal(np.diag(s), 0.0)
    np.testing.assert_array_equal(s, s.T)
    assert (s >= 0).all() and np.isfinite(s).all()
    for i in range(pcs.m):
        for j in range(i + 1, pcs.m):
            expected = brute_force_snn(pcs.clusters[i], pcs.clusters[j], nt, ds)
            np.testing.assert_allclose(s[i, j], expected, rtol=1e-12)
            np.testing.assert_allclose(
                s[i, j], snn_similarity(pcs.clusters[i], pcs.clusters[j], nt, ds), rtol=1e-12
            )


def test_similarity_two_clusters_mirrored():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]]))
    pcs = _manual_clusters(ds, [[0, 1], [2, 3]])
    nt = compute_knn(ds, 2)
    s = build_similarity_matrix(pcs, nt, ds)
    assert s[0, 1] == s[1, 0]


def test_similarity_requires_two_clusters():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]))
    pcs = _manual_clusters(ds, [[0, 1]])
    nt = compute_knn(ds, 1)
    with pytest.raises(ValueError):
        build_similarity_matrix(pcs, nt, ds)


def test_laplacian_eigen_range_and_null_vector():
    rng = np.random.default_rng(31)
    s = rng.random((25, 25))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 0.0)
    lap = normalized_laplacian(s)
    w, v = jacobi_eigh(lap)
    assert w.min() >= -1e-8 and w.max() <= 2 + 1e-8
    # connected graph: eigenvalue-0 eigenvector parallel to D^{1/2} 1
    deg = s.sum(axis=1)
    expected = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
    lead = v[:, 0] if v[0, 0] * expected[0] > 0 else -v[:, 0]
    np.testing.assert_allclose(lead, expected, rtol=0, atol=1e-6)


def test_spectral_block_diagonal_recovers_blocks():
    rng = np.random.default_rng(7)
    m1, m2 = 6, 9
    s = np.zeros((m1 + m2, m1 + m2))
    s[:m1, :m1] = 0.5 + 0.5 * rng.random((m1, m1))
    s[m1:, m1:] = 0.5 + 0.5 * rng.random((m2, m2))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 0.0)
    labels = spectral_cluster(s, 2, seed=0)
    # connected-component oracle on the nonzero pattern
    n_comp, comp = connected_components(csr_matrix(s != 0), directed=False)
    assert n_comp == 2
    assert ari(labels, comp) == 1.0


@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_handed_components_change_no_label(blocks):
    # The similarity's component labelling, handed to the eigensolver, gives
    # the bits of the solver's own labelling of the Laplacian, also with more
    # components than clusters.
    rng = np.random.default_rng(40 + blocks)
    for trial in range(10):
        sizes = rng.integers(1, 9, size=blocks)
        m = int(sizes.sum())
        s = np.zeros((m, m))
        start = 0
        for size in sizes:
            block = rng.random((size, size)) * (rng.random((size, size)) < 0.7)
            s[start : start + size, start : start + size] = block + block.T
            start += size
        np.fill_diagonal(s, 0.0)
        perm = rng.permutation(m)
        s = s[np.ix_(perm, perm)]
        components = count_graph_components(s)
        lap = normalized_laplacian(s)
        for got, want in zip(jacobi_eigh(lap, components), jacobi_eigh(lap), strict=True):
            assert np.array_equal(got, want)
        c = min(m, 2 + trial % 3) if m >= 2 else None
        if c is not None:
            assert np.array_equal(
                spectral_cluster(s, c, seed=trial, components=components),
                spectral_cluster(s, c, seed=trial),
            )


def test_pipeline_labels_the_similarity_components_once(monkeypatch):
    import microclust.linalg as linalg
    import microclust.spectral as spectral

    calls = []
    real = linalg._pattern_components
    for module in (linalg, spectral):
        monkeypatch.setattr(
            module, "_pattern_components", lambda a: calls.append(a.shape) or real(a)
        )
    ds = generate_synthetic("blobs", 400, 0.25, 1, components=6)
    res = run_pipeline(ds, RunConfig(k=10, n_clusters=2, seed=0, runs=1))
    assert res.meta["similarity_components"] > 2  # more components than clusters
    assert calls == [(res.meta["m"], res.meta["m"])]


def test_spectral_all_equal_similarity():
    m = 8
    s = np.ones((m, m)) - np.eye(m)
    labels = spectral_cluster(s, 2, seed=3)
    assert np.unique(labels).size == 2
    np.testing.assert_array_equal(labels, spectral_cluster(s, 2, seed=3))


def test_spectral_2x2_singletons():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    w, _ = jacobi_eigh(normalized_laplacian(s))
    np.testing.assert_allclose(w, [0.0, 2.0], atol=1e-12)
    labels = spectral_cluster(s, 2, seed=0)
    assert sorted(labels.tolist()) == [0, 1]


def test_spectral_validates_inputs():
    s = np.zeros((3, 3))
    with pytest.raises(ValueError):
        spectral_cluster(s, 4, seed=0)  # C > m
    with pytest.raises(ValueError):
        spectral_cluster(np.array([[0.0, -1.0], [-1.0, 0.0]]), 2, seed=0)


def test_spectral_zero_matrix_proceeds():
    # fully disconnected graph: epsilon degrees, k-means still returns C labels
    s = np.zeros((6, 6))
    labels = spectral_cluster(s, 2, seed=0)
    assert np.unique(labels).size == 2


def test_propagate_labels_cases():
    ds = Dataset(np.arange(12, dtype=float).reshape(6, 2))
    pcs = _manual_clusters(ds, [[0, 1], [2, 3], [4, 5]])
    np.testing.assert_array_equal(
        propagate_labels(pcs, np.array([0, 1, 0])), [0, 0, 1, 1, 0, 0]
    )
    np.testing.assert_array_equal(propagate_labels(pcs, np.array([2, 0, 1])), [2, 2, 0, 0, 1, 1])
    single = _manual_clusters(ds, [[0, 1, 2, 3, 4, 5]])
    np.testing.assert_array_equal(propagate_labels(single, np.array([4])), [4] * 6)
    with pytest.raises(ValueError):
        propagate_labels(pcs, np.array([0, 1]))


def test_knn_adjacency_symmetric_binary():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((30, 2)))
    a = knn_adjacency(ds, 3)
    np.testing.assert_array_equal(a, a.T)
    assert set(np.unique(a)) <= {0.0, 1.0}
    np.testing.assert_array_equal(np.diag(a), 0.0)
    nt = compute_knn(ds, 3)
    for i in range(ds.n):
        for j in nt.indices[i]:
            assert a[i, j] == 1.0


def test_plain_sc_two_far_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack(
        [rng.standard_normal((25, 2)) * 0.1, rng.standard_normal((25, 2)) * 0.1 + 50]
    )
    ds = Dataset(pts, np.repeat([0, 1], 25))
    cfg = RunConfig(algorithm="sc", normalization="none", k=5, n_clusters=2)
    labels = run_pipeline(ds, cfg).point_labels
    assert ari(labels, ds.labels) == 1.0


def test_plain_sc_c_equals_n():
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((6, 2)))
    cfg = RunConfig(algorithm="sc", normalization="none", k=2, n_clusters=6)
    labels = run_pipeline(ds, cfg).point_labels
    assert np.unique(labels).size == 6


def test_plain_sc_moons_perfect_for_some_knn():
    ds = generate_synthetic("moons", 240, 0.04, 3)
    best = 0.0
    for knn in range(5, 21):
        cfg = RunConfig(algorithm="sc", k=knn, n_clusters=2)  # min-max normalized
        labels = run_pipeline(ds, cfg).point_labels
        best = max(best, ari(labels, ds.labels))
        if best == 1.0:
            break
    assert best == 1.0
