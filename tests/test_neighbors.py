import json
import time

import numpy as np
import pytest

from microclust import (
    Dataset,
    PseudoClusterSet,
    build_pseudo_clusters,
    compute_density,
    compute_knn,
    compute_leaders,
)

from conftest import brute_force_knn


def test_knn_collinear_k1():
    ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
    nt = compute_knn(ds, 1)
    np.testing.assert_array_equal(nt.indices[:, 0], [1, 0, 1])
    np.testing.assert_allclose(nt.distances[:, 0], [1.0, 1.0, 2.0])


def test_knn_full_ordering():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((12, 3)))
    nt = compute_knn(ds, 11)
    bi, bd = brute_force_knn(ds.points, 11)
    np.testing.assert_array_equal(nt.indices, bi)
    np.testing.assert_allclose(nt.distances, bd, rtol=1e-12, atol=1e-12)
    assert (np.diff(nt.distances, axis=1) >= 0).all()


def test_knn_duplicates_first():
    ds = Dataset(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]))
    nt = compute_knn(ds, 2)
    # duplicate points appear first, at distance 0, smallest index first
    np.testing.assert_array_equal(nt.indices[0], [1, 2])
    np.testing.assert_array_equal(nt.indices[1], [0, 2])
    np.testing.assert_array_equal(nt.indices[2], [0, 1])
    assert (nt.distances[:3] == 0).all()
    assert (nt.indices != np.arange(4)[:, None]).all()


def test_knn_k_out_of_range():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
    with pytest.raises(ValueError, match="k out of range"):
        compute_knn(ds, 0)


def test_knn_clamps_with_warning():
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]))
    with pytest.warns(UserWarning, match="clamping"):
        nt = compute_knn(ds, 10)
    assert nt.k == 2


def test_knn_brute_force_path_matches_kdtree():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((80, 20))  # d=20 takes the brute-force path
    ds = Dataset(pts)
    nt = compute_knn(ds, 7)
    bi, bd = brute_force_knn(pts, 7)
    np.testing.assert_array_equal(nt.indices, bi)
    np.testing.assert_allclose(nt.distances, bd, rtol=1e-9, atol=1e-9)


def test_knn_tie_heavy_data_matches_brute_force():
    # duplicates and grid geometry produce exact distance ties everywhere;
    # the smallest-index convention must survive the KD-tree path
    rng = np.random.default_rng(7)
    dup = rng.standard_normal((6, 2))
    pts_dup = np.repeat(dup, 5, axis=0)  # every point has 4 exact clones
    gx, gy = np.meshgrid(np.arange(6.0), np.arange(6.0))
    pts_grid = np.column_stack([gx.ravel(), gy.ravel()])
    pts_highdim = np.repeat(rng.standard_normal((8, 20)), 4, axis=0)  # brute path
    for pts in (pts_dup, pts_grid, pts_highdim):
        order = rng.permutation(pts.shape[0])
        ds = Dataset(pts[order])
        for k in (1, 3, 7, ds.n - 1):
            nt = compute_knn(ds, k)
            bi, bd = brute_force_knn(ds.points, k)
            np.testing.assert_array_equal(nt.indices, bi)
            np.testing.assert_allclose(nt.distances, bd, atol=1e-12)


def _tie_case(name: str, rng) -> np.ndarray:
    """Point sets whose k-NN rows are decided by exact distance ties."""
    if name == "duplicate-groups":
        # groups of 1, 2, 4 and 9 clones: exactly k + 1 for k = 1 and 3, and
        # larger, so the query point can be crowded out of its own row
        base = rng.standard_normal((16, 2))
        return np.repeat(base, rng.choice([1, 2, 4, 9], size=16), axis=0)
    if name == "lattice-shells":
        g = np.arange(5.0)
        return np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)
    if name == "integer-1d":
        return rng.integers(0, 40, size=(150, 1)).astype(float)
    if name == "underflow":
        # differences of 1e-170 square to 0, so those points sit at distance
        # 0 from each other without being equal; 1e-150 does not underflow
        tiny = [[0.0, 0.0], [1e-170, 0.0], [0.0, -1e-170], [1e-200, 1e-200], [1e-150, 0.0]]
        far = [[1.0, 1.0], [1.0, 1.0 + 1e-170], [2.0, 2.0], [2.0, 2.0]]
        return np.array((tiny + far) * 4)
    if name == "high-dim":  # d > 16 takes the blocked brute-force path
        pts = np.repeat(rng.standard_normal((12, 20)), rng.choice([1, 2, 4, 9], size=12), axis=0)
        return np.vstack([pts, np.round(rng.standard_normal((40, 20)))])
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["duplicate-groups", "lattice-shells", "integer-1d", "underflow", "high-dim"]
)
def test_knn_tie_property_matches_brute_force(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(3):
        pts = _tie_case(name, rng)
        ds = Dataset(pts[rng.permutation(pts.shape[0])])
        for k in (1, 3, ds.n - 1):
            nt = compute_knn(ds, k)
            bi, bd = brute_force_knn(ds.points, k)
            np.testing.assert_array_equal(nt.indices, bi)
            np.testing.assert_allclose(nt.distances, bd, rtol=1e-12, atol=0)


def test_knn_tie_repair_scales_on_grid_data():
    # every point of a 0.1 grid in 3-D has about six clones and tied shells;
    # an O(n) rescan per tied row took 5 s here, the ball repair about 0.2 s
    rng = np.random.default_rng(0)
    ds = Dataset(np.round(rng.random((8000, 3)) * 10) / 10)
    t0 = time.perf_counter()
    compute_knn(ds, 10)
    assert time.perf_counter() - t0 < 1.5


def test_knn_matches_brute_force_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 120))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, n))
        ds = Dataset(rng.standard_normal((n, d)))
        nt = compute_knn(ds, k)
        bi, _ = brute_force_knn(ds.points, k)
        np.testing.assert_array_equal(nt.indices, bi)


def _table_json(nt) -> str:
    """Debug dump of a neighbor table."""
    return json.dumps(
        {"k": int(nt.k), "indices": nt.indices.tolist(), "distances": nt.distances.tolist()}
    )


def test_neighbor_table_json_dump():
    ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
    nt = compute_knn(ds, 2)
    payload = json.loads(_table_json(nt))
    assert payload["k"] == 2
    assert payload["indices"][0] == [1, 2]


def test_density_examples(collinear_triple):
    nt = compute_knn(collinear_triple, 2)
    rho = compute_density(nt)
    np.testing.assert_allclose(rho[1], 2 * np.exp(-1), rtol=1e-12)
    np.testing.assert_allclose(rho[[0, 2]], np.exp(-1) + np.exp(-4), rtol=1e-12)
    assert (rho > 0).all() and (rho <= nt.k).all()


def test_density_single_neighbor_at_zero():
    ds = Dataset(np.array([[0.0], [0.0]]))
    nt = compute_knn(ds, 1)
    np.testing.assert_allclose(compute_density(nt), [1.0, 1.0])


def test_density_decreases_with_scale():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    rhos = []
    for scale in (1.0, 2.0, 5.0):
        nt = compute_knn(Dataset(base * scale), 3)
        rhos.append(compute_density(nt).sum())
    assert rhos[0] > rhos[1] > rhos[2] > 0


def test_leaders_collinear(collinear_triple):
    nt = compute_knn(collinear_triple, 2)
    lf = compute_leaders(nt, compute_density(nt))
    np.testing.assert_array_equal(lf.leader, [1, -1, 1])
    np.testing.assert_array_equal(lf.cores, [1])


def test_leaders_unique_global_maximum():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((30, 2))
    pts = np.vstack([pts, pts.mean(axis=0)[None, :]])  # densest area center
    ds = Dataset(pts)
    nt = compute_knn(ds, ds.n - 1)
    rho = compute_density(nt)
    lf = compute_leaders(nt, rho)
    # with k = n-1 every point sees the global maximum: exactly one core
    assert lf.cores.size == 1
    assert lf.cores[0] == int(np.argmax(rho))


def test_leaders_equal_density_both_cores():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]))
    nt = compute_knn(ds, 1)
    lf = compute_leaders(nt, compute_density(nt))
    np.testing.assert_array_equal(lf.cores, [0, 1])  # strict > means no leader


def test_leader_density_strictly_increases():
    rng = np.random.default_rng(21)
    ds = Dataset(rng.standard_normal((200, 3)))
    nt = compute_knn(ds, 10)
    rho = compute_density(nt)
    lf = compute_leaders(nt, rho)
    has = lf.leader >= 0
    assert (rho[lf.leader[has]] > rho[has]).all()
    # leader is inside the neighborhood
    for i in np.flatnonzero(has):
        assert lf.leader[i] in nt.indices[i]


def test_pseudo_clusters_collinear(collinear_triple):
    pcs = build_pseudo_clusters(collinear_triple, 2)
    assert pcs.m == 1
    np.testing.assert_array_equal(pcs.clusters[0], [0, 1, 2])
    assert pcs.cores[0] == 1
    np.testing.assert_allclose(pcs.centroids[0], [1.0, 0.0])


def test_pseudo_clusters_two_separated_triples():
    ds = Dataset(
        np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [100.0, 0.0], [101.0, 0.0], [102.0, 0.0]]
        )
    )
    pcs = build_pseudo_clusters(ds, 2)
    assert pcs.m == 2
    np.testing.assert_array_equal(pcs.clusters[0], [0, 1, 2])
    np.testing.assert_array_equal(pcs.clusters[1], [3, 4, 5])


def test_pseudo_clusters_two_points():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]]))
    pcs = build_pseudo_clusters(ds, 2)
    assert pcs.m == 1  # single component via leader links


def test_single_point_rejected():
    ds = Dataset(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        build_pseudo_clusters(ds, 1)


def test_two_points_mutual_neighbors_are_two_cores():
    # with k=1 the two points see each other at the same distance, so their
    # kernel densities tie exactly and strict ">" leaves both leaderless
    ds = Dataset(np.array([[0.0, 0.0], [3.0, 0.0]]))
    pcs = build_pseudo_clusters(ds, 1)
    assert pcs.m == 2


def test_partition_and_core_count_randomized():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        ds = Dataset(rng.standard_normal((n, 2)))
        k = int(rng.integers(2, min(15, n - 1)))
        pcs = build_pseudo_clusters(ds, k)
        pcs.validate()
        assert sum(len(c) for c in pcs.clusters) == n
        # deterministic rebuild
        again = build_pseudo_clusters(ds, k)
        np.testing.assert_array_equal(pcs.assignment, again.assignment)


def _pcs(clusters, assignment):
    clusters = [np.array(c, dtype=np.int64) for c in clusters]
    m = len(clusters)
    return PseudoClusterSet(clusters, np.array(assignment), np.zeros(m, np.int64), np.zeros((m, 1)))


@pytest.mark.parametrize(
    "clusters,assignment,message",
    [
        ([[0, 1], [1, 2]], [0, 0, 1], "do not partition"),  # duplicate member
        ([[0, 1], [2]], [0, 0, 1, 1], "do not partition"),  # point 3 missing
        ([[0, 1], [], [2]], [0, 0, 2], "cluster 1 is empty"),
        ([[0], [1, 2], [3]], [0, 1, 2, 2], "assignment inconsistent for cluster 1"),
        # the first defective cluster in id order is reported
        ([[0], [], [1, 2]], [1, 0, 2], "assignment inconsistent for cluster 0"),
        ([[0], [], [1, 2]], [0, 1, 0], "cluster 1 is empty"),
    ],
)
def test_validate_reports_first_defect(clusters, assignment, message):
    with pytest.raises(ValueError, match=message):
        _pcs(clusters, assignment).validate()
    _pcs([[0, 2], [1]], [0, 1, 0]).validate()

