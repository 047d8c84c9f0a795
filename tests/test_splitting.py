import math

import numpy as np
import pytest

from microclust import (
    Dataset,
    SplitConfig,
    build_pseudo_clusters,
    cluster_geometry,
    compactness_dm,
    round_geometry,
    split_all,
    split_once,
    splitting,
)

from conftest import (
    brute_force_mst_weight,
    brute_force_tree_diameter,
    reference_endpoints,
    reference_prim,
    reference_split_proposal,
)


def test_mst_right_angle(right_angle_triple):
    geom = round_geometry([np.arange(3)], right_angle_triple)[0]
    assert sorted(map(tuple, np.sort(geom.mst_edges, axis=1).tolist())) == [(0, 1), (1, 2)]
    np.testing.assert_allclose(geom.mst_weights.sum(), 2.0)


def test_mst_singleton():
    ds = Dataset(np.array([[1.0, 2.0]]))
    geom = round_geometry([np.array([0])], ds)[0]
    assert geom.mst_edges.shape == (0, 2) and geom.mst_weights.shape == (0,)


def test_mst_collinear_chain():
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    geom = round_geometry([np.arange(4)], ds)[0]
    assert sorted(map(tuple, np.sort(geom.mst_edges, axis=1).tolist())) == [(0, 1), (1, 2), (2, 3)]
    np.testing.assert_allclose(geom.mst_weights, 1.0)


def test_mst_weight_matches_oracle_randomized():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        d = int(rng.integers(1, 5))
        ds = Dataset(rng.standard_normal((n, d)))
        weights = round_geometry([np.arange(n)], ds)[0].mst_weights
        oracle = brute_force_mst_weight(ds.points)
        np.testing.assert_allclose(weights.sum(), oracle, rtol=1e-9)


def test_mst_subset_cluster_global_indices():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((30, 2)))
    members = np.array([3, 7, 11, 20, 25])
    geom = round_geometry([members], ds)[0]
    assert set(np.unique(geom.mst_edges)) <= set(members.tolist())
    oracle = brute_force_mst_weight(ds.points[members])
    np.testing.assert_allclose(geom.mst_weights.sum(), oracle, rtol=1e-9)


def test_endpoints_chain(collinear_triple):
    geom = round_geometry([np.arange(3)], collinear_triple)[0]
    assert geom.endpoints == (0, 2) and geom.path_dist == 2.0


def test_endpoints_star():
    # centre 9 with leaves 1, 2, 3 at distances 1, 2, 3; every leaf-leaf
    # distance is longer than the leaf's spoke, so the MST is the star
    pts = np.full((10, 2), 100.0)
    pts[[9, 1, 2, 3]] = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]]
    geom = round_geometry([np.array([9, 1, 2, 3])], Dataset(pts))[0]
    assert sorted(map(tuple, np.sort(geom.mst_edges, axis=1).tolist())) == [(1, 9), (2, 9), (3, 9)]
    assert geom.endpoints == (2, 3) and geom.path_dist == 5.0


def test_endpoints_single_edge():
    pts = np.zeros((7, 1))
    pts[6] = 0.5
    geom = round_geometry([np.array([6, 4])], Dataset(pts))[0]
    assert geom.endpoints == (4, 6) and geom.path_dist == 0.5


def test_endpoints_match_tree_path_oracle_randomized():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 150))
        ds = Dataset(rng.standard_normal((n, 3)))
        geom = round_geometry([np.arange(n)], ds)[0]
        oracle = brute_force_tree_diameter(geom.mst_edges, geom.mst_weights)
        np.testing.assert_allclose(geom.path_dist, oracle, rtol=1e-12)


def test_curvature_collinear(collinear_triple):
    geom = cluster_geometry(np.arange(3), collinear_triple)
    assert geom.mc == 1.0


def test_curvature_right_angle(right_angle_triple):
    geom = cluster_geometry(np.arange(3), right_angle_triple)
    np.testing.assert_allclose(geom.mc, 2.0 / math.sqrt(2.0))


def test_curvature_coincident_endpoints():
    ds = Dataset(np.array([[1.0, 1.0], [1.0, 1.0]]))
    geom = round_geometry([np.arange(2)], ds)[0]
    assert geom.euclid_dist == 0.0 and geom.mc == math.inf


def test_dm_examples(spread_quadruple):
    assert compactness_dm(np.array([0]), spread_quadruple) == 0.0
    two = Dataset(np.array([[0.0, 0.0], [2.0, 0.0]]))
    np.testing.assert_allclose(compactness_dm(np.arange(2), two), 1.0)
    np.testing.assert_allclose(compactness_dm(np.arange(4), spread_quadruple), 5.0)


def test_dm_identical_points():
    ds = Dataset(np.array([[3.0, 3.0]] * 4))
    assert compactness_dm(np.arange(4), ds) == 0.0


def test_split_record_weighted_dm(spread_quadruple):
    comp = SplitConfig(beta=2, mode="compactness-only")
    _, report = split_all(_as_single_cluster(spread_quadruple), spread_quadruple, comp)
    np.testing.assert_allclose(report.records[0]["dm_weight"], 0.05)
    # unequal children: the mean is weighted by size
    ds = Dataset(np.array([[0.0], [1.0], [10.0], [11.0], [12.0], [13.0]]))
    _, report = split_all(_as_single_cluster(ds), ds, SplitConfig(beta=5, mode="compactness-only"))
    first = report.records[0]
    assert first["child_sizes"] == [2, 4]
    dm1 = compactness_dm(np.array([0, 1]), ds)
    dm2 = compactness_dm(np.array([2, 3, 4, 5]), ds)
    np.testing.assert_allclose(first["dm_weight"], (2 * dm1 + 4 * dm2) / 6)


def test_split_once_curvature_gate(collinear_triple):
    cfg = SplitConfig(beta=2)
    assert split_once(np.arange(3), collinear_triple, cfg) is None  # MC = 1 < lam


def test_split_once_quadruple_modes(spread_quadruple):
    members = np.arange(4)
    full = SplitConfig(beta=2, mode="full")
    assert split_once(members, spread_quadruple, full) is None  # MC exactly 1
    comp = SplitConfig(beta=2, mode="compactness-only")
    result = split_once(members, spread_quadruple, comp)
    assert result is not None
    child1, child2 = result
    np.testing.assert_array_equal(child1, [0, 1])
    np.testing.assert_array_equal(child2, [2, 3])


def test_split_once_size_gate():
    # an L of exactly beta points must not split
    pts = np.vstack(
        [np.column_stack([np.zeros(4), np.arange(4)]), np.column_stack([np.arange(1, 5), np.zeros(4)])]
    )
    ds = Dataset(pts)
    cfg = SplitConfig(beta=8)
    assert split_once(np.arange(8), ds, cfg) is None


def test_split_once_no_split_mode(spread_quadruple):
    cfg = SplitConfig(beta=2, mode="no-split")
    assert split_once(np.arange(4), spread_quadruple, cfg) is None


def _elbow(n_per_leg=20, spacing=0.1, angle=math.pi / 3):
    # Two straight legs meeting at 60 degrees: path 2L vs chord L gives MC = 2.
    t = spacing * np.arange(1, n_per_leg + 1)
    leg1 = np.column_stack([t, np.zeros(n_per_leg)])
    leg2 = np.column_stack([t * math.cos(angle), t * math.sin(angle)])
    return Dataset(np.vstack([[[0.0, 0.0]], leg1, leg2]))


def _as_single_cluster(ds: Dataset):
    from microclust import PseudoClusterSet

    members = np.arange(ds.n, dtype=np.int64)
    return PseudoClusterSet(
        [members],
        np.zeros(ds.n, dtype=np.int64),
        np.array([0], dtype=np.int64),
        ds.points.mean(axis=0, keepdims=True),
    )


def test_split_all_elbow_produces_straight_children():
    ds = _elbow()
    cfg = SplitConfig(lam=1.5, beta=8)
    assert cluster_geometry(np.arange(ds.n), ds).mc > 1.5
    out, report = split_all(_as_single_cluster(ds), ds, cfg)
    out.validate()
    assert out.m >= 2
    # every accepted split improved compactness, and split_all reached a fixpoint
    for rec in report.records:
        assert rec["dm_weight"] < rec["dm"]
    for members in out.clusters:
        assert split_once(members, ds, cfg) is None
        if members.size >= 2:
            assert cluster_geometry(members, ds).mc < 1.5  # children nearly straight


def test_split_all_no_split_mode_identity():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((60, 2)))
    pcs = build_pseudo_clusters(ds, 5)
    out, report = split_all(pcs, ds, SplitConfig(mode="no-split"))
    assert out.m == pcs.m
    for a, b in zip(out.clusters, pcs.clusters):
        np.testing.assert_array_equal(a, b)
    assert report.records == []


def test_split_all_size_gate_identity():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((40, 2)))
    pcs = build_pseudo_clusters(ds, 4)
    beta = int(pcs.sizes().max()) + 1
    out, _ = split_all(pcs, ds, SplitConfig(beta=max(2, beta)))
    assert out.m == pcs.m


def test_split_all_partition_preserved_randomized():
    rng = np.random.default_rng(6)
    for _ in range(6):
        n = int(rng.integers(30, 250))
        ds = Dataset(rng.standard_normal((n, 2)))
        pcs = build_pseudo_clusters(ds, 6)
        out, report = split_all(pcs, ds, SplitConfig())
        out.validate()
        assert sum(len(c) for c in out.clusters) == n
        for rec in report.records:
            assert rec["dm_weight"] < rec["dm"]
        # every non-singleton cluster keeps MC >= 1
        for members in out.clusters:
            if members.size >= 2:
                assert cluster_geometry(members, ds).mc >= 1.0 - 1e-12


def test_split_all_max_rounds_warning(monkeypatch):
    ds = _elbow(30)
    monkeypatch.setattr(splitting, "default_max_rounds", lambda n: 1)
    out, report = split_all(_as_single_cluster(ds), ds, SplitConfig())
    assert report.rounds == 1
    assert any("max_rounds" in w for w in report.warnings)
    out.validate()


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(lam=0.5)
    with pytest.raises(ValueError):
        SplitConfig(beta=1)
    with pytest.raises(ValueError):
        SplitConfig(mode="bogus")


def test_curvature_gate_is_strict():
    # at MC exactly lam the cluster stays; just below lam it splits
    ds = Dataset(
        np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.2, 0.0], [0.8, 0.0], [1.0, 0.4], [1.0, 0.7]]
        )
    )
    members = np.arange(7)
    geom = cluster_geometry(members, ds)
    assert split_once(members, ds, SplitConfig(lam=geom.mc, beta=2)) is None
    below = SplitConfig(lam=float(np.nextafter(geom.mc, 0.0)), beta=2)
    assert split_once(members, ds, below) is not None


def _tie_heavy_round(rng, d):
    """One round's clusters: skewed sizes including 1 and 2, half the points on a grid."""
    sizes = [1, 2, 2, *np.minimum(rng.geometric(0.04, size=int(rng.integers(3, 10))), 120)]
    rng.shuffle(sizes)
    n = sum(sizes) + int(rng.integers(0, 20))  # points outside the round stay untouched
    pts = rng.standard_normal((n, d))
    grid = rng.random(n) < 0.5
    pts[grid] = np.round(pts[grid] * 2) / 2  # distance ties on a 0.5 grid
    copies = rng.choice(n, size=n // 4)
    pts[copies] = pts[rng.choice(n, size=copies.size)]  # exact duplicates in any d
    order = rng.permutation(n)
    return Dataset(pts), np.split(order[: sum(sizes)], np.cumsum(sizes)[:-1])


@pytest.mark.parametrize("d", [1, 2, 3, 13, 40])
def test_round_geometry_matches_per_cluster_reference_exactly(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(12):
        ds, clusters = _tie_heavy_round(rng, d)
        for members, geom in zip(clusters, round_geometry(clusters, ds), strict=True):
            edges, weights = reference_prim(ds.points, members)
            assert np.array_equal(geom.mst_edges, edges)
            assert np.array_equal(geom.mst_weights, weights)
            one = round_geometry([members], ds)[0]
            assert np.array_equal(one.mst_edges, edges) and np.array_equal(one.mst_weights, weights)
            pts = ds.points[members]
            old_dm = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean())
            assert geom.dm == compactness_dm(members, ds) == old_dm
            if members.size == 1:
                assert geom.endpoints is None and geom.mc == 1.0
                continue
            (a, b), path = reference_endpoints(edges, weights)
            assert one.endpoints == (a, b) and one.path_dist == path
            euclid = float(np.linalg.norm(ds.points[a] - ds.points[b]))
            assert geom.endpoints == (a, b)
            assert geom.path_dist == path and geom.euclid_dist == euclid
            assert geom.mc == (math.inf if euclid == 0.0 else path / euclid)


def test_split_all_calls_split_once_once_per_candidate(monkeypatch):
    """split_all decides every split through the module's split_once.

    Each candidate (a cluster larger than beta in some round) gets exactly
    one call; every result is None or a pair of children partitioning the
    cluster, and the accepted ones match the report's records one to one.
    """
    rng = np.random.default_rng(9)
    ds = Dataset(np.round(rng.standard_normal((300, 2)) * 8) / 8)
    cfg = SplitConfig(beta=6)
    results = []
    real = splitting.split_once

    def spy(cluster, ds_, cfg_, geom=None):
        result = real(cluster, ds_, cfg_, geom)
        results.append((np.asarray(cluster), result))
        return result

    monkeypatch.setattr(splitting, "split_once", spy)
    out, report = split_all(build_pseudo_clusters(ds, 6), ds, cfg)
    accepted = [r for _, r in results if r is not None]
    assert len(accepted) == len(report.records) > 0
    declined = sum(r is None for _, r in results)
    assert declined == sum(members.size > cfg.beta for members in out.clusters)
    for members, result in results:
        if result is not None:
            child1, child2 = result
            assert np.array_equal(np.sort(np.concatenate([child1, child2])), np.sort(members))


def test_split_all_computes_each_compactness_once(monkeypatch):
    # Every compactness value is computed once: the first round's clusters
    # through compactness_dm, every candidate's children with its split
    # proposal, and a child's value then decides its split and serves as its
    # dm in the next round.  Each _centroid_dm call is accounted for.
    rng = np.random.default_rng(9)
    ds = Dataset(np.round(rng.standard_normal((300, 2)) * 8) / 8)
    measured = []
    blocks = []
    real_dm, real_proposals, real_block = (
        splitting.compactness_dm, splitting._split_proposals, splitting._centroid_dm
    )

    def dm_spy(cluster, ds_):
        measured.append(tuple(np.sort(np.asarray(cluster)).tolist()))
        return real_dm(cluster, ds_)

    def proposals_spy(*args):
        out = real_proposals(*args)
        for children, dms, _ in out:
            assert all(c.size for c in children) == (not math.isnan(dms[0]))
            if not math.isnan(dms[0]):
                measured.extend(tuple(np.sort(c).tolist()) for c in children)
        return out

    def block_spy(pts):
        blocks.append(pts.shape[0])
        return real_block(pts)

    monkeypatch.setattr(splitting, "compactness_dm", dm_spy)
    monkeypatch.setattr(splitting, "_split_proposals", proposals_spy)
    monkeypatch.setattr(splitting, "_centroid_dm", block_spy)
    _, report = split_all(build_pseudo_clusters(ds, 6), ds, SplitConfig(beta=6))
    assert len(report.records) > 0
    assert len(blocks) == len(measured) > 2 * len(report.records)
    assert len(measured) == len(set(measured))


@pytest.mark.parametrize("d", [1, 2, 3, 13, 40])
def test_split_proposals_match_per_cluster_reference_exactly(d):
    """round_geometry's batched proposals carry the per-cluster rule's bits."""
    rng = np.random.default_rng(200 + d)
    ties = 0
    for rep in range(13):
        if rep < 12:
            ds, clusters = _tie_heavy_round(rng, d)
        else:
            # collinear members with one midpoint and its copy equidistant from
            # both ends, and a cluster of one point repeated (coinciding ends)
            pts = np.zeros((8, d))
            pts[:5, 0] = [0.0, 2.0, 1.0, 1.0, 0.5]
            ds, clusters = Dataset(pts), [np.arange(5), np.arange(5, 8)]
        for members, geom in zip(clusters, round_geometry(clusters, ds), strict=True):
            if members.size == 1:
                assert geom.children is None and geom.child_dms is None
                assert geom.child_centroids is None
                continue
            children, dms, centroids, n_ties = reference_split_proposal(
                ds.points, members, geom.endpoints
            )
            ties += n_ties
            assert all(np.array_equal(g, r) for g, r in zip(geom.children, children, strict=True))
            assert np.array_equal(geom.child_dms, dms, equal_nan=True)
            assert np.array_equal(geom.child_centroids, centroids, equal_nan=True)
            one = cluster_geometry(members, ds)
            assert all(np.array_equal(g, r) for g, r in zip(one.children, children, strict=True))
            assert np.array_equal(one.child_dms, dms, equal_nan=True)
            assert np.array_equal(one.child_centroids, centroids, equal_nan=True)
            if np.isfinite(dms[0]):
                assert dms == (compactness_dm(children[0], ds), compactness_dm(children[1], ds))
        if rep == 12:
            geoms = round_geometry(clusters, ds)
            assert [c.tolist() for c in geoms[0].children] == [[0, 2, 3, 4], [1]]
            assert geoms[1].mc == math.inf and geoms[1].children[1].size == 0
    assert ties > 0
