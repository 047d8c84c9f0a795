import numpy as np
import pytest

from microclust import (
    Dataset,
    balls_to_microclusters,
    compactness_dm,
    farthest_pair,
    gb_generate,
)

from conftest import dense_distances


def test_farthest_pair_collinear():
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [5.0]]))
    assert farthest_pair(np.arange(4), ds) == (0, 3)


def test_farthest_pair_square_tie():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    # both diagonals tie at sqrt(2); lexicographically first pair wins
    assert farthest_pair(np.arange(4), ds) == (0, 2)


def test_farthest_pair_matches_brute_force():
    rng = np.random.default_rng(17)
    ds = Dataset(rng.standard_normal((50, 3)))
    pair = farthest_pair(np.arange(50), ds)
    dist = dense_distances(ds.points)
    expected = np.unravel_index(np.argmax(dist), dist.shape)
    assert pair == (min(expected), max(expected))


def test_farthest_pair_subset_indices():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((30, 2)))
    members = np.array([2, 9, 14, 27])
    i, j = farthest_pair(members, ds)
    assert i in members and j in members


def test_farthest_pair_needs_two():
    ds = Dataset(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        farthest_pair(np.array([0]), ds)


def _two_blobs(n_each=30, separation=50.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_each, 2)) * 0.2
    b = rng.standard_normal((n_each, 2)) * 0.2 + [separation, 0.0]
    return Dataset(np.vstack([a, b]), np.repeat([0, 1], n_each))


def test_gb_two_tight_blobs_first_split_separates():
    ds = _two_blobs()
    log = []
    balls = gb_generate(ds, min_size=8, split_log=log)
    # the first split must cut between the blobs (weighted DM drops hugely)
    first = log[0]
    assert first["parent_size"] == 60
    assert sorted(first["child_sizes"]) == [30, 30]
    assert first["dm_weight"] < first["dm"] / 10
    # balls never straddle the two blobs
    for ball in balls:
        labs = np.unique(ds.labels[ball.members])
        assert labs.size == 1
    # direct evaluation of the quality rule on the first split: the size-weighted
    # mean of the blobs' compactness beats the whole set's
    halves = compactness_dm(np.arange(30), ds), compactness_dm(np.arange(30, 60), ds)
    np.testing.assert_allclose(first["dm_weight"], (30 * halves[0] + 30 * halves[1]) / 60)
    assert first["dm_weight"] < compactness_dm(np.arange(60), ds)


def test_gb_zero_spread_blobs_exactly_two_balls():
    # zero intra-spread: the first split separates the blobs, after which
    # every child has DM 0 and the weighted-quality rule rejects further splits
    ds = Dataset(np.vstack([np.zeros((20, 2)), np.full((20, 2), 30.0)]))
    log = []
    balls = gb_generate(ds, min_size=8, split_log=log)
    assert len(balls) == 2
    assert len(log) == 1
    sizes = sorted(b.members.size for b in balls)
    assert sizes == [20, 20]
    assert all(b.dm == 0.0 for b in balls)


def test_gb_small_dataset_single_ball():
    ds = Dataset(np.arange(10, dtype=float).reshape(5, 2))
    balls = gb_generate(ds, min_size=8)
    assert len(balls) == 1
    assert balls[0].members.size == 5


def test_gb_identical_points():
    ds = Dataset(np.zeros((12, 2)))
    balls = gb_generate(ds, min_size=4)
    assert len(balls) == 1
    assert balls[0].dm == 0.0 and balls[0].radius == 0.0


def test_gb_partition_and_radius_invariants():
    rng = np.random.default_rng(23)
    ds = Dataset(rng.standard_normal((150, 3)))
    log = []
    balls = gb_generate(ds, min_size=8, split_log=log)
    members = np.concatenate([b.members for b in balls])
    np.testing.assert_array_equal(np.sort(members), np.arange(150))
    for rec in log:
        assert rec["dm_weight"] < rec["dm"]
    for ball in balls:
        pts = ds.points[ball.members]
        np.testing.assert_allclose(ball.center, pts.mean(axis=0), atol=1e-12)
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert (dists <= ball.radius + 1e-9).all()
        np.testing.assert_allclose(ball.dm, dists.mean(), atol=1e-12)


def test_gb_validates_inputs():
    ds = Dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        gb_generate(ds, min_size=1)


def test_balls_to_microclusters_roundtrip():
    ds = _two_blobs(20)
    balls = gb_generate(ds, min_size=8)
    pcs = balls_to_microclusters(balls, ds)
    pcs.validate()
    assert pcs.m == len(balls)
    for t, ball in enumerate(balls):
        np.testing.assert_array_equal(pcs.clusters[t], np.sort(ball.members))
        assert pcs.cores[t] in ball.members


def test_gb_computes_each_compactness_once(monkeypatch):
    # a ball's compactness is measured when the ball is made and travels with
    # it: the split test, the parent's dm and the final ball reuse it
    from microclust import granular, splitting

    rng = np.random.default_rng(31)
    ds = Dataset(rng.standard_normal((200, 2)))
    seen = []
    real = splitting.compactness_dm

    def spy(cluster, ds_):
        seen.append(tuple(np.sort(np.asarray(cluster)).tolist()))
        return real(cluster, ds_)

    monkeypatch.setattr(granular, "compactness_dm", spy)
    monkeypatch.setattr(splitting, "compactness_dm", spy)
    log = []
    balls = gb_generate(ds, min_size=8, split_log=log)
    assert len(log) > 0
    assert len(seen) == len(set(seen))
    for ball in balls:
        assert ball.dm == real(ball.members, ds)
