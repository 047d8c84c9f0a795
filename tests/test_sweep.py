"""run_sweep shares the seed-free stages of its cells and changes no result.

Inside one ``run_sweep`` the normalized data, the k-NN table per k, the
pseudo-clusters per (k, mode), the granular balls per beta and sc's k-NN
adjacency per k are computed once, and so are the split geometry of each
candidate cluster per k and the farthest-pair split of each granular ball;
every other call computes each stage.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import microclust.cli as cli
import microclust.granular as granular
import microclust.pipeline as pipeline
import microclust.splitting as splitting
from microclust import (
    Dataset,
    NumericalError,
    RunConfig,
    generate_synthetic,
    run_pipeline,
    run_repeated,
)

CASES = [
    ("mdmsc", "full"),
    ("mdmsc", "single-cluster"),
    ("mdmsc", "no-split"),
    ("mdmsc", "compactness-only"),
    ("gbsc", "full"),
    ("sc", "full"),
]


@pytest.fixture(scope="module")
def moons():
    return generate_synthetic("moons", 60, 0.05, 0)


@pytest.fixture
def counted(monkeypatch):
    """Count the calls run_pipeline makes to its seed-free stages."""
    counts = {}
    stages = ("normalize", "compute_knn", "build_pseudo_clusters", "gb_generate", "knn_adjacency")
    for name in stages:
        original = getattr(pipeline, name)
        counts[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)
    return counts


def _observe(monkeypatch):
    """(cfg, result or exception) for every run_pipeline call run_sweep makes."""
    seen = []
    original = cli.run_pipeline

    def wrapper(ds, cfg):
        try:
            res = original(ds, cfg)
        except (RuntimeError, ValueError) as exc:
            seen.append((cfg, exc))
            raise
        seen.append((cfg, res))
        return res

    monkeypatch.setattr(cli, "run_pipeline", wrapper)
    return seen


def _without_timings(meta):
    return {key: value for key, value in meta.items() if key != "timings_ms"}


def _sweep_equals_fresh_runs(ds, monkeypatch, algorithm, mode, betas):
    """run_sweep at k = 30, 4, 30 over betas; every cell must equal a fresh run.

    k returns to 30 after 4, so a dropped entry is recomputed.
    """
    seen = _observe(monkeypatch)
    cfg = RunConfig(algorithm=algorithm, mode=mode, n_clusters=3, runs=1, seed=3)
    report = cli.run_sweep(ds, cfg, [30, 4, 30], betas)
    assert len(seen) == len(report["rows"]) == 3 * len(betas)
    assert not all(row["failed"] for row in report["rows"])
    for cell_cfg, got in seen:
        if isinstance(got, Exception):
            with pytest.raises(type(got), match="micro-cluster") as fresh:
                run_pipeline(ds, cell_cfg)
            assert str(fresh.value) == str(got)
            continue
        fresh = run_pipeline(ds, cell_cfg)
        for attr in ("point_labels", "micro_labels"):
            a, b = getattr(got, attr), getattr(fresh, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert _without_timings(got.meta) == _without_timings(fresh.meta)
    return report


@pytest.mark.parametrize("algorithm,mode", CASES)
def test_sweep_cells_equal_fresh_runs(moons, monkeypatch, algorithm, mode):
    # The first cell of each mdmsc/gbsc sweep fails with too few
    # micro-clusters; the cells after it must not see a poisoned memo.
    report = _sweep_equals_fresh_runs(moons, monkeypatch, algorithm, mode, [64, 6])
    if algorithm != "sc":
        assert report["rows"][0]["failed"] and "micro-cluster" in report["rows"][0]["reason"]


@pytest.mark.parametrize("algorithm,mode", CASES)
def test_sweep_cells_equal_fresh_runs_for_ascending_beta(moons, monkeypatch, algorithm, mode):
    # A small beta first fills the split memos with clusters that the
    # larger beta never reaches.
    _sweep_equals_fresh_runs(moons, monkeypatch, algorithm, mode, [6, 64])


@pytest.mark.parametrize("algorithm", ["mdmsc", "gbsc"])
def test_sweep_computes_each_seed_free_stage_once(moons, counted, algorithm):
    cfg = RunConfig(algorithm=algorithm, n_clusters=2, runs=1)
    report = cli.run_sweep(moons, cfg, [2, 10, 18], [8, 16])
    assert not any(row["failed"] for row in report["rows"])
    assert counted["normalize"] == 1
    assert counted["compute_knn"] == 3
    if algorithm == "mdmsc":
        assert counted["build_pseudo_clusters"] == 3
    else:
        assert counted["gb_generate"] == 2


def test_sc_sweep_builds_one_adjacency_per_k(moons, counted):
    cli.run_sweep(moons, RunConfig(algorithm="sc", n_clusters=2, runs=1), [5, 10], [8, 16])
    assert counted["knn_adjacency"] == 2


def test_calls_outside_a_sweep_compute_every_stage(moons, counted):
    cfg = RunConfig(n_clusters=2, runs=1, k=10)
    run_pipeline(moons, cfg)
    run_pipeline(moons, cfg)
    assert counted["compute_knn"] == counted["build_pseudo_clusters"] == counted["normalize"] == 2


def test_run_repeated_computes_every_stage_per_seed(moons, counted):
    # Sharing across seeds is left out until the benchmark stops keeping
    # every pass's outcomes (ROADMAP item 1): the retained results would
    # show up as peak memory.
    run_repeated(moons, RunConfig(n_clusters=2, runs=3, k=10))
    assert counted["compute_knn"] == counted["build_pseudo_clusters"] == counted["normalize"] == 3


def test_scope_ends_with_the_sweep(moons, counted):
    cfg = RunConfig(n_clusters=2, runs=1)
    cli.run_sweep(moons, cfg, [10], [8, 16])
    assert pipeline._MEMO.get() is None
    assert counted["compute_knn"] == 1
    run_pipeline(moons, replace(cfg, k=10))
    assert counted["compute_knn"] == 2

    with pytest.raises(NumericalError, match="every sweep configuration failed"):
        cli.run_sweep(moons, replace(cfg, n_clusters=60), [10], [8])
    assert pipeline._MEMO.get() is None


def test_other_datasets_are_not_served_from_the_scope(moons, counted):
    other = generate_synthetic("moons", 60, 0.05, 0)  # equal content, another object
    cfg = RunConfig(n_clusters=2, runs=1, k=10)
    with pipeline.shared_stages(moons):
        run_pipeline(moons, cfg)
        run_pipeline(other, cfg)
        run_pipeline(moons, cfg)
    assert counted["compute_knn"] == 2


@pytest.mark.parametrize("algorithm", ["mdmsc", "gbsc", "sc"])
def test_scope_keeps_each_normalization_apart(algorithm):
    # y stretched 30x: min-max and z-score scale the two axes differently,
    # so every stage after normalization differs between them.
    base = generate_synthetic("moons", 60, 0.05, 0)
    ds = Dataset(base.points * np.array([1.0, 30.0]), base.labels)
    minmax = RunConfig(algorithm=algorithm, n_clusters=2, runs=1, k=10)
    zscore = replace(minmax, normalization="zscore")
    fresh = run_pipeline(ds, zscore)
    with pipeline.shared_stages(ds):
        run_pipeline(ds, minmax)
        got = run_pipeline(ds, zscore)
    assert got.meta["m"] == fresh.meta["m"]
    assert np.array_equal(got.point_labels, fresh.point_labels)
    assert _without_timings(got.meta) == _without_timings(fresh.meta)


def test_memo_keeps_one_k_at_a_time():
    memo = pipeline._StageMemo(None)
    calls = []

    def make(tag):
        return lambda: calls.append(tag) or np.zeros(3)

    memo.get("knn", make("knn2"), k=2)
    memo.get("balls", make("balls8"))
    memo.get("knn", make("knn2"), k=2)
    memo.get("knn", make("knn10"), k=10)
    memo.get("balls", make("balls8"))
    assert calls == ["knn2", "balls8", "knn10"]
    assert list(memo.per_k) == ["knn"] and memo.k == 10


def test_shared_arrays_are_read_only(moons):
    with pipeline.shared_stages(moons):
        memo = pipeline._MEMO.get()
        run_pipeline(moons, RunConfig(algorithm="gbsc", n_clusters=2, k=10, beta=8))
        run_pipeline(moons, RunConfig(mode="no-split", n_clusters=2, k=10))
        run_pipeline(moons, RunConfig(algorithm="sc", n_clusters=2, k=10))
    balls, ball_pcs, _ = memo.fixed[("balls", "minmax", 8)]
    nt, pcs = memo.per_k[("knn", "minmax")], memo.per_k[("pseudo", "minmax", "no-split")]
    shared = [
        memo.fixed[("normalize", "minmax")].points,
        nt.indices,
        nt.distances,
        memo.per_k[("adjacency", "minmax")],
        balls[0].members,
        balls[0].center,
        ball_pcs.assignment,
        ball_pcs.clusters[0],
        pcs.assignment,
        pcs.cores,
        pcs.centroids,
        pcs.clusters[0],
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def _count_split_work(monkeypatch, module, name, members_of):
    """(k of the running cell, member bytes) for every set reaching module.name."""
    seen = []
    k_now = []
    original_cell = cli.run_pipeline

    def cell(ds, cfg):
        k_now.append(cfg.k)
        return original_cell(ds, cfg)

    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.extend((k_now[-1] if k_now else None, m.tobytes()) for m in members_of(args))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", cell)
    monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("mode", ["full", "compactness-only"])
def test_sweep_computes_each_candidate_geometry_once_per_k(moons, monkeypatch, mode):
    seen = _count_split_work(
        monkeypatch, splitting, "round_geometry",
        lambda args: [np.asarray(c, dtype=np.int64) for c in args[0]],
    )
    cfg = RunConfig(mode=mode, n_clusters=2, runs=1)
    report = cli.run_sweep(moons, cfg, [10, 30], [4, 8, 16])
    assert not any(row["failed"] for row in report["rows"])
    shared = Counter(seen)
    assert shared and set(shared.values()) == {1}

    # A fresh run per cell reaches the same member sets, some of them more than once.
    seen.clear()
    for k in (10, 30):
        for beta in (4, 8, 16):
            run_pipeline(moons, replace(cfg, k=k, beta=beta))
    assert set(Counter(member for _, member in seen)) == {member for _, member in shared}
    assert len(seen) > len(shared)


def test_larger_beta_after_smaller_makes_no_geometry_call(moons, monkeypatch):
    calls = []
    original = splitting.round_geometry
    monkeypatch.setattr(
        splitting, "round_geometry", lambda *a, **kw: calls.append(a[0]) or original(*a, **kw)
    )
    cfg = RunConfig(n_clusters=2, runs=1, k=30)
    with pipeline.shared_stages(moons):
        run_pipeline(moons, replace(cfg, beta=8))
        assert calls
        calls.clear()
        res = run_pipeline(moons, replace(cfg, beta=16))
    assert res.meta["split_records"]  # beta = 16 still splits, from shared geometry
    assert calls == []


def test_larger_beta_after_smaller_computes_no_proposal(moons, monkeypatch):
    # Split proposals come with the shared geometry, read-only: the beta = 16
    # cell measures no child, and its children are the beta = 8 cell's arrays.
    proposals = []
    original = splitting._split_proposals
    monkeypatch.setattr(
        splitting, "_split_proposals", lambda *a: proposals.append(a[1].size) or original(*a)
    )
    cfg = RunConfig(n_clusters=2, runs=1, k=30)
    with pipeline.shared_stages(moons):
        run_pipeline(moons, replace(cfg, beta=8))
        assert sum(proposals) > 0
        proposals.clear()
        res = run_pipeline(moons, replace(cfg, beta=16))
        shared = pipeline._MEMO.get().per_k[("geometry", cfg.normalization)]
    assert res.meta["split_records"]
    assert proposals == []
    assert shared
    for geom in shared.values():
        arrays = [*geom.children, geom.child_centroids]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            geom.children[0][0] = -1


def test_sweep_searches_each_ball_once_across_beta(moons, monkeypatch):
    seen = _count_split_work(monkeypatch, granular, "farthest_pair", lambda args: [args[0]])
    cfg = RunConfig(algorithm="gbsc", n_clusters=2, runs=1)
    report = cli.run_sweep(moons, cfg, [2, 10], [4, 8, 16])
    assert not any(row["failed"] for row in report["rows"])
    searched = Counter(member for _, member in seen)
    assert searched and set(searched.values()) == {1}


def test_calls_outside_a_sweep_share_no_split_work(moons, monkeypatch):
    passed = []
    for name, arg in (("split_all", "geometry"), ("gb_generate", "splits")):
        original = getattr(pipeline, name)

        def wrapper(*args, _original=original, _arg=arg, **kwargs):
            passed.append(kwargs.get(_arg, args[3] if len(args) > 3 else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapper)
    run_pipeline(moons, RunConfig(n_clusters=2, k=30))
    run_pipeline(moons, RunConfig(algorithm="gbsc", n_clusters=2, k=30))
    assert passed == [None, None]


def test_shared_split_work_is_read_only(moons):
    with pipeline.shared_stages(moons):
        memo = pipeline._MEMO.get()
        run_pipeline(moons, RunConfig(n_clusters=2, k=30))
        run_pipeline(moons, RunConfig(algorithm="gbsc", n_clusters=2, k=30))
    geometry = list(memo.per_k[("geometry", "minmax")].values())
    splits = [s for s in memo.fixed[("ball_splits", "minmax")].values() if s is not None]
    assert geometry and splits
    arrays = [a for g in geometry for a in (g.mst_edges, g.mst_weights)]
    arrays += [child for s in splits for child in s[:2]]
    for array in arrays:
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
