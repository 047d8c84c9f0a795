import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from microclust import (
    ConfigError,
    RunConfig,
    ari,
    generate_synthetic,
    run_pipeline,
    run_repeated,
)
from microclust.pipeline import aggregate_metrics


@pytest.fixture(scope="module")
def blobs2():
    return generate_synthetic("blobs", 160, 0.08, 1, components=2)


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.lam == 1.5 and cfg.beta == 8 and cfg.seed == 0 and cfg.mode == "full"


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(algorithm="kmeans")
    with pytest.raises(ConfigError):
        RunConfig(mode="x")
    with pytest.raises(ConfigError):
        RunConfig(n_clusters=1)


def test_config_ini_round_trip(tmp_path):
    cfg = RunConfig(algorithm="gbsc", k=12, lam=2.0, beta=16, n_clusters=3, seed=9, runs=2)
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nalgorithm = gbsc\nk = 12\nlam = 2.0\nbeta = 16\nn_clusters = 3\n"
        "seed = 9\nruns = 2\ninput =\ndump_micro = false\n"
    )
    assert RunConfig.from_ini(path) == cfg


def test_config_ini_rejects_unknown_option(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nalgorithm = mdmsc\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_ini(path)


def test_mdmsc_recovers_two_blobs(blobs2):
    cfg = RunConfig(k=8, n_clusters=2, runs=1)
    res = run_pipeline(blobs2, cfg)
    assert ari(res.point_labels, blobs2.labels) == 1.0
    assert res.meta["m"] >= 2
    assert set(res.meta["timings_ms"]) == {
        "construction", "splitting", "similarity", "spectral", "total",
    }


@pytest.mark.parametrize("algo", ["mdmsc", "gbsc", "sc"])
def test_all_algorithms_run(blobs2, algo):
    cfg = RunConfig(algorithm=algo, k=8, n_clusters=2, runs=1)
    res = run_pipeline(blobs2, cfg)
    assert res.point_labels.shape == (blobs2.n,)
    assert np.unique(res.point_labels).size == 2
    assert ari(res.point_labels, blobs2.labels) == 1.0


@pytest.mark.parametrize("mode", ["single-cluster", "no-split", "compactness-only"])
def test_ablation_modes_run(blobs2, mode):
    cfg = RunConfig(k=8, n_clusters=2, runs=1, mode=mode)
    res = run_pipeline(blobs2, cfg)
    assert res.point_labels.shape == (blobs2.n,)


def test_no_split_mode_keeps_initial_micro_clusters(blobs2):
    from microclust import build_pseudo_clusters, normalize_minmax

    cfg = RunConfig(k=8, n_clusters=2, runs=1, mode="no-split", dump_micro=True)
    res = run_pipeline(blobs2, cfg)
    pcs = build_pseudo_clusters(normalize_minmax(blobs2), 8)
    assert res.meta["m"] == pcs.m
    dumped = res.meta["micro_clusters"]
    assert [d["size"] for d in dumped] == [len(c) for c in pcs.clusters]
    assert res.meta["split_records"] == []


def test_point_labels_equal_micro_labels_through_assignment(blobs2):
    cfg = RunConfig(k=8, n_clusters=2, runs=1, dump_micro=True)
    res = run_pipeline(blobs2, cfg)
    for rec in res.meta["micro_clusters"]:
        members = np.array(rec["members"])
        assert (res.point_labels[members] == rec["label"]).all()


def test_pipeline_deterministic(blobs2):
    cfg = RunConfig(k=8, n_clusters=2, runs=1, seed=4)
    a = run_pipeline(blobs2, cfg)
    b = run_pipeline(blobs2, cfg)
    np.testing.assert_array_equal(a.point_labels, b.point_labels)
    np.testing.assert_array_equal(a.micro_labels, b.micro_labels)


def test_pipeline_warns_on_extra_similarity_components():
    # four far-apart blobs but C=2: the similarity graph splits into more
    # components than requested clusters, which lands in the warnings
    ds = generate_synthetic("blobs", 120, 0.01, 0, components=4)
    cfg = RunConfig(k=4, n_clusters=2, runs=1)
    res = run_pipeline(ds, cfg)
    assert res.meta["similarity_components"] >= 2
    if res.meta["similarity_components"] > 2:
        assert any("components" in w for w in res.meta["warnings"])


def test_pipeline_m_too_small_raises():
    ds = generate_synthetic("blobs", 20, 0.01, 0, components=2)
    cfg = RunConfig(k=19, n_clusters=8, runs=1, beta=64)
    with pytest.raises(RuntimeError, match="micro-cluster"):
        run_pipeline(ds, cfg)


def test_run_repeated_and_aggregate(blobs2):
    cfg = RunConfig(k=8, n_clusters=2, runs=3, seed=10)
    results, reports = run_repeated(blobs2, cfg)
    assert len(results) == 3
    seeds = [r["seed"] for r in reports]
    assert seeds == [10, 11, 12]
    agg = aggregate_metrics(reports, cfg.seed, cfg.runs)
    assert agg["runs"] == 3
    assert agg["ari"] == pytest.approx(np.mean([r["ari"] for r in reports]))
    assert "std" in agg and "per_run" in agg


def test_gbsc_meta_has_ball_dump(blobs2):
    cfg = RunConfig(algorithm="gbsc", k=8, n_clusters=2, runs=1, beta=8)
    res = run_pipeline(blobs2, cfg)
    balls = res.meta["balls"]
    assert sum(b["size"] for b in balls) == blobs2.n
    assert all(b["radius"] >= 0 for b in balls)


# More graph components than C: the smallest eigenvalue 0 repeats, and the
# labels must not depend on which basis of its eigenspace BLAS threading yields.
_THREADS_SCRIPT = """
import numpy as np
import microclust as mc
base = mc.generate_synthetic("blobs", 1000, 0.25, 1, components=2)
ds = mc.Dataset(np.round(base.points / 0.1) * 0.1, base.labels)
res = mc.run_pipeline(ds, mc.RunConfig(k=10, n_clusters=2))
print(res.meta["similarity_components"], res.point_labels.tobytes().hex())
"""


def test_labels_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert int(outputs[0][0]) > 2  # the degenerate case is really exercised
    assert outputs[0] == outputs[1]
