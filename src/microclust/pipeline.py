"""End-to-end clustering runs with stage timings and file outputs.

Three algorithms share one spectral stage: "mdmsc" (density-derived
pseudo-clusters with curvature-guided splitting), "gbsc" (granular-ball
baseline), and "sc" (plain spectral clustering on the point-level k-NN
graph).  Ablation modes: "single-cluster" starts splitting from the whole
dataset instead of the leader components, "no-split" keeps the leader
components as-is, "compactness-only" splits without the curvature gate.

Inside ``shared_stages(ds)`` (``cli.run_sweep`` opens it) the stages that
depend on neither the seed nor the split parameters run once per key and
are shared by every ``run_pipeline`` call on that dataset object.  So are
the parts of splitting that beta only gates: the geometry of each candidate
cluster (per k) and the farthest-pair split of each granular ball.  Every
entry is keyed by the normalization it was computed under.
"""

from __future__ import annotations

import configparser
import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from .data import NORMALIZATIONS, Dataset, normalize
from .granular import balls_to_microclusters, gb_generate
from .metrics import metrics_report
from .neighbors import (
    PseudoClusterSet,
    build_pseudo_clusters,
    compute_density,
    compute_knn,
)
from .spectral import (
    build_similarity_matrix,
    count_graph_components,
    knn_adjacency,
    propagate_labels,
    spectral_cluster,
)
from .splitting import SplitConfig, SplitReport, round_geometry, split_all

ALGORITHMS = ("mdmsc", "gbsc", "sc")
MODES = ("full", "single-cluster", "no-split", "compactness-only")


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    algorithm: str = "mdmsc"
    k: int = 10
    lam: float = 1.5
    beta: int = 8
    n_clusters: int = 2
    seed: int = 0
    mode: str = "full"
    input: str | None = None
    labels_col: str | None = None
    out_dir: str = "out"
    runs: int = 10
    normalization: str = "minmax"
    dump_micro: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATIONS}, got {self.normalization!r}"
            )
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.n_clusters < 2:
            raise ConfigError("n_clusters must be >= 2")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.lam < 1 or self.beta < 2:
            raise ConfigError("need lam >= 1 and beta >= 2")

    def split_config(self) -> SplitConfig:
        mode = "full" if self.mode == "single-cluster" else self.mode
        return SplitConfig(lam=self.lam, beta=self.beta, mode=mode)

    @classmethod
    def from_ini(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if not parser.has_section("run"):
            raise ConfigError(f"{path}: missing [run] section")
        kwargs = {}
        defaults = cls()
        for f in fields(cls):
            if not parser.has_option("run", f.name):
                continue
            raw = parser.get("run", f.name)
            current = getattr(defaults, f.name)
            if isinstance(current, bool):
                kwargs[f.name] = parser.getboolean("run", f.name)
            elif isinstance(current, int):
                kwargs[f.name] = int(raw)
            elif isinstance(current, float):
                kwargs[f.name] = float(raw)
            else:
                kwargs[f.name] = None if raw == "" else raw
        extra = set(parser.options("run")) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"{path}: unknown option(s) {sorted(extra)}")
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


@dataclass
class ClusteringResult:
    point_labels: np.ndarray
    micro_labels: np.ndarray
    meta: dict
    similarity: np.ndarray | None = None  # populated when dump_micro is set


def _single_cluster_set(ds: Dataset, rho: np.ndarray) -> PseudoClusterSet:
    members = np.arange(ds.n, dtype=np.int64)
    core = int(np.argmax(rho))
    return PseudoClusterSet(
        [members],
        np.zeros(ds.n, dtype=np.int64),
        np.array([core], dtype=np.int64),
        ds.points.mean(axis=0, keepdims=True),
    )


def _freeze(value) -> None:
    """Mark every array reachable through lists, tuples and dataclasses read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _freeze(item)
    elif is_dataclass(value):
        for f in fields(value):
            _freeze(getattr(value, f.name))


class _StageMemo:
    """Seed-free stage results of one dataset, made read-only when stored.

    Entries keyed by a neighbour count k are dropped as soon as another k is
    asked for, so a sweep over k holds one k-NN table (or one sc adjacency),
    with its pseudo-clusters and split geometry, at a time; the other
    entries (normalized data, balls per beta, ball splits) stay.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.fixed: dict = {}
        self.k: int | None = None
        self.per_k: dict = {}

    def get(self, key, compute, k: int | None = None):
        if k is None:
            table = self.fixed
        else:
            if k != self.k:
                self.k, self.per_k = k, {}
            table = self.per_k
        if key not in table:
            value = compute()
            _freeze(value)
            table[key] = value
        return table[key]


class _FrozenEntries(dict):
    """A shared lookup table whose values are made read-only as they are stored."""

    def __setitem__(self, key, value):
        _freeze(value)
        super().__setitem__(key, value)


_MEMO: ContextVar[_StageMemo | None] = ContextVar("microclust_stage_memo", default=None)


@contextmanager
def shared_stages(ds: Dataset):
    """Share the seed-free stages of every run_pipeline(ds, ...) call inside the block.

    Only calls on this very dataset object are served from the memo; every
    other call computes each stage as usual.
    """
    token = _MEMO.set(_StageMemo(ds))
    try:
        yield
    finally:
        _MEMO.reset(token)


def _stage(ds_raw: Dataset, key, compute, k: int | None = None):
    """compute(), or its shared result inside shared_stages(ds_raw)."""
    memo = _MEMO.get()
    if memo is None or memo.dataset is not ds_raw:
        return compute()
    return memo.get(key, compute, k)


def _shared_table(ds_raw: Dataset, key, k: int | None = None) -> dict | None:
    """An empty-at-first lookup table shared inside shared_stages(ds_raw); None elsewhere."""
    memo = _MEMO.get()
    if memo is None or memo.dataset is not ds_raw:
        return None
    return memo.get(key, _FrozenEntries, k)


def _ball_stage(ds: Dataset, beta: int, splits: dict | None):
    log: list[dict] = []
    balls = gb_generate(ds, min_size=beta, split_log=log, splits=splits)
    return balls, balls_to_microclusters(balls, ds), log


def _pseudo_stage(ds: Dataset, nt, mode: str) -> PseudoClusterSet:
    if mode == "single-cluster":
        return _single_cluster_set(ds, compute_density(nt))
    return build_pseudo_clusters(ds, nt.k, nt=nt)


def run_pipeline(ds_raw: Dataset, cfg: RunConfig) -> ClusteringResult:
    """One clustering run; the dataset is normalized per the config."""
    method = cfg.normalization
    ds = _stage(ds_raw, ("normalize", method), lambda: normalize(ds_raw, method))
    k = min(cfg.k, ds.n - 1)
    warnings: list[str] = []
    timings: dict[str, float] = {}
    clock = time.perf_counter

    t0 = clock()
    if cfg.algorithm == "sc":
        adjacency = _stage(ds_raw, ("adjacency", method), lambda: knn_adjacency(ds, k), k)
        timings["construction"] = (clock() - t0) * 1e3
        timings["splitting"] = 0.0
        timings["similarity"] = 0.0
        t1 = clock()
        point_labels = spectral_cluster(adjacency, cfg.n_clusters, cfg.seed)
        timings["spectral"] = (clock() - t1) * 1e3
        timings["total"] = sum(timings.values())
        meta = {
            "algorithm": "sc",
            "m": ds.n,
            "n": ds.n,
            "n_star_initial": ds.n,
            "n_star_final": ds.n,
            "timings_ms": timings,
            "warnings": warnings,
            "config": asdict(cfg),
        }
        return ClusteringResult(point_labels, point_labels.copy(), meta)

    report = SplitReport()
    ball_stats = None
    if cfg.algorithm == "gbsc":
        splits = _shared_table(ds_raw, ("ball_splits", method))
        balls, pcs, gb_log = _stage(
            ds_raw, ("balls", method, cfg.beta), lambda: _ball_stage(ds, cfg.beta, splits)
        )
        nt = _stage(ds_raw, ("knn", method), lambda: compute_knn(ds, k), k)
        report.records = list(gb_log)
        timings["construction"] = (clock() - t0) * 1e3
        timings["splitting"] = 0.0  # ball splitting happens inside construction
        n_star_initial = int(pcs.sizes().max())
        ball_stats = [
            {"center": b.center.tolist(), "radius": b.radius, "size": int(b.members.size)}
            for b in balls
        ]
    else:
        nt = _stage(ds_raw, ("knn", method), lambda: compute_knn(ds, k), k)
        pcs = _stage(
            ds_raw, ("pseudo", method, cfg.mode), lambda: _pseudo_stage(ds, nt, cfg.mode), k
        )
        timings["construction"] = (clock() - t0) * 1e3
        t1 = clock()
        n_star_initial = int(pcs.sizes().max())
        geometry = _shared_table(ds_raw, ("geometry", method), k)
        pcs, report = split_all(pcs, ds, cfg.split_config(), geometry)
        timings["splitting"] = (clock() - t1) * 1e3
        warnings.extend(report.warnings)

    t2 = clock()
    if pcs.m < cfg.n_clusters:
        raise RuntimeError(
            f"only {pcs.m} micro-cluster(s) for {cfg.n_clusters} requested clusters; "
            f"lower k or beta"
        )
    similarity = build_similarity_matrix(pcs, nt, ds)
    components, component_of = count_graph_components(similarity)
    if components > cfg.n_clusters:
        warnings.append(
            f"similarity graph has {components} components for C={cfg.n_clusters}"
        )
    timings["similarity"] = (clock() - t2) * 1e3

    t3 = clock()
    micro_labels = spectral_cluster(
        similarity, cfg.n_clusters, cfg.seed, components=(components, component_of)
    )
    point_labels = propagate_labels(pcs, micro_labels)
    timings["spectral"] = (clock() - t3) * 1e3
    timings["total"] = sum(timings.values())

    meta = {
        "algorithm": cfg.algorithm,
        "m": pcs.m,
        "n": ds.n,
        "n_star_initial": n_star_initial,
        "n_star_final": int(pcs.sizes().max()),
        "similarity_components": components,
        "split_records": report.records,
        "split_rounds": report.rounds,
        "timings_ms": timings,
        "warnings": warnings,
        "config": asdict(cfg),
    }
    if ball_stats is not None:
        meta["balls"] = ball_stats
    if cfg.dump_micro:
        meta["micro_clusters"] = micro_cluster_dump(pcs, ds, micro_labels)
        return ClusteringResult(point_labels, micro_labels, meta, similarity)
    return ClusteringResult(point_labels, micro_labels, meta)


def micro_cluster_dump(pcs: PseudoClusterSet, ds: Dataset, micro_labels=None) -> list[dict]:
    """Plot-ready micro-cluster records: members, centroid, curvature, compactness.

    ds must be the same (already normalized) dataset the clusters were built on.
    """
    out = []
    for t, (members, geom) in enumerate(zip(pcs.clusters, round_geometry(pcs.clusters, ds))):
        rec = {
            "id": t,
            "members": members.tolist(),
            "size": int(members.size),
            "centroid": pcs.centroids[t].tolist(),
            "core": int(pcs.cores[t]),
            "mc": None if not np.isfinite(geom.mc) else float(geom.mc),
            "dm": float(geom.dm),
        }
        if micro_labels is not None:
            rec["label"] = int(micro_labels[t])
        out.append(rec)
    return out


def run_repeated(ds_raw: Dataset, cfg: RunConfig):
    """Run the pipeline cfg.runs times with seeds seed+0..runs-1.

    Returns (results, reports): the first result is the base-seed run whose
    labels are written out; reports holds one metrics dict per run when
    ground truth is available (else None).
    """
    results = []
    reports = []
    for r in range(cfg.runs):
        run_cfg = replace(cfg, seed=cfg.seed + r, runs=1)
        res = run_pipeline(ds_raw, run_cfg)
        results.append(res)
        if ds_raw.labels is not None:
            rep = metrics_report(res.point_labels, ds_raw.labels, res.meta["timings_ms"]["total"])
            rep["seed"] = run_cfg.seed
            reports.append(rep)
        else:
            reports.append(None)
    return results, reports


def aggregate_metrics(reports: list[dict], base_seed: int, runs: int) -> dict:
    """Mean/std metrics JSON across per-run reports (schema-conformant)."""
    keys = ("ari", "nmi", "acc", "runtime_ms")
    agg = dict(reports[0])
    for key in keys:
        vals = np.array([r[key] for r in reports], dtype=np.float64)
        agg[key] = float(vals.mean())
        agg.setdefault("std", {})[key] = float(vals.std())
    agg["seed"] = int(base_seed)
    agg["runs"] = int(runs)
    agg["per_run"] = reports
    return agg


def write_json_atomic(payload, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def write_labels_csv(labels: np.ndarray, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("label\n")
        fh.writelines(f"{int(v)}\n" for v in labels)
    os.replace(tmp, path)


def write_similarity_csv(similarity: np.ndarray, path) -> None:
    """Dense m x m micro-cluster similarity, one row per line."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        for row in similarity:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    os.replace(tmp, path)
