"""Apply the independent checks to a run's outcomes and to traced captures.

Nothing here imports microclust: program objects are read only through
their public attributes (``clusters``, ``assignment``, ``indices`` ...).
"""

from __future__ import annotations

import inspect

import numpy as np

import checks

KNN_SAMPLE_ROWS = 128


def score_passes(workload, passes) -> tuple[dict, list[str]]:
    """Check every pass's final labels; returns ({key: (ari, acc)}, problems).

    ``passes`` is a list of outcome lists, one per pass, in call order.
    """
    problems: list[str] = []
    scores: dict = {}
    by_key: dict = {}
    for outcomes in passes:
        for o in outcomes:
            by_key.setdefault(o.key, []).append(o)
    for key, seen in by_key.items():
        first = seen[0]
        try:
            if len(seen) != len(passes):
                checks._fail(f"{key}: made in {len(seen)} of {len(passes)} passes")
            labels = [o.labels for o in seen]
            if all(x is None for x in labels):
                continue  # fails in every pass: counted in `failed`
            checks.check_identical(labels, str(key))
            checks.check_labels(first.labels, first.truth.shape[0], first.n_clusters)
            ari, acc = checks.ari_acc(first.labels, first.truth)
            scores[key] = (ari, acc)
            for o in seen:
                if o.reported is not None:
                    checks.check_reported(o.reported, ari, acc, str(key))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    mean_ari = mean_mdmsc_ari(passes[0], scores)
    try:
        checks.check_floor(mean_ari, workload.ari_floor, f"{workload.name} mean mdmsc ARI")
        workload.check_quality(scores)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    return scores, problems


def mean_mdmsc_ari(outcomes, scores) -> float:
    vals = [scores[o.key][0] for o in outcomes if o.algorithm == "mdmsc" and o.key in scores]
    return float(np.mean(vals)) if vals else float("nan")


class _Params:
    """Bound arguments of captured calls, by parameter name."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.signatures: dict = {}

    def __call__(self, call) -> dict:
        sig = self.signatures.get(call.name)
        if sig is None:
            sig = self.signatures[call.name] = inspect.signature(self.tracer.originals[call.name])
        bound = sig.bind(*call.args, **call.kwargs)
        bound.apply_defaults()
        return bound.arguments


def deep_check(tracer, rng, expected_labels: dict | None = None) -> list[str]:
    """Check every captured intermediate result; returns the problems found.

    ``expected_labels`` maps the span index of a captured ``run_pipeline``
    call to the labels the timed passes gave for the same call.
    """
    params = _Params(tracer)
    by_span = {c.span: c for c in tracer.calls}
    problems: list[str] = []

    def run(name, fn):
        for call in tracer.captured(name):
            try:
                fn(call, params(call))
            except checks.CheckFailed as exc:
                problems.append(f"{name}: {exc}")

    def knn(call, p):
        nt, points = call.result, p["ds"].points
        rows = rng.choice(points.shape[0], size=min(KNN_SAMPLE_ROWS, points.shape[0]), replace=False)
        checks.check_knn_rows(points, nt.k, nt.indices, nt.distances, np.sort(rows))

    def partition(call, p):
        pcs = call.result[0] if isinstance(call.result, tuple) else call.result
        checks.check_partition(pcs.clusters, pcs.assignment, p["ds"].n)

    def split_all(call, p):
        partition(call, p)
        accepted = sum(
            c.result is not None
            for c in tracer.captured("splitting.split_once")
            if tracer.ancestor(c.span, "splitting.split_all") == call.span
        )
        records = len(call.result[1].records)
        if accepted != records:
            checks._fail(f"{accepted} accepted splits but {records} split records")

    def split_once(call, p):
        if call.result is not None:
            checks.check_split(p["ds"].points, p["cluster"], *call.result)

    def similarity(call, p):
        s = call.result
        checks.check_graph(s)
        pairs = checks.sample_pairs(s, rng)
        checks.check_similarity_entries(s, p["pcs"].clusters, p["nt"].indices, p["ds"].points, pairs)

    def graph(call, p):
        checks.check_graph(np.asarray(p["s"], dtype=np.float64))

    def eigen(call, p):
        emb = tracer.ancestor(call.span, "spectral.spectral_embedding")
        n_clusters = params(by_span[emb])["n_clusters"]
        w, v = call.result
        checks.check_eigen(p["matrix"], w, v, n_clusters)

    def kmeans(call, p):
        checks.check_kmeans(p["x"], call.result[0], p["n_clusters"])

    def pipeline(call, p):
        res = call.result
        n, n_clusters = p["ds_raw"].n, p["cfg"].n_clusters
        checks.check_labels(res.point_labels, n, n_clusters)
        sims = [
            c for c in tracer.captured("spectral.build_similarity_matrix")
            if tracer.ancestor(c.span, "pipeline.run_pipeline") == call.span
        ]
        for c in sims:
            checks.check_propagation(res.point_labels, res.micro_labels, params(c)["pcs"].assignment)
        if expected_labels is not None and call.span in expected_labels:
            checks.check_identical([expected_labels[call.span], res.point_labels], "capture vs timed pass")

    run("neighbors.compute_knn", knn)
    run("neighbors.build_pseudo_clusters", partition)
    run("granular.balls_to_microclusters", partition)
    run("splitting.split_all", split_all)
    run("splitting.split_once", split_once)
    run("spectral.build_similarity_matrix", similarity)
    run("spectral.spectral_cluster", graph)
    run("linalg.jacobi_eigh", eigen)
    run("linalg.kmeans", kmeans)
    run("pipeline.run_pipeline", pipeline)
    return problems


def tie_rows(tracer) -> int:
    """Tie rows summed over every captured k-NN search, counted from its input."""
    params = _Params(tracer)
    total = 0
    for call in tracer.captured("neighbors.compute_knn"):
        p = params(call)
        total += checks.count_tie_rows(p["ds"].points, call.result.k)
    return total
