"""Show that every check accepts real output and rejects corrupted output.

    python3 mcbench/selftest.py

Runs mdmsc, gbsc and sc on small data sets under the tracer, requires the
checks to pass on what was captured, then corrupts one captured result at a
time and requires the matching check to reject it.  Exits 1 if a corruption
goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import microclust as mc  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402


def _first(tracer, name, accepted_only=False):
    for call in tracer.captured(name):
        if not accepted_only or call.result is not None:
            return call
    raise LookupError(f"no captured {name} call")


def _swap_neighbours(nt):
    idx, dist = nt.indices.copy(), nt.distances.copy()
    rows = dist[:, 0] != dist[:, 1]
    idx[rows, 0], idx[rows, 1] = nt.indices[rows, 1], nt.indices[rows, 0]
    return dataclasses.replace(nt, indices=idx, distances=dist)


def _drop_member(pcs):
    clusters = list(pcs.clusters)
    clusters[0] = clusters[0][1:]
    return dataclasses.replace(pcs, clusters=clusters)


def _extra_record(result):
    pcs, report = result
    return pcs, dataclasses.replace(report, records=report.records + report.records[:1])


def _scale_similarity(s):
    return s * np.where(s > 0, 1.5, 1.0)


def _shift_eigenvalue(result):
    w, v = result
    w = w.copy()
    w[0] += 1e-3
    return w, v


def _flip_first(labels):
    labels = labels.copy()
    labels[0] = 1 - labels[0] if labels.max() <= 1 else (labels[0] + 1) % (labels.max() + 1)
    return labels


def _flip_point_label(res):
    return dataclasses.replace(res, point_labels=_flip_first(res.point_labels))


# (captured function, how to corrupt its result, whether to pick an accepted split)
RESULT_CORRUPTIONS = [
    ("neighbors.compute_knn", _swap_neighbours, False),
    ("neighbors.build_pseudo_clusters", _drop_member, False),
    ("granular.balls_to_microclusters", _drop_member, False),
    ("splitting.split_all", _extra_record, False),
    ("splitting.split_once", lambda r: (r[0][1:], r[1]), True),
    ("spectral.build_similarity_matrix", _scale_similarity, False),
    ("linalg.jacobi_eigh", _shift_eigenvalue, False),
    ("linalg.kmeans", lambda r: (_flip_first(r[0]), r[1]), False),
    ("pipeline.run_pipeline", _flip_point_label, False),
]


def _negative_entry(s):
    s = np.array(s, dtype=np.float64)
    s[0, 1] = s[1, 0] = -1.0
    return s


class _Toy(Workload):
    name = "toy"

    def __init__(self, ari_floor):
        self.ari_floor = ari_floor


TRUTH = np.array([0, 0, 1, 1])
GOOD = Outcome(("toy",), "mdmsc", TRUTH, 2, TRUTH.copy())


def direct_cases():
    """Checks fed hand-made bad inputs: (name, thunk) pairs that must raise."""
    line = np.array([[0.0], [1.0], [2.0], [3.0]])
    truth, good = TRUTH, GOOD
    too_many = Outcome(("toy",), "mdmsc", truth, 2, np.array([0, 1, 2, 2]))
    other = Outcome(("toy",), "mdmsc", truth, 2, np.array([1, 1, 0, 1]))
    misreported = Outcome(("toy",), "mdmsc", truth, 2, truth.copy(), None, {"ari": 0.5, "acc": 1.0})

    def fails(passes, ari_floor=-1.0):
        def thunk():
            problems = verify.score_passes(_Toy(ari_floor), passes)[1]
            if problems:
                checks._fail("; ".join(problems))

        return thunk

    return [
        ("labels use more than C values", fails([[too_many]])),
        ("passes disagree", fails([[good], [other]])),
        ("reported ARI differs", fails([[misreported]])),
        ("ARI below the floor", fails([[other]], 0.9)),
        ("split does not lower compactness", lambda: checks.check_split(line, [0, 1, 2, 3], [0, 3], [1, 2])),
        ("mdmsc beats gbsc by less than the margin", lambda: checks.check_margin(0.9, 0.88, 0.05, "C2")),
        ("negative similarity", lambda: checks.check_graph(_negative_entry(np.ones((3, 3)) - np.eye(3)))),
        ("asymmetric similarity", lambda: checks.check_graph(np.triu(np.ones((3, 3)), 1))),
    ]


def main() -> int:
    rng = np.random.default_rng(0)
    moons = mc.generate_synthetic("moons", 200, 0.05, 0)
    tracer = Tracer()
    with tracer:
        for algorithm in ("mdmsc", "gbsc", "sc"):
            mc.run_pipeline(moons, mc.RunConfig(algorithm=algorithm, k=8, n_clusters=2, seed=0))

    missed = []
    clean = verify.deep_check(tracer, rng)
    print(f"clean output: {'accepted' if not clean else 'REJECTED: ' + '; '.join(clean)}")
    if clean:
        missed.append("clean output")

    for name, corrupt, accepted_only in RESULT_CORRUPTIONS:
        call = _first(tracer, name, accepted_only)
        original = call.result
        call.result = corrupt(original)
        try:
            problems = [p for p in verify.deep_check(tracer, rng) if p.startswith(name)]
        finally:
            call.result = original
        print(f"corrupted {name}: {'rejected' if problems else 'MISSED'}")
        if not problems:
            missed.append(name)

    call = _first(tracer, "spectral.spectral_cluster")
    original = call.args
    call.args = (_negative_entry(original[0]),) + original[1:]
    try:
        problems = [p for p in verify.deep_check(tracer, rng) if p.startswith("spectral.spectral_cluster")]
    finally:
        call.args = original
    print(f"corrupted spectral.spectral_cluster input: {'rejected' if problems else 'MISSED'}")
    if not problems:
        missed.append("spectral_cluster input")

    if verify.score_passes(_Toy(0.99), [[GOOD], [GOOD]])[1]:
        missed.append("clean toy labels")
    for what, thunk in direct_cases():
        try:
            thunk()
        except checks.CheckFailed:
            print(f"{what}: rejected")
        else:
            print(f"{what}: MISSED")
            missed.append(what)

    print("self-test " + ("passed" if not missed else f"FAILED: {missed}"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
