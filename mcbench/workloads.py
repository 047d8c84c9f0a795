"""The benchmark's workloads: fixed lists of microclust calls repeated as passes.

Each workload builds its inputs once from the run's seed, then ``run_pass``
makes the same calls every time and returns one Outcome per clustering call
(one ``run_pipeline``), with the call's labels and wall time.
``capture_calls`` names a seed-chosen sample of those calls that the runner
repeats, untimed, under the tracer so that their intermediate results can be
checked.

The point sets are fixed and the seed reaches only the k-means seeds: with
the pure-Python Jacobi eigensolver a different point set or point order
changes the sweep count (8 or 9 on the same blob field) and m, which moves a
pass by 10-40 %, far beyond any usable bound.

Sizes are chosen so that no call is long and no working set leaves a core's
L2 cache: on a shared host whose speed drifts over seconds, a stage's
fastest time across passes is steady only when the stage is short and its
data stay in the core's own cache (see README.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

import microclust as mc
import microclust.cli as mc_cli
from checks import check_floor, check_margin

# Errors a clustering call can raise on bad or degenerate input.
CALL_ERRORS = (RuntimeError, ValueError)


@dataclass
class Outcome:
    """One clustering call of a pass; labels is None when the call failed."""

    key: tuple
    algorithm: str
    truth: np.ndarray
    n_clusters: int
    labels: np.ndarray | None
    micro_labels: np.ndarray | None = None
    reported: dict | None = None  # ARI/ACC as the program reported them


@contextmanager
def observe_calls(module):
    """Keep the result of every ``run_pipeline`` reached through ``module``.

    ``run_sweep`` and ``run_repeated`` call ``run_pipeline`` many times and
    do not return every label; this wrapper appends each result (None when
    the call raised).
    """
    original = module.run_pipeline
    seen: list = []

    def run_pipeline(ds, cfg):
        try:
            res = original(ds, cfg)
        except CALL_ERRORS:
            seen.append(None)
            raise
        seen.append(res)
        return res

    module.run_pipeline = run_pipeline
    try:
        yield seen
    finally:
        module.run_pipeline = original


def single_call(key, algorithm, ds, cfg) -> Outcome:
    res = mc.run_pipeline(ds, cfg)
    return Outcome(key, algorithm, ds.labels, cfg.n_clusters, res.point_labels, res.micro_labels)


class Workload:
    name = ""
    calls_per_pass = 0
    ari_floor = 0.0

    def operations(self):
        """(number of clustering calls, thunk returning their Outcomes) pairs."""
        raise NotImplementedError

    def run_pass(self) -> tuple[list[Outcome], int]:
        """Make every call of one pass; returns (outcomes, failed calls)."""
        outcomes, failed = [], 0
        for count, op in self.operations():
            try:
                outcomes += op()
            except CALL_ERRORS:
                failed += count
        failed += sum(o.labels is None for o in outcomes)
        return outcomes, failed

    def capture_calls(self, rng) -> list[tuple[tuple, object]]:
        raise NotImplementedError

    def check_quality(self, scores: dict) -> None:
        """Workload-specific quality gates on {key: (ari, acc)}; raises CheckFailed."""


class Blobs2k(Workload):
    """C6's blob recipe at n = 2000: 8 components, noise 0.25, data seed 1.

    m = 271, so the Jacobi eigensolve's two m x m arrays (1.2 MB) stay in a
    core's 2 MB L2.  At n = 4000 (m = 509, 4.1 MB) a neighbour streaming
    through memory slowed the call by 29 % and the same call ranged
    4.0-7.5 s between runs; at n = 2000 the neighbour changed nothing.
    """

    name = "blobs-2k"
    N = 2000
    calls_per_pass = 1
    ari_floor = 0.99

    def __init__(self, seed: int):
        self.ds = mc.generate_synthetic("blobs", self.N, 0.25, 1, components=8)
        self.cfg = mc.RunConfig(k=10, n_clusters=8, seed=seed, runs=1)
        self.key = ("mdmsc", self.ds.name)

    def operations(self):
        yield 1, lambda: [single_call(self.key, "mdmsc", self.ds, self.cfg)]

    def capture_calls(self, rng):
        return [(self.key, lambda: mc.run_pipeline(self.ds, self.cfg))]


class ManifoldSweep(Workload):
    """C1/C2 grid: k in {2, 10, 18}, beta in {8, 16}, mdmsc and gbsc, then one sc call.

    Three k values keep a pass near 1.6 s, so that a run samples each call
    about 20 times; with k = 2, 6, ..., 18 a pass took 3.4-6 s and a run's
    5-7 samples left pass_s spreading 0.32 over ten runs.  k = 2 stays in: it
    is the only k of the grid at which mdmsc separates the spirals.  The sc
    call runs on two-spirals-60 (0.25 s); on two-spirals-300 it takes 6-12 s.
    """

    name = "manifold-sweep"
    K_VALUES = [2, 10, 18]
    BETA_VALUES = [8, 16]
    ALGORITHMS = ("mdmsc", "gbsc")
    calls_per_pass = 2 * len(ALGORITHMS) * len(K_VALUES) * len(BETA_VALUES) + 1
    ari_floor = 0.4  # mean over every k, including the k at which mdmsc fails
    best_ari_floor = 0.99  # C1: best mdmsc ARI on each dataset
    acc_margin = 0.05  # C2: best mdmsc ACC over best gbsc ACC on spirals

    def __init__(self, seed: int):
        self.spirals = mc.generate_synthetic("two-spirals", 300, 0.0, 0)
        self.moons = mc.generate_synthetic("moons", 300, 0.05, 0)
        self.sc_spirals = mc.generate_synthetic("two-spirals", 60, 0.0, 0)
        self.cfg = mc.RunConfig(n_clusters=2, seed=seed, runs=1)

    def _sweep(self, ds, algorithm):
        cfg = replace(self.cfg, algorithm=algorithm)
        with observe_calls(mc_cli) as seen:
            report = mc_cli.run_sweep(ds, cfg, self.K_VALUES, self.BETA_VALUES)
        out = []
        for row, res in zip(report["rows"], seen, strict=True):
            key = (ds.name, algorithm, row["k"], row["beta"])
            if row["failed"]:
                out.append(Outcome(key, algorithm, ds.labels, 2, None))
            else:
                out.append(
                    Outcome(key, algorithm, ds.labels, 2, res.point_labels, res.micro_labels, row)
                )
        return out

    def operations(self):
        per_sweep = len(self.K_VALUES) * len(self.BETA_VALUES)
        for ds in (self.spirals, self.moons):
            for algorithm in self.ALGORITHMS:
                yield per_sweep, lambda ds=ds, a=algorithm: self._sweep(ds, a)
        sc_key = (self.sc_spirals.name, "sc", self.cfg.k, None)
        sc_cfg = replace(self.cfg, algorithm="sc")
        yield 1, lambda: [single_call(sc_key, "sc", self.sc_spirals, sc_cfg)]

    def capture_calls(self, rng):
        """Two seed-chosen (k, beta) cells of each sweep; sc is checked in traced runs."""
        grid = [(k, b) for k in self.K_VALUES for b in self.BETA_VALUES]
        out = []
        for ds in (self.spirals, self.moons):
            for algorithm in self.ALGORITHMS:
                for cell in rng.choice(len(grid), size=2, replace=False):
                    k, beta = grid[cell]
                    cfg = replace(self.cfg, algorithm=algorithm, k=k, beta=beta)
                    key = (ds.name, algorithm, k, beta)
                    out.append((key, lambda ds=ds, cfg=cfg: mc.run_pipeline(ds, cfg)))
        return out

    def check_quality(self, scores):
        for ds in (self.spirals, self.moons):
            best = max(s[0] for key, s in scores.items() if key[:2] == (ds.name, "mdmsc"))
            check_floor(best, self.best_ari_floor, f"best mdmsc ARI on {ds.name}")
        best_acc = {
            algorithm: max(
                s[1] for key, s in scores.items() if key[:2] == (self.spirals.name, algorithm)
            )
            for algorithm in self.ALGORITHMS
        }
        check_margin(best_acc["mdmsc"], best_acc["gbsc"], self.acc_margin, "C2 mdmsc - gbsc ACC")


class DupSeeds(Workload):
    """run_repeated over 10 seeds on duplicate-heavy blobs rounded to a 0.05 grid.

    n = 400 gives 297 distinct points, 253 tie rows, m = 51 and a pass near
    1 s, so that a run samples each call about 30 times.  At n = 600 (m = 80)
    a pass took 1.9-3.3 s and pass_s spread 0.235 over ten runs; at n = 1000
    (m = 164) a pass takes 20 s.
    """

    name = "dup-seeds"
    N = 400
    RUNS = 10  # the CLI default of --runs
    GRID = 0.05
    calls_per_pass = RUNS
    ari_floor = 0.95

    def __init__(self, seed: int):
        base = mc.generate_synthetic("blobs", self.N, 0.25, 1, components=2)
        points = np.round(base.points / self.GRID) * self.GRID
        self.ds = mc.Dataset(points, base.labels, name=f"dup-blobs-{self.N}")
        self.cfg = mc.RunConfig(k=10, n_clusters=2, seed=seed, runs=self.RUNS)

    def _repeated(self):
        results, reports = mc.run_repeated(self.ds, self.cfg)
        return [
            Outcome(
                ("mdmsc", self.cfg.seed + r), "mdmsc", self.ds.labels, 2,
                res.point_labels, res.micro_labels, rep,
            )
            for r, (res, rep) in enumerate(zip(results, reports, strict=True))
        ]

    def operations(self):
        yield self.RUNS, self._repeated

    def capture_calls(self, rng):
        r = int(rng.integers(self.RUNS))
        cfg = replace(self.cfg, seed=self.cfg.seed + r, runs=1)
        return [(("mdmsc", cfg.seed), lambda: mc.run_pipeline(self.ds, cfg))]


WORKLOADS = {w.name: w for w in (Blobs2k, ManifoldSweep, DupSeeds)}
