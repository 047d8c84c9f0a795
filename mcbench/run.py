"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 mcbench/run.py --workload blobs-2k --seed 1 --seconds 10 --trace 0

Run from the repository root: microclust is imported from ./src.  One
process, BLAS limited to one thread.  The workload's fixed list of
calls is repeated as passes while another pass fits into --seconds (at
least MIN_PASSES passes); each pass's labels are checked outside the timed
calls.

--trace 0 reports the end-to-end metrics: setup_s (process start to the
first timed call), pass_s (the fastest pass, composed segment by segment;
see fastest_by_segment), peak_rss_mb (after the timed passes) and ari (mean
ARI of the pass's mdmsc labelings, recomputed here).
Afterwards a seed-chosen sample of the calls is made again, untimed, under
the tracer, and every intermediate result it captures is checked.

--trace 1 makes two untraced passes and one traced pass and reports the
per-layer metrics, the tracing overhead (traced pass over the faster
untraced one), and writes every span to mcbench/out/.
"""

from __future__ import annotations

import os
import time

# Before numpy loads its BLAS.  A second BLAS thread made no call faster on a
# 2-CPU VM and spent 30-50 % more CPU time spinning, which a shared host turns
# into noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import verify  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 4

# Calls that cut a timed pass into segments (see fastest_by_segment): the
# stages run_pipeline calls, under the names it imported them by; the steps
# of spectral_cluster; and each sweep of the pure-Python Jacobi eigensolver,
# which opens with ``_offdiag_norm``.  A name the program no longer has is
# skipped, and its time falls into the segment before it.
SEGMENT_MARKS = {
    "microclust.pipeline": (
        "normalize", "knn_adjacency", "gb_generate", "balls_to_microclusters", "compute_knn",
        "build_pseudo_clusters", "split_all", "build_similarity_matrix",
        "count_graph_components", "spectral_cluster", "propagate_labels",
    ),
    "microclust.spectral": ("normalized_laplacian", "jacobi_eigh", "kmeans"),
    "microclust.linalg": ("_offdiag_norm",),
}


def _boot_clock() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def _process_start() -> float:
    """Process start on the boot clock, from /proc (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


def _marker(marks: list, fn):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        marks.append(clock())
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def segment_marks():
    """Append a clock reading to the yielded list on entry to each SEGMENT_MARKS call.

    One clock read and one append per marked call, a few hundred per pass at
    most; this and ``workloads.observe_calls`` are the only patches active
    in timed passes.
    """
    marks: list[float] = []
    patched = []
    for mod_name, attrs in SEGMENT_MARKS.items():
        mod = sys.modules[mod_name]
        for attr in attrs:
            fn = getattr(mod, attr, None)
            if fn is not None:
                patched.append((mod, attr, fn))
                setattr(mod, attr, _marker(marks, fn))
    try:
        yield marks
    finally:
        for mod, attr, fn in patched:
            setattr(mod, attr, fn)


def _timed_passes(workload, seconds: float, min_passes: int):
    """Passes until another one would end after ``seconds`` (at least ``min_passes``).

    Returns each pass's outcomes, each pass's segment durations, and the
    failed calls.
    """
    passes, segments, failed = [], [], 0
    clock = time.perf_counter
    with segment_marks() as marks:
        t_start = clock()
        while len(passes) < min_passes or clock() - t_start + min(map(sum, segments)) <= seconds:
            marks.clear()
            t0 = clock()
            outcomes, n_failed = workload.run_pass()
            bounds = [t0, *marks, clock()]
            segments.append([b - a for a, b in zip(bounds, bounds[1:])])
            passes.append(outcomes)
            failed += n_failed
    return passes, segments, failed


def fastest_by_segment(segments) -> float:
    """The fastest pass, composed segment by segment.

    A pass is cut at every SEGMENT_MARKS call; the passes of a run make the
    same calls in the same order, so the i-th segments of all passes did the
    same work.  Each segment's fastest time over the passes, summed, is the
    pass time with every burst of slowness that any pass escaped removed.
    Only passes cut into as many segments as the last one are composed, so a
    first pass that fills a cache, and so makes other calls, is left out.
    """
    same = [s for s in segments if len(s) == len(segments[-1])]
    return sum(map(min, zip(*same)))


def run_untraced(workload, args, t_proc) -> dict:
    from workloads import CALL_ERRORS

    setup_s = _boot_clock() - t_proc
    passes, segments, failed = _timed_passes(workload, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scores, problems = verify.score_passes(workload, passes)
    rng = np.random.default_rng([args.seed, 1])
    tracer = Tracer()
    keyed_spans = []
    with tracer:
        for key, thunk in workload.capture_calls(rng):
            try:
                thunk()
            except CALL_ERRORS:
                continue  # a call that fails in every pass is counted in `failed`
            keyed_spans.append((key, tracer.captured("pipeline.run_pipeline")[-1].span))
    first = {o.key: o.labels for o in passes[0]}
    expected = {span: first.get(key) for key, span in keyed_spans}
    problems += verify.deep_check(tracer, rng, expected)

    for i, s in enumerate(segments, 1):
        print(f"pass {i}: {sum(s):.4f} s in {len(s)} segments")
    print(f"fastest whole pass: {min(map(sum, segments)):.4f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (fastest_by_segment(segments), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ari": (verify.mean_mdmsc_ari(passes[0], scores), "ratio"),
    }
    return _result(problems, len(passes) * workload.calls_per_pass, failed, metrics)


def run_traced(workload, args, t_proc) -> dict:
    setup_s = _boot_clock() - t_proc
    # The first untraced pass warms caches; the faster of two is the untraced time.
    passes, segments, failed = _timed_passes(workload, 0, 2)
    untraced_s = min(map(sum, segments))
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        outcomes, n_failed = workload.run_pass()
    traced_s = time.perf_counter() - t0
    passes.append(outcomes)
    failed += n_failed

    scores, problems = verify.score_passes(workload, passes)
    rng = np.random.default_rng([args.seed, 1])
    problems += verify.deep_check(tracer, rng)
    pass_times = [*map(sum, segments), traced_s]
    problems += _check_stage_totals(tracer, max(pass_times) / min(pass_times) - 1)

    self_s = tracer.layer_self_times()
    calls = tracer.call_counts()

    def count(name):
        return calls.get(name, 0)

    def results(name):
        return [c.result for c in tracer.captured(name)]

    metrics = {
        "linalg.eigensolve.self_s": (self_s.get("linalg.eigensolve", 0.0), "s"),
        "linalg.eigensolve.calls": (count("linalg.jacobi_eigh"), "count"),
        "linalg.eigensolve.dim_sum": (
            sum(c.args[0].shape[0] for c in tracer.captured("linalg.jacobi_eigh")), "count"
        ),
        "linalg.kmeans.self_s": (self_s.get("linalg.kmeans", 0.0), "s"),
        "linalg.kmeans.calls": (count("linalg.kmeans"), "count"),
        "spectral.similarity.self_s": (self_s.get("spectral.similarity", 0.0), "s"),
        "spectral.similarity.nnz": (
            sum(int(np.count_nonzero(s)) for s in results("spectral.build_similarity_matrix")),
            "count",
        ),
        "spectral.knn_graph.self_s": (self_s.get("spectral.knn_graph", 0.0), "s"),
        "spectral.other.self_s": (self_s.get("spectral.other", 0.0), "s"),
        "splitting.split.self_s": (self_s.get("splitting.split", 0.0), "s"),
        "splitting.mst.self_s": (self_s.get("splitting.mst", 0.0), "s"),
        "splitting.mst.calls": (count("splitting.build_mst"), "count"),
        "splitting.accepted": (
            sum(len(r[1].records) for r in results("splitting.split_all")), "count"
        ),
        "splitting.rounds": (sum(r[1].rounds for r in results("splitting.split_all")), "count"),
        "neighbors.knn.self_s": (self_s.get("neighbors.knn", 0.0), "s"),
        "neighbors.knn.calls": (count("neighbors.compute_knn"), "count"),
        "neighbors.tie_rows": (verify.tie_rows(tracer), "count"),
        "neighbors.pseudo_clusters.self_s": (self_s.get("neighbors.pseudo_clusters", 0.0), "s"),
        "neighbors.pseudo_clusters.m": (
            sum(r.m for r in results("neighbors.build_pseudo_clusters")), "count"
        ),
        "granular.balls.self_s": (self_s.get("granular.balls", 0.0), "s"),
        "granular.farthest_pair.self_s": (self_s.get("granular.farthest_pair", 0.0), "s"),
        "pipeline.calls": (count("pipeline.run_pipeline"), "count"),
        "pipeline.glue.self_s": (self_s.get("pipeline.glue", 0.0), "s"),
        "cli.sweep.self_s": (self_s.get("cli.sweep", 0.0), "s"),
        "data.normalize.self_s": (self_s.get("data.normalize", 0.0), "s"),
        "metrics.report.self_s": (self_s.get("metrics.report", 0.0), "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    for metric, peak in tracer.replay_peaks().items():
        metrics[metric] = (peak, "MB")

    print(f"setup: {setup_s:.4f} s   untraced pass: {untraced_s:.4f} s   traced pass: {traced_s:.4f} s")
    print("self time by layer (traced pass):")
    for layer, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:34s} {t:10.4f} s  {100 * t / traced_s:5.1f} %")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json"
    tracer.write(str(path), {"workload": workload.name, "seed": args.seed,
                             "untraced_pass_s": untraced_s, "traced_pass_s": traced_s})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return _result(problems, len(passes) * workload.calls_per_pass, failed, metrics)


def _check_stage_totals(tracer, spread: float) -> list[str]:
    """The splitting + spectral time by two independent clocks agrees within the run's spread.

    One total is the program's own ``meta["timings_ms"]``; the other is the
    tracer's spans around ``split_all``, ``spectral_cluster`` and
    ``propagate_labels`` made directly by ``run_pipeline``.  ``spread`` is
    the range of the run's three pass times (two untraced, one traced) over
    the fastest: with one pair alone, two passes that happened to take the
    same time left no room for the tracer's own few microseconds per call.
    """
    meta_s = sum(
        (c.result.meta["timings_ms"]["splitting"] + c.result.meta["timings_ms"]["spectral"]) / 1e3
        for c in tracer.captured("pipeline.run_pipeline")
    )
    stage_spans = ("splitting.split_all", "spectral.spectral_cluster", "spectral.propagate_labels")
    span_s = sum(
        s.duration
        for s in tracer.spans
        if s.name in stage_spans and s.parent >= 0
        and tracer.spans[s.parent].name == "pipeline.run_pipeline"
    )
    print(f"splitting + spectral: meta {meta_s:.6f} s, spans {span_s:.6f} s, "
          f"difference {abs(meta_s - span_s):.6f} s, allowed {spread * meta_s:.6f} s")
    if abs(meta_s - span_s) > spread * meta_s:
        return [f"stage totals differ: meta {meta_s:.6f} s, spans {span_s:.6f} s"]
    return []


def _result(problems, attempted, failed, metrics) -> dict:
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {float(value):14.6f} {unit}")
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    t_proc = _process_start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "microclust" / "__init__.py").is_file():
        print(f"no microclust sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    result = run(workload, args, t_proc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
