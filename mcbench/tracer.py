"""Outside-in tracer: wraps microclust's public functions without editing them.

Every public function defined in the traced modules is replaced by a wrapper
under each name it is reachable by, including the names other modules
imported (``microclust.spectral.jacobi_eigh`` is the same function object as
``microclust.linalg.jacobi_eigh``).  A wrapper records one span (function,
parent span, start, end, time spent in child spans) and, for the functions
the correctness checks and counters need, keeps the call's arguments and
result.  Spans stay in memory until ``write`` dumps them.

The tracer is installed only around the traced pass and around the untimed
capture calls, never around a timed pass of an untraced run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "microclust"
TRACED_MODULES = (
    "neighbors",
    "splitting",
    "granular",
    "spectral",
    "linalg",
    "pipeline",
    "cli",
    "data",
    "metrics",
)

# Calls whose arguments and results are kept for the checks and counters.
CAPTURED = frozenset(
    {
        "neighbors.compute_knn",
        "neighbors.build_pseudo_clusters",
        "splitting.split_all",
        "splitting.split_once",
        "granular.balls_to_microclusters",
        "spectral.build_similarity_matrix",
        "spectral.knn_adjacency",
        "spectral.spectral_embedding",
        "spectral.spectral_cluster",
        "linalg.jacobi_eigh",
        "linalg.kmeans",
        "pipeline.run_pipeline",
    }
)

# Function -> layer.  A function not listed here belongs to its module's
# default layer below.
LAYER_OF = {
    "neighbors.compute_knn": "neighbors.knn",
    "splitting.build_mst": "splitting.mst",
    "granular.farthest_pair": "granular.farthest_pair",
    "spectral.build_similarity_matrix": "spectral.similarity",
    "spectral.snn_similarity": "spectral.similarity",
    "spectral.knn_adjacency": "spectral.knn_graph",
    "linalg.jacobi_eigh": "linalg.eigensolve",
    "linalg.kmeans": "linalg.kmeans",
    "cli.run_sweep": "cli.sweep",
    "data.normalize": "data.normalize",
    "data.normalize_minmax": "data.normalize",
    "data.normalize_zscore": "data.normalize",
}
MODULE_LAYER = {
    "neighbors": "neighbors.pseudo_clusters",
    "splitting": "splitting.split",
    "granular": "granular.balls",
    "spectral": "spectral.other",
    "linalg": "linalg.other",
    "pipeline": "pipeline.glue",
    "cli": "cli.other",
    "data": "data.other",
    "metrics": "metrics.report",
}

# Calls replayed under tracemalloc for the layer memory peaks.
REPLAYED = {
    "neighbors.compute_knn": "neighbors.knn.peak_mb",
    "spectral.build_similarity_matrix": "spectral.similarity.peak_mb",
    "spectral.knn_adjacency": "spectral.knn_graph.peak_mb",
}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name) or MODULE_LAYER[name.split(".", 1)[0]]


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Call:
    """A captured call: qualified name, arguments, result and its span index."""

    __slots__ = ("name", "args", "kwargs", "result", "span")

    def __init__(self, name, args, kwargs, result, span):
        self.name = name
        self.args = args
        self.kwargs = kwargs
        self.result = result
        self.span = span


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield f"{short}.{attr}", obj


class Tracer:
    """Patch microclust's public functions while installed (a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, calls, stack = self.spans, self.calls, self._stack
        capture = name in CAPTURED
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, parent)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if capture:
                calls.append(Call(name, args, kwargs, result, idx))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def __enter__(self):
        mods = [sys.modules[f"{PACKAGE}.{m}"] for m in TRACED_MODULES]
        wrappers = {}
        for mod in mods:
            for name, fn in _public_functions(mod):
                self.originals[name] = fn
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()
        return False

    # ----------------------------------------------------------------- queries

    def ancestor(self, span_idx: int, name: str) -> int:
        """Index of the nearest enclosing span of the given function, or -1."""
        idx = self.spans[span_idx].parent
        while idx >= 0 and self.spans[idx].name != name:
            idx = self.spans[idx].parent
        return idx

    def captured(self, name: str) -> list[Call]:
        return [c for c in self.calls if c.name == name]

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[layer_of(span.name)] += span.self_time
        return dict(out)

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return dict(out)

    def replay_peaks(self) -> dict[str, float]:
        """Peak traced allocation (MB) of the largest replay of each REPLAYED call.

        Runs the original functions again, untimed and unpatched, each under
        a fresh tracemalloc window.
        """
        peaks = {metric: 0.0 for metric in REPLAYED.values()}
        for call in self.calls:
            metric = REPLAYED.get(call.name)
            if metric is None:
                continue
            tracemalloc.start()
            try:
                self.originals[call.name](*call.args, **call.kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[metric] = max(peaks[metric], peak / 2**20)
        return peaks

    def write(self, path: str, extra: dict) -> None:
        """Dump every span as [name, parent, start, end, self] plus summaries."""
        t0 = self.spans[0].start if self.spans else 0.0
        payload = {
            **extra,
            "layer_self_s": self.layer_self_times(),
            "calls": self.call_counts(),
            "spans": [
                [s.name, s.parent, s.start - t0, s.end - t0, s.self_time] for s in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
