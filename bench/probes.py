"""Layer probes: spans recorded around the program's public functions.

Each probe replaces one name in one module namespace (the name other modules
call it by, e.g. ``mvkc.pipeline.kmeans``) with a wrapper that records a span:
name, start, end, parent span and an optional work quantity. Names that no
longer exist are skipped and listed, so a refactor that drops or moves a
function does not break the benchmark; its metrics then read 0. Every
replaced name is put back when the ``installed`` block exits.
"""

import functools
import importlib
import math
import os
import time
from contextlib import contextmanager


def _nnz(args, result):
    return result.nnz


def _cells(args, result):
    shape = args[0].shape
    return shape[0] * shape[1]


def _cols(args, result):
    return result.shape[1]


def _dir_bytes(args, result):
    path = args[1]
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _entropy(args, result):
    return -sum(float(x) * math.log(float(x)) for x in result.lambdas if x > 0)


# (module, attribute path in that module, span name, work quantity or None)
PROBES = (
    ("mvkc.cli", "main", "cli.main", None),
    ("mvkc.cli", "load_dataset", "data.load_dataset", None),
    ("mvkc.cli", "load_graph", "data.load_graph", _nnz),
    ("mvkc.data", "load_graph", "data.load_graph", _nnz),
    ("mvkc.data", "SparseGraph.validate", "data.validate", None),
    ("mvkc.cli", "load_features", "data.load_features", None),
    ("mvkc.data", "load_features", "data.load_features", None),
    ("mvkc.cli", "save_dataset", "data.save_dataset", _dir_bytes),
    ("mvkc.cli", "build_knn_graph", "data.build_knn_graph", None),
    ("mvkc.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("mvkc.pipeline", "propagate_cached", "propagation.propagate_cached", None),
    # inside propagate_cached: a cache read is a hit, a propagation a miss
    ("mvkc.propagation", "load_features", "propagation.cache_hit", None),
    ("mvkc.propagation", "propagate", "propagation.cache_miss", None),
    ("mvkc.pipeline", "center_columns", "linalg.center_columns", None),
    ("mvkc.pipeline", "truncated_svd", "linalg.truncated_svd", _cells),
    ("mvkc.embedding", "truncated_svd", "linalg.truncated_svd", _cells),
    ("mvkc.linalg", "randomized_svd", "linalg.randomized_svd", None),
    ("mvkc.pipeline", "fit_kernel_map", "kernels.fit_kernel_map", None),
    ("mvkc.pipeline", "apply_map", "kernels.apply_map", _cols),
    ("mvkc.pipeline", "implicit_degrees", "embedding.implicit_degrees", None),
    ("mvkc.pipeline", "degree_normalize", "embedding.degree_normalize", None),
    ("mvkc.pipeline", "spectral_embedding", "embedding.spectral_embedding", None),
    ("mvkc.pipeline", "kmeans", "kmeans.kmeans", None),
    ("mvkc.pipeline", "clusterability_trace", "weighting.clusterability_trace", None),
    ("mvkc.pipeline", "softmax_weights", "weighting.softmax_weights", _entropy),
    ("mvkc.metrics", "evaluate", "metrics.evaluate", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name, parent):
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.work = None


class Tracer:
    """Spans of one process, kept in memory. Calls are single-threaded, so
    the open spans form a stack."""

    def __init__(self):
        self.spans = []
        self.skipped = []
        self._stack = []

    def wrap(self, fn, name, work):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                try:
                    span.work = work(args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    span.work = None
            return result

        return probe


def self_times(spans):
    """Per span name: total duration minus the time covered by child spans."""
    out = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start)
        if span.parent is not None:
            out[span.parent.name] -= span.end - span.start
    return out


def counts(spans):
    out = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0) + 1
    return out


def work_sum(spans, name):
    return sum(s.work for s in spans if s.name == name and s.work is not None)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the name is gone
    return owner, attr


@contextmanager
def installed(tracer):
    """Wrap every probe that resolves; restore all of them on exit."""
    replaced = []
    try:
        for module_name, path, name, work in PROBES:
            try:
                owner, attr = _resolve(module_name, path)
            except (ImportError, AttributeError):
                if f"{module_name}.{path}" not in tracer.skipped:
                    tracer.skipped.append(f"{module_name}.{path}")
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(original, name, work))
            replaced.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
    leftover = [f"{owner.__name__}.{attr}" for owner, attr, original in replaced
                if getattr(owner, attr) is not original]
    if leftover:
        raise RuntimeError(f"probes not restored: {leftover}")
