"""Measurement of one workload: set-up, timed runs, peak memory, traced runs.

End-to-end run (tracing off):
  1. generate the raw inputs from the workload seed;
  2. ``mvkc prepare`` at least SETUP_REPEATS times and for at least
     SETUP_SECONDS, each into a fresh directory; ``setup_s`` is the median;
  3. one untimed ``mvkc run`` of the first seed, in a child process, gives
     ``peak_mb``; on graph-p2 it also fills the propagation cache;
  4. ``mvkc run <dir> --seeds <s>`` for every seed of the workload's fixed
     list, then round-robin until ``--seconds`` have passed; ``run_s`` is the
     median call time and ``ari`` the mean ARI over the list against the
     planted labels.
Traced run: one traced prepare, one traced cold run (fresh cache), then
alternating untraced and traced runs; the per-layer numbers are medians over
the warm traced calls, and their cost is compared with the untraced calls.

Every prepare and run is checked; a nonzero exit code, a missing or malformed
output, or labels that differ between two calls of one seed count as failed.
"""

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import subprocess
import time
import traceback

import numpy as np
import scipy

import probes
from workloads import WORKLOADS, generate

SETUP_REPEATS = 3  # at least this many prepares,
SETUP_SECONDS = 2.0  # and more while together they took less than this
PEAK_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak.py")
CHILD_TIMEOUT_S = 150

# Per-layer metrics. A metric's time is the summed self time of its spans.
LAYER_TIMES = {
    "data.load_dataset.s": ("data.load_dataset",),
    "data.load_graph.s": ("data.load_graph",),
    "data.validate.s": ("data.validate",),
    "data.load_features.s": ("data.load_features",),
    "propagation.propagate_cached.s": ("propagation.propagate_cached",
                                       "propagation.cache_hit", "propagation.cache_miss"),
    "linalg.center_columns.s": ("linalg.center_columns",),
    "linalg.truncated_svd.s": ("linalg.truncated_svd", "linalg.randomized_svd"),
    "kernels.fit_kernel_map.s": ("kernels.fit_kernel_map",),
    "kernels.apply_map.s": ("kernels.apply_map",),
    "embedding.implicit_degrees.s": ("embedding.implicit_degrees",),
    "embedding.degree_normalize.s": ("embedding.degree_normalize",),
    "embedding.spectral_embedding.s": ("embedding.spectral_embedding",),
    "kmeans.kmeans.s": ("kmeans.kmeans",),
    "weighting.clusterability_trace.s": ("weighting.clusterability_trace",),
    "weighting.softmax_weights.s": ("weighting.softmax_weights",),
    "pipeline.run_pipeline.self_s": ("pipeline.run_pipeline",),
    "metrics.evaluate.s": ("metrics.evaluate",),
    "cli.main.self_s": ("cli.main",),
}
# Counts per run call; each must read the same on every call.
LAYER_COUNTS = {
    "data.load_dataset.calls": ("calls", "data.load_dataset"),
    "data.validate.calls": ("calls", "data.validate"),
    "linalg.truncated_svd.calls": ("calls", "linalg.truncated_svd"),
    "linalg.randomized_svd.calls": ("calls", "linalg.randomized_svd"),
    "kmeans.kmeans.calls": ("calls", "kmeans.kmeans"),
    "data.load_graph.edges": ("work", "data.load_graph"),
    "linalg.truncated_svd.cells": ("work", "linalg.truncated_svd"),
    "kernels.apply_map.cols": ("work", "kernels.apply_map"),
}
# Counts on graph-p2 at the commit of baseline.json: reported, so a change
# shows, but a different value is not a failure.
BASELINE_COUNTS = {
    "graph-p2": {"data.load_dataset.calls": 2, "data.validate.calls": 8,
                 "propagation.cache_hit_ratio": 1.0, "first_call_cache_hits": 0},
}


class CheckFailed(Exception):
    pass


def ari(pred, truth):
    """Adjusted Rand index from the contingency table."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(table, (p, t), 1.0)
    pairs = lambda x: float((x * (x - 1) / 2.0).sum())
    sum_ij, sum_a, sum_b = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sum_a * sum_b / (len(pred) * (len(pred) - 1) / 2.0)
    top = 0.5 * (sum_a + sum_b) - expected
    return 1.0 if top == 0 else (sum_ij - expected) / top


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _git_revision(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (no .git)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def _blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy loaded."""
    out = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment(root):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": _git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Session:
    """One workload, one seed: runs CLI calls in-process and checks them."""

    def __init__(self, workload, seed, work, src):
        from mvkc import cli  # imported after run.py put src/ on the path

        self.cli = cli
        self.src = src
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.label_digests = {}
        self.aris = {}
        self.prepare_argv, self.truth, self.inputs_digest = generate(
            workload, seed, os.path.join(work, "inputs"))
        self.dataset = os.path.join(work, "dataset")
        self.cache = os.path.join(work, "cache")
        self.out = os.path.join(work, "out")
        self.seeds = range(workload.run_seeds)

    def _call(self, argv):
        """Time one ``mvkc.cli.main`` call; its printed output is discarded."""
        gc.collect()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            return f"raised {traceback.format_exc(limit=-1).strip()}", time.perf_counter() - start
        return code, time.perf_counter() - start

    def _record(self, what, check):
        self.attempted += 1
        try:
            check()
        except CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
            return False
        return True

    def prepare(self):
        """One timed prepare into a fresh dataset directory; None if it failed."""
        shutil.rmtree(self.dataset, ignore_errors=True)
        code, seconds = self._call(self.prepare_argv + ["--output", self.dataset])
        ok = self._record("prepare", lambda: self._check_prepared(code))
        return seconds if ok else None

    def _check_prepared(self, code):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        manifest = os.path.join(self.dataset, "manifest.txt")
        if not os.path.isfile(manifest):
            raise CheckFailed("manifest.txt missing")
        with open(manifest) as fh:
            entries = [line.split() for line in fh if line.strip()]
        views = [e for e in entries if e[0] == "view"]
        if len(views) != self.wl.prepared_views:
            raise CheckFailed(f"{len(views)} views, expected {self.wl.prepared_views}")
        for entry in entries:
            named = [entry[i + 1] for i, key in enumerate(entry[:-1])
                     if key in ("graph", "features", "labels")]
            for name in named:
                if name != "none" and not os.path.isfile(os.path.join(self.dataset, name)):
                    raise CheckFailed(f"{name} missing")

    def _run_argv(self, seed):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", self.dataset, "--k", str(self.wl.k), "--seeds", str(seed),
                "--output", self.out]
        return argv + [a.replace("{cache}", self.cache) for a in self.wl.run_args]

    def run(self, seed):
        """One timed ``mvkc run`` of one seed; None if it failed."""
        code, seconds = self._call(self._run_argv(seed))
        ok = self._record(f"run seed {seed}", lambda: self._check_run(code, seed))
        return seconds if ok else None

    def peak_run(self, seed):
        """Peak resident memory growth (MB) of one untimed run in a child
        process; None if it failed."""
        argv = [sys.executable, PEAK_SCRIPT, self.src, *self._run_argv(seed)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            proc = subprocess.CompletedProcess(argv, "timeout", "", f"over {CHILD_TIMEOUT_S} s")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            code = report["code"]
        except (IndexError, ValueError, KeyError, TypeError):
            report, code = None, f"{proc.returncode}: {proc.stderr.strip()[-300:]}"
        ok = self._record(f"peak run seed {seed}", lambda: self._check_run(code, seed))
        if not ok:
            return None
        return (report["after_kib"] - report["before_kib"]) * 1024 / 1e6

    def _check_run(self, code, seed):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        record_path = os.path.join(self.out, f"run_seed{seed}.json")
        labels_path = os.path.join(self.out, f"labels_seed{seed}.txt")
        for path in (record_path, labels_path):
            if not os.path.isfile(path):
                raise CheckFailed(f"{os.path.basename(path)} missing")
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"run JSON malformed: {exc}") from None
        if record.get("status") != "ok":
            raise CheckFailed(f"run JSON status {record.get('status')!r}")
        with open(labels_path) as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if len(lines) != self.wl.n:
            raise CheckFailed(f"{len(lines)} label lines, expected {self.wl.n}")
        try:
            labels = np.array([int(x) for x in lines], dtype=np.int64)
        except ValueError:
            raise CheckFailed("labels file holds a non-integer line") from None
        distinct = len(np.unique(labels))
        if distinct != self.wl.k:
            raise CheckFailed(f"{distinct} distinct labels, expected {self.wl.k}")
        score = ari(labels, self.truth)
        reported = record.get("metrics", {}).get("ari")
        if reported is None or abs(reported - score) > 1e-9:
            raise CheckFailed(f"run JSON ari {reported} differs from {score}")
        digest = sha256_file(labels_path)
        if self.label_digests.setdefault(seed, digest) != digest:
            raise CheckFailed("labels differ from an earlier call with the same seed")
        self.aris.setdefault(seed, score)


def _median(values):
    return statistics.median(values) if values else 0.0


def _repeat(min_calls, seconds, call):
    """call(0), call(1), ... at least ``min_calls`` times and until
    ``seconds`` have passed; returns the results."""
    results = []
    start = time.perf_counter()
    while len(results) < min_calls or time.perf_counter() - start < seconds:
        results.append(call(len(results)))
    return results


def end_to_end(session, seconds):
    setup = _repeat(SETUP_REPEATS, SETUP_SECONDS, lambda _: session.prepare())
    setup = [t for t in setup if t is not None]
    peak = session.peak_run(session.seeds[0])
    # every seed once, then round-robin until the time is up
    times = _repeat(len(session.seeds), seconds,
                    lambda i: session.run(session.seeds[i % len(session.seeds)]))
    times = [t for t in times if t is not None]

    metrics = {
        "setup_s": (_median(setup), "s"),
        "run_s": (_median(times), "s"),
        "peak_mb": (peak or 0.0, "MB"),
        "ari": (statistics.fmean(session.aris[s] for s in session.seeds if s in session.aris)
                if session.aris else 0.0, "ratio"),
    }
    samples = {"setup_s": len(setup), "run_s": len(times),
               "peak_mb": int(peak is not None), "ari": len(session.aris)}
    return metrics, samples, {"setup_s_samples": setup, "run_s_samples": times}


def _per_call(spans):
    """Self times, call counts and work sums of one CLI call's spans."""
    self_s = probes.self_times(spans)
    calls = probes.counts(spans)
    return {
        "times": {m: sum(self_s.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()},
        "counts": {m: (calls.get(n, 0) if kind == "calls" else probes.work_sum(spans, n))
                   for m, (kind, n) in LAYER_COUNTS.items()},
        "hits": calls.get("propagation.cache_hit", 0),
        "misses": calls.get("propagation.cache_miss", 0),
        "entropy": [s.work for s in spans
                    if s.name == "weighting.softmax_weights" and s.work is not None],
    }


def traced(session, seconds):
    tracer = probes.Tracer()
    shutil.rmtree(session.cache, ignore_errors=True)
    problems = []

    def traced_call(fn, *args):
        first = len(tracer.spans)
        with probes.installed(tracer):
            result = fn(*args)
        return result, tracer.spans[first:]

    _, prep_spans = traced_call(session.prepare)
    prep_self = probes.self_times(prep_spans)
    _, cold_spans = traced_call(session.run, session.seeds[0])
    cold = _per_call(cold_spans)

    plain, timed, warm = [], [], []

    def pair(i):
        seed = session.seeds[i % len(session.seeds)]
        # alternate which side goes first so drift hits both equally
        for with_probes in ((False, True) if i % 2 == 0 else (True, False)):
            if with_probes:
                t, spans = traced_call(session.run, seed)
                warm.append(_per_call(spans))
                if t is not None:
                    timed.append(t)
            else:
                t = session.run(seed)
                if t is not None:
                    plain.append(t)

    _repeat(2, seconds, pair)

    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = (_median([c["times"][name] for c in warm]), "s")
    for name in LAYER_COUNTS:
        seen = {c["counts"][name] for c in [cold] + warm}
        if len(seen) > 1:
            problems.append(f"{name} differs between calls: {sorted(seen)}")
        metrics[name] = (cold["counts"][name], "count")
    metrics["data.save_dataset.s"] = (prep_self.get("data.save_dataset", 0.0), "s")
    metrics["data.save_dataset.bytes"] = (probes.work_sum(prep_spans, "data.save_dataset"), "bytes")
    metrics["data.build_knn_graph.s"] = (prep_self.get("data.build_knn_graph", 0.0), "s")
    hits = sum(c["hits"] for c in warm)
    lookups = hits + sum(c["misses"] for c in warm)
    metrics["propagation.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    entropies = [e for c in warm for e in c["entropy"]]
    metrics["weighting.entropy"] = (statistics.fmean(entropies) if entropies else 0.0, "nats")
    overhead = _median(timed) / _median(plain) - 1.0 if plain and timed else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    observed = {
        "data.load_dataset.calls": metrics["data.load_dataset.calls"][0],
        "data.validate.calls": metrics["data.validate.calls"][0],
        "propagation.cache_hit_ratio": metrics["propagation.cache_hit_ratio"][0],
        "first_call_cache_hits": cold["hits"],
    }
    sanity = {name: {"baseline": want, "observed": observed[name]}
              for name, want in BASELINE_COUNTS.get(session.wl.name, {}).items()}
    samples = {"traced_runs": len(timed), "untraced_runs": len(plain), "traced_prepares": 1}
    extra = {"skipped_probes": tracer.skipped, "sanity_counts": sanity,
             "probe_problems": problems,
             "traced_run_s": _median(timed), "untraced_run_s": _median(plain)}
    return metrics, samples, extra


def run_workload(name, seed, seconds, trace, root):
    """Measure one workload and print its details line and result line."""
    from mvkc import cli

    src = os.path.join(root, "src")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"mvkc imported from {cli.__file__}, not from {src}")
    workload = WORKLOADS[name]
    work = os.path.join(root, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        session = Session(workload, seed, work, src)
        mode = traced if trace else end_to_end
        metrics, samples, extra = mode(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    failed = len(session.failures)
    problems = extra.get("probe_problems", [])
    correct = failed == 0 and not problems
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(root),
        "inputs_sha256": session.inputs_digest,
        "labels_sha256": {str(s): d for s, d in sorted(session.label_digests.items())},
        "ari_per_seed": {str(s): a for s, a in sorted(session.aris.items())},
        "samples": samples,
        "error_rate": f"{failed}/{session.attempted}",
        "failures": session.failures,
        **extra,
    }
    for metric, (value, unit) in metrics.items():
        print(f"# {name} {metric:34s} {value:14.6f} {unit}")
    print(f"# {name} error_rate {failed}/{session.attempted}")
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return result
