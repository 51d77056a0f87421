"""The benchmark's layer probes must all resolve: a probe whose name is gone
is skipped and its per-layer metrics read 0 without any error. And its traced
check must hold in-process: one seed's labels and per-call counts repeat."""

import importlib.util
import os
import threading

import pytest

import mvkc.cli
import mvkc.kernels
import mvkc.workers
from mvkc.data import MultiViewDataset, View, save_dataset
from synth import synth_multiview

PROBES_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "probes.py")

# names the benchmark still probes but the program no longer has:
# fit_kernel_map was folded into apply_map, which now times both;
# softmax_weights was deleted with the temperature softmax; kmeans was
# deleted with Lloyd, since the CPQR labels are the answer; the
# spectral_embedding wrapper was deleted, so the pipeline calls
# truncated_svd itself and the embedding module no longer imports it
EXPECTED_UNRESOLVED = {"mvkc.pipeline.fit_kernel_map", "mvkc.pipeline.softmax_weights",
                       "mvkc.pipeline.kmeans", "mvkc.pipeline.spectral_embedding",
                       "mvkc.embedding.truncated_svd"}


def _load_probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.isfile(PROBES_PATH), reason="bench/probes.py not present")
def test_every_probe_resolves():
    probes = _load_probes()
    unresolved = set()
    for module_name, path, _, _ in probes.PROBES:
        try:
            probes._resolve(module_name, path)
        except (ImportError, AttributeError):
            unresolved.add(f"{module_name}.{path}")
    assert unresolved == EXPECTED_UNRESOLVED


def _counts(probes, spans):
    """The per-call counts the benchmark's traced check requires to repeat."""
    calls = probes.counts(spans)
    return {
        "truncated_svd.calls": calls.get("linalg.truncated_svd", 0),
        "truncated_svd.cells": probes.work_sum(spans, "linalg.truncated_svd"),
        "apply_map.cols": probes.work_sum(spans, "kernels.apply_map"),
        "load_graph.edges": probes.work_sum(spans, "data.load_graph"),
    }


def _traced_calls(tmp_path, ds, extra):
    """Labels, per-call counts and propagation cache misses of three traced
    in-process calls of one seed, the first with a cold propagation cache,
    and the threads that entered a probe."""
    probes = _load_probes()
    save_dataset(ds, tmp_path / "ds")
    threads = set()

    class Tracer(probes.Tracer):
        def wrap(self, fn, name, work):
            probe = super().wrap(fn, name, work)

            def on_thread(*args, **kwargs):
                threads.add(threading.get_ident())
                return probe(*args, **kwargs)

            return on_thread

    tracer = Tracer()
    labels, counts, misses = [], [], []
    for call in range(3):
        out = tmp_path / f"out{call}"
        first = len(tracer.spans)
        with probes.installed(tracer):
            assert mvkc.cli.main(["run", str(tmp_path / "ds"), "--k", "3", "--seeds", "3",
                                  "--output", str(out)] + extra) == 0
        spans = tracer.spans[first:]
        labels.append((out / "labels_seed3.txt").read_bytes())
        counts.append(_counts(probes, spans))
        misses.append(probes.counts(spans).get("propagation.cache_miss", 0))
    return labels, counts, misses, threads


@pytest.mark.skipif(not os.path.isfile(PROBES_PATH), reason="bench/probes.py not present")
@pytest.mark.parametrize("graphs", [False, True])
def test_traced_calls_of_one_seed_repeat_labels_and_counts(tmp_path, graphs):
    # as the benchmark's traced check: three in-process calls of one seed give
    # identical labels and counts, the first with a cold propagation cache
    ds = synth_multiview(400, 3, 2 if graphs else 3, noise=0.3, seed=5)
    if graphs:
        extra = ["--p", "0:2,1:2", "--cache-dir", str(tmp_path / "cache")]
    else:
        ds = MultiViewDataset([View(view.features) for view in ds.views], ds.labels)
        extra = ["--kernel", "rbf", "--kernel-components", "40"]
    labels, counts, misses, threads = _traced_calls(tmp_path, ds, extra)
    assert threads == {threading.get_ident()}
    assert labels[1] == labels[0] and labels[2] == labels[0]
    assert misses == ([2, 0, 0] if graphs else [0, 0, 0])
    assert counts[1] == counts[0] and counts[2] == counts[0]
    assert counts[0]["truncated_svd.calls"] > 0
    assert (counts[0]["load_graph.edges"] > 0) == graphs


@pytest.mark.skipif(not os.path.isfile(PROBES_PATH), reason="bench/probes.py not present")
def test_traced_calls_repeat_when_the_nystroem_map_runs_on_worker_threads(tmp_path,
                                                                         monkeypatch):
    # n above two map blocks and above the size rule: the map's blocks and
    # the spectral stage's passes run on two worker threads, which call no
    # probed function, so the probes' spans stay on the calling thread
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 2)
    ds = synth_multiview(mvkc.workers.SPECTRAL_MIN_ROWS + 1000, 3, 2, noise=0.3, seed=5)
    assert ds.n > 2 * mvkc.kernels.ROW_BLOCK
    ds = MultiViewDataset([View(view.features) for view in ds.views], ds.labels)
    labels, counts, _, threads = _traced_calls(tmp_path, ds, ["--kernel", "rbf",
                                                              "--kernel-components", "40"])
    assert threads == {threading.get_ident()}
    assert labels[1] == labels[0] and labels[2] == labels[0]
    assert counts[1] == counts[0] and counts[2] == counts[0]
    assert counts[0]["apply_map.cols"] == 2 * 40
