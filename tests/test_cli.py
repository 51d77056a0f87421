import argparse
import json
import os
import re
import shutil
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import mvkc.cli
import mvkc.data
import mvkc.kernels
import mvkc.pipeline
import mvkc.workers
from mvkc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TIMEOUT,
    build_parser,
    main,
)
from mvkc.data import (
    MultiViewDataset,
    SparseGraph,
    View,
    load_dataset,
    load_graph,
    save_dataset,
    save_features,
)
from mvkc.propagation import _cache_key
from oracles import same_graph
from synth import synth_multiview, with_view, write_text_graph


@pytest.fixture
def dataset_dir(tmp_path):
    ds = synth_multiview(150, 3, 2, noise=0.05, seed=0)
    path = tmp_path / "ds"
    save_dataset(ds, path)
    return str(path)


def test_run_writes_per_run_and_aggregate(dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--f", "2",
                 "--seeds", "0,1,2,3,4", "--output", str(out)])
    assert code == EXIT_OK
    runs = sorted(p for p in os.listdir(out) if p.startswith("run_seed"))
    assert len(runs) == 5
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["n_runs"] == 5
    assert "summary" in agg
    # aggregate mean equals the arithmetic mean of per-run values exactly
    cas = [r["metrics"]["ca"] for r in agg["runs"]]
    assert agg["summary"]["ca"]["mean"] == float(np.mean(cas))
    # one labels file per run, one integer per line
    labels = (out / "labels_seed0.txt").read_text().splitlines()
    assert len(labels) == 150 and all(l.isdigit() for l in labels)
    table = (out / "aggregate.tsv").read_text()
    assert "mean±std" in table


def test_run_deterministic_across_invocations(dataset_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", dataset_dir, "--k", "3", "--f", "2",
                     "--seeds", "0,1", "--output", str(out)]) == EXIT_OK
        agg = json.loads((out / "aggregate.json").read_text())
        outs.append({k: v for k, v in agg["summary"].items() if k != "seconds"})
    assert outs[0] == outs[1]


def test_run_does_not_mutate_dataset(dataset_dir, tmp_path):
    before = {f: (os.path.getsize(os.path.join(dataset_dir, f)))
              for f in os.listdir(dataset_dir)}
    main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", "0",
          "--output", str(tmp_path / "o")])
    after = {f: (os.path.getsize(os.path.join(dataset_dir, f)))
             for f in os.listdir(dataset_dir)}
    assert before == after


@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_multi_seed_run_matches_single_seed_runs(dataset_dir, tmp_path, monkeypatch,
                                                 time_limit):
    loads = []
    real_load = mvkc.cli.load_dataset
    monkeypatch.setattr(mvkc.cli, "load_dataset",
                        lambda path, **kw: loads.append(path) or real_load(path, **kw))
    lists = ["0,1,2", "2,0,1"]  # the last seed, the largest or not, takes the bases themselves
    for seeds in lists:
        assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", seeds,
                     "--output", str(tmp_path / seeds)] + time_limit) == EXIT_OK
    assert len(loads) == len(lists)  # one load serves every seed of a call
    for seed in (0, 1, 2):
        single = tmp_path / f"single{seed}"
        assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", str(seed),
                     "--output", str(single)] + time_limit) == EXIT_OK
        name = f"labels_seed{seed}.txt"
        for seeds in lists:
            assert (tmp_path / seeds / name).read_text() == (single / name).read_text()


def _failing_dataset(tmp_path, kind):
    rng = np.random.default_rng(0)
    if kind == "config":
        # propagation is requested below, but no view has a graph: the load
        # finds it, before any seed
        views = [View(rng.normal(size=(40, 4)))]
    else:
        # star graph: with "numeric" the hub sums 39 leaves of ~1e308, which
        # overflows; "linalg" features are fine, and the SVD is made to fail
        leaves = np.arange(1, 40)
        hub = np.zeros_like(leaves)
        star = SparseGraph(40, np.concatenate([hub, leaves]),
                           np.concatenate([leaves, hub]), np.ones(78))
        features = np.full((40, 4), 1e308) if kind == "numeric" else rng.normal(size=(40, 4))
        views = [View(features, star)]
    path = tmp_path / kind
    save_dataset(MultiViewDataset(views), path)
    return str(path)


@pytest.mark.parametrize("kind, expected", [("config", EXIT_CONFIG),
                                            ("numeric", EXIT_NUMERIC),
                                            ("linalg", EXIT_NUMERIC)])
@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_view_failure_exit_code(tmp_path, capsys, monkeypatch, kind, expected, time_limit):
    if kind == "linalg":  # a LinAlgError is a ValueError, but a numeric failure
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(mvkc.pipeline, "truncated_svd", failing_svd)
    out = tmp_path / "out"
    code = main(["run", _failing_dataset(tmp_path, kind), "--k", "2", "--f", "2",
                 "--p", "0:2", "--seeds", "0,1", "--output", str(out)] + time_limit)
    assert code == expected
    if kind == "config":
        assert "view 0" in capsys.readouterr().err
        assert not (out / "run_seed0.json").exists()
        return
    for seed in (0, 1):  # the failed seed is recorded and the next one still runs
        record = json.loads((out / f"run_seed{seed}.json").read_text())
        assert record["status"] == "Error"
        assert record["exit_code"] == expected
        assert "view 0" in record["error"]


@pytest.mark.parametrize("value", [1.0, 0.1])
def test_view_without_variance_exits_numeric(tmp_path, value):
    # centering rows of 0.1 leaves round-off (about 4e-17), not zeros
    good, const = tmp_path / "good.txt", tmp_path / "const.txt"
    np.savetxt(good, np.random.default_rng(0).normal(size=(40, 3)))
    np.savetxt(const, np.full((40, 3), value))
    prepared, out = tmp_path / "prepared", tmp_path / "out"
    assert main(["prepare", "--features", str(good), str(const),
                 "--output", str(prepared)]) == EXIT_OK
    assert main(["run", str(prepared), "--k", "3", "--seeds", "0",
                 "--output", str(out)]) == EXIT_NUMERIC
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["status"] == "Error"
    assert record["error"].startswith("FloatingPointError: ") and "(view 1)" in record["error"]
    assert not (out / "labels_seed0.txt").exists()


@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_data_failure_in_the_prefix_exits_data(tmp_path, time_limit):
    ds = with_view(synth_multiview(60, 3, 1, seed=0), 0, propagation_order=1)
    path = tmp_path / "ds"
    save_dataset(ds, path)
    cache = tmp_path / "cache"
    argv = ["run", str(path), "--k", "3", "--f", "2", "--seeds", "0",
            "--cache-dir", str(cache)] + time_limit
    assert main(argv + ["--output", str(tmp_path / "warm")]) == EXIT_OK
    for entry in cache.iterdir():  # a truncated cache file no longer parses
        entry.write_bytes(entry.read_bytes()[:-8])
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == EXIT_DATA
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["status"] == "Error" and record["exit_code"] == EXIT_DATA


def test_non_finite_cache_file_exits_data_and_names_it(tmp_path, capsys):
    # a cache read builds no View, so propagate_cached checks its values
    ds = with_view(synth_multiview(60, 3, 1, seed=0), 0, propagation_order=1)
    save_dataset(ds, tmp_path / "ds")
    cache = tmp_path / "cache"
    argv = ["run", str(tmp_path / "ds"), "--k", "3", "--f", "2", "--seeds", "0",
            "--cache-dir", str(cache)]
    assert main(argv + ["--output", str(tmp_path / "warm")]) == EXIT_OK
    (entry,) = cache.iterdir()
    X = np.ones((60, 16))
    X[7, 3] = np.nan
    save_features(X, entry)
    capsys.readouterr()
    assert main(argv + ["--output", str(tmp_path / "out")]) == EXIT_DATA
    assert f"FormatError: {entry}: features contain NaN or Inf" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(60, 3), (10, 16)], ids=["columns", "rows"])
def test_cache_file_of_another_shape_exits_data_and_names_it(tmp_path, capsys, shape):
    # a finite cache array must still be the n x d of the features it stands for
    ds = with_view(synth_multiview(60, 3, 1, seed=0), 0, propagation_order=1)
    save_dataset(ds, tmp_path / "ds")
    cache = tmp_path / "cache"
    argv = ["run", str(tmp_path / "ds"), "--k", "3", "--f", "2", "--seeds", "0",
            "--cache-dir", str(cache)]
    assert main(argv + ["--output", str(tmp_path / "warm")]) == EXIT_OK
    (entry,) = cache.iterdir()
    save_features(np.random.default_rng(1).normal(size=shape), entry)
    capsys.readouterr()
    assert main(argv + ["--output", str(tmp_path / "out")]) == EXIT_DATA
    assert (f"FormatError: {entry}: cached array has shape {shape}, "
            "but the features have (60, 16)") in capsys.readouterr().err
    assert not (tmp_path / "out" / "labels_seed0.txt").exists()


def _nan_features(path, n=200, d=3):
    X = np.random.default_rng(0).normal(size=(n, d))
    X[n // 2, 1] = np.nan
    if path.suffix == ".bin":
        save_features(X, path)
    else:
        np.savetxt(path, X)


@pytest.mark.parametrize("command, name", [("run", "features_1.bin"), ("prepare", "x.bin"),
                                           ("prepare", "x.txt")],
                         ids=["run", "prepare-bin", "prepare-text"])
def test_non_finite_features_exit_data_and_name_the_file(dataset_dir, tmp_path, capsys,
                                                         command, name):
    if command == "run":
        path = Path(dataset_dir) / name
        _nan_features(path, n=150)
        argv = ["run", dataset_dir, "--k", "3", "--seeds", "0", "--output", str(tmp_path / "o")]
    else:
        path = tmp_path / name
        _nan_features(path)
        np.savetxt(tmp_path / "good.txt", np.ones((200, 3)))
        argv = ["prepare", "--features", str(tmp_path / "good.txt"), str(path),
                "--output", str(tmp_path / "o")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"FormatError: features contain NaN or Inf (view 1) ({path})" in err
    assert not (tmp_path / "o").exists()


def test_prepare_checks_the_features_before_the_knn_search(tmp_path, capsys, monkeypatch):
    calls = []
    real = mvkc.cli.build_knn_graph
    monkeypatch.setattr(mvkc.cli, "build_knn_graph",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    path = tmp_path / "x.txt"
    _nan_features(path)
    assert main(["prepare", "--features", str(path), "--add-knn", "5",
                 "--output", str(tmp_path / "prepared")]) == EXIT_DATA
    assert calls == []
    assert str(path) in capsys.readouterr().err


def test_one_finiteness_pass_per_view_whatever_the_seed_count(tmp_path, monkeypatch):
    base = synth_multiview(150, 3, 3, noise=0.05, seed=0)
    ds = MultiViewDataset([View(view.features) for view in base.views], base.labels)
    save_dataset(ds, tmp_path / "ds")
    shape = base.views[0].features.shape
    passes = []
    real = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x, *args, **kwargs: passes.append(
        np.shape(x) == shape) or real(x, *args, **kwargs))
    assert main(["run", str(tmp_path / "ds"), "--k", "3", "--seeds", "0,1,2",
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    assert sum(passes) == 3


def test_run_timeout(tmp_path):
    ds = synth_multiview(5000, 5, 2, noise=0.1, seed=0)
    path = tmp_path / "big"
    save_dataset(ds, path)
    out = tmp_path / "out"
    code = main(["run", str(path), "--k", "5", "--seeds", "0",
                 "--time-limit", "0.0001", "--output", str(out)])
    assert code == EXIT_TIMEOUT
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["status"] == "Timeout"


def _counted(monkeypatch, module, name, calls, keep=lambda *args, **kwargs: True):
    """Wrap ``module.name`` to append ``name`` to ``calls`` where ``keep`` holds."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_a_run_takes_each_views_basis_once_whatever_the_seed_count(dataset_dir, tmp_path,
                                                                   monkeypatch):
    calls = []
    _counted(monkeypatch, mvkc.pipeline, "propagate_cached", calls)
    _counted(monkeypatch, mvkc.pipeline, "center_columns", calls)
    # the feature SVD asks for f = 2 vectors; the spectral ones for f + 1
    _counted(monkeypatch, mvkc.pipeline, "truncated_svd", calls, lambda X, r, **kw: r == 2)
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--p", "0:1,1:1",
                 "--seeds", "0,1,2", "--output", str(tmp_path / "o")]) == EXIT_OK
    assert sorted(calls) == sorted(["propagate_cached", "center_columns", "truncated_svd"] * 2)


def test_the_inputs_are_released_before_the_first_seed(dataset_dir, tmp_path, monkeypatch):
    refs, alive = [], []
    for name in ("load_features", "load_graph"):
        def recorded(*args, _real=getattr(mvkc.data, name), **kwargs):
            out = _real(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out
        monkeypatch.setattr(mvkc.data, name, recorded)
    for name in ("center_columns", "apply_map"):
        monkeypatch.setattr(mvkc.pipeline, name, lambda *args, _real=getattr(mvkc.pipeline, name),
                            **kwargs: alive.append([ref() is not None for ref in refs])
                            or _real(*args, **kwargs))
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--p", "0:1,1:1",
                 "--seeds", "0,1", "--output", str(tmp_path / "o")]) == EXIT_OK
    assert len(refs) == 4  # features 0, graph 0, features 1, graph 1
    # at each view's centering, its propagated inputs and every earlier view's are gone
    assert alive[:2] == [[False, False, True, True], [False] * 4]
    assert alive[2] == [False] * 4  # the first apply_map


@pytest.mark.parametrize("seeds, alive", [
    # one seed: view v maps with the bases of the views below it released
    ("0", [[], [False], [False, False]]),
    # two seeds: seed 0 clusters a copy, so every basis lives through it; seed 1,
    # the last, gets the same three bases and then releases them
    ("0,1", [[], [True], [True, True], [True, True, True], [False, True, True, False],
             [False, False, True, False, False]]),
], ids=["one-seed", "two-seeds"])
def test_a_run_drops_each_basis_once_the_last_seed_has_mapped_it(tmp_path, monkeypatch, seeds,
                                                                 alive):
    save_dataset(synth_multiview(150, 3, 3, noise=0.05, seed=0), tmp_path / "ds")
    refs, seen = [], []

    def recorded(kind, U, **kwargs):
        seen.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(U))
        return apply_map(kind, U, **kwargs)

    apply_map = mvkc.pipeline.apply_map
    monkeypatch.setattr(mvkc.pipeline, "apply_map", recorded)
    assert main(["run", str(tmp_path / "ds"), "--k", "3", "--f", "2", "--seeds", seeds,
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    assert seen == alive


def test_a_one_seed_run_peaks_at_one_views_spectral_stage(tmp_path, monkeypatch):
    # n below the spectral stage's size rule; one core, so the kernel map's row
    # buffers do not grow with the machine. The peak is the last view's SVD: its
    # n x m factor K_nm, every view's n x t principal block and the n x (f + 1) U,
    # plus a slack of ten n-long float64 arrays for the label arrays, the degrees
    # and the run's small arrays. No basis of n x f is held by then.
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 1)
    n, k, m, n_views = 20_000, 10, 120, 3
    rng = np.random.default_rng(0)
    labels = np.arange(n) % k
    save_dataset(MultiViewDataset([View(3 * rng.normal(size=(k, 16))[labels]
                                        + rng.normal(size=(n, 16))) for _ in range(n_views)]),
                 tmp_path / "ds")
    f = k
    t = 2 * (f + 1)
    bound = 8 * n * (m + n_views * min(t, m) + f + 1) + 10 * 8 * n
    tracemalloc.start()
    try:
        assert main(["run", str(tmp_path / "ds"), "--k", str(k), "--kernel", "rbf",
                     "--kernel-components", str(m), "--seeds", "0",
                     "--output", str(tmp_path / "o")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB above {bound / 2**20:.2f} MiB"


def _slow(*args, **kwargs):
    time.sleep(60)


def test_a_prefix_past_the_time_limit_times_every_seed_out(dataset_dir, tmp_path, monkeypatch):
    entries = tmp_path / "entries"  # the forked child's calls, one line each

    def slow_propagation(*args, **kwargs):
        with open(entries, "a") as fh:
            fh.write("propagate_cached\n")
        _slow()

    monkeypatch.setattr(mvkc.pipeline, "propagate_cached", slow_propagation)
    out = tmp_path / "out"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--p", "0:1", "--seeds", "0,1,2",
                 "--time-limit", "2", "--output", str(out)]) == EXIT_TIMEOUT
    assert entries.read_text() == "propagate_cached\n"  # one prefix, not one per seed
    for seed in (0, 1, 2):
        assert json.loads((out / f"run_seed{seed}.json").read_text())["status"] == "Timeout"


@pytest.mark.parametrize("error, expected", [(ValueError, EXIT_CONFIG),
                                             (mvkc.data.FormatError, EXIT_DATA),
                                             (FloatingPointError, EXIT_NUMERIC)])
@pytest.mark.parametrize("stage", ["center_columns", "apply_map"], ids=["prefix", "seed"])
@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_a_prefix_or_seed_error_is_recorded_for_each_seed(dataset_dir, tmp_path, monkeypatch,
                                                          capsys, error, expected, stage,
                                                          time_limit):
    def failing(*args, **kwargs):
        raise error(f"{stage} failed")

    monkeypatch.setattr(mvkc.pipeline, stage, failing)
    out = tmp_path / "out"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", "0,1",
                 "--output", str(out)] + time_limit) == expected
    for seed in (0, 1):
        record = json.loads((out / f"run_seed{seed}.json").read_text())
        assert record["status"] == "Error" and record["exit_code"] == expected
        assert record["error"] == f"{error.__name__}: {stage} failed (view 0)"
    assert "run failed" in capsys.readouterr().err


def test_a_seed_past_the_time_limit_times_out(dataset_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(mvkc.pipeline, "apply_map", _slow)
    out = tmp_path / "out"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", "0",
                 "--time-limit", "3", "--output", str(out)]) == EXIT_TIMEOUT
    assert json.loads((out / "run_seed0.json").read_text())["status"] == "Timeout"


@pytest.mark.parametrize("name, who", [("view_bases", "the seed-free prefix"),
                                       ("cluster_bases", "seed 0")])
def test_a_time_limited_child_that_dies_without_a_result_is_named(dataset_dir, tmp_path,
                                                                  monkeypatch, name, who):
    monkeypatch.setattr(mvkc.cli, name, lambda *args: os._exit(9))
    with pytest.raises(RuntimeError, match=f"^{who} exited with code 9 and sent no result$"):
        main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", "0",
              "--time-limit", "30", "--output", str(tmp_path / "o")])


def test_time_limited_rbf_run_after_an_in_process_one_exits_ok(tmp_path, monkeypatch):
    # both runs map and run their spectral passes on two worker threads (n is
    # above the size rule); the in-process run leaves no pool behind for the
    # forked child of --time-limit to inherit
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 2)
    ds = synth_multiview(mvkc.workers.SPECTRAL_MIN_ROWS + 1000, 3, 2, noise=0.1, seed=0)
    assert ds.n > mvkc.kernels.ROW_BLOCK
    save_dataset(ds, tmp_path / "ds")
    argv = ["run", str(tmp_path / "ds"), "--k", "3", "--seeds", "0", "--kernel", "rbf"]
    assert main(argv + ["--output", str(tmp_path / "in")]) == EXIT_OK
    assert main(argv + ["--time-limit", "60", "--output", str(tmp_path / "forked")]) == EXIT_OK
    labels = [(tmp_path / out / "labels_seed0.txt").read_bytes() for out in ("in", "forked")]
    assert labels[1] == labels[0]


def test_run_missing_dataset_exits_data(tmp_path):
    code = main(["run", str(tmp_path / "none"), "--k", "3",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_bad_flags_exit_config(dataset_dir, tmp_path):
    code = main(["run", dataset_dir, "--k", "1", "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_config_file_and_flag_precedence(dataset_dir, tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--f=2\n--weight-mode=uniform\n")
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
                 "--weight-mode", "negated", "--output", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["config"]["f"] == 2  # from file
    assert record["config"]["weight_mode"] == "negated"  # later flag wins


def test_blank_lines_in_args_file_are_skipped(dataset_dir, tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--f=2\n\n  \n")
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "run_seed0.json").read_text())["config"]["f"] == 2


def test_partial_p_keeps_manifest_order_of_other_views(tmp_path):
    ds = with_view(synth_multiview(60, 3, 2, seed=0), 1, propagation_order=1)
    path = tmp_path / "ds"
    save_dataset(ds, path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--k", "3", "--f", "2", "--p", "0:2",
                 "--seeds", "0", "--output", str(out)]) == EXIT_OK
    config = json.loads((out / "run_seed0.json").read_text())["config"]
    assert config["propagation_orders"] == [2, 1]


def _run_config(path, out, p):
    """The hash and the config of a one-seed run's record."""
    assert main(["run", str(path), "--k", "3", "--f", "2", "--seeds", "0",
                 "--output", str(out)] + p) == EXIT_OK
    record = json.loads((out / "run_seed0.json").read_text())
    return record["config_hash"], record["config"]


def test_run_records_effective_orders_and_hashes_them(tmp_path):
    ds = with_view(synth_multiview(60, 3, 2, seed=0), 0, propagation_order=1)
    save_dataset(ds, tmp_path / "ds")
    runs = [_run_config(tmp_path / "ds", tmp_path / str(i), p)
            for i, p in enumerate([[], ["--p", "0:1"], ["--p", "1:0,0:1"], ["--p", "0:0"]])]
    assert runs[0][1]["propagation_orders"] == [1, 0]  # the manifest's, without --p
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert runs[3][1]["propagation_orders"] == [0, 0]
    assert runs[3][0] != runs[0][0]


@pytest.mark.parametrize("extra, setting", [
    (["--temperature", "0.1"], "--temperature"),  # the softmax weights' flag is gone
    (["--kernel-components", "0"], "kernel_components"),
    (["--kernel", "rbf", "--gamma", "-5"], "gamma"),
    (["--kernel", "rbf", "--kernel-components", "3"], "kernel_components"),  # f + 1 = 4
    (["--kernel", "rbf", "--kernel-components", "1"], "kernel_components"),
    (["--time-limit", "0"], "time-limit"),
    (["--time-limit", "-1"], "time-limit"),
    (["--seeds", "0,0"], "seeds"),
    (["--p", "0:1,0:2"], "--p"),
    (["--kernel", "quadratic", "--kernel-components", "7"], "kernel_components"),
    (["--f", "1"], "f >= 2"),  # the default quadratic map has f(f+1)/2 columns, not f + 1
    # the dataset has n = 150 points
    (["--kernel", "rbf", "--kernel-components", "151"], "kernel_components <= n=150"),
    (["--k", "150"], "f + 1 <= n"),  # f defaults to k
    (["--f", "2", "--k", "151"], "k <= n"),
    (["--f", "2", "--k", "4"], "--f 2 gives f + 1 = 3 spectral vectors, fewer than k=4"),
    (["--kernel", "rbf", "--gamma", "nan"], "gamma"),
    (["--kernel", "rbf", "--gamma", "inf"], "gamma"),
    (["--weight-mode", "softmax"], "--weight-mode"),  # so is its mode
    (["--kernel", "rbf", "--gamma", "0"], "gamma"),
    (["--time-limit", "inf"], "time-limit"),
    (["--time-limit", "2200000"], "time-limit"),  # above poll's 2**31 - 1 ms
    (["--kernel", "sigmoid"], "--kernel"),
    (["--kernel", "rbf", "--coef0", "1"], "--coef0"),
])
def test_meaningless_setting_fails_before_any_seed(dataset_dir, tmp_path, capsys,
                                                   extra, setting):
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(out)] + extra)
    assert code == EXIT_CONFIG
    assert setting in capsys.readouterr().err
    assert not (out / "run_seed0.json").exists()


@pytest.mark.parametrize("extra", [["--f", "5"], []])  # f defaults to k = 3
def test_run_rejects_f_above_feature_dimension(tmp_path, capsys, extra):
    ds = synth_multiview(60, 3, 2, seed=0, feature_dim=2)
    save_dataset(ds, tmp_path / "ds")
    out = tmp_path / "out"
    code = main(["run", str(tmp_path / "ds"), "--k", "3", "--seeds", "0",
                 "--output", str(out)] + extra)
    assert code == EXIT_CONFIG
    assert "--f" in capsys.readouterr().err
    assert not (out / "run_seed0.json").exists()


@pytest.mark.parametrize("command, flag, text", [
    ("run", "--p", "0"),
    ("run", "--p", "0:x"),
    ("run", "--seeds", "a"),
    ("run", "--seeds", "0,,1"),
    ("run", "--seeds", "-1"),
    ("prepare", "--p", "1;2"),
])
def test_unparsable_list_names_flag_and_text(dataset_dir, tmp_path, capsys, command, flag, text):
    out = tmp_path / "out"
    argv = ["run", dataset_dir, "--k", "3"] if command == "run" else ["prepare", "--features", "x.txt"]
    assert main(argv + [flag, text, "--output", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(text) in err
    assert not out.exists()


def test_prepare_features_only_with_knn(tmp_path):
    X = np.random.default_rng(0).normal(size=(40, 3))
    feats = tmp_path / "x.txt"
    np.savetxt(feats, X)
    out = tmp_path / "prepared"
    code = main(["prepare", "--features", str(feats), "--add-knn", "10",
                 "--self-loops", "--output", str(out)])
    assert code == EXIT_OK
    ds = load_dataset(out)
    assert ds.n_views == 2
    assert ds.views[1].graph is not None


@pytest.mark.parametrize("extra, flag", [
    (["--add-knn", "0"], "--add-knn"),
    (["--add-knn", "-1"], "--add-knn"),
    (["--self-loops"], "--self-loops"),
    (["--add-knn", "40"], "--add-knn must be >= 1 and < n=40"),
])
def test_prepare_rejects_knn_flags_that_build_nothing(tmp_path, capsys, extra, flag):
    feats = tmp_path / "x.txt"
    np.savetxt(feats, np.random.default_rng(0).normal(size=(40, 3)))
    out = tmp_path / "prepared"
    assert main(["prepare", "--features", str(feats), "--output", str(out)] + extra) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_prepare_rejects_propagation_without_any_graph(tmp_path, capsys):
    # every run of such a dataset would fail; prepare fails first and writes nothing
    feats = tmp_path / "x.txt"
    np.savetxt(feats, np.random.default_rng(0).normal(size=(40, 3)))
    out = tmp_path / "prepared"
    code = main(["prepare", "--features", str(feats), "--p", "1", "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "view 0 propagates at order 1, but the dataset has no graph" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_graph_and_features(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath, fpath = tmp_path / "g.txt", tmp_path / "x.bin"
    write_text_graph(ds.views[0].graph, gpath)
    save_features(ds.views[0].features, fpath)
    out = tmp_path / "prepared"
    code = main(["prepare", "--features", str(fpath), "--graph", str(gpath),
                 "--p", "2", "--output", str(out)])
    assert code == EXIT_OK
    back = load_dataset(out)
    assert back.n_views == 1 and back.views[0].propagation_order == 2


def test_prepared_graph_is_binary_and_equals_its_text_or_binary_source(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath, fpath = tmp_path / "g.txt", tmp_path / "x.bin"
    write_text_graph(ds.views[0].graph, gpath)
    save_features(ds.views[0].features, fpath)
    text = load_graph(gpath)
    X = ds.views[0].features
    # text input, then the binary graph that prepare wrote as input again
    for source, out in ((gpath, tmp_path / "from_text"), (tmp_path / "from_text" / "graph_0.bin",
                                                         tmp_path / "from_bin")):
        assert main(["prepare", "--features", str(fpath), "--graph", str(source),
                     "--output", str(out)]) == EXIT_OK
        assert "graph graph_0.bin " in (out / "manifest.txt").read_text()
        assert (out / "graph_0.bin").read_bytes().startswith(b"n 30 nnz ")
        prepared = load_graph(out / "graph_0.bin")
        assert same_graph(prepared, text)
        assert _cache_key(prepared, X, 2) == _cache_key(text, X, 2)


def test_legacy_text_graph_in_dataset_gives_the_labels_of_its_binary_twin(dataset_dir, tmp_path):
    legacy = tmp_path / "legacy"
    shutil.copytree(dataset_dir, legacy)
    write_text_graph(load_graph(legacy / "graph_0.bin"), legacy / "graph_0.txt")
    (legacy / "graph_0.bin").unlink()
    manifest = legacy / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("graph_0.bin", "graph_0.txt"))
    labels = []
    for path in (dataset_dir, legacy):
        out = tmp_path / f"out_{Path(path).name}"
        assert main(["run", str(path), "--k", "3", "--f", "2", "--p", "0:2", "--seeds", "0",
                     "--output", str(out)]) == EXIT_OK
        labels.append((out / "labels_seed0.txt").read_text())
    assert labels[0] == labels[1]


def _tiny_binary_graph(change=None):
    """A 150-node binary graph with edges 0-1 and 1-2 in both directions, with
    ``change`` replacing arrays or cutting (``cut``) or adding (``extra``) bytes."""
    change = change or {}
    arrays = {"indptr": [0, 1, 3] + [4] * 148, "indices": [1, 0, 2, 1], "data": [1.0] * 4,
              **change}
    payload = (np.array(arrays["indptr"], "<i8").tobytes()
               + np.array(arrays["indices"], "<i8").tobytes()
               + np.array(arrays["data"], "<f8").tobytes())
    payload = payload[:len(payload) - change.get("cut", 0)] + change.get("extra", b"")
    return b"n 150 nnz 4 symmetric 1 csr\n" + payload


@pytest.mark.parametrize("change, message", [
    ({"cut": 1}, "expected 1272 payload bytes, found 1271"),
    ({"extra": b"\0"}, "expected 1272 payload bytes, found 1273"),
    ({"indptr": [0, 1, 0] + [4] * 148}, "indptr must rise"),
    ({"indptr": [0, 1, 3] + [3] * 148}, "indptr must rise from 0 to nnz=4"),
    ({"indices": [150, 0, 2, 1]}, "out of range"),
    ({"indices": [1, 2, 2, 1]}, "duplicate"),
    ({"indices": [1, 2, 0, 1]}, "column indices fall within a row"),
    ({"indices": [1, 0, 2, 0]}, "not symmetric"),
    ({"data": [float("nan"), 1.0, 1.0, 1.0]}, "NaN or Inf"),
], ids=["truncated", "trailing-bytes", "indptr-decreases", "indptr-end-not-nnz",
        "column-out-of-range", "duplicate-entry", "row-indices-fall", "one-way-edge",
        "nan-weight"])
def test_malformed_binary_graph_exits_data_and_names_the_file(dataset_dir, tmp_path, capsys,
                                                              change, message):
    path = Path(dataset_dir) / "graph_0.bin"
    path.write_bytes(_tiny_binary_graph(change))
    # view 0 propagates, so the run reads its graph
    assert main(["run", dataset_dir, "--k", "3", "--p", "0:1", "--seeds", "0",
                 "--output", str(tmp_path / "o")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and str(path) in err


def test_tiny_binary_graph_without_defect_runs(dataset_dir, tmp_path):
    (Path(dataset_dir) / "graph_0.bin").write_bytes(_tiny_binary_graph())
    assert main(["run", dataset_dir, "--k", "3", "--p", "0:1", "--seeds", "0",
                 "--output", str(tmp_path / "o")]) == EXIT_OK


def _graph_reads(monkeypatch):
    """The paths that ``load_graph`` is called with from here on, by file name."""
    reads = []
    real = mvkc.data.load_graph
    monkeypatch.setattr(mvkc.data, "load_graph",
                        lambda path, n_rows: reads.append(Path(path).name) or real(path, n_rows))
    return reads


def test_run_without_propagation_reads_no_graph(dataset_dir, tmp_path, monkeypatch):
    reads = _graph_reads(monkeypatch)
    assert main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o1")]) == EXIT_OK
    assert reads == []
    # a graph the run does not read may be malformed
    (Path(dataset_dir) / "graph_0.bin").write_bytes(_tiny_binary_graph({"cut": 1}))
    (Path(dataset_dir) / "graph_1.bin").write_bytes(b"not a graph\n")
    assert main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o2")]) == EXIT_OK
    assert reads == []


@pytest.mark.parametrize("orders, expected", [
    ("0:1", ["graph_0.bin"]),
    ("1:2", ["graph_1.bin"]),
    ("0:1,1:1", ["graph_0.bin", "graph_1.bin"]),
    ("0:0", []),
])
def test_run_reads_the_graphs_of_propagating_views(dataset_dir, tmp_path, monkeypatch,
                                                    orders, expected):
    reads = _graph_reads(monkeypatch)
    assert main(["run", dataset_dir, "--k", "3", "--p", orders, "--seeds", "0",
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    assert reads == expected


def test_view_propagating_without_a_graph_reads_only_the_first(tmp_path, monkeypatch):
    ds = with_view(synth_multiview(150, 3, 3, noise=0.05, seed=0), 2, graph=None)
    save_dataset(ds, tmp_path / "ds")
    reads = _graph_reads(monkeypatch)
    assert main(["run", str(tmp_path / "ds"), "--k", "3", "--p", "2:1", "--seeds", "0",
                 "--output", str(tmp_path / "o")]) == EXIT_OK
    assert reads == ["graph_0.bin"]


@pytest.mark.parametrize("p", [[], ["--p", "0:1"]])
def test_missing_graph_file_exits_data_whether_read_or_not(dataset_dir, tmp_path, capsys, p):
    (Path(dataset_dir) / "graph_1.bin").unlink()
    assert main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o")] + p) == EXIT_DATA
    assert "graph_1.bin" in capsys.readouterr().err


def test_prepare_mismatched_sizes(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath, fpath = tmp_path / "g.txt", tmp_path / "x.bin"
    write_text_graph(ds.views[0].graph, gpath)
    save_features(np.zeros((10, 2)), fpath)
    code = main(["prepare", "--features", str(fpath), "--graph", str(gpath),
                 "--output", str(tmp_path / "prepared")])
    assert code in (EXIT_DATA, EXIT_CONFIG)


@pytest.mark.parametrize("csr", ["", " csr"], ids=["text", "binary"])
def test_graph_header_n_is_checked_against_the_features_before_the_graph_is_built(
        dataset_dir, tmp_path, capsys, csr):
    # numpy refuses arrays of 2^60 values without allocating; the header is
    # rejected before any is asked for
    header = f"n {2**60} nnz 0 symmetric 1{csr}\n"
    fpath, gpath = tmp_path / "x.bin", tmp_path / "g.txt"
    save_features(np.ones((4, 2)), fpath)
    gpath.write_text(header)
    path = Path(dataset_dir) / "graph_0.bin"
    path.write_text(header)
    for command, named in [(["prepare", "--features", str(fpath), "--graph", str(gpath),
                             "--output", str(tmp_path / "prepared")], gpath),
                           (["run", dataset_dir, "--k", "3", "--p", "0:1", "--seeds", "0",
                             "--output", str(tmp_path / "o")], path)]:
        assert main(command) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"SizeMismatchError: {named}: graph has n={2**60}" in err


def test_eval_command(tmp_path, capsys):
    pred, truth = tmp_path / "p.txt", tmp_path / "t.txt"
    pred.write_text("0\n0\n1\n1\n")
    truth.write_text("1\n1\n0\n0\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["ca"] == 1.0 and out["ari"] == 1.0



def test_eval_length_mismatch_exits_data(tmp_path, capsys):
    pred, truth = tmp_path / "p.txt", tmp_path / "t.txt"
    pred.write_text("0\n1\n")
    truth.write_text("0\n1\n1\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "SizeMismatchError" in err
    assert all(part in err for part in (str(pred), str(truth), "2", "3"))


def test_prepare_rejects_non_finite_graph_weights(tmp_path):
    fpath, gpath = tmp_path / "x.bin", tmp_path / "g.txt"
    save_features(np.ones((3, 2)), fpath)
    gpath.write_text("n 3 nnz 2 symmetric 1\n0 1 inf\n1 0 inf\n")
    code = main(["prepare", "--features", str(fpath), "--graph", str(gpath),
                 "--output", str(tmp_path / "prepared")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("extra", [
    ["--p", "0"],  # one order for two feature files
    ["--p", "0,0,0"],  # three orders for two feature files
    ["--graph", "none", "none", "none"],  # three graphs for two feature files
])
def test_prepare_rejects_counts_that_drop_views(tmp_path, extra):
    paths = []
    for name in ("a.bin", "b.bin"):
        save_features(np.ones((5, 2)), tmp_path / name)
        paths.append(str(tmp_path / name))
    out = tmp_path / "prepared"
    code = main(["prepare", "--features", *paths, "--output", str(out)] + extra)
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_run_rejects_p_for_missing_view(dataset_dir, tmp_path, capsys):
    code = main(["run", dataset_dir, "--k", "3", "--p", "5:2", "--seeds", "0",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "--p" in capsys.readouterr().err
    assert not (tmp_path / "o" / "run_seed0.json").exists()


def test_run_rejects_unknown_config_key(dataset_dir, tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--temprature=5.0\n")
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_prepare_pads_short_graph_list(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath = tmp_path / "g.txt"
    write_text_graph(ds.views[0].graph, gpath)
    paths = []
    for name in ("a.bin", "b.bin"):
        save_features(ds.views[0].features, tmp_path / name)
        paths.append(str(tmp_path / name))
    out = tmp_path / "prepared"
    assert main(["prepare", "--features", *paths, "--graph", str(gpath),
                 "--output", str(out)]) == EXIT_OK
    back = load_dataset(out)
    assert back.n_views == 2 and back.views[1].graph is None


def test_missing_args_file_exits_config(dataset_dir, tmp_path, capsys):
    code = main(["run", dataset_dir, "--k", "2", f"@{tmp_path / 'nope.args'}",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nope.args" in err and "Traceback" not in err


def test_run_config_uses_the_names_users_type(dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--kernel", "rbf",
                 "--gamma", "0.5", "--kernel-components", "20", "--weight-mode", "negated",
                 "--seeds", "0", "--output", str(out)]) == EXIT_OK
    config = json.loads((out / "run_seed0.json").read_text())["config"]
    assert config["kernel"] == "rbf" and config["weight_mode"] == "negated"
    assert config["gamma"] == 0.5


@pytest.mark.parametrize("extra", [
    ["--gamma", "5"],  # the default kernel is quadratic
    ["--kernel", "quadratic", "--gamma", "5"],
])
def test_run_rejects_kernel_parameter_the_kernel_does_not_read(dataset_dir, tmp_path, extra):
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o")] + extra)
    assert code == EXIT_CONFIG


def test_negative_propagation_order(dataset_dir, tmp_path):
    fpath = tmp_path / "x.bin"
    save_features(np.ones((5, 2)), fpath)
    out = tmp_path / "prepared"
    assert main(["prepare", "--features", str(fpath), "--p", "-1",
                 "--output", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert main(["run", dataset_dir, "--k", "3", "--p", "0:-1", "--seeds", "0",
                 "--output", str(tmp_path / "o1")]) == EXIT_CONFIG
    manifest = Path(dataset_dir) / "manifest.txt"
    manifest.write_text(re.sub(r" p 0\n", " p -1\n", manifest.read_text(), count=1))
    assert main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o2")]) == EXIT_DATA


@pytest.mark.parametrize("argv, error", [
    (["run", "{ds}", "--k", "3", "--seeds", "0", "--output", "{file}/x"], "NotADirectoryError"),
    (["run", "{ds}", "--k", "3", "--seeds", "0", "--p", "0:1", "--cache-dir", "{file}",
      "--output", "{out}"], "FileExistsError"),
    (["prepare", "--features", "{ds}/features_0.bin", "--output", "{file}/x"],
     "NotADirectoryError"),
])
def test_io_error_exits_data(dataset_dir, tmp_path, capsys, argv, error):
    # a path below a regular file fails whatever the permissions, as root too
    regular = tmp_path / "regular"
    regular.write_text("")
    paths = {"ds": dataset_dir, "file": str(regular), "out": str(tmp_path / "out")}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_DATA
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("argv, content", [
    (["eval", "--pred", "BAD", "--truth", "LABELS"], None),
    (["eval", "--pred", "LABELS", "--truth", "BAD"], "x\n0\n1\n1\n"),
    (["prepare", "--features", "FEATURES", "--labels", "BAD"], None),
    (["prepare", "--features", "FEATURES", "--labels", "BAD"], "x\n0\n1\n1\n"),
    (["prepare", "--features", "FEATURES", "--labels", "BAD"], "0 1\n0 1\n1 0\n1 0\n"),
    (["prepare", "--features", "BAD"], None),  # text features
    (["prepare", "--features", "BAD"], "1 2\n3\n"),
    (["prepare", "--features", "FEATURES", "--graph", "BAD"],
     "n 4 nnz 1 symmetric 0\n0 1 abc\n"),
    (["prepare", "--features", "FEATURES", "--graph", "BAD"],
     "n 4 nnz 1 symmetric 0\n1.5 0 1.0\n"),
    (["prepare", "--features", "FEATURES", "--graph", "BAD"], "n -1 nnz 0 symmetric 0\n"),
    (["prepare", "--features", "FEATURES", "--graph", "BAD"], "n 4 nnz -1 symmetric 0\n"),
    (["prepare", "--features", "FEATURES", "--graph", "BAD"], "n 4 nnz 0 symmetric 7\n"),
    (["eval", "--pred", "BAD", "--truth", "LABELS"], ""),
    (["prepare", "--features", "BAD"], ""),
], ids=["eval-missing-pred", "eval-truth-x", "prepare-missing-labels", "prepare-labels-x",
        "prepare-labels-two-columns", "prepare-missing-text-features",
        "prepare-ragged-text-features", "prepare-graph-weight-abc", "prepare-graph-index-1.5",
        "prepare-graph-negative-n", "prepare-graph-negative-nnz", "prepare-graph-symmetric-7",
        "eval-empty-pred", "prepare-empty-text-features"])
@pytest.mark.filterwarnings("error")  # no numpy warning may reach stderr
def test_missing_or_malformed_input_file_exits_data(tmp_path, capsys, argv, content):
    bad, labels, features = tmp_path / "bad.txt", tmp_path / "y.txt", tmp_path / "x.bin"
    if content is not None:
        bad.write_text(content)
    labels.write_text("0\n0\n1\n1\n")
    save_features(np.ones((4, 2)), features)
    paths = {"BAD": str(bad), "LABELS": str(labels), "FEATURES": str(features)}
    argv = [paths.get(arg, arg) for arg in argv]
    if argv[0] == "prepare":
        argv += ["--output", str(tmp_path / "prepared")]
    assert main(argv) == EXIT_DATA
    assert "bad.txt" in capsys.readouterr().err


@pytest.mark.parametrize("entry, old, new", [
    ("labels.txt", r"(?s).+", "x\n"),
    ("manifest.txt", r" p 0\n", " p two\n"),  # a propagation order that is not an integer
    ("manifest.txt", r"labels labels.txt", "labels"),
    ("manifest.txt", r"view 0 ", "view 7 "),
], ids=["labels-x", "manifest-p-two", "manifest-labels-without-file", "manifest-view-index-7"])
def test_malformed_dataset_file_exits_data(dataset_dir, tmp_path, entry, old, new):
    path = Path(dataset_dir) / entry
    path.write_text(re.sub(old, new, path.read_text(), count=1))
    assert main(["run", dataset_dir, "--k", "3", "--seeds", "0",
                 "--output", str(tmp_path / "o")]) == EXIT_DATA


def test_readme_names_every_flag_and_no_other():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", cli_section))
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = {option for parser in subparsers.choices.values()
             for action in parser._actions for option in action.option_strings
             if option.startswith("--") and option != "--help"}
    assert sorted(flags - documented) == []
    assert sorted(documented - flags) == []
