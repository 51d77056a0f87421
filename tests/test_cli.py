import json
import os

import numpy as np
import pytest

import mvkc.cli
from mvkc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TIMEOUT,
    main,
)
from mvkc.data import (
    MultiViewDataset,
    SparseGraph,
    View,
    load_dataset,
    save_dataset,
    save_features,
    save_graph,
)
from synth import synth_multiview


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
                        lambda path: loads.append(path) or real_load(path))
    multi = tmp_path / "multi"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", "0,1,2",
                 "--output", str(multi)] + time_limit) == EXIT_OK
    assert len(loads) == 1  # one load serves every seed
    for seed in (0, 1, 2):
        single = tmp_path / f"single{seed}"
        assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--seeds", str(seed),
                     "--output", str(single)] + time_limit) == EXIT_OK
        name = f"labels_seed{seed}.txt"
        assert (multi / name).read_text() == (single / name).read_text()


def _failing_dataset(tmp_path, kind):
    rng = np.random.default_rng(0)
    if kind == "config":
        # propagation is requested below, but no view has a graph
        views = [View(rng.normal(size=(40, 4)))]
    else:
        # star graph: the hub sums 39 leaves of ~1e308, which overflows
        leaves = np.arange(1, 40)
        hub = np.zeros_like(leaves)
        star = SparseGraph(40, np.concatenate([hub, leaves]),
                           np.concatenate([leaves, hub]), np.ones(78))
        views = [View(np.full((40, 4), 1e308), star)]
    path = tmp_path / kind
    save_dataset(MultiViewDataset(views), path)
    return str(path)


@pytest.mark.parametrize("kind, expected", [("config", EXIT_CONFIG),
                                            ("numeric", EXIT_NUMERIC)])
@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_view_failure_exit_code(tmp_path, kind, expected, time_limit):
    out = tmp_path / "out"
    code = main(["run", _failing_dataset(tmp_path, kind), "--k", "2", "--f", "2",
                 "--p", "0:2", "--seeds", "0,1", "--output", str(out)] + time_limit)
    assert code == expected
    for seed in (0, 1):  # the failed seed is recorded and the next one still runs
        record = json.loads((out / f"run_seed{seed}.json").read_text())
        assert record["status"] == "Error"
        assert "view 0" in record["error"]


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


def test_run_missing_dataset_exits_data(tmp_path):
    code = main(["run", str(tmp_path / "none"), "--k", "3",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_DATA


def test_bad_flags_exit_config(dataset_dir, tmp_path):
    code = main(["run", dataset_dir, "--k", "1", "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_config_file_and_flag_precedence(dataset_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f": 2, "temperature": 0.5}))
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--temperature", "0.1",
                 "--seeds", "0", "--config", str(cfg), "--output", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["config"]["f"] == 2  # from file
    assert record["config"]["temperature"] == 0.1  # flag wins


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


def test_prepare_graph_and_features(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath, fpath = tmp_path / "g.txt", tmp_path / "x.bin"
    save_graph(ds.views[0].graph, gpath)
    save_features(ds.views[0].features, fpath)
    out = tmp_path / "prepared"
    code = main(["prepare", "--features", str(fpath), "--graph", str(gpath),
                 "--p", "2", "--output", str(out)])
    assert code == EXIT_OK
    back = load_dataset(out)
    assert back.n_views == 1 and back.views[0].propagation_order == 2


def test_prepare_mismatched_sizes(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath, fpath = tmp_path / "g.txt", tmp_path / "x.bin"
    save_graph(ds.views[0].graph, gpath)
    save_features(np.zeros((10, 2)), fpath)
    code = main(["prepare", "--features", str(fpath), "--graph", str(gpath),
                 "--output", str(tmp_path / "prepared")])
    assert code in (EXIT_DATA, EXIT_CONFIG)


def test_eval_command(tmp_path, capsys):
    pred, truth = tmp_path / "p.txt", tmp_path / "t.txt"
    pred.write_text("0\n0\n1\n1\n")
    truth.write_text("1\n1\n0\n0\n")
    assert main(["eval", "--pred", str(pred), "--truth", str(truth)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["ca"] == 1.0 and out["ari"] == 1.0



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


def test_run_rejects_p_for_missing_view(dataset_dir, tmp_path):
    code = main(["run", dataset_dir, "--k", "3", "--p", "5:2", "--seeds", "0",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_run_rejects_unknown_config_key(dataset_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"temprature": 5.0}))
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", "--config", str(cfg),
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_prepare_pads_short_graph_list(tmp_path):
    ds = synth_multiview(30, 2, 1, seed=1)
    gpath = tmp_path / "g.txt"
    save_graph(ds.views[0].graph, gpath)
    paths = []
    for name in ("a.bin", "b.bin"):
        save_features(ds.views[0].features, tmp_path / name)
        paths.append(str(tmp_path / name))
    out = tmp_path / "prepared"
    assert main(["prepare", "--features", *paths, "--graph", str(gpath),
                 "--output", str(out)]) == EXIT_OK
    back = load_dataset(out)
    assert back.n_views == 2 and back.views[1].graph is None
