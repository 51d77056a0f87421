import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import mvkc.cli
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


@pytest.mark.parametrize("time_limit", [[], ["--time-limit", "60"]])
def test_data_failure_inside_a_seed_exits_data(tmp_path, time_limit):
    ds = synth_multiview(60, 3, 1, seed=0)
    ds.views[0].propagation_order = 1
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
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--f=2\n--temperature=0.5\n")
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
                 "--temperature", "0.1", "--output", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "run_seed0.json").read_text())
    assert record["config"]["f"] == 2  # from file
    assert record["config"]["temperature"] == 0.1  # later flag wins


def test_blank_lines_in_args_file_are_skipped(dataset_dir, tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--f=2\n\n  \n")
    out = tmp_path / "out"
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "run_seed0.json").read_text())["config"]["f"] == 2


def test_partial_p_keeps_manifest_order_of_other_views(tmp_path):
    ds = synth_multiview(60, 3, 2, seed=0)
    ds.views[1].propagation_order = 1
    path = tmp_path / "ds"
    save_dataset(ds, path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--k", "3", "--f", "2", "--p", "0:2",
                 "--seeds", "0", "--output", str(out)]) == EXIT_OK
    config = json.loads((out / "run_seed0.json").read_text())["config"]
    assert config["propagation_orders"] == [2, 1]


@pytest.mark.parametrize("extra, setting", [
    (["--temperature", "0"], "temperature"),
    (["--kernel-components", "0"], "kernel_components"),
    (["--kernel", "rbf", "--gamma", "-5"], "gamma"),
    (["--kernel", "rbf", "--kernel-components", "3"], "kernel_components"),  # f + 1 = 4
    (["--kernel", "sigmoid", "--kernel-components", "1"], "kernel_components"),
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


def test_run_rejects_p_for_missing_view(dataset_dir, tmp_path):
    code = main(["run", dataset_dir, "--k", "3", "--p", "5:2", "--seeds", "0",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_run_rejects_unknown_config_key(dataset_dir, tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("--temprature=5.0\n")
    code = main(["run", dataset_dir, "--k", "3", "--seeds", "0", f"@{cfg}",
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


def test_missing_args_file_exits_config(dataset_dir, tmp_path, capsys):
    code = main(["run", dataset_dir, "--k", "2", f"@{tmp_path / 'nope.args'}",
                 "--output", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nope.args" in err and "Traceback" not in err


def test_run_config_uses_the_names_users_type(dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["run", dataset_dir, "--k", "3", "--f", "2", "--kernel", "sigmoid",
                 "--coef0", "1", "--kernel-components", "20", "--weight-mode", "negated",
                 "--seeds", "0", "--output", str(out)]) == EXIT_OK
    config = json.loads((out / "run_seed0.json").read_text())["config"]
    assert config["kernel"] == "sigmoid" and config["weight_mode"] == "negated"
    assert config["kernel_params"] == {"coef0": 1.0}


@pytest.mark.parametrize("extra", [
    ["--gamma", "5"],  # the default kernel is quadratic
    ["--kernel", "quadratic", "--gamma", "5"],
    ["--kernel", "sigmoid", "--gamma", "5"],
    ["--kernel", "rbf", "--coef0", "1"],
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
