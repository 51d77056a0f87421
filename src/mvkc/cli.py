"""Command-line front end with three subcommands: ``prepare`` assembles a
dataset directory, ``run`` clusters it over seeds, ``eval`` scores labels.

Exit codes: 0 ok, 2 config error, 3 data error, 4 timeout, 5 numeric failure.
A setting that would be ignored is a config error: a ``--p`` entry for a view
the dataset lacks, an unknown ``--config`` key, or ``prepare`` counts of
``--p`` orders and ``--graph`` entries that do not fit the feature files.
"""

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import time

import numpy as np

from . import metrics
from .data import (
    DataError,
    MultiViewDataset,
    View,
    build_knn_graph,
    load_dataset,
    load_features,
    load_graph,
    save_dataset,
)
from .pipeline import PipelineConfig, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TIMEOUT = 4
EXIT_NUMERIC = 5
ERROR_LABELS = {EXIT_CONFIG: "config error", EXIT_DATA: "data error",
                EXIT_NUMERIC: "numeric failure"}

KERNEL_ALIASES = {
    "quadratic": "quadratic_exact",
    "rbf": "rbf_nystroem",
    "sigmoid": "sigmoid_nystroem",
}
WEIGHT_ALIASES = {"softmax": "softmax", "uniform": "uniform", "negated": "negated_softmax"}
# the names _build_config reads; a --config file may hold no other key
CONFIG_KEYS = ("k", "f", "temperature", "kernel", "kernel_components", "gamma",
               "coef0", "p", "weight_mode", "cache_dir")


def _parse_p(text):
    # "0:2,1:0" -> {0: 2, 1: 0}
    out = {}
    for item in text.split(","):
        view, order = item.split(":")
        out[int(view)] = int(order)
    return out


def _build_config(args, n_views):
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {unknown}")

    def pick(name, default=None):
        val = getattr(args, name, None)
        if val is not None:
            return val
        return file_cfg.get(name, default)

    kernel = pick("kernel", "quadratic")
    weight_mode = pick("weight_mode", "softmax")
    params = {}
    if pick("gamma") is not None:
        params["gamma"] = float(pick("gamma"))
    if pick("coef0") is not None:
        params["intercept"] = float(pick("coef0"))
    orders = None
    p_spec = pick("p")
    if p_spec is not None:
        mapping = _parse_p(p_spec) if isinstance(p_spec, str) else {int(k): v for k, v in p_spec.items()}
        missing = sorted(set(mapping) - set(range(n_views)))
        if missing:
            raise ValueError(f"--p names views {missing}, but the dataset has {n_views} views")
        orders = [mapping.get(v, 0) for v in range(n_views)]
    return PipelineConfig(
        k=int(pick("k")),
        f=None if pick("f") is None else int(pick("f")),
        temperature=float(pick("temperature", 0.1)),
        kernel=KERNEL_ALIASES.get(kernel, kernel),
        kernel_components=None if pick("kernel_components") is None else int(pick("kernel_components")),
        kernel_params=params,
        weight_mode=WEIGHT_ALIASES.get(weight_mode, weight_mode),
        propagation_orders=orders,
        cache_dir=pick("cache_dir"),
    )


def _exit_code(exc):
    """Documented exit code for an exception class, or None for a program bug."""
    if isinstance(exc, DataError):
        return EXIT_DATA
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return EXIT_CONFIG
    if isinstance(exc, (FloatingPointError, np.linalg.LinAlgError)):
        return EXIT_NUMERIC
    return None


def _describe(exc):
    notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
    return f"{type(exc).__name__}: {exc}{notes}"


def _run_seed(dataset, config):
    """One seeded run as a JSON-ready payload; a mapped failure becomes an error entry."""
    start = time.perf_counter()
    try:
        result = run_pipeline(dataset, config)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return {"error": _describe(exc), "exit_code": code}
    return {
        "labels": result.consensus.labels.tolist(),
        "weights": result.weights.lambdas.tolist(),
        "traces": result.weights.raw_traces.tolist(),
        "timings": result.timings,
        "seconds": time.perf_counter() - start,
    }


def _run_worker(dataset, config, conn):
    try:
        conn.send(_run_seed(dataset, config))
    finally:
        conn.close()


def _single_run(dataset, config, time_limit):
    """One seeded run, optionally bounded by a wall-clock limit.

    The bounded run forks, so the child inherits the loaded dataset.
    """
    if time_limit is None:
        return _run_seed(dataset, config)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_run_worker, args=(dataset, config, child))
    proc.start()
    child.close()
    if parent.poll(time_limit):
        payload = parent.recv()
        proc.join()
        return payload
    proc.terminate()
    proc.join()
    return {"timeout": True}


def cmd_run(args):
    dataset = load_dataset(args.dataset)
    config = _build_config(args, dataset.n_views)
    seeds = [int(s) for s in args.seeds.split(",")]
    os.makedirs(args.output, exist_ok=True)

    truth = dataset.labels
    rows = []
    failure = None
    timed_out = False
    for seed in seeds:
        run_config = dataclasses.replace(config, seed=seed)
        payload = _single_run(dataset, run_config, args.time_limit)
        record = {"seed": seed, "config_hash": run_config.hash(),
                  "config": run_config.to_dict()}
        if payload.get("timeout"):
            record["status"] = "Timeout"
            timed_out = True
        elif "error" in payload:
            record["status"] = "Error"
            record["error"] = payload["error"]
            failure = failure or payload
        else:
            record["status"] = "ok"
            labels_path = os.path.join(args.output, f"labels_seed{seed}.txt")
            with open(labels_path, "w") as fh:
                fh.writelines(f"{lab}\n" for lab in payload["labels"])
            record["labels_path"] = labels_path
            record["weights"] = payload["weights"]
            record["traces"] = payload["traces"]
            record["per_stage_ms"] = {k: 1000.0 * v for k, v in payload["timings"].items()}
            record["seconds"] = payload["seconds"]
            if truth is not None:
                pred = np.array(payload["labels"])
                record["metrics"] = metrics.evaluate(pred, truth)
        with open(os.path.join(args.output, f"run_seed{seed}.json"), "w") as fh:
            json.dump(record, fh, indent=2)
        rows.append(record)

    _write_aggregate(rows, args.output)
    if failure is not None:
        print(f"run failed: {failure['error']}", file=sys.stderr)
        return failure["exit_code"]
    if timed_out:
        return EXIT_TIMEOUT
    return EXIT_OK


def _write_aggregate(rows, output):
    ok = [r for r in rows if r["status"] == "ok"]
    agg = {"n_runs": len(rows), "runs": []}
    lines = ["seed\tstatus\tCA\tCF1\tNMI\tARI\tseconds"]
    for r in rows:
        m = r.get("metrics", {})
        fmt = lambda key: f"{100 * m[key]:.2f}" if key in m else "-"
        lines.append(
            f"{r['seed']}\t{r['status']}\t{fmt('ca')}\t{fmt('cf1')}\t"
            f"{fmt('nmi')}\t{fmt('ari')}\t{r.get('seconds', float('nan')):.3f}"
        )
        agg["runs"].append({k: r.get(k) for k in
                            ("seed", "status", "metrics", "seconds", "weights", "traces")})
    if ok and "metrics" in ok[0]:
        summary = {}
        for key in ("ca", "cf1", "nmi", "ari"):
            vals = np.array([r["metrics"][key] for r in ok])
            summary[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
        secs = np.array([r["seconds"] for r in ok])
        summary["seconds"] = {"mean": float(secs.mean()), "std": float(secs.std())}
        agg["summary"] = summary
        lines.append(
            "mean±std\t\t"
            + "\t".join(
                f"{100 * summary[key]['mean']:.2f}±{100 * summary[key]['std']:.2f}"
                for key in ("ca", "cf1", "nmi", "ari")
            )
            + f"\t{summary['seconds']['mean']:.3f}±{summary['seconds']['std']:.3f}"
        )
    with open(os.path.join(output, "aggregate.json"), "w") as fh:
        json.dump(agg, fh, indent=2)
    table = "\n".join(lines)
    with open(os.path.join(output, "aggregate.tsv"), "w") as fh:
        fh.write(table + "\n")
    print(table)


def _load_feature_file(path):
    if path.endswith(".bin"):
        return load_features(path)
    return np.loadtxt(path, dtype=np.float64, ndmin=2)


def cmd_prepare(args):
    n_files = len(args.features)
    graph_paths = args.graph or []
    if len(graph_paths) > n_files:
        raise ValueError(f"{len(graph_paths)} --graph entries for {n_files} feature files")
    orders = [int(p) for p in args.p.split(",")] if args.p else [0] * n_files
    if len(orders) != n_files:
        raise ValueError(f"{len(orders)} --p orders for {n_files} feature files")
    features = [_load_feature_file(p) for p in args.features]
    # a shorter --graph list leaves the remaining views without a graph
    graphs = [None if g == "none" else load_graph(g) for g in graph_paths]
    graphs += [None] * (n_files - len(graphs))
    views = [View(X, g, propagation_order=p)
             for X, g, p in zip(features, graphs, orders)]
    if args.add_knn:
        knn = build_knn_graph(features[0], args.add_knn, self_loops=args.self_loops)
        views.append(View(features[0].copy(), knn, propagation_order=orders[0]))
    labels = None
    if args.labels:
        labels = np.loadtxt(args.labels, dtype=np.int64, ndmin=1)
    dataset = MultiViewDataset(views, labels)
    dataset.validate()
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.n_views}-view dataset with n={dataset.n} to {args.output}")
    return EXIT_OK


def cmd_eval(args):
    pred = np.loadtxt(args.pred, dtype=np.int64, ndmin=1)
    truth = np.loadtxt(args.truth, dtype=np.int64, ndmin=1)
    print(json.dumps(metrics.evaluate(pred, truth), indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="mvkc",
                                     description="Multi-view kernel clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded clustering on a dataset")
    run.add_argument("dataset")
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--f", type=int)
    run.add_argument("--temperature", type=float)
    run.add_argument("--kernel", choices=sorted(KERNEL_ALIASES))
    run.add_argument("--kernel-components", dest="kernel_components", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--coef0", type=float)
    run.add_argument("--p", help="per-view propagation orders, e.g. 0:2,1:0")
    run.add_argument("--seeds", default="0,1,2,3,4")
    run.add_argument("--weight-mode", dest="weight_mode", choices=sorted(WEIGHT_ALIASES))
    run.add_argument("--time-limit", dest="time_limit", type=float)
    run.add_argument("--cache-dir", dest="cache_dir")
    run.add_argument("--config", help="JSON config file (flags take precedence)")
    run.add_argument("--output", required=True)
    run.set_defaults(func=cmd_run)

    prepare = sub.add_parser("prepare", help="assemble a canonical dataset directory")
    prepare.add_argument("--features", nargs="+", required=True)
    prepare.add_argument("--graph", nargs="*")
    prepare.add_argument("--labels")
    prepare.add_argument("--p", help="comma-separated propagation orders, one per feature file")
    prepare.add_argument("--add-knn", dest="add_knn", type=int,
                         help="append a k-NN view built from the first feature set")
    prepare.add_argument("--self-loops", dest="self_loops", action="store_true")
    prepare.add_argument("--output", required=True)
    prepare.set_defaults(func=cmd_prepare)

    ev = sub.add_parser("eval", help="score predicted labels against ground truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"{ERROR_LABELS[code]}: {_describe(exc)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
