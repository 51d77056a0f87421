"""Command-line front end with three subcommands: ``prepare`` assembles a
dataset directory, ``run`` clusters it over seeds, ``eval`` scores labels.

Each ``run`` setting has one flag. An argument ``@file`` stands for the lines
of that file, one argument per line, blank lines skipped; a later argument
wins. ``--p`` overrides the manifest order of the views it names only;
``load_dataset`` applies it and parses only the graphs of views that then
propagate, though every graph file the manifest names must exist.

Exit codes: 0 ok, 2 config error, 3 data error, 4 timeout, 5 numeric failure
(a ``FloatingPointError`` or ``LinAlgError``). A missing or malformed input
file, any other ``OSError``, or ``eval`` label files of different lengths, is
a data error. A setting that would be ignored or make the run meaningless is a
config error: a ``--p`` entry for a view the dataset lacks or a view named
twice, a view that propagates when the dataset has no graph (``prepare``
checks this too, before it writes anything), ``--gamma`` or
``--kernel-components`` with ``quadratic``, a gamma that is not finite and
positive, too few ``--kernel-components``, an ``--f`` below 2 with
``quadratic`` or above a view's feature dimension, what
``PipelineConfig.check_fits`` rejects (a k, f + 1 or ``--kernel-components``
above n, f + 1 below k), ``prepare`` counts of ``--p`` orders and ``--graph``
entries that do not fit the feature files, an ``--add-knn`` below 1 or at
least n, or ``--self-loops`` without ``--add-knn``. A ``--p`` or ``--seeds``
value that does not parse, is negative or repeats a seed, a ``--kernel`` other
than ``quadratic`` or ``rbf``, a ``--weight-mode`` other than ``negated`` or
``uniform``, a ``--time-limit`` that is not positive or is above
``MAX_TIME_LIMIT`` seconds, or a flag ``run`` does not have, is an argparse
error that names the flag and shows the text.

``run`` hands the loaded views to ``pipeline.view_bases``, the part no seed
reaches, and keeps no dataset, so each view's features and graph go after
their last use; it takes the bases once, then clusters every seed from them
(``pipeline.cluster_bases``): each seed but the last from a copy of the list,
the last from the list itself, which drops each basis once its map is built.
It writes each seed's consensus labels to
``labels_seed<N>.txt`` and a ``run_seed<N>.json`` record of the fields
``_cluster_seed`` returns; its ``config`` adds the views' effective
``propagation_orders`` to the ``PipelineConfig`` fields, and ``config_hash``
hashes that ``config``. Its ``per_stage_ms.propagation`` and ``svd`` are
those of the one shared prefix, the same in every record, and its
``seconds`` are the prefix's wall time plus the seed's own, what the seed
would take alone. A prefix error is every seed's: each record reads
``Error``, with the exception's ``view <v>`` note, and the run exits with its
code. ``--time-limit`` bounds the prefix and each seed apart, each in a
forked child: a prefix past the limit makes every record read ``Timeout``.
"""

import argparse
import dataclasses
import hashlib
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
    SizeMismatchError,
    View,
    build_knn_graph,
    file_view,
    graph_sources,
    load_dataset,
    load_features,
    load_graph,
    load_labels,
    load_text,
    save_dataset,
    save_labels,
)
from .kernels import KERNEL_KINDS
from .pipeline import PipelineConfig, cluster_bases, view_bases
from .weighting import WEIGHT_MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TIMEOUT = 4
EXIT_NUMERIC = 5
ERROR_LABELS = {EXIT_CONFIG: "config error", EXIT_DATA: "data error",
                EXIT_NUMERIC: "numeric failure"}
# the wait for a time-limited run is a poll() of at most 2**31 - 1 ms
MAX_TIME_LIMIT = (2**31 - 1) // 1000


def _natural(text):
    """A non-negative integer; anything else raises ``ValueError``."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _int_list(text):
    """Comma-separated non-negative integers: "0,1,2" -> [0, 1, 2]."""
    try:
        return [_natural(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative integers, got {text!r}") from None


def _seed_list(text):
    """Distinct seeds, as ``_int_list`` parses them."""
    seeds = _int_list(text)
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"repeats a seed: {text!r}")
    return seeds


def _time_limit(text):
    """Seconds above 0 and at most ``MAX_TIME_LIMIT``."""
    if 0 < float(text) <= MAX_TIME_LIMIT:
        return float(text)
    raise argparse.ArgumentTypeError(f"must be > 0 and <= {MAX_TIME_LIMIT} s, got {text!r}")


def _view_orders(text):
    """Per-view propagation orders: "0:2,1:0" -> {0: 2, 1: 0}."""
    out = {}
    for item in text.split(","):
        try:
            view, order = (_natural(part) for part in item.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected non-negative view:order pairs such as 0:2,1:0, got {text!r}") from None
        if view in out:
            raise argparse.ArgumentTypeError(f"names view {view} twice: {text}")
        out[view] = order
    return out


def _build_config(args):
    """A ``PipelineConfig`` from the ``run`` flags given."""
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    return PipelineConfig(**{name: value for name, value in vars(args).items()
                             if name in fields and value is not None})


def _exit_code(exc):
    """Documented exit code for an exception class, or None for a program bug."""
    if isinstance(exc, (FloatingPointError, np.linalg.LinAlgError)):  # LinAlgError is a ValueError
        return EXIT_NUMERIC
    if isinstance(exc, (DataError, OSError)):
        return EXIT_DATA
    if isinstance(exc, ValueError):
        return EXIT_CONFIG
    return None


def _describe(exc):
    notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
    return f"{type(exc).__name__}: {exc}{notes}"


def _guarded(fn, *args):
    """``fn(*args)``'s fields with status ``ok``, or the ``Error`` record of
    a mapped exception; an unmapped one is raised."""
    try:
        return {"status": "ok", **fn(*args)}
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        return {"status": "Error", "error": _describe(exc), "exit_code": code}


def _bounded(time_limit, name, fn, *args):
    """``_guarded(fn, *args)``, or ``{"status": "Timeout"}`` past ``time_limit``
    seconds. A bounded call forks, so the child inherits the arguments, and
    sends its result back; a child that exits without one (an unmapped
    exception, or a crash) raises ``RuntimeError`` naming ``name`` and its
    exit code."""
    if time_limit is None:
        return _guarded(fn, *args)
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    # the child's end of the pipe closes when it exits, so a crash reads as EOF
    proc = ctx.Process(target=lambda: child.send(_guarded(fn, *args)))
    proc.start()
    child.close()
    try:
        if not parent.poll(time_limit):
            proc.terminate()
            return {"status": "Timeout"}
        try:
            return parent.recv()
        except EOFError:
            proc.join()
            raise RuntimeError(f"{name} exited with code {proc.exitcode} "
                               "and sent no result") from None
    finally:
        proc.join()
        parent.close()


def _prefix(views, config):
    """The bases of ``view_bases``, which empties ``views``, their stage
    seconds and wall seconds."""
    start = time.perf_counter()
    bases, timings = view_bases(views, config)
    return {"bases": bases, "timings": timings, "seconds": time.perf_counter() - start}


def _cluster_seed(bases, prefix, config):
    """One seeded run on ``bases``, which it empties, as the fields of its
    run JSON, plus the consensus ``labels`` array; its stage and wall seconds
    add the prefix's to its own."""
    start = time.perf_counter()
    result = cluster_bases(bases, config)
    timings = {**prefix["timings"], **result.timings}
    return {
        "labels": result.consensus,
        "weights": result.weights.tolist(),
        "traces": result.traces.tolist(),
        "per_stage_ms": {stage: 1000.0 * s for stage, s in timings.items()},
        "seconds": prefix["seconds"] + time.perf_counter() - start,
    }


def cmd_run(args):
    # the views come at their orders after --p; only the graphs they propagate over are read
    dataset = load_dataset(args.dataset, orders=args.p or {})
    config = _build_config(args)
    config.check_fits(dataset.n)
    # no loop variable may keep a view alive past the prefix
    for v, d in enumerate([view.features.shape[1] for view in dataset.views]):
        if config.f > d:
            raise ValueError(f"--f {config.f} (default: k) is above the feature dimension "
                             f"d={d} of view {v}")
    os.makedirs(args.output, exist_ok=True)

    orders = [view.propagation_order for view in dataset.views]
    truth = dataset.labels
    views = list(dataset.views)
    del dataset  # the prefix drops each view's features and graphs after their last use
    # no seed reaches the bases; under --time-limit the parent keeps its views until they are taken
    prefix = _bounded(args.time_limit, "the seed-free prefix", _prefix, views, config)
    del views
    bases = prefix.pop("bases", None)
    rows = []
    for seed in args.seeds:
        run_config = dataclasses.replace(config, seed=seed)
        recorded = {**dataclasses.asdict(run_config), "propagation_orders": orders}
        blob = json.dumps(recorded, sort_keys=True, default=str).encode()
        outcome = prefix  # a prefix error or timeout is every seed's
        if prefix["status"] == "ok":
            # the last seed takes the list itself and drops each basis once its map is built
            outcome = _bounded(args.time_limit, f"seed {seed}", _cluster_seed,
                               bases if seed == args.seeds[-1] else list(bases), prefix,
                               run_config)
        record = {"seed": seed, "config_hash": hashlib.sha256(blob).hexdigest()[:16],
                  "config": recorded, **outcome}
        labels = record.pop("labels", None)
        if labels is not None:
            record["labels_path"] = os.path.join(args.output, f"labels_seed{seed}.txt")
            save_labels(labels, record["labels_path"])
            if truth is not None:
                record["metrics"] = metrics.evaluate(labels, truth)
        with open(os.path.join(args.output, f"run_seed{seed}.json"), "w") as fh:
            json.dump(record, fh, indent=2)
        rows.append(record)

    _write_aggregate(rows, args.output)
    failed = [r for r in rows if r["status"] == "Error"]
    if failed:
        print(f"run failed: {failed[0]['error']}", file=sys.stderr)
        return failed[0]["exit_code"]
    return EXIT_TIMEOUT if any(r["status"] == "Timeout" for r in rows) else EXIT_OK


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
        columns = {key: [r["metrics"][key] for r in ok] for key in ("ca", "cf1", "nmi", "ari")}
        columns["seconds"] = [r["seconds"] for r in ok]
        summary = {key: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
                   for key, vals in columns.items()}
        agg["summary"] = summary
        cells = [f"{100 * summary[key]['mean']:.2f}±{100 * summary[key]['std']:.2f}"
                 for key in ("ca", "cf1", "nmi", "ari")]
        lines.append("mean±std\t\t" + "\t".join(cells)
                     + f"\t{summary['seconds']['mean']:.3f}±{summary['seconds']['std']:.3f}")
    with open(os.path.join(output, "aggregate.json"), "w") as fh:
        json.dump(agg, fh, indent=2)
    table = "\n".join(lines)
    with open(os.path.join(output, "aggregate.tsv"), "w") as fh:
        fh.write(table + "\n")
    print(table)


def cmd_prepare(args):
    n_files = len(args.features)
    graph_paths = args.graph or []
    if len(graph_paths) > n_files:
        raise ValueError(f"{len(graph_paths)} --graph entries for {n_files} feature files")
    orders = args.p or [0] * n_files
    if len(orders) != n_files:
        raise ValueError(f"{len(orders)} --p orders for {n_files} feature files")
    if args.self_loops and args.add_knn is None:
        raise ValueError("--self-loops applies to the k-NN view only and needs --add-knn")
    features = [load_features(p) if p.endswith(".bin") else load_text(p)
                for p in args.features]
    n = len(features[0])
    if args.add_knn is not None and not 1 <= args.add_knn < n:
        raise ValueError(f"--add-knn must be >= 1 and < n={n}, got {args.add_knn}")
    # a shorter --graph list leaves the remaining views without a graph
    graphs = [None if g == "none" else load_graph(g, len(X))
              for g, X in zip(graph_paths, features)]
    graphs += [None] * (n_files - len(graphs))
    views = [file_view(v, path, X, g, propagation_order=p)
             for v, (path, X, g, p) in enumerate(zip(args.features, features, graphs, orders))]
    labels = load_labels(args.labels) if args.labels else None
    dataset = MultiViewDataset(views, labels)  # checked before the k-NN search
    if args.add_knn is not None:
        knn = build_knn_graph(features[0], args.add_knn, self_loops=args.self_loops)
        views.append(View(features[0].copy(), knn, propagation_order=orders[0]))
        dataset = MultiViewDataset(views, labels)
    # the rule every run of the dataset applies
    graph_sources([view.graph is not None for view in views],
                  [view.propagation_order for view in views])
    save_dataset(dataset, args.output)
    print(f"wrote {dataset.n_views}-view dataset with n={dataset.n} to {args.output}")
    return EXIT_OK


def cmd_eval(args):
    pred = load_labels(args.pred)
    truth = load_labels(args.truth)
    if len(pred) != len(truth):
        raise SizeMismatchError(f"{args.pred} has {len(pred)} labels but "
                                f"{args.truth} has {len(truth)}")
    print(json.dumps(metrics.evaluate(pred, truth), indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="mvkc", fromfile_prefix_chars="@",
                                     description="Multi-view kernel clustering")
    # an @file holds one argument per line; blank lines hold none
    parser.convert_arg_line_to_args = lambda line: [line] if line.strip() else []
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded clustering on a dataset")
    run.add_argument("dataset")
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--f", type=int)
    run.add_argument("--kernel", choices=KERNEL_KINDS)
    run.add_argument("--kernel-components", dest="kernel_components", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--p", type=_view_orders, help="per-view propagation orders, e.g. 0:2,1:0")
    run.add_argument("--seeds", type=_seed_list, default="0,1,2,3,4")
    run.add_argument("--weight-mode", dest="weight_mode", choices=WEIGHT_MODES)
    run.add_argument("--time-limit", dest="time_limit", type=_time_limit)
    run.add_argument("--cache-dir", dest="cache_dir")
    run.add_argument("--output", required=True)
    run.set_defaults(func=cmd_run)

    prepare = sub.add_parser("prepare", help="assemble a canonical dataset directory")
    prepare.add_argument("--features", nargs="+", required=True)
    prepare.add_argument("--graph", nargs="*")
    prepare.add_argument("--labels")
    prepare.add_argument("--p", type=_int_list,
                         help="comma-separated propagation orders, one per feature file")
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
