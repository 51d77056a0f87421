#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's run-to-run spread.

    python3 bench/spread.py --seeds 1-10 [--workloads graph-p2,knn-prepare]
                            [--traced 1] [--baseline bench/baseline.json]

For every workload, runs ``bench/run.py`` once per seed with tracing off
(and ``--traced`` more times with tracing on), each as its own process, one
after another. Prints, per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median next
to the metric's bound in BENCHMARK.json. ``--baseline`` also writes all of
it, with the environment of the first run and the per-layer medians, to a
JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--baseline", help="write the results to this JSON file")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            details, result = bench(workload, seed, args.seconds, 0)
            report.setdefault("environment", details["environment"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{m}={v['value']:.4f}" for m, v in result["metrics"].items()),
                  flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "all_correct": all(r["correct"] for r in runs),
                 "end_to_end": {}, "per_layer": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                                           "bound": bounds[metric], **summary(values)}
        layer_runs = [bench(workload, seed, args.seconds, 1)[1] for seed in seeds[:args.traced]]
        for metric in (m["name"] for m in spec["per_layer"]):
            values = [r["metrics"][metric]["value"] for r in layer_runs]
            if values:
                entry["per_layer"][metric] = {"unit": layer_runs[0]["metrics"][metric]["unit"],
                                              "median": statistics.median(values),
                                              "values": values}
        report["workloads"][workload] = entry

        print(f"\n{workload}: {entry['failed']} of {entry['attempted']} operations failed, "
              f"all correct: {entry['all_correct']}")
        print(f"  {'metric':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  above bound/3"
            print(f"  {metric:10s} {s['median']:12.5f} {s['q1']:12.5f} {s['q3']:12.5f} "
                  f"{s['spread']:8.4f} {s['bound']:6.2f} {s['unit']}{flag}")
        print(flush=True)

    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
