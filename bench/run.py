#!/usr/bin/env python3
"""Benchmark of `mvkc prepare` and `mvkc run`, called as users call them.

    python3 bench/run.py --workload graph-p2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the program is imported from ``src/`` of the checkout this
file sits in, never from an installed copy. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (environment, input and
label digests, sample counts, skipped probes, sanity counts). ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. A failed
operation or wrong output shows as ``"correct": false`` with exit code 0;
the exit code is 2, with no result, when the program's sources are missing.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One BLAS thread: the runs are single-process, and one thread keeps the
# results independent of the core count and the labels bit-reproducible.
BLAS_THREADS = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvkc", "cli.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    import measure  # after the BLAS thread count is fixed

    names = list(measure.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in measure.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(measure.WORKLOADS)} or all")
    for name in names:
        measure.run_workload(name, args.seed, args.seconds, bool(args.trace), ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
