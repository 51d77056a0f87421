"""Workload definitions and the seeded raw-input generator.

Inputs are generated with numpy alone, never through ``mvkc.synth_multiview``,
so a change to the program's own synthetic-data code cannot change what the
benchmark feeds it. Files are written in the formats ``mvkc prepare`` reads:

- features: ASCII header ``n <n> d <d> dtype f64`` then little-endian float64
  values, row-major (``.bin``);
- graph: text edge list with header ``n <n> nnz <nnz> symmetric 1``, then one
  ``i j w`` line per directed entry, both directions of every edge present;
- labels: ``labels.txt``, one integer per line.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

# Blob standard deviation per coordinate; centroids lie 4*sqrt(2) apart.
NOISE = 1.0

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    k: int
    views: int  # feature files generated
    dim: int
    graph_degree: float  # mean degree of each view's planted-partition graph; 0 = no graph
    prepare_args: tuple  # extra `mvkc prepare` flags
    run_args: tuple  # extra `mvkc run` flags; "{cache}" is replaced by a fresh directory
    prepared_views: int  # views the prepared dataset must hold
    run_seeds: int  # `mvkc run` seeds 0..run_seeds-1, one call each per pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="graph-p2",
            why="citation-graph use: two views with 200k-entry text edge lists, "
                "propagation p=2 with a warm cache; graph load and validation dominate",
            n=20000, k=10, views=2, dim=16, graph_degree=10.0,
            prepare_args=(),
            run_args=("--p", "0:2,1:2", "--kernel", "quadratic", "--cache-dir", "{cache}"),
            prepared_views=2, run_seeds=4,
        ),
        Workload(
            name="features-rbf",
            why="features only, three views, RBF Nystroem m=100, p=0: loading and "
                "propagation are bypassed, linear algebra, embedding and k-means work",
            n=50000, k=10, views=3, dim=16, graph_degree=0.0,
            prepare_args=(),
            run_args=("--kernel", "rbf", "--kernel-components", "100"),
            prepared_views=3, run_seeds=4,
        ),
        Workload(
            name="knn-prepare",
            why="no graph given: prepare builds a 10-NN view with self-loops (p=1), "
                "the data layer's write path; build_knn_graph runs only here",
            n=6000, k=10, views=1, dim=16, graph_degree=0.0,
            prepare_args=("--add-knn", "10", "--self-loops", "--p", "1"),
            run_args=("--kernel", "quadratic"),
            prepared_views=2, run_seeds=16,
        ),
    )
}


def planted_partition(rng, labels, k, degree):
    """Symmetric unit-weight edge list; nine tenths of each node's edges stay
    inside its cluster. Returns (rows, cols) sorted by (row, col)."""
    n = len(labels)
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=k)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    m_in = int(n * degree * 0.9 / 2)
    m_out = int(n * degree * 0.1 / 2)
    u_in = rng.integers(n, size=m_in)
    c = labels[u_in]
    v_in = order[starts[c] + rng.integers(counts[c])]
    u = np.concatenate([u_in, rng.integers(n, size=m_out)])
    v = np.concatenate([v_in, rng.integers(n, size=m_out)])
    keep = u != v
    lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    keys = np.unique(lo * n + hi)
    lo, hi = keys // n, keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def write_features(path, X):
    X = np.ascontiguousarray(X, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(f"n {X.shape[0]} d {X.shape[1]} dtype f64\n".encode("ascii"))
        fh.write(X.tobytes())


def write_graph(path, n, rows, cols):
    with open(path, "w") as fh:
        fh.write(f"n {n} nnz {len(rows)} symmetric 1\n")
        np.savetxt(fh, np.column_stack([rows, cols]), fmt="%d %d 1.0")


def generate(workload, seed, directory):
    """Write the raw input files of ``workload`` for ``seed`` into
    ``directory``. Returns (prepare argv without --output, planted labels,
    sha256 digest of every file written)."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, workload.n])
    labels = rng.permutation(np.arange(workload.n) % workload.k)
    features, graphs = [], []
    for v in range(workload.views):
        # a random orthonormal frame: every pair of centroids is 4*sqrt(2)
        # apart, so every seed draws inputs of the same difficulty
        frame, _ = np.linalg.qr(rng.normal(size=(workload.dim, workload.k)))
        centroids = 4.0 * frame.T
        X = centroids[labels] + NOISE * rng.normal(size=(workload.n, workload.dim))
        path = os.path.join(directory, f"x{v}.bin")
        write_features(path, X)
        features.append(path)
        if workload.graph_degree:
            rows, cols = planted_partition(rng, labels, workload.k, workload.graph_degree)
            path = os.path.join(directory, f"g{v}.txt")
            write_graph(path, workload.n, rows, cols)
            graphs.append(path)
    labels_path = os.path.join(directory, "labels.txt")
    np.savetxt(labels_path, labels, fmt="%d")

    digest = hashlib.sha256()
    for path in features + graphs + [labels_path]:
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode())
            digest.update(fh.read())
    argv = ["prepare", "--features", *features]
    if graphs:
        argv += ["--graph", *graphs]
    argv += ["--labels", labels_path, *workload.prepare_args]
    return argv, labels, digest.hexdigest()
