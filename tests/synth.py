"""Synthetic labeled multi-view datasets for the tests: Gaussian blobs per
view plus a planted-partition graph, fully deterministic given the seed; and
two-ring views; a copy of a dataset with one view changed; and a writer of
the text graph format that ``mvkc prepare`` reads."""

import dataclasses

import numpy as np

from mvkc.data import MultiViewDataset, SparseGraph, View


def _sbm_edges(labels, n, k, rng, avg_in_degree=10.0, avg_out_degree=1.0):
    """Sparse planted-partition edge sample aligned with ``labels``."""
    rows = []
    cols = []
    members = [np.flatnonzero(labels == c) for c in range(k)]
    for a in range(k):
        for b in range(a, k):
            na, nb = len(members[a]), len(members[b])
            if a == b:
                n_pairs = na * (na - 1) // 2
                p = min(1.0, avg_in_degree / max(na - 1, 1))
            else:
                n_pairs = na * nb
                p = min(1.0, avg_out_degree / max(n - 1, 1))
            if n_pairs == 0 or p == 0.0:
                continue
            count = rng.binomial(n_pairs, p)
            if count == 0:
                continue
            count = min(count, n_pairs)
            i = np.empty(0, dtype=np.int64)
            j = np.empty(0, dtype=np.int64)
            while len(i) < count:
                ii = rng.integers(0, na, size=2 * count + 8)
                jj = rng.integers(0, nb, size=2 * count + 8)
                if a == b:
                    mask = ii < jj
                    ii, jj = ii[mask], jj[mask]
                i = np.concatenate([i, ii])
                j = np.concatenate([j, jj])
            u = members[a][i[:count]]
            v = members[b][j[:count]]
            rows.append(u)
            cols.append(v)
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    # dedupe + symmetrize
    keys = np.unique(rows * n + cols)
    rows, cols = keys // n, keys % n
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    keys = np.unique(all_rows * n + all_cols)
    rows, cols = keys // n, keys % n
    return SparseGraph(n, rows, cols, np.ones(len(rows)), symmetric=True)


def synth_multiview(n, k, n_views, noise=0.1, seed=0, feature_dim=16):
    """Generate a labeled multi-view dataset of Gaussian blobs with graphs.

    Every view sees the same partition: per-view Gaussian blobs around k
    seeded centroids plus a planted-partition graph. ``noise`` is the blob
    standard deviation; 0 puts every point exactly on its centroid. Fully
    deterministic given ``seed``.
    """
    if not (n >= k >= 2):
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    if n_views < 1:
        raise ValueError(f"need at least one view, got {n_views}")
    rng = np.random.default_rng(seed)
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    labels = np.repeat(np.arange(k), counts)
    views = []
    for _ in range(n_views):
        centroids = rng.normal(size=(k, feature_dim))
        features = centroids[labels] + noise * rng.normal(size=(n, feature_dim))
        graph = _sbm_edges(labels, n, k, rng)
        views.append(View(features, graph, propagation_order=0))
    return MultiViewDataset(views, labels)


def rings(n, n_views, noise=0.08, seed=0):
    """Views of two concentric rings, radii 1 and 2, in the plane: point i
    lies on the ring of its label in every view, at an angle drawn anew per
    view, plus Gaussian noise of standard deviation ``noise``. The views
    share only the radius."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    views = []
    for _ in range(n_views):
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        ring = (labels + 1.0)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        views.append(View(ring + noise * rng.normal(size=(n, 2))))
    return MultiViewDataset(views, labels)


def with_view(dataset, index, **changes):
    """``dataset`` with view ``index`` rebuilt with ``changes`` to its fields,
    both checked again, as a frozen view and dataset are changed."""
    views = list(dataset.views)
    views[index] = dataclasses.replace(views[index], **changes)
    return dataclasses.replace(dataset, views=views)


def write_text_graph(graph, path):
    """Write ``graph`` as a text edge list, one ``i j w`` line per entry of
    ``graph.adj`` in row-major order, as ``mvkc prepare --graph`` reads it."""
    coo = graph.adj.tocoo()
    with open(path, "w") as fh:
        fh.write(f"n {graph.n} nnz {graph.nnz} symmetric {int(graph.symmetric)}\n")
        fh.writelines(f"{i} {j} {w!r}\n" for i, j, w in
                      zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
