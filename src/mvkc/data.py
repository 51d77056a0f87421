"""Multi-view dataset container, on-disk formats, k-NN graphs.

A dataset is a directory with a ``manifest.txt`` describing the views in
index order:

    view 0 graph graph_0.txt features features_0.bin p 2
    view 1 graph none features features_1.bin p 0
    labels labels.txt

Graph files are coordinate text (``n <n> nnz <nnz> symmetric <0|1>`` header,
then exactly ``nnz`` ``i j w`` triples, 0-based, in any order; only blank
lines may follow). Feature files are a one-line ASCII header
``n <n> d <d> dtype f64`` followed by little-endian float64 values, row-major.

A graph is one canonical CSR matrix, ``SparseGraph.adj``, so edge order in a
file does not matter. It is validated once, when it is built, whether it is
read from a file, built from k-NN or passed in by a caller.
"""

import itertools
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class DataError(Exception):
    """Base class for dataset container errors."""


class MissingFileError(DataError):
    pass


class FormatError(DataError):
    pass


class IndexRangeError(DataError):
    pass


class SizeMismatchError(DataError):
    pass


class SparseGraph:
    """Weighted graph on n nodes as one canonical CSR matrix ``adj`` (sorted
    indices, no duplicates, explicit zeros kept). Building one from coordinate
    arrays validates it; an invalid edge list raises a ``DataError``."""

    def __init__(self, n, rows, cols, weights, symmetric=True):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if len(rows) and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= n):
            raise IndexRangeError(f"graph: edge index out of range [0, {n})")
        self.adj = sp.csr_matrix((weights, (rows, cols)), shape=(n, n), dtype=np.float64)
        if self.adj.nnz != len(rows):  # the COO -> CSR conversion summed duplicates
            raise FormatError("graph: duplicate (row, col) edge entries")
        self.symmetric = bool(symmetric)
        self.validate()

    @property
    def n(self):
        return self.adj.shape[0]

    @property
    def nnz(self):
        return self.adj.nnz

    def validate(self):
        """Check for finite weights and, if ``symmetric``, that ``adj`` equals its transpose."""
        if not np.isfinite(self.adj.data).all():
            raise FormatError("graph: edge weights contain NaN or Inf")
        if self.symmetric:
            adj, adj_t = self.adj, self.adj.T.tocsr()
            adj_t.sort_indices()
            if not (np.array_equal(adj.indptr, adj_t.indptr)
                    and np.array_equal(adj.indices, adj_t.indices)
                    and np.array_equal(adj.data, adj_t.data)):
                raise FormatError("graph: symmetric flag set but edge list is not symmetric")


@dataclass
class View:
    """One representation of the n entities: features plus an optional graph.

    ``propagation_order`` is the number of smoothing steps applied to the
    features before clustering; 0 means no smoothing.
    """

    features: np.ndarray
    graph: SparseGraph | None = None
    propagation_order: int = 0

    @property
    def n(self):
        return self.features.shape[0]

    def validate(self, name="view"):
        if self.propagation_order < 0:
            raise FormatError(f"{name}: negative propagation order {self.propagation_order}")
        if self.features.ndim != 2:
            raise FormatError(f"{name}: features must be 2-D")
        if not np.isfinite(self.features).all():
            raise FormatError(f"{name}: features contain NaN or Inf")
        if self.graph is not None and self.graph.n != self.n:
            raise SizeMismatchError(
                f"{name}: graph has n={self.graph.n} but features have {self.n} rows"
            )


@dataclass
class MultiViewDataset:
    """Ordered list of views over the same n entities, optional ground truth."""

    views: list = field(default_factory=list)
    labels: np.ndarray | None = None

    @property
    def n(self):
        return self.views[0].n

    @property
    def n_views(self):
        return len(self.views)

    def validate(self):
        if not self.views:
            raise FormatError("dataset has no views")
        n = self.views[0].n
        for i, view in enumerate(self.views):
            view.validate(name=f"view {i}")
            if view.n != n:
                raise SizeMismatchError(
                    f"view {i}: has {view.n} rows but view 0 has {n}"
                )
        if self.labels is not None and len(self.labels) != n:
            raise SizeMismatchError(
                f"labels: length {len(self.labels)} does not match n={n}"
            )


# ---------------------------------------------------------------------------
# File formats


def save_graph(graph, path):
    coo = graph.adj.tocoo()
    with open(path, "w") as fh:
        fh.write(f"n {graph.n} nnz {graph.nnz} symmetric {int(graph.symmetric)}\n")
        fh.writelines(f"{i} {j} {w!r}\n" for i, j, w in
                      zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


def _parse_edges(lines):
    """One ``i j w`` record per line, or None if a line is blank or does not parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on input without data
        try:
            edges = np.loadtxt(lines, dtype=[("i", "<i8"), ("j", "<i8"), ("w", "<f8")],
                               comments=None, ndmin=1)
        except ValueError:
            return None
    return edges if len(edges) == len(lines) else None  # loadtxt skips blank lines


def load_graph(path):
    if not os.path.isfile(path):
        raise MissingFileError(f"graph file not found: {path}")
    with open(path) as fh:
        header = re.fullmatch(r"n ([0-9]+) nnz ([0-9]+) symmetric ([01])",
                              " ".join(fh.readline().split()))
        if header is None:
            raise FormatError(f"{path}: malformed graph header")
        n, nnz, symmetric = map(int, header.groups())
        lines = list(itertools.islice(fh, nnz))
        lines += [""] * (len(lines) < nnz)  # the first missing line reads as empty
        edges = _parse_edges(lines)
        if edges is None:  # name the first line that does not parse alone
            idx = next(i for i, line in enumerate(lines) if _parse_edges([line]) is None)
            raise FormatError(f"{path}: bad edge line {idx}: {' '.join(lines[idx].split())!r}")
        if any(line.strip() for line in fh):
            raise FormatError(f"{path}: more edge lines than nnz={nnz}")
    try:
        return SparseGraph(n, edges["i"], edges["j"], edges["w"], symmetric=bool(symmetric))
    except DataError as exc:
        exc.add_note(str(path))
        raise


def save_features(features, path):
    features = np.ascontiguousarray(features, dtype="<f8")
    n, d = features.shape
    with open(path, "wb") as fh:
        fh.write(f"n {n} d {d} dtype f64\n".encode("ascii"))
        fh.write(features.tobytes())


def load_features(path):
    if not os.path.isfile(path):
        raise MissingFileError(f"feature file not found: {path}")
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 6 or header[0] != "n" or header[2] != "d" or header[5] != "f64":
            raise FormatError(f"{path}: malformed feature header")
        try:
            n, d = int(header[1]), int(header[3])
        except ValueError:
            raise FormatError(f"{path}: malformed feature header") from None
        raw = fh.read()
    expected = n * d * 8
    if len(raw) != expected:
        raise FormatError(
            f"{path}: expected {expected} payload bytes, found {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f8").reshape(n, d).astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: features contain NaN or Inf")
    return values


def load_text(path, dtype=np.float64):
    """Whitespace-separated rows of numbers; a missing, unparsable or empty file is a DataError."""
    if not os.path.isfile(path):
        raise MissingFileError(f"file not found: {path}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on input without data
        try:
            values = np.loadtxt(path, dtype=dtype, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    if len(values) == 0:
        raise FormatError(f"{path}: no data rows")
    return values


def load_labels(path):
    """Integer labels, one per line."""
    labels = load_text(path, np.int64)
    if labels.shape[1] != 1:
        raise FormatError(f"{path}: labels must be one integer per line")
    return labels[:, 0]


def save_labels(labels, path):
    """Write integer labels, one per line, as ``load_labels`` reads them."""
    with open(path, "w") as fh:
        fh.writelines(f"{lab}\n" for lab in np.asarray(labels, dtype=np.int64).tolist())


def save_dataset(dataset, path):
    """Write a dataset directory (manifest + per-view graph/feature files)."""
    os.makedirs(path, exist_ok=True)
    lines = []
    for idx, view in enumerate(dataset.views):
        if view.graph is not None:
            gname = f"graph_{idx}.txt"
            save_graph(view.graph, os.path.join(path, gname))
        else:
            gname = "none"
        fname = f"features_{idx}.bin"
        save_features(view.features, os.path.join(path, fname))
        lines.append(f"view {idx} graph {gname} features {fname} p {view.propagation_order}")
    if dataset.labels is not None:
        save_labels(dataset.labels, os.path.join(path, "labels.txt"))
        lines.append("labels labels.txt")
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path):
    """Load and validate a dataset directory."""
    manifest = os.path.join(path, "manifest.txt")
    if not os.path.isfile(manifest):
        raise MissingFileError(f"manifest not found: {manifest}")
    views = []
    labels = None
    with open(manifest) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "view":
                if (len(parts) != 8 or parts[1] != str(len(views)) or parts[2] != "graph"
                        or parts[4] != "features" or parts[6] != "p"):
                    raise FormatError(f"{manifest}: malformed view line: {line.strip()}")
                graph = None
                if parts[3] != "none":
                    graph = load_graph(os.path.join(path, parts[3]))
                features = load_features(os.path.join(path, parts[5]))
                try:
                    order = int(parts[7])
                except ValueError:
                    raise FormatError(f"{manifest}: malformed view line: {line.strip()}") from None
                views.append(View(features, graph, propagation_order=order))
            elif parts[0] == "labels":
                if len(parts) != 2:
                    raise FormatError(f"{manifest}: malformed labels line: {line.strip()}")
                labels = load_labels(os.path.join(path, parts[1]))
            else:
                raise FormatError(f"{manifest}: unknown manifest entry: {parts[0]}")
    dataset = MultiViewDataset(views, labels)
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# k-NN graph construction


KNN_BLOCK_BYTES = 16 * 2**20  # float64 query-to-all distances held per block


def _k_smallest(d2, k):
    """Column indices of the k smallest entries of each row of ``d2``, ordered
    by (value, column): the first k of a stable full sort, by partial selection."""
    n = d2.shape[1]
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    # every entry up to the k-th smallest, more than k only when it is tied; NaN
    # (from overflow) compares false and sorts last, as in a full sort
    rows, cols = np.divmod(np.flatnonzero(~(d2 > kth[:, None])), n)
    order = np.lexsort((cols, d2[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, np.arange(len(d2)))[rows]
    return cols[rank < k].reshape(-1, k)


def build_knn_graph(features, k_neighbors, self_loops=False):
    """Unit-weight k-NN graph under Euclidean distance, symmetrized by union.

    Exact brute-force search over blocks of query rows: each block's squared
    distances to all n points fill at most ``KNN_BLOCK_BYTES`` (one row at
    least), so memory stays linear in n. Ties at the k-th distance go to the
    lowest index, so the result is deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors={k_neighbors} must be >= 1 and < n={n}")
    sq = np.einsum("ij,ij->i", features, features)
    block = max(1, KNN_BLOCK_BYTES // (8 * n))
    neighbors = np.empty((n, k_neighbors), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = features[start:stop] @ features.T  # in place, rounded as sq_i - 2 g_ij + sq_j
        d2 *= -2.0
        d2 += sq[start:stop, None]
        d2 += sq[None, :]
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # exclude self
        neighbors[start:stop] = _k_smallest(d2, k_neighbors)
    knn = sp.csr_matrix((np.ones(neighbors.size), neighbors.ravel(),
                         np.arange(n + 1) * k_neighbors), shape=(n, n))
    union = knn + knn.T
    if self_loops:
        union = union + sp.identity(n, format="csr")
    union = union.tocoo()
    return SparseGraph(n, union.row, union.col, np.ones(union.nnz), symmetric=True)
