"""Multi-view dataset container, on-disk formats, k-NN graphs.

A dataset is a directory with a ``manifest.txt`` describing the views:

    view 0 graph graph_0.txt features features_0.bin p 2
    view 1 graph none features features_1.bin p 0
    labels labels.txt

Graph files are coordinate text (``n <n> nnz <nnz> symmetric <0|1>`` header,
then exactly ``nnz`` ``i j w`` triples, 0-based; only blank lines may follow).
Feature files are a one-line ASCII header ``n <n> d <d> dtype f64`` followed
by little-endian float64 values, row-major.

A ``SparseGraph`` validates itself when it is built, so every graph, whether
read from a file, built from k-NN or passed in by a caller, is checked once.
"""

import os
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


@dataclass
class SparseGraph:
    """Undirected or directed weighted graph in coordinate form.

    Building one validates it; an invalid edge list raises a ``DataError``.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    symmetric: bool = True

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.validate()

    @property
    def nnz(self):
        return len(self.rows)

    def validate(self):
        if self.nnz and (self.rows.min() < 0 or self.rows.max() >= self.n
                         or self.cols.min() < 0 or self.cols.max() >= self.n):
            raise IndexRangeError(f"graph: edge index out of range [0, {self.n})")
        if not np.isfinite(self.weights).all():
            raise FormatError("graph: edge weights contain NaN or Inf")
        keys = self.rows * self.n + self.cols
        if len(np.unique(keys)) != len(keys):
            raise FormatError("graph: duplicate (row, col) edge entries")
        if self.symmetric:
            fwd = set(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))
            rev = set(zip(self.cols.tolist(), self.rows.tolist(), self.weights.tolist()))
            if fwd != rev:
                raise FormatError("graph: symmetric flag set but edge list is not symmetric")

    def to_csr(self):
        return sp.csr_matrix(
            (self.weights, (self.rows, self.cols)), shape=(self.n, self.n)
        )

    def __eq__(self, other):
        if not isinstance(other, SparseGraph):
            return NotImplemented
        if self.n != other.n or self.symmetric != other.symmetric:
            return False
        a = np.lexsort((self.cols, self.rows))
        b = np.lexsort((other.cols, other.rows))
        return (
            np.array_equal(self.rows[a], other.rows[b])
            and np.array_equal(self.cols[a], other.cols[b])
            and np.array_equal(self.weights[a], other.weights[b])
        )


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
    with open(path, "w") as fh:
        fh.write(f"n {graph.n} nnz {graph.nnz} symmetric {int(graph.symmetric)}\n")
        for i, j, w in zip(graph.rows, graph.cols, graph.weights):
            fh.write(f"{i} {j} {float(w)!r}\n")


def load_graph(path):
    if not os.path.isfile(path):
        raise MissingFileError(f"graph file not found: {path}")
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6 or header[0] != "n" or header[2] != "nnz" or header[4] != "symmetric":
            raise FormatError(f"{path}: malformed graph header")
        try:
            n, nnz, symmetric = int(header[1]), int(header[3]), int(header[5])
        except ValueError:
            raise FormatError(f"{path}: malformed graph header") from None
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        weights = np.empty(nnz, dtype=np.float64)
        for idx in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise FormatError(f"{path}: bad edge line {idx}")
            rows[idx], cols[idx], weights[idx] = int(parts[0]), int(parts[1]), float(parts[2])
        if any(line.strip() for line in fh):
            raise FormatError(f"{path}: more edge lines than nnz={nnz}")
    try:
        return SparseGraph(n, rows, cols, weights, symmetric=bool(symmetric))
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
        with open(os.path.join(path, "labels.txt"), "w") as fh:
            for lab in dataset.labels:
                fh.write(f"{int(lab)}\n")
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
                if len(parts) != 8 or parts[2] != "graph" or parts[4] != "features" or parts[6] != "p":
                    raise FormatError(f"{manifest}: malformed view line: {line.strip()}")
                graph = None
                if parts[3] != "none":
                    graph = load_graph(os.path.join(path, parts[3]))
                features = load_features(os.path.join(path, parts[5]))
                views.append(View(features, graph, propagation_order=int(parts[7])))
            elif parts[0] == "labels":
                lab_path = os.path.join(path, parts[1])
                if not os.path.isfile(lab_path):
                    raise MissingFileError(f"labels file not found: {lab_path}")
                labels = np.loadtxt(lab_path, dtype=np.int64, ndmin=1)
            else:
                raise FormatError(f"{manifest}: unknown manifest entry: {parts[0]}")
    dataset = MultiViewDataset(views, labels)
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# k-NN graph construction


KNN_CHUNK = 2048  # query rows per distance block


def build_knn_graph(features, k_neighbors, self_loops=False):
    """Unit-weight k-NN graph under Euclidean distance, symmetrized by union.

    Ties are broken by lowest index so the result is deterministic. Exact
    brute-force search; fine up to ~50k points, plug in an ANN index beyond.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if k_neighbors >= n:
        raise ValueError(f"k_neighbors={k_neighbors} must be < n={n}")
    sq = np.einsum("ij,ij->i", features, features)
    rows = []
    cols = []
    for start in range(0, n, KNN_CHUNK):
        stop = min(start + KNN_CHUNK, n)
        block = features[start:stop]
        d2 = sq[start:stop, None] - 2.0 * block @ features.T + sq[None, :]
        # exclude self before selecting neighbors
        for local in range(stop - start):
            d2[local, start + local] = np.inf
        # stable sort keeps the lowest index first among equal distances
        order = np.argsort(d2, axis=1, kind="stable")[:, :k_neighbors]
        rows.append(np.repeat(np.arange(start, stop), k_neighbors))
        cols.append(order.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    # symmetrize by union, dedupe
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    if self_loops:
        diag = np.arange(n)
        all_rows = np.concatenate([all_rows, diag])
        all_cols = np.concatenate([all_cols, diag])
    keys = np.unique(all_rows * n + all_cols)
    rows = keys // n
    cols = keys % n
    return SparseGraph(n, rows, cols, np.ones(len(rows)), symmetric=True)
