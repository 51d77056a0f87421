"""Multi-view dataset container, on-disk formats, k-NN graphs.

A dataset is a directory with a ``manifest.txt`` describing the views in
index order:

    view 0 graph graph_0.bin features features_0.bin p 2
    view 1 graph none features features_1.bin p 0
    labels labels.txt

A prepared graph file is binary CSR: a one-line ASCII header
``n <n> nnz <nnz> symmetric <0|1> csr``, then little-endian int64 ``indptr``
(n + 1 values), int64 ``indices`` (nnz values, strictly rising within each
row, as ``save_graph`` writes them) and float64 ``data`` (nnz values) of
``graph.adj``. Text is the input format of ``mvkc prepare``, and
text graph files in dataset directories written before the binary format
still load: an ``n <n> nnz <nnz> symmetric <0|1>`` header, then exactly
``nnz`` ``i j w`` triples, 0-based, in any order; only blank lines may follow.
``load_graph`` reads either, by the header. Feature files are a one-line
ASCII header ``n <n> d <d> dtype f64`` followed by little-endian float64
values, row-major. A binary payload whose byte length is not the one its
header gives is a ``FormatError``.

A graph is one canonical CSR matrix, ``SparseGraph.adj``, so edge order in a
file does not matter. It has two ways in: ``SparseGraph(n, rows, cols,
weights)`` from coordinates in any order (text files, callers) and
``SparseGraph.from_csr`` from canonical CSR arrays (binary files, k-NN). Each
checks its own input's structure, then both run ``SparseGraph.validate``, so
a graph is validated once, when it is built.
"""

import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .workers import map_row_blocks


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
    arrays in any order, or from CSR arrays with ``from_csr``, validates it;
    an invalid graph raises a ``DataError``."""

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

    @classmethod
    def from_csr(cls, indptr, indices, data, symmetric=True):
        """The graph on n = len(indptr) - 1 nodes whose ``adj`` is built from
        these CSR arrays directly, with no coordinate conversion. ``indptr``
        must rise from 0 to nnz, and each row's indices must lie in [0, n)
        and rise strictly: an equal pair is a duplicate, a fall an unsorted
        row."""
        n, nnz = len(indptr) - 1, len(indices)
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise FormatError(f"graph: indptr must rise from 0 to nnz={nnz} and never decrease")
        if nnz and (indices.min() < 0 or indices.max() >= n):
            raise IndexRangeError(f"graph: edge index out of range [0, {n})")
        lowest = _lowest_step(indptr, indices)
        if lowest == 0:
            raise FormatError("graph: duplicate (row, col) edge entries")
        if lowest < 0:
            raise FormatError("graph: column indices fall within a row; rows must be sorted")
        graph = cls.__new__(cls)
        graph.adj = sp.csr_matrix((data, indices, indptr), shape=(n, n), dtype=np.float64)
        graph.adj.has_canonical_format = True  # sorted and free of duplicates, as checked
        graph.symmetric = bool(symmetric)
        graph.validate()
        return graph

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


def _lowest_step(indptr, indices):
    """The least difference between neighbouring indices of one CSR row (1 if
    there is none), from one ``np.diff`` over ``indices`` with the step from
    each row's last entry to the next row's first forced to 1."""
    steps = np.diff(indices)
    starts = indptr[1:-1]
    steps[starts[(starts > 0) & (starts < len(indices))] - 1] = 1
    return steps.min(initial=1)


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
    """Write ``graph.adj`` as a binary CSR file, as ``load_graph`` reads it."""
    adj = graph.adj
    with open(path, "wb") as fh:
        fh.write(f"n {graph.n} nnz {graph.nnz} symmetric {int(graph.symmetric)} csr\n"
                 .encode("ascii"))
        for values, dtype in ((adj.indptr, "<i8"), (adj.indices, "<i8"), (adj.data, "<f8")):
            np.asarray(values, dtype=dtype).tofile(fh)


def _read_payload(fh, path, dtype, count):
    """The rest of ``fh`` read once into a writable array of ``count`` values;
    a payload of any other byte length is a FormatError."""
    expected = count * np.dtype(dtype).itemsize
    found = os.fstat(fh.fileno()).st_size - fh.tell()
    if found != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {found}")
    values = np.empty(count, dtype=dtype)
    found = fh.readinto(values)  # short only if the file shrank since the check
    if found != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, found {found}")
    return values


def _parse_edges(source, count, **kwargs):
    """``count`` ``i j w`` records from one ``np.loadtxt`` call over
    ``source``, a list of lines or a file path; None if a line does not parse
    or the count is off (loadtxt skips blank lines)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on input without data
        try:
            edges = np.loadtxt(source, dtype=[("i", "<i8"), ("j", "<i8"), ("w", "<f8")],
                               comments=None, ndmin=1, **kwargs)
        except ValueError:
            return None
    return edges if len(edges) == count else None


def _first_bad_line(lines):
    """Index of the first line that does not parse alone, in a list that does
    not parse. A span parses if and only if each of its lines does, so
    bisection finds it in about log2(len(lines)) ``np.loadtxt`` calls."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_edges(lines[lo:mid], mid - lo) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _read_edge_lines(body, path, nnz):
    """The edges of ``body`` read line by line, as text with universal
    newlines: exactly ``nnz`` lines, of which the first bad one is named;
    only blank lines may follow."""
    with io.TextIOWrapper(io.BytesIO(body), errors="replace") as text:
        lines = list(itertools.islice(text, nnz))
        lines += [""] * (len(lines) < nnz)  # the first missing line reads as empty
        edges = _parse_edges(lines, len(lines))
        if edges is None:
            idx = _first_bad_line(lines)
            raise FormatError(f"{path}: bad edge line {idx}: {' '.join(lines[idx].split())!r}")
        if any(line.strip() for line in text):
            raise FormatError(f"{path}: more edge lines than nnz={nnz}")
    return edges


def _read_edges(fh, path, nnz):
    """The ``i j w`` records of exactly ``nnz`` text edge lines after the
    header line that ``fh`` has read; only blank lines may follow.

    The rest of the file is read once. If it is ASCII, ends its lines with
    LF or CRLF alone and holds ``nnz`` lines before any trailing blank ones
    (one newline count), one ``np.loadtxt`` call over the file, past its
    header, parses them in C. If any of that fails, ``_read_edge_lines``
    reads ``body`` as the lines it is, which names the first bad one."""
    body = fh.read()
    lines = body.rstrip()  # up to the end of the last line that is not blank
    # np.loadtxt opens a path with these suffixes as an archive, and an
    # absolute path never as a URL
    plain = (lines.isascii() and not os.fspath(path).endswith((".bz2", ".gz", ".lzma", ".xz"))
             and (b"\r" not in lines or lines.count(b"\r") == lines.count(b"\r\n")))
    if nnz and plain and np.count_nonzero(np.frombuffer(lines, np.uint8) == ord("\n")) + 1 == nnz:
        edges = _parse_edges(os.path.abspath(path), nnz, skiprows=1, encoding="ascii")
        if edges is not None:
            return edges
    return _read_edge_lines(body, path, nnz)


def load_graph(path):
    """Read a binary CSR or a text graph file, told apart by its header. A
    CSR payload becomes ``adj`` through ``SparseGraph.from_csr``; text edges
    are coordinates, built by ``SparseGraph``. Both end in ``validate``."""
    if not os.path.isfile(path):
        raise MissingFileError(f"graph file not found: {path}")
    with open(path, "rb") as fh:
        header = re.fullmatch(r"n ([0-9]+) nnz ([0-9]+) symmetric ([01])( csr)?",
                              " ".join(fh.readline().decode("ascii", "replace").split()))
        if header is None:
            raise FormatError(f"{path}: malformed graph header")
        n, nnz, symmetric = map(int, header.groups()[:3])
        if header[4]:
            payload = _read_payload(fh, path, "<i8", n + 1 + 2 * nnz)
            # data is copied out, so that adj, whose index arrays scipy
            # copies into int32 ones, does not keep the payload alive
            csr = (payload[:n + 1], payload[n + 1:n + 1 + nnz],
                   payload[n + 1 + nnz:].view("<f8").copy())
        else:
            edges = _read_edges(fh, path, nnz)
    try:
        if header[4]:
            return SparseGraph.from_csr(*csr, symmetric=bool(symmetric))
        return SparseGraph(n, edges["i"], edges["j"], edges["w"], symmetric=bool(symmetric))
    except DataError as exc:
        exc.add_note(str(path))
        raise


def save_features(features, path):
    features = np.ascontiguousarray(features, dtype="<f8")
    n, d = features.shape
    with open(path, "wb") as fh:
        fh.write(f"n {n} d {d} dtype f64\n".encode("ascii"))
        features.tofile(fh)


def load_features(path):
    if not os.path.isfile(path):
        raise MissingFileError(f"feature file not found: {path}")
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if (len(header) != 6 or header[0] != "n" or header[2] != "d" or header[5] != "f64"
                or not (header[1].isdigit() and header[3].isdigit())):
            raise FormatError(f"{path}: malformed feature header")
        n, d = int(header[1]), int(header[3])
        values = _read_payload(fh, path, "<f8", n * d).reshape(n, d)
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
    """Write integer labels, one per line, as ``load_labels`` reads them.
    Each distinct label is formatted once, and its line indexed per label."""
    values, inverse = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    lines = np.array([f"{value}\n" for value in values.tolist()], dtype=object)
    with open(path, "w") as fh:
        fh.write("".join(lines[inverse].tolist()))


def save_dataset(dataset, path):
    """Write a dataset directory (manifest + per-view graph/feature files)."""
    os.makedirs(path, exist_ok=True)
    lines = []
    for idx, view in enumerate(dataset.views):
        if view.graph is not None:
            gname = f"graph_{idx}.bin"
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


def graph_sources(has_graph, orders):
    """Per view, the index of the view whose graph it propagates over: its
    own or, if it has none, the first one given; None at order 0. A view
    that propagates when no view has a graph raises ``ValueError``."""
    shared = next((v for v, has in enumerate(has_graph) if has), None)
    for v, p in enumerate(orders):
        if p > 0 and shared is None:
            raise ValueError(f"view {v} propagates at order {p}, but the dataset has no graph")
    return [None if p <= 0 else v if has else shared
            for v, (has, p) in enumerate(zip(has_graph, orders))]


def load_dataset(path, orders=None):
    """Load and validate a dataset directory.

    ``orders``, if given, maps view indices to propagation orders (``mvkc run
    --p``) that replace the manifest's in the views returned; then only the
    graphs that ``graph_sources`` picks are read. Every other view loads
    without its graph, but every graph file the manifest names must exist.
    A view that propagates when the dataset has no graph raises the
    ``ValueError`` of ``graph_sources`` before any file but the manifest.
    """
    manifest = os.path.join(path, "manifest.txt")
    if not os.path.isfile(manifest):
        raise MissingFileError(f"manifest not found: {manifest}")
    entries = []  # (graph path or None, features path, order) per view
    labels = None
    with open(manifest) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "view":
                if (len(parts) != 8 or parts[1] != str(len(entries)) or parts[2] != "graph"
                        or parts[4] != "features" or parts[6] != "p"):
                    raise FormatError(f"{manifest}: malformed view line: {line.strip()}")
                try:
                    order = int(parts[7])
                except ValueError:
                    raise FormatError(f"{manifest}: malformed view line: {line.strip()}") from None
                graph = None if parts[3] == "none" else os.path.join(path, parts[3])
                order = (orders or {}).get(len(entries), order)
                entries.append((graph, os.path.join(path, parts[5]), order))
            elif parts[0] == "labels":
                if len(parts) != 2:
                    raise FormatError(f"{manifest}: malformed labels line: {line.strip()}")
                labels = os.path.join(path, parts[1])
            else:
                raise FormatError(f"{manifest}: unknown manifest entry: {parts[0]}")
    read = [graph is not None for graph, _, _ in entries]
    missing = sorted(set(orders or {}) - set(range(len(entries))))
    if missing:
        raise ValueError(f"--p names views {missing}, but the dataset has {len(entries)} views")
    sources = graph_sources(read, [order for _, _, order in entries])
    if orders is not None:
        read = [v in sources for v in range(len(entries))]
    views = []
    for (graph, features, order), wanted in zip(entries, read):
        if graph is not None and not wanted and not os.path.isfile(graph):
            raise MissingFileError(f"graph file not found: {graph}")
        graph = load_graph(graph) if wanted else None
        views.append(View(load_features(features), graph, propagation_order=order))
    dataset = MultiViewDataset(views, None if labels is None else load_labels(labels))
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# k-NN graph construction


KNN_BLOCK_BYTES = 8 * 2**20  # float64 query-to-all values held per worker
KNN_GROUP = 8  # columns per group whose minimum screens them in _k_smallest


def _k_smallest(d2, k):
    """Column indices of the k smallest entries of each row of ``d2``, ordered
    by (value, column): the first k of a stable full sort.

    Columns are screened in groups before any entry is sorted. With G =
    min(KNN_GROUP, n // k) and L = n // G, group g < L holds the columns g,
    g + L, ..., g + (G - 1) L; the fewer than G tail columns past G L belong
    to none. A row's k-th smallest group minimum, tau, bounds its k-th
    smallest entry from above, since k groups hold an entry no larger. So
    only the entries up to tau of the groups whose minimum is up to tau, and
    of the tail, are candidates: about k per row instead of n. They are
    listed in (row, column) order and stably sorted by (row, value), so ties
    keep the lowest column first. NaN (from overflow) compares false and
    propagates through the minimum: a group holding one is kept, a row with
    fewer than k groups free of NaN gets tau = NaN and keeps every entry,
    and NaN sorts last, as in a full sort. At G = 1 each group is a column.
    """
    m, n = d2.shape
    G = min(KNN_GROUP, n // k)
    L = n // G
    gmin = np.minimum.reduce(d2[:, :G * L].reshape(m, G, L), axis=1)
    tau = np.partition(gmin, k - 1, axis=1)[:, k - 1]
    rows, heads = np.divmod(np.flatnonzero(~(gmin > tau[:, None])), L)
    kept = np.bincount(rows, minlength=m)  # groups kept per row
    # row i lists the columns h + j L of its kept heads h, by j, then its tail
    width = G * kept + n - G * L
    first = np.cumsum(width) - width
    cols = np.empty(first[-1] + width[-1], dtype=np.int64)
    cols[(first + G * kept)[:, None] + np.arange(n - G * L)] = np.arange(G * L, n)
    dest = first[rows] + np.arange(len(rows)) - (np.cumsum(kept) - kept)[rows]
    step = kept[rows]
    for j in range(G):
        cols[dest + j * step] = heads + j * L
    rows = np.repeat(np.arange(m), width)
    values = d2[rows, cols]
    keep = ~(values > tau[rows])
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((values[keep], rows))  # stable, so ties stay in column order
    rows, cols = rows[order], cols[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, np.arange(m))[rows]
    return cols[rank < k].reshape(-1, k)


def build_knn_graph(features, k_neighbors, self_loops=False):
    """Unit-weight k-NN graph under Euclidean distance, symmetrized by union.

    Exact brute-force search over blocks of query rows, on every usable core
    through ``workers.map_row_blocks``. Row i of a block is ranked by v_ij =
    |x_j|^2 - 2 x_i.x_j, its squared distances less |x_i|^2, a constant of
    the row that cannot change which columns are smallest. The block's v is
    one product: its rows [x_i, 1] times the n x (d + 1) factor
    [-2 x_j, |x_j|^2], built once. As no |x_i|^2 is added, the differences
    between candidates are not rounded against it, and a point far from the
    origin finds its true nearest neighbours. ``KNN_BLOCK_BYTES`` is the
    memory budget of one worker: each block's values for all n points fill
    at most that much (one row at least), in the worker's own buffer, beside
    its block rows x (d + 1) buffer of [x_i, 1]; ``_k_smallest`` takes about
    a third as much again, so memory is linear in n and grows by about 1.3
    times the budget per added core. Ties at the k-th value go to the lowest
    index, so the result is deterministic. The blocks depend on n alone, so
    the graph is the same on any number of cores.
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors={k_neighbors} must be >= 1 and < n={n}")
    neighbors = np.empty((n, k_neighbors), dtype=np.int64)
    # [-2 x_j, sq_j]: scaling by -2 is exact, so v rounds as sq_j - 2 g_ij
    right = np.empty((n, d + 1))
    np.multiply(features, -2.0, out=right[:, :d])
    np.einsum("ij,ij->i", features, features, out=right[:, d])

    def block(start, stop, v, left):
        left = left[:stop - start]
        left[:, :d] = features[start:stop]
        left[:, d] = 1.0
        v = np.matmul(left, right.T, out=v[:stop - start])
        v[np.arange(stop - start), np.arange(start, stop)] = np.inf  # exclude self
        neighbors[start:stop] = _k_smallest(v, k_neighbors)

    map_row_blocks(n, max(1, KNN_BLOCK_BYTES // (8 * n)), (n, d + 1), block)
    knn = sp.csr_matrix((np.ones(neighbors.size), neighbors.ravel(),
                         np.arange(n + 1) * k_neighbors), shape=(n, n))
    union = knn + knn.T
    if self_loops:
        union = union + sp.identity(n, format="csr")
    union.sort_indices()
    return SparseGraph.from_csr(union.indptr, union.indices, np.ones(union.nnz), symmetric=True)
