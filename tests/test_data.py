import gc
import math
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import mvkc.data
import mvkc.workers
from mvkc.data import (
    KNN_BLOCK_BYTES,
    KNN_GROUP,
    FormatError,
    IndexRangeError,
    MissingFileError,
    MultiViewDataset,
    SizeMismatchError,
    SparseGraph,
    View,
    _k_smallest,
    build_knn_graph,
    load_dataset,
    load_features,
    load_graph,
    load_labels,
    save_dataset,
    save_features,
    save_graph,
    save_labels,
)
from oracles import exact_knn_edges, k_smallest_oracle, knn_oracle, same_graph
from synth import synth_multiview, write_text_graph


def small_graph(n=4):
    return SparseGraph(n, [0, 1], [1, 0], [1.0, 1.0], symmetric=True)


def test_feature_roundtrip(tmp_path):
    X = np.random.default_rng(0).normal(size=(10, 3))
    path = tmp_path / "f.bin"
    save_features(X, path)
    Y = load_features(path)
    assert np.array_equal(X, Y)
    assert Y.dtype == np.float64 and Y.flags.writeable and Y.flags.c_contiguous


@pytest.mark.parametrize("header, payload, message", [
    (b"n 2 d 3", struct.pack("<5d", *range(5)), "expected 48 payload bytes, found 40"),
    (b"n 2 d 3", struct.pack("<6d", *range(6)) + b"\0", "expected 48 payload bytes, found 49"),
    (b"n 2 d 3", struct.pack("<6d", 0, 1, float("nan"), 3, 4, 5), "NaN or Inf"),
    (b"n -2 d -3", struct.pack("<6d", *range(6)), "malformed feature header"),
], ids=["short-payload", "trailing-bytes", "nan", "negative-dims"])
def test_malformed_feature_file(tmp_path, header, payload, message):
    path = tmp_path / "f.bin"
    path.write_bytes(header + b" dtype f64\n" + payload)
    with pytest.raises(FormatError, match=message):
        load_features(path)


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = synth_multiview(50, 3, 2, noise=0.3, seed=7)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.n_views == ds.n_views
    assert np.array_equal(back.labels, ds.labels)
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a.features, b.features)
        assert same_graph(a.graph, b.graph)
        assert a.propagation_order == b.propagation_order


def test_load_acm_sized_layout(tmp_path):
    # two views over 3025 nodes, as in the small co-citation benchmarks
    n = 3025
    rng = np.random.default_rng(0)
    views = [View(rng.normal(size=(n, 4)), small_graph(n), 2) for _ in range(2)]
    save_dataset(MultiViewDataset(views), tmp_path / "acmish")
    ds = load_dataset(tmp_path / "acmish")
    assert ds.n_views == 2 and ds.n == 3025


def test_load_single_view_no_graph(tmp_path):
    ds = MultiViewDataset([View(np.ones((5, 2)))])
    save_dataset(ds, tmp_path / "one")
    back = load_dataset(tmp_path / "one")
    assert back.n_views == 1 and back.views[0].graph is None


def test_load_size_mismatch_names_view(tmp_path):
    views = [View(np.ones((12, 2)), small_graph(12))]
    save_dataset(MultiViewDataset(views), tmp_path / "bad")
    # shrink the feature file to 10 rows behind the manifest's back
    save_features(np.ones((10, 2)), tmp_path / "bad" / "features_0.bin")
    with pytest.raises(SizeMismatchError):
        load_dataset(tmp_path / "bad")


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingFileError):
        load_dataset(tmp_path / "nope")


def test_malformed_graph_header(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("nodes 4 edges 1\n0 1 1.0\n")
    with pytest.raises(FormatError, match="g.txt"):
        load_graph(path)


def test_graph_index_out_of_range(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 1 symmetric 0\n0 7 1.0\n")
    with pytest.raises(IndexRangeError):
        load_graph(path)


def test_graph_validated_when_built():
    with pytest.raises(IndexRangeError):
        SparseGraph(3, [0], [7], [1.0], symmetric=False)
    with pytest.raises(FormatError, match="not symmetric"):
        SparseGraph(3, [0], [1], [1.0], symmetric=True)


def test_graph_error_notes_the_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 2.0\n")
    with pytest.raises(FormatError) as info:
        load_graph(path)
    assert str(path) in info.value.__notes__


def test_graph_non_finite_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 inf\n1 0 inf\n")
    with pytest.raises(FormatError, match="NaN or Inf"):
        load_graph(path)


@pytest.mark.parametrize("edges, error", [("0 7 1.0\n", IndexRangeError),
                                          ("0 1 inf\n", FormatError)],
                         ids=["index", "weight"])
def test_a_malformed_text_graph_leaves_no_file_open(tmp_path, edges, error):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 1 symmetric 0\n" + edges)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(error):
            load_graph(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_graph_more_edge_lines_than_nnz(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 1.0\n1 2 1.0\n")
    with pytest.raises(FormatError, match="nnz=2"):
        load_graph(path)
    # trailing blank lines are not edges
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 1.0\n\n")
    assert load_graph(path).nnz == 2


@pytest.mark.parametrize("edge", ["0 1 abc", "1.5 0 1.0"])
def test_graph_edge_field_that_does_not_parse_names_the_line(tmp_path, edge):
    path = tmp_path / "g.txt"
    path.write_text(f"n 3 nnz 2 symmetric 0\n1 2 1.0\n{edge}\n")
    with pytest.raises(FormatError, match=f"edge line 1: '{edge}'"):
        load_graph(path)


def test_graph_edge_line_that_is_not_text_names_the_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"n 3 nnz 2 symmetric 0\n1 2 1.0\n0 1 \xff\n")
    with pytest.raises(FormatError, match="g.txt: bad edge line 1"):
        load_graph(path)


@pytest.mark.parametrize("body, line", [("\n1 2 1.0\n", 0), ("1 2 1.0\n", 1)],
                         ids=["blank-line", "missing-line"])
def test_graph_blank_or_missing_edge_line_names_the_line(tmp_path, body, line):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 0\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(FormatError, match=f"edge line {line}: ''"):
            load_graph(path)


@pytest.mark.parametrize("rows, cols, weights", [([0], [1], [0.0]), ([0, 1], [1, 0], [1.0, 2.0])],
                         ids=["one-way-zero-weight", "unequal-weights"])
def test_graph_symmetry_compares_weights_and_explicit_zeros(rows, cols, weights):
    SparseGraph(3, rows, cols, weights, symmetric=False)
    with pytest.raises(FormatError, match="not symmetric"):
        SparseGraph(3, rows, cols, weights, symmetric=True)


def test_graph_file_roundtrip_is_byte_identical(tmp_path):
    g = SparseGraph(3, [2, 0, 1, 0], [0, 1, 0, 2], [0.1, 1 / 3, 1 / 3, 0.1])
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_graph(g, first)
    save_graph(load_graph(first), second)
    assert first.read_bytes() == (b"n 3 nnz 4 symmetric 1 csr\n"
                                  + struct.pack("<4q", 0, 2, 3, 4)  # indptr
                                  + struct.pack("<4q", 1, 2, 0, 0)  # indices
                                  + struct.pack("<4d", 1 / 3, 0.1, 1 / 3, 0.1))  # data
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# graph file readers: text in one loadtxt call, binary CSR straight into adj


EDGE_0_1 = ([0, 1, 2, 2], [1, 0], [1.0, 1.0])  # indptr, indices, data of the edge 0 - 1
HEADER = b"n 3 nnz 2 symmetric 1"


@pytest.mark.parametrize("name, body, expected", [
    ("g.txt", HEADER + b"\r\n0 1 1.0\r\n1 0 1.0\r\n", EDGE_0_1),
    ("g.txt", HEADER + b"\n0\t1\t1.0\n\t1 0\t1.0\t\n", EDGE_0_1),
    ("g.txt", HEADER + b"\n0 1 1.0\n1 0 1.0", EDGE_0_1),
    ("g.txt", HEADER + b"\n+0 1 1.0\n1 +0 1.0\n", EDGE_0_1),
    ("g.txt", b"n 3 nnz 0 symmetric 1\n\n \t\n\n", ([0, 0, 0, 0], [], [])),
    ("g.txt", HEADER + b"\n0 1 1.0\r1 0 1.0\n", EDGE_0_1),
    ("g.txt", b"n 3 nnz 2\rsymmetric 1\n0 1 1.0\n1 0 1.0\n", EDGE_0_1),
    ("g.txt.gz", HEADER + b"\n0 1 1.0\n1 0 1.0\n", EDGE_0_1),
    ("g.txt", HEADER + b"\n0 1 1.0\n \t \n1 0 1.0\n", "bad edge line 1: ''"),
    ("g.txt", HEADER + b"\n\n0 1 1.0\r1 0 1.0\n", "bad edge line 0: ''"),
    ("g.txt", HEADER + b"\n0 1 1.0\n1 0 1.0\n1 2 1.0\n", "more edge lines than nnz=2"),
    ("g.txt", HEADER + b"\n0 1 1.0\n1 0 1.\xff\n", "bad edge line 1: '1 0 1.\ufffd'"),
    ("g.txt", HEADER + b"\n0 1 0x1p0\n1 0 0x1p0\n", "bad edge line 0: '0 1 0x1p0'"),
    ("g.txt", HEADER + b"\n0 1 1.0\n1 0 1\x000\n", "bad edge line 1: '1 0 1\\x000'"),
    ("g.txt", HEADER + b"\r0 1 1.0\r1 0 1.0\r", "malformed graph header"),
], ids=["crlf", "tabs", "no-final-newline", "plus-zero-index", "nnz-0-trailing-blank-lines",
        "cr-inside-the-edges", "cr-inside-the-header", "archive-suffix", "whitespace-only-line",
        "blank-line-and-lone-cr", "one-line-more-than-nnz", "not-utf-8", "hex-weight",
        "nul-byte", "cr-only-line-ends"])
def test_text_graph_reads_as_the_line_reader_does(tmp_path, name, body, expected):
    # each case pinned as the reader that parsed the edges line by line read it:
    # the arrays of adj, or the FormatError after the path
    path = tmp_path / name
    path.write_bytes(body)
    if isinstance(expected, str):
        with pytest.raises(FormatError) as info:
            load_graph(path)
        assert str(info.value) == f"{path}: {expected}"
    else:
        adj = load_graph(path).adj
        assert [adj.indptr.tolist(), adj.indices.tolist(), adj.data.tolist()] == list(expected)


def _loadtxt_calls(monkeypatch):
    """The ``np.loadtxt`` calls made from here on, one entry each."""
    calls, real = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: calls.append(1)
                        or real(*args, **kwargs))
    return calls


def _path_graph_lines(nnz):
    return [f"{i} {i + 1} 1.0\n" for i in range(nnz)]


@pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", ""),
                                          ("\n", "\n\n \t\n")],
                         ids=["lf", "crlf", "no-final-newline", "trailing-blank-lines"])
def test_a_clean_text_graph_is_parsed_in_one_loadtxt_call(tmp_path, monkeypatch, newline, end):
    nnz = 1000
    path = tmp_path / "g.txt"
    path.write_bytes(f"n {nnz + 1} nnz {nnz} symmetric 0{newline}".encode()
                     + newline.join(line[:-1] for line in _path_graph_lines(nnz)).encode()
                     + end.encode())
    calls = _loadtxt_calls(monkeypatch)
    graph = load_graph(path)
    assert len(calls) == 1
    assert same_graph(graph, SparseGraph(nnz + 1, np.arange(nnz), np.arange(1, nnz + 1),
                                         np.ones(nnz), symmetric=False))


@pytest.mark.parametrize("bad", [0, 2500, 4999], ids=["first", "middle", "last"])
@pytest.mark.parametrize("line", ["", "0 1 abc"], ids=["blank", "unparsable"])
def test_the_bad_edge_line_is_found_in_logarithmic_loadtxt_calls(tmp_path, monkeypatch, bad,
                                                                  line):
    nnz = 5000
    lines = _path_graph_lines(nnz)
    lines[bad] = line + "\n"
    path = tmp_path / "g.txt"
    path.write_text(f"n {nnz + 1} nnz {nnz} symmetric 0\n" + "".join(lines))
    calls = _loadtxt_calls(monkeypatch)
    with pytest.raises(FormatError) as info:
        load_graph(path)
    assert str(info.value) == f"{path}: bad edge line {bad}: '{line}'"
    assert len(calls) <= 2 * math.ceil(math.log2(nnz)) + 2


def _binary_graph_bytes(n, indptr, indices, data, symmetric=0):
    return (f"n {n} nnz {len(indices)} symmetric {symmetric} csr\n".encode()
            + np.array(indptr, "<i8").tobytes() + np.array(indices, "<i8").tobytes()
            + np.array(data, "<f8").tobytes())


@pytest.mark.parametrize("indptr, indices", [
    ([0, 0, 0, 0, 0], []),
    ([0, 0, 2, 2, 3], [1, 3, 1]),
    ([0, 2, 3, 3, 3], [0, 2, 1]),
], ids=["nnz-0", "empty-first-and-inner-rows", "empty-last-rows"])
def test_binary_graph_with_empty_rows_loads(tmp_path, indptr, indices):
    path = tmp_path / "g.bin"
    path.write_bytes(_binary_graph_bytes(4, indptr, indices, np.arange(1.0, len(indices) + 1)))
    graph = load_graph(path)
    assert [graph.adj.indptr.tolist(), graph.adj.indices.tolist()] == [indptr, indices]
    rows = np.repeat(np.arange(4), np.diff(indptr))
    assert same_graph(graph, SparseGraph(4, rows, indices, np.arange(1.0, len(indices) + 1),
                                         symmetric=False))
    save_graph(graph, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("indptr, indices, error, message", [
    ([0, 2, 3], [1, 0, 0], FormatError, "fall within a row"),
    ([0, 2, 3], [1, 1, 0], FormatError, "duplicate"),
    ([0, 1, 2], [-1, 0], IndexRangeError, "out of range"),
    ([0, 1, 2], [1, 2], IndexRangeError, "out of range"),
    ([0, 2, 1], [0, 1], FormatError, "indptr must rise"),
    ([1, 2, 2], [0, 1], FormatError, "indptr must rise"),
], ids=["falling-row", "duplicate", "negative-index", "index-n", "indptr-decreases",
        "indptr-starts-above-0"])
def test_csr_graph_checks_its_rows(indptr, indices, error, message):
    with pytest.raises(error, match=message):
        SparseGraph.from_csr(np.array(indptr), np.array(indices), np.ones(len(indices)),
                             symmetric=False)


def _random_symmetric_graph(n, degree, seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, size=(2, n * degree // 2))
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return SparseGraph(n, keys // n, keys % n, np.ones(len(keys)), symmetric=True)


def _load_peak(path):
    load_graph(path)
    tracemalloc.start()
    try:
        graph = load_graph(path)
        return graph, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binary_graph_read_holds_no_row_array(tmp_path, monkeypatch):
    # before validate, the read holds its payload, a copy of its data, one
    # int64 step per entry and arrays of n values: no nnz-long row array and
    # no coordinate copy
    n = 5000
    path = tmp_path / "g.bin"
    save_graph(_random_symmetric_graph(n, 20, seed=3), path)
    monkeypatch.setattr(SparseGraph, "validate", lambda self: None)
    graph, peak = _load_peak(path)
    assert peak <= path.stat().st_size + 16 * graph.nnz + 32 * n + 64 * 2**10


def test_text_graph_read_holds_no_line_objects(tmp_path):
    # the edge bytes twice and once more as newline flags, the parsed records
    # and the graph: no str object per line
    n = 5000
    path = tmp_path / "g.txt"
    write_text_graph(_random_symmetric_graph(n, 20, seed=4), path)
    graph, peak = _load_peak(path)
    assert peak <= 3 * path.stat().st_size + 24 * graph.nnz + 64 * 2**10

def test_labels_file_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    save_labels(np.array([2, 0, -1, 10]), path)
    assert path.read_text() == "2\n0\n-1\n10\n"
    assert np.array_equal(load_labels(path), [2, 0, -1, 10])


@pytest.mark.parametrize("labels", [
    np.array([7]), np.array([2, 0, -1, 10]), np.arange(50000) % 10,
    np.random.default_rng(9).integers(-5, 2**40, size=1000),
    np.array([3, 1], dtype=np.int32),
], ids=["one-label", "signed", "50k", "wide", "int32"])
def test_labels_file_is_the_one_the_line_writer_wrote(tmp_path, labels):
    path = tmp_path / "labels.txt"
    save_labels(labels, path)
    with open(tmp_path / "lines.txt", "w") as fh:  # one write per label
        fh.writelines(f"{lab}\n" for lab in np.asarray(labels, dtype=np.int64).tolist())
    assert path.read_bytes() == (tmp_path / "lines.txt").read_bytes()


@pytest.mark.parametrize("labels", [
    np.array([7]), np.array([2, 0, -1, 10]), np.arange(50000) % 10,
    np.random.default_rng(9).integers(-2**62, 2**62, size=1000),
], ids=["one-label", "signed", "50k", "wide"])
def test_labels_file_written_in_one_join_has_the_per_label_bytes_and_round_trips(tmp_path,
                                                                                   labels):
    path = tmp_path / "labels.txt"
    save_labels(labels, path)
    assert path.read_text() == "".join(f"{lab}\n" for lab in labels.tolist())
    loaded = load_labels(path)
    assert np.array_equal(loaded, labels) and loaded.dtype == np.int64


@pytest.mark.parametrize("labels", [
    np.array([-3, 5, -3, 0, -1]),
    np.array([-2**62, 2**62, 0, 2**62, -2**62]),
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1]),
    np.random.default_rng(4).choice([-10**15, 3, 2**40, 77], size=500),
    np.array([], dtype=np.int64),
], ids=["negative", "2^62", "int64-range", "sparse", "empty"])
def test_labels_file_has_the_bytes_of_one_str_join(tmp_path, labels):
    path = tmp_path / "labels.txt"
    save_labels(labels, path)
    joined = "\n".join(map(str, labels.tolist())) + "\n" if len(labels) else ""
    assert path.read_bytes() == joined.encode("ascii")
    if len(labels):  # a labels file without rows does not load
        loaded = load_labels(path)
        assert np.array_equal(loaded, labels) and loaded.dtype == np.int64


def test_labels_length_mismatch(tmp_path):
    ds = MultiViewDataset([View(np.ones((5, 2)))], labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(SizeMismatchError):
        ds.validate()


# ---------------------------------------------------------------------------
# k-NN graphs


def test_knn_line_pairs():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    g = build_knn_graph(X, 1)
    edges = set(zip(*g.adj.nonzero()))
    assert edges == {(0, 1), (1, 0), (2, 3), (3, 2)}


def test_knn_brute_force_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    k = 4
    g = build_knn_graph(X, k)
    # oracle: full pairwise distances, stable sort
    d = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    expected = set()
    for i in range(40):
        for j in np.argsort(d[i], kind="stable")[:k]:
            expected.add((i, int(j)))
            expected.add((int(j), i))
    assert set(zip(*g.adj.nonzero())) == expected


def test_knn_complete_graph():
    X = np.arange(5, dtype=float)[:, None]
    g = build_knn_graph(X, 4)
    assert g.nnz == 5 * 4


def test_knn_ties_lowest_index():
    X = np.zeros((3, 2))
    g1 = build_knn_graph(X, 1)
    g2 = build_knn_graph(X, 1)
    assert same_graph(g1, g2)
    # every node picks node 0 (or node 1 for node 0 itself)
    edges = set(zip(*g1.adj.nonzero()))
    assert edges == {(0, 1), (1, 0), (2, 0), (0, 2)}


def test_knn_symmetric_with_self_loops():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    g = build_knn_graph(X, 3, self_loops=True)
    g.validate()
    diag = [(i, i) in set(zip(*g.adj.nonzero())) for i in range(20)]
    assert all(diag)
    assert np.all(g.adj.data == 1.0)


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        build_knn_graph(np.zeros((3, 1)), 3)


@pytest.mark.parametrize("k", [0, -1])
def test_knn_k_below_one(k):
    with pytest.raises(ValueError, match="k_neighbors"):
        build_knn_graph(np.arange(5.0)[:, None], k)


@pytest.fixture(scope="module")
def tie_grid():
    # 2100 points on 24 x 24 integer sites: exact duplicates and exact ties
    # at the k-th distance, over more than one distance block
    n = 2100
    assert KNN_BLOCK_BYTES // (8 * n) < n
    return np.random.default_rng(11).integers(0, 24, size=(n, 2)).astype(np.float64)


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_knn_matches_stable_sort_oracle_on_ties(tie_grid, k, self_loops):
    got = build_knn_graph(tie_grid, k, self_loops=self_loops)
    assert same_graph(got, knn_oracle(tie_grid, k, self_loops=self_loops))


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_knn_of_the_tie_grid_far_from_the_origin_keeps_its_ties(tie_grid, k, self_loops):
    # shifted by 2^20 every distance is still an exact integer, so the ties
    # are exact and still go to the lowest index
    shifted = tie_grid + 2.0**20
    got = build_knn_graph(shifted, k, self_loops=self_loops)
    assert same_graph(got, knn_oracle(shifted, k, self_loops=self_loops))


@pytest.mark.parametrize("X, k", [
    ([[2.0**26, 0.0], [0.0, 0.2], [0.0, 0.1]], 1),
    ([[2.0**26, 0.0], [0.0, 0.2], [0.0, 0.5], [0.0, 0.1]], 2),
])
def test_knn_of_a_point_far_from_the_origin_is_the_exact_one(X, k):
    # from point 0 every squared distance is 2^52 plus less than half an ulp
    # of 2^52, so a sum that holds |x_0|^2 rounds them all to one tie
    g = build_knn_graph(np.array(X), k)
    assert set(zip(*g.adj.nonzero())) == exact_knn_edges(X, k)


@pytest.mark.parametrize("case", ["tie-grid", "40-row blocks", "1-row blocks"])
def test_knn_is_the_oracle_graph_on_any_core_count(case, tie_grid, monkeypatch):
    # the tie grid at the default budget holds 5 blocks of 420 rows, within
    # 499; n = 1001 is not a multiple of 40 rows
    if case == "tie-grid":
        X, k, rows = tie_grid, 7, 499
    else:
        n, rows = (1001, 40) if case == "40-row blocks" else (203, 1)
        X, k = np.random.default_rng(n).normal(size=(n, 7)), 5
        monkeypatch.setattr(mvkc.data, "KNN_BLOCK_BYTES", 8 * n * rows + 7)
    assert mvkc.data.KNN_BLOCK_BYTES // (8 * len(X)) == rows
    expected = knn_oracle(X, k, self_loops=True)
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        threads = threading.active_count()
        assert same_graph(build_knn_graph(X, k, self_loops=True), expected)
        assert threading.active_count() == threads


def test_knn_on_more_cores_takes_one_more_workers_budget_per_core(monkeypatch):
    # each added worker holds its own distance buffer, of the largest block's
    # rows x n, and the temporaries of _k_smallest on that block, plus 64 KiB;
    # a knn-prepare view, n = 6000, d = 16
    n, k = 6000, 10
    X = np.random.default_rng(13).normal(size=(n, 16))
    rows = -(-n // -(-n // (KNN_BLOCK_BYTES // (8 * n))))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:rows, None] - 2.0 * X[:rows] @ X.T + sq
    tracemalloc.start()
    try:
        _k_smallest(d2, k)
        worker = d2.nbytes + tracemalloc.get_traced_memory()[1] + 64 * 2**10
    finally:
        tracemalloc.stop()
    peaks = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        tracemalloc.start()
        try:
            build_knn_graph(X, k, self_loops=True)
            peaks[cores] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + worker and peaks[3] <= peaks[1] + 2 * worker


def adversarial_rows(n, k, seed):
    """Distance rows that stress the group screening of ``_k_smallest``."""
    rng = np.random.default_rng(seed)
    G = min(KNN_GROUP, n // k)
    L = n // G
    ints = rng.integers(0, 3, size=n).astype(np.float64)  # ties across groups
    rows = [rng.normal(size=n), ints, np.zeros(n), np.full(n, np.inf), np.full(n, np.nan),
            rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=n)]
    rows.append(np.where(rng.random(n) < 0.3, np.nan, ints))
    rows.append(np.where(rng.random(n) < 0.9, np.nan, ints))  # few groups free of NaN
    heads = ints.copy()
    heads[:L] = np.nan  # with G > 1, a NaN in every group
    rows.append(heads)
    half = ints.copy()
    half[:L // 2] = np.nan  # a NaN in half the groups
    rows.append(half)
    last = np.full(n, 5.0)
    last[L - 1:G * L:L] = -np.arange(G)  # the k smallest in the last group if k <= G
    rows.append(last)
    tail = rng.integers(2, 5, size=n).astype(np.float64)
    tail[G * L:] = np.arange(n - G * L)  # the smallest past the last group
    rows.append(tail)
    diag = rng.integers(0, 3, size=n).astype(np.float64)
    diag[rng.integers(n)] = np.inf  # a row of a distance block, its own column excluded
    rows.append(diag)
    return np.array(rows)


@pytest.mark.parametrize("n, k", [
    (96, 5), (101, 5), (87, 3), (30, 5), (20, 7), (12, 7), (50, 1), (50, 49), (2, 1),
])
def test_k_smallest_is_the_first_k_of_a_stable_sort(n, k):
    # 96 is a multiple of KNN_GROUP and 101 and 87 are not; below n = 8 k
    # the group size falls to n // k: 6 at (30, 5), 2 at (20, 7), 1 at (12, 7)
    # and at k = n - 1
    for seed in range(4):
        d2 = adversarial_rows(n, k, seed)
        assert np.array_equal(_k_smallest(d2, k), k_smallest_oracle(d2, k))


def test_k_smallest_holds_less_than_half_the_distance_block():
    # one block of a knn-prepare view, n = 6000, d = 16, at KNN_BLOCK_BYTES
    n, k = 6000, 10
    X = np.random.default_rng(13).normal(size=(n, 16))
    rows = -(-n // -(-n // (KNN_BLOCK_BYTES // (8 * n))))
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:rows, None] - 2.0 * X[:rows] @ X.T + sq
    np.fill_diagonal(d2, np.inf)
    tracemalloc.start()
    try:
        got = _k_smallest(d2, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d2.nbytes / 2
    assert np.array_equal(got, k_smallest_oracle(d2, k))


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_balanced_and_deterministic():
    a = synth_multiview(300, 3, 2, noise=0.1, seed=0)
    b = synth_multiview(300, 3, 2, noise=0.1, seed=0)
    assert np.array_equal(np.bincount(a.labels), [100, 100, 100])
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va.features, vb.features)
        assert same_graph(va.graph, vb.graph)


def test_synth_zero_noise_identical_rows():
    ds = synth_multiview(30, 3, 2, noise=0.0, seed=5)
    for view in ds.views:
        for c in range(3):
            rows = view.features[ds.labels == c]
            assert np.all(rows == rows[0])


def test_synth_preconditions():
    with pytest.raises(ValueError):
        synth_multiview(3, 4, 1)
    with pytest.raises(ValueError):
        synth_multiview(10, 2, 0)
