import hashlib
import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import mvkc.propagation
from mvkc.data import SparseGraph, load_graph, save_features, save_graph
from mvkc.propagation import _cache_key, propagate, propagate_cached
from oracles import propagation_oracle, same_graph
from synth import write_text_graph


def random_graph(n, n_edges, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n_edges)
    cols = rng.integers(0, n, size=n_edges)
    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return SparseGraph(n, keys // n, keys % n, np.ones(len(keys)), symmetric=True)


def dense_operator(graph):
    A = graph.adj.toarray() + np.eye(graph.n)
    deg = A.sum(axis=1)
    inv_sqrt = np.where(deg > 0, deg, 1.0) ** -0.5
    inv_sqrt[deg <= 0] = 0.0
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]


def test_p_zero_is_identity():
    g = random_graph(10, 30)
    X = np.random.default_rng(0).normal(size=(10, 3))
    out = propagate(g, X, 0)
    assert np.array_equal(out, X)


def test_two_node_hand_computation():
    g = SparseGraph(2, [0, 1], [1, 0], [1.0, 1.0])
    X = np.array([[1.0], [0.0]])
    out = propagate(g, X, 1)
    assert np.allclose(out, [[0.5], [0.5]], atol=1e-12)


def test_matches_dense_matrix_power_oracle():
    g = random_graph(30, 120, seed=2)
    X = np.random.default_rng(2).normal(size=(30, 4))
    expected = np.linalg.matrix_power(dense_operator(g), 5) @ X
    got = propagate(g, X, 5)
    assert np.allclose(got, expected, atol=1e-10)


def test_high_order_converges_to_sqrt_degree_direction():
    g = random_graph(40, 400, seed=3)
    X = np.random.default_rng(3).normal(size=(40, 2))
    out = propagate(g, X, 100)
    expected = np.linalg.matrix_power(dense_operator(g), 100) @ X
    assert np.allclose(out, expected, atol=1e-8)
    # limit direction is proportional to sqrt of the self-loop degrees
    deg = np.asarray((g.adj + np.eye(40)).sum(axis=1)).ravel()
    direction = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
    for col in out.T:
        if np.linalg.norm(col) > 1e-8:
            cos = abs(col @ direction) / np.linalg.norm(col)
            assert cos > 1 - 1e-6


def test_composition():
    g = random_graph(25, 100, seed=4)
    X = np.random.default_rng(4).normal(size=(25, 3))
    a = propagate(g, X, 7)
    b = propagate(g, propagate(g, X, 3), 4)
    assert np.allclose(a, b, atol=1e-10)


def test_bounded_output():
    # spectral radius of the self-loop operator is <= 1
    for seed in range(5):
        g = random_graph(30, 150, seed=seed)
        X = np.random.default_rng(seed).normal(size=(30, 3))
        degrees = np.asarray((g.adj + np.eye(30)).sum(axis=1)).ravel()
        deg_ratio = degrees.max() / degrees.min()
        out = propagate(g, X, 50)
        assert np.abs(out).max() <= np.abs(X).max() * np.sqrt(deg_ratio) + 1e-9


def oracle_graphs():
    """Graphs whose operator the row-scaled propagation must reproduce."""
    rng = np.random.default_rng(11)
    g = random_graph(30, 120, seed=11)
    weighted = g.adj.copy()
    weighted.data = rng.uniform(0.1, 5.0, size=g.nnz)
    weighted = weighted + weighted.T  # non-unit, still symmetric
    loops = g.adj + sp.diags(rng.uniform(0.5, 2.0, size=30))
    coo = [m.tocoo() for m in (weighted, loops)]
    one_way = random_graph(30, 120, seed=12).adj.tocoo()
    keep = one_way.row < one_way.col
    return {
        "weighted": SparseGraph(30, coo[0].row, coo[0].col, coo[0].data),
        "self_loops": SparseGraph(30, coo[1].row, coo[1].col, coo[1].data),
        "asymmetric": SparseGraph(30, one_way.row[keep], one_way.col[keep],
                                  rng.uniform(0.1, 2.0, size=keep.sum()), symmetric=False),
        # A + I degrees: node 0 is -2, node 1 is 0, node 2 is 4
        "negative": SparseGraph(4, [0, 1, 2, 2, 3], [1, 0, 2, 3, 2], [-3.0, -1.0, 2.0, 1.0, 1.0],
                                symmetric=False),
    }


@pytest.mark.parametrize("name", ["weighted", "self_loops", "asymmetric", "negative"])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_matches_the_operator_matrix_oracle(name, p):
    g = oracle_graphs()[name]
    X = np.random.default_rng(p).normal(size=(g.n, 3))
    got = propagate(g, X, p)
    assert np.allclose(got, propagation_oracle(g, X, p), rtol=0, atol=1e-12)
    if name == "negative":  # rows whose A + I degree is not positive come out zero
        assert not got[:2].any() and got[2:].any()


def test_propagation_holds_a_few_feature_arrays():
    # no n x n operator: the traced peak stays within a few n x d arrays
    n, d = 5000, 4
    g = random_graph(n, 250_000, seed=13)
    assert 480_000 < g.nnz < 500_000
    X = np.random.default_rng(13).normal(size=(n, d))
    tracemalloc.start()
    propagate_cached(g, X, 2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 6 * n * d * 8


def test_dimension_mismatch():
    g = random_graph(10, 30)
    with pytest.raises(ValueError):
        propagate(g, np.ones((11, 2)), 1)


def test_cache_roundtrip(tmp_path):
    g = random_graph(20, 80, seed=5)
    X = np.random.default_rng(5).normal(size=(20, 3))
    a = propagate_cached(g, X, 3, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    b = propagate_cached(g, X, 3, cache_dir=str(tmp_path))
    assert np.array_equal(a, b)
    assert list(tmp_path.iterdir()) == files
    # different order gets its own cache entry
    propagate_cached(g, X, 4, cache_dir=str(tmp_path))
    assert len(list(tmp_path.iterdir())) == 2


def test_edge_order_in_file_changes_neither_graph_nor_cache_key(tmp_path):
    g = random_graph(20, 80, seed=8)
    write_text_graph(g, tmp_path / "sorted.txt")
    header, *edges = (tmp_path / "sorted.txt").read_text().splitlines(keepends=True)
    shuffled = header + "".join(np.random.default_rng(8).permutation(edges))
    assert shuffled != (tmp_path / "sorted.txt").read_text()
    (tmp_path / "shuffled.txt").write_text(shuffled)
    X = np.random.default_rng(8).normal(size=(20, 3))
    for name in ("sorted", "shuffled"):
        loaded = load_graph(tmp_path / f"{name}.txt")
        assert same_graph(loaded, g)
        propagate_cached(loaded, X, 2, cache_dir=str(tmp_path / "cache"))
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_cache_file_keyed_from_a_loaded_graph_still_hits(tmp_path):
    # the key pinned here is the one the coordinate-rebuilding readers gave
    # this graph from its text and its binary file
    g = random_graph(20, 80, seed=8)
    save_graph(g, tmp_path / "g.bin")
    write_text_graph(g, tmp_path / "g.txt")
    X = np.random.default_rng(8).normal(size=(20, 3))
    cached = np.arange(60.0).reshape(20, 3)
    save_features(cached, tmp_path / "f1393bf3b863e39c92e3eb9a30674128.bin")
    for name in ("g.bin", "g.txt"):
        loaded = load_graph(tmp_path / name)
        assert _cache_key(loaded, X, 2) == "f1393bf3b863e39c92e3eb9a30674128"
        assert np.array_equal(propagate_cached(loaded, X, 2, cache_dir=str(tmp_path)), cached)

@pytest.mark.parametrize("order", ["C", "F"])
def test_cache_key_is_the_hash_of_the_array_bytes(order):
    # cache files written under keys hashed from .tobytes() copies still hit
    g = random_graph(30, 100, seed=10)
    X = np.asarray(np.random.default_rng(10).normal(size=(30, 4)), order=order)
    h = hashlib.sha256()
    for values, dtype in ((g.adj.indptr, "<i8"), (g.adj.indices, "<i8"), (g.adj.data, "<f8"),
                          (X, "<f8")):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    h.update(b"p=2;norm=sym_selfloop")
    assert _cache_key(g, X, 2) == h.hexdigest()[:32]


def test_cost_linear_in_edges():
    n = 3000
    small = random_graph(n, 100_000, seed=6)
    big = random_graph(n, 200_000, seed=6)
    X = np.random.default_rng(6).normal(size=(n, 32))

    # best-of-3 wall times to damp scheduler noise
    def best(g):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            propagate(g, X, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    ratio = best(big) / best(small)
    assert ratio <= 2.5 * (big.nnz / small.nnz)


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    g = random_graph(20, 80, seed=7)
    X = np.random.default_rng(7).normal(size=(20, 3))
    real_save = mvkc.propagation.save_features

    def crash_halfway(features, path):
        real_save(features, path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        raise OSError("disk full")

    monkeypatch.setattr(mvkc.propagation, "save_features", crash_halfway)
    with pytest.raises(OSError):
        propagate_cached(g, X, 2, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []  # neither the cache file nor a temp file
    monkeypatch.undo()
    out = propagate_cached(g, X, 2, cache_dir=str(tmp_path))
    assert np.allclose(out, propagate(g, X, 2), atol=1e-12)
