import os
import time

import numpy as np
import pytest

import mvkc.propagation
from mvkc.data import SparseGraph
from mvkc.propagation import NormalizedAdjacency, propagate, propagate_cached


def random_graph(n, n_edges, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n_edges)
    cols = rng.integers(0, n, size=n_edges)
    mask = rows != cols
    rows, cols = rows[mask], cols[mask]
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return SparseGraph(n, keys // n, keys % n, np.ones(len(keys)), symmetric=True)


def dense_operator(graph):
    A = graph.to_csr().toarray() + np.eye(graph.n)
    deg = A.sum(axis=1)
    inv_sqrt = np.where(deg > 0, deg, 1.0) ** -0.5
    inv_sqrt[deg <= 0] = 0.0
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]


def test_p_zero_is_identity():
    g = random_graph(10, 30)
    X = np.random.default_rng(0).normal(size=(10, 3))
    out = propagate(NormalizedAdjacency(g), X, 0)
    assert np.array_equal(out, X)


def test_two_node_hand_computation():
    g = SparseGraph(2, [0, 1], [1, 0], [1.0, 1.0])
    X = np.array([[1.0], [0.0]])
    out = propagate(NormalizedAdjacency(g), X, 1)
    assert np.allclose(out, [[0.5], [0.5]], atol=1e-12)


def test_matches_dense_matrix_power_oracle():
    g = random_graph(30, 120, seed=2)
    X = np.random.default_rng(2).normal(size=(30, 4))
    expected = np.linalg.matrix_power(dense_operator(g), 5) @ X
    got = propagate(NormalizedAdjacency(g), X, 5)
    assert np.allclose(got, expected, atol=1e-10)


def test_high_order_converges_to_sqrt_degree_direction():
    g = random_graph(40, 400, seed=3)
    X = np.random.default_rng(3).normal(size=(40, 2))
    out = propagate(NormalizedAdjacency(g), X, 100)
    expected = np.linalg.matrix_power(dense_operator(g), 100) @ X
    assert np.allclose(out, expected, atol=1e-8)
    # limit direction is proportional to sqrt of the self-loop degrees
    deg = np.asarray((g.to_csr() + np.eye(40)).sum(axis=1)).ravel()
    direction = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
    for col in out.T:
        if np.linalg.norm(col) > 1e-8:
            cos = abs(col @ direction) / np.linalg.norm(col)
            assert cos > 1 - 1e-6


def test_composition():
    g = random_graph(25, 100, seed=4)
    X = np.random.default_rng(4).normal(size=(25, 3))
    adj = NormalizedAdjacency(g)
    a = propagate(adj, X, 7)
    b = propagate(adj, propagate(adj, X, 3), 4)
    assert np.allclose(a, b, atol=1e-10)


def test_bounded_output():
    # spectral radius of the self-loop operator is <= 1
    for seed in range(5):
        g = random_graph(30, 150, seed=seed)
        X = np.random.default_rng(seed).normal(size=(30, 3))
        adj = NormalizedAdjacency(g)
        deg_ratio = adj.degrees.max() / adj.degrees.min()
        out = propagate(adj, X, 50)
        assert np.abs(out).max() <= np.abs(X).max() * np.sqrt(deg_ratio) + 1e-9


def test_dimension_mismatch():
    g = random_graph(10, 30)
    with pytest.raises(ValueError):
        propagate(NormalizedAdjacency(g), np.ones((11, 2)), 1)


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


def test_cost_linear_in_edges():
    n = 3000
    small = random_graph(n, 100_000, seed=6)
    big = random_graph(n, 200_000, seed=6)
    X = np.random.default_rng(6).normal(size=(n, 32))
    adj_s = NormalizedAdjacency(small)
    adj_b = NormalizedAdjacency(big)

    # best-of-3 wall times to damp scheduler noise
    def best(adj):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            propagate(adj, X, 10)
            times.append(time.perf_counter() - t0)
        return min(times)

    ratio = best(adj_b) / best(adj_s)
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
    assert np.allclose(out, propagate(NormalizedAdjacency(g), X, 2), atol=1e-12)
