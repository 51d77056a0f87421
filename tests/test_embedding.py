import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mvkc.embedding import degree_normalize, implicit_degrees
from mvkc.linalg import truncated_svd


def test_degrees_orthonormal_rows():
    assert np.allclose(implicit_degrees(np.eye(2)), [1.0, 1.0])


def test_degrees_all_ones():
    assert np.allclose(implicit_degrees(np.ones((3, 2))), [6.0, 6.0, 6.0])


def test_degrees_match_dense_oracle():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.1, 1.0, size=(50, 8))
    d = implicit_degrees(values)
    dense = (values @ values.T).sum(axis=1)
    assert np.allclose(d, dense, atol=1e-10)


def test_degrees_no_quadratic_allocation():
    n, m = 20000, 16
    values = np.random.default_rng(1).uniform(0.1, 1.0, size=(n, m))
    tracemalloc.start()
    implicit_degrees(values)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # O(n + m) workspace, nowhere near the n^2 * 8 bytes of a dense affinity
    assert peak < 20 * n * 8


def test_degrees_nonpositive_floored(caplog):
    values = np.array([[1.0, 0.0], [0.0, 0.0]])  # isolated second row
    with caplog.at_level("WARNING"):
        d = implicit_degrees(values)
    assert d[1] > 0.0
    assert "nonpositive" in caplog.text


def test_normalize_single_row():
    B = degree_normalize(np.array([[2.0, 0.0]]))  # degree 4
    assert np.array_equal(B, [[1.0, 0.0]])


def test_normalized_affinity_row_sums_one():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.1, 1.0, size=(40, 6))
    d = implicit_degrees(values)
    Bn = degree_normalize(values.copy())
    W = Bn @ Bn.T
    # row sums of D^{-1/2} W D^{-1/2} equal d^{-1/2} * (B B.T d^{-1/2})
    expected = (d**-0.5) * ((values @ values.T) @ (d**-0.5))
    assert np.allclose(W.sum(axis=1), expected, atol=1e-10)


def test_normalize_in_place():
    B = np.array([[2.0, 0.0], [0.0, 4.0]])  # degrees 4 and 16
    assert degree_normalize(B) is B
    assert np.array_equal(B, [[1.0, 0.0], [0.0, 1.0]])


def normalized_factor(values):
    B = np.asarray(values, dtype=np.float64)
    return degree_normalize(B)


def test_embedding_matches_eigendecomposition():
    rng = np.random.default_rng(3)
    B = normalized_factor(rng.uniform(0.1, 1.0, size=(100, 10)))
    r = 4
    W = B @ B.T
    evals, evecs = np.linalg.eigh(W)
    top = evecs[:, ::-1][:, : r + 1]
    # principal angles between the top-(r+1) left-singular and eigen subspaces
    svd = truncated_svd(B, r + 1)
    angles = scipy.linalg.subspace_angles(svd.U, top)
    assert np.max(angles) < 1e-6


def test_embedding_separates_blocks():
    # two disconnected affinity blocks: the second coordinate splits by sign
    blockA = np.hstack([np.ones((10, 2)), np.zeros((10, 2))])
    blockB = np.hstack([np.zeros((12, 2)), np.ones((12, 2))])
    B = normalized_factor(np.vstack([blockA, blockB]))
    emb = truncated_svd(B, 2).U[:, 1:]
    signs = np.sign(emb[:, 0])
    assert len(set(signs[:10])) == 1 and len(set(signs[10:])) == 1
    assert signs[0] != signs[-1]


def test_embedding_orthonormal_columns():
    rng = np.random.default_rng(4)
    B = normalized_factor(rng.uniform(0.1, 1.0, size=(60, 8)))
    emb = truncated_svd(B, 6).U[:, 1:]
    assert np.allclose(emb.T @ emb, np.eye(5), atol=1e-8)


def test_embedding_full_column_space():
    rng = np.random.default_rng(5)
    B = normalized_factor(rng.uniform(0.1, 1.0, size=(30, 5)))
    emb = truncated_svd(B, 5).U[:, 1:]
    assert emb.shape == (30, 4)
