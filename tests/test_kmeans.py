import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mvkc.embedding import degree_normalize
from mvkc.kmeans import _pivot_rows, cluster_sums, cpqr_labels
from mvkc.linalg import center_columns, truncated_svd
from mvkc.pipeline import PipelineConfig, run_pipeline
from mvkc.workers import SPECTRAL_MIN_ROWS
from oracles import (cluster_sums_oracle, cpqr_labels_oracle, indicator, kernel_factor,
                     lapack_pivots)
from synth import synth_multiview


def test_two_well_separated_pairs():
    # the spectral vectors of two pairs, each pair's rows close together
    U = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.01, 0.99]]) / np.sqrt(2)
    part = cpqr_labels(U, 2)
    assert part[0] == part[1]
    assert part[2] == part[3]
    assert part[0] != part[2]


def test_k_one():
    U = np.linalg.qr(np.random.default_rng(0).normal(size=(20, 3)))[0]
    assert np.array_equal(cpqr_labels(U, 1), np.zeros(20, dtype=np.int64))


def test_k_equals_n():
    # every point is a pivot, so each takes its own label
    U = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))[0]
    assert np.array_equal(np.sort(cpqr_labels(U, 6)), np.arange(6))


def test_determinism():
    U = np.linalg.qr(np.random.default_rng(2).normal(size=(100, 6)))[0]
    assert np.array_equal(cpqr_labels(U, 5), cpqr_labels(U.copy(), 5))


def test_every_cluster_nonempty():
    # many duplicate rows: all but one point share one row of U
    U = np.zeros((30, 4))
    U[:, 0] = 1.0
    U[0] = [0.0, 1.0, 1.0, 1.0]
    U[1:4, 1:] = np.eye(3) * 1e-3
    assert len(np.unique(cpqr_labels(U, 4))) == 4


def test_cpqr_labels_give_every_label_when_the_argmax_leaves_one_unused():
    # the pivot rows are rows 1 and 0, and their rotated block is
    # [[3, 1.5], [1.5, 1]]: both rows' largest |entry| is in column 0, so
    # the bare argmax leaves label 1 unused; each pivot row takes its own
    # column's label instead
    U = np.array([[1.0, 1.5], [1.5, 3.0], [0.5, 0.75]])
    assert np.array_equal(_pivot_rows(U), [1, 0])
    labels = cpqr_labels(U, 2)
    assert np.array_equal(labels[[1, 0]], [0, 1])
    assert np.array_equal(np.sort(np.unique(labels)), [0, 1])


def test_cpqr_labels_recover_rotated_blocks():
    # orthonormal block-indicator columns in a random orthogonal basis: the
    # CPQR labels alone, with no Lloyd step, give the blocks exactly
    rng = np.random.default_rng(3)
    sizes = [30, 7, 18, 45]
    truth = np.repeat(np.arange(4), sizes)
    G = indicator(truth) / np.sqrt(sizes)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    labels = cpqr_labels(G @ Q, 4)
    assert len(np.unique(labels)) == 4
    for c in range(4):
        assert len(np.unique(labels[truth == c])) == 1


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("n", [SPECTRAL_MIN_ROWS - 1, SPECTRAL_MIN_ROWS + 1])
def test_cpqr_labels_do_not_read_the_column_signs(n, k):
    # the labels depend on U only up to an orthogonal change of basis (Damle,
    # Minden and Ying 2019), so flipping the signs of any columns leaves them
    rng = np.random.default_rng(n + k)
    U = np.asfortranarray(np.linalg.qr(rng.normal(size=(n, k + 1)))[0])
    labels = cpqr_labels(U, k)
    for _ in range(3):
        signs = rng.choice([-1.0, 1.0], size=k + 1)
        assert np.array_equal(cpqr_labels(U * signs, k), labels)


def test_k_larger_than_n():
    with pytest.raises(ValueError):
        cpqr_labels(np.eye(3), 4)
    with pytest.raises(ValueError):  # fewer than k spectral vectors
        cpqr_labels(np.eye(5)[:, :3], 4)


def test_indicator_matrix():
    part = np.array([0, 2, 1])
    F = indicator(part)
    assert np.array_equal(F.sum(axis=1), [1, 1, 1])
    assert F[1, 2] == 1.0


@pytest.mark.parametrize("n, m", [(50000, 100), (20000, 55), (7, 3)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_cluster_sums_equal_the_sparse_indicator_product(n, m, order):
    rng = np.random.default_rng(n + m)
    X = np.asarray(rng.normal(size=(n, m)), order=order)
    k = 5
    labels = rng.integers(0, k - 1, size=n)  # label k - 1 does not occur
    sums = cluster_sums(X, labels, k)
    assert np.array_equal(sums, cluster_sums_oracle(X, labels, k))
    assert not sums[k - 1].any()


def test_cluster_sums_do_not_copy_a_column_major_input():
    n, m = 50000, 40
    X = np.asfortranarray(np.random.default_rng(0).normal(size=(n, m)))
    labels = np.arange(n) % 7
    tracemalloc.start()
    cluster_sums(X, labels, 7)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < n * m * 8 / 4


def _spectral_vectors(n, k, kernel):
    """U of one view's per-view pass: synthetic blobs, SVD, kernel map,
    degree normalization and the spectral embedding, with f = k."""
    X = synth_multiview(n, k, 1, noise=0.3, seed=n + k).views[0].features
    svd = truncated_svd(center_columns(X), k, seed=k)
    B, right = kernel_factor(kernel, svd.U, m=None if kernel == "quadratic" else 10 * k, seed=k)
    degree_normalize(B, right)
    return truncated_svd(B, k + 1, seed=k, right=right).U


@pytest.mark.parametrize("kernel", ["quadratic", "rbf"])
@pytest.mark.parametrize("k", [3, 5, 7, 10])
@pytest.mark.parametrize("n", [3000, 12000, 50000])
def test_greedy_pivots_and_labels_are_the_lapack_ones(n, k, kernel):
    U = _spectral_vectors(n, k, kernel)
    assert np.array_equal(_pivot_rows(U[:, :k]), lapack_pivots(U[:, :k]))
    assert np.array_equal(cpqr_labels(U, k), cpqr_labels_oracle(U, k))


@pytest.mark.parametrize("order", ["C", "F"])
def test_cpqr_labels_hold_n_long_vectors_only(order):
    # a few n-long vectors: no pivoting workspace and no n x k rotated array
    n, k = 200000, 10
    U = np.asarray(np.linalg.qr(np.random.default_rng(5).normal(size=(n, k + 1)))[0],
                   order=order)
    tracemalloc.start()
    labels = cpqr_labels(U, k)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert labels.shape == (n,) and labels.dtype == np.int64
    assert peak < 5 * n * 8


def test_no_module_calls_pivoted_qr(monkeypatch):
    qr = scipy.linalg.qr

    def unpivoted_qr(*args, **kwargs):
        assert not kwargs.get("pivoting", False), "scipy.linalg.qr called with pivoting=True"
        return qr(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", unpivoted_qr)
    ds = synth_multiview(600, 3, 2, noise=0.1, seed=8)
    for kernel in ("quadratic", "rbf"):
        labels = run_pipeline(ds, PipelineConfig(k=3, kernel=kernel)).consensus
        assert len(np.unique(labels)) == 3
