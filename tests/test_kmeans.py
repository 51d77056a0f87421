import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mvkc.kmeans
from mvkc.embedding import degree_normalize, implicit_degrees, spectral_embedding
from mvkc.kernels import apply_map
from mvkc.kmeans import _assign, _pivot_rows, cluster_sums, cpqr_labels, kmeans
from mvkc.linalg import center_columns, truncated_svd
from mvkc.pipeline import PipelineConfig, run_pipeline
from oracles import (
    assign_oracle,
    cluster_sums_oracle,
    cpqr_labels_oracle,
    indicator,
    lapack_pivots,
)
from synth import synth_multiview


def exhaustive_best_inertia(X, k, block=2**15):
    """Minimum inertia over every assignment of the n <= 12 points that uses
    all k labels, enumerated as the base-k digits of 0 .. k^n - 1, ``block``
    assignments at a time."""
    n = len(X)
    best = np.inf
    for start in range(0, k**n, block):
        labels = np.arange(start, min(start + block, k**n))[:, None] // k ** np.arange(n) % k
        inertia = np.zeros(len(labels))
        complete = np.ones(len(labels), dtype=bool)
        for c in range(k):
            member = (labels == c).astype(np.float64)
            count = member.sum(axis=1)
            complete &= count > 0
            means = (member @ X) / np.maximum(count, 1)[:, None]
            inertia += (member * ((X - means[:, None]) ** 2).sum(axis=2)).sum(axis=1)
        best = min(best, inertia[complete].min(initial=np.inf))
    return best


def test_two_well_separated_pairs():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    part, inertia = kmeans(X, 2, start=np.arange(4) % 2)
    assert part[0] == part[1]
    assert part[2] == part[3]
    assert part[0] != part[2]
    assert inertia == pytest.approx(0.01)


def test_k_one():
    X = np.random.default_rng(0).normal(size=(20, 3))
    part, inertia = kmeans(X, 1, start=np.arange(20) % 1)
    assert np.all(part == 0)
    assert inertia == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())


def test_k_equals_n():
    X = np.arange(6, dtype=float)[:, None]
    part, inertia = kmeans(X, 6, start=np.arange(6) % 6)
    assert len(np.unique(part)) == 6
    assert inertia == pytest.approx(0.0, abs=1e-12)


def test_matches_exhaustive_oracle_on_separated_blobs():
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    X = np.vstack([c + 0.1 * rng.normal(size=(4, 2)) for c in centers])
    part, inertia = kmeans(X, 3, start=np.arange(12) % 3)
    assert inertia == pytest.approx(exhaustive_best_inertia(X, 3), rel=1e-9)


def test_determinism():
    X = np.random.default_rng(2).normal(size=(100, 4))
    a, ia = kmeans(X, 5, start=np.arange(100) % 5)
    b, ib = kmeans(X, 5, start=np.arange(100) % 5)
    assert np.array_equal(a, b)
    assert ia == ib


def test_every_cluster_nonempty():
    # many duplicate points force empty-cluster repair
    X = np.zeros((30, 2))
    X[0] = [100.0, 100.0]
    part, _ = kmeans(X, 4, start=np.arange(30) % 4)
    assert len(np.unique(part)) == 4


def test_start_with_empty_cluster_gives_all_k_labels():
    # the start leaves cluster 2 empty; it is repaired before the first mean
    X = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0), np.full((5, 2), 20.0)])
    part, _ = kmeans(X, 3, start=np.repeat([0, 1], [7, 8]))
    assert np.array_equal(np.sort(np.unique(part)), [0, 1, 2])


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


def test_k_larger_than_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 1)), 4, start=np.arange(3) % 4)


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


def test_kmeans_from_a_full_start_holds_no_n_by_f_copy():
    # a start in which every cluster occurs needs no repair, so no distance
    # to the start's means is formed, and the row norms are taken once
    n, f, k = 200000, 10, 10
    rng = np.random.default_rng(4)
    truth = rng.integers(0, k, size=n)
    X = np.asfortranarray(rng.normal(size=(k, f))[truth] * 5 + rng.normal(size=(n, f)))
    start = np.arange(n) % k
    tracemalloc.start()
    kmeans(X, k, start=start)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2.7 * n * f * 8


def _spectral_vectors(n, k, kernel):
    """U of one view's per-view pass: synthetic blobs, SVD, kernel map,
    degree normalization and the spectral embedding, with f = k."""
    X = synth_multiview(n, k, 1, noise=0.3, seed=n + k).views[0].features
    svd = truncated_svd(center_columns(X), k, seed=k)
    B = apply_map(kernel, svd.U, m=None if kernel == "quadratic" else 10 * k, seed=k)
    degree_normalize(B, implicit_degrees(B))
    return spectral_embedding(B, k, seed=k).U


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


def test_assign_holds_one_k_by_n_array_and_n_long_vectors():
    n, f, k = 200000, 10, 10
    rng = np.random.default_rng(6)
    X = np.asfortranarray(rng.normal(size=(n, f)))
    x2 = np.einsum("ij,ij->i", X, X)
    C = rng.normal(size=(k, f))
    tracemalloc.start()
    _assign(X, C, x2)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < (k + 2.5) * n * 8


@pytest.mark.parametrize("case", ["random", "duplicate-centroids", "equidistant"])
def test_assign_equals_the_argmin_oracle_ties_included(case):
    rng = np.random.default_rng(7)
    if case == "random":
        X, C = rng.normal(size=(5000, 6)), rng.normal(size=(7, 6))
    elif case == "duplicate-centroids":
        # rows 2 and 4 repeat rows 0 and 1: every point ties exactly
        X = rng.normal(size=(5000, 6))
        C = rng.normal(size=(3, 6))[[0, 1, 0, 2, 1]]
    else:
        # integer points on the bisector x = 1 of centroids (0, 0) and (2, 0),
        # computed exactly, so their distances to both are equal
        X = np.column_stack([rng.integers(0, 3, size=5000), rng.integers(-3, 4, size=5000)])
        X = X.astype(np.float64)
        C = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 5.0], [2.0, 0.0]])
    x2 = np.einsum("ij,ij->i", X, X)
    labels, dists = _assign(X, C, x2)
    want_labels, want_dists = assign_oracle(X, C, x2)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(dists, want_dists)
    if case == "equidistant":  # (1, y) with |y| <= 2 ties between centroids 0, 1 and 3
        on_bisector = (X[:, 0] == 1.0) & (np.abs(X[:, 1]) <= 2.0)
        assert on_bisector.any() and (labels[on_bisector] == 0).all()


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


def _counted_assign(monkeypatch):
    """Wrap ``mvkc.kmeans._assign`` and return the list of centroids it is
    called with."""
    calls, assign = [], mvkc.kmeans._assign

    def counted(X, centroids, x2):
        calls.append(centroids.copy())
        return assign(X, centroids, x2)

    monkeypatch.setattr(mvkc.kmeans, "_assign", counted)
    return calls


@pytest.mark.parametrize("n, k", [(300, 3), (5000, 10)])
def test_a_step_that_leaves_the_centroids_unchanged_ends_lloyd_without_a_final_assignment(
        n, k, monkeypatch):
    rng = np.random.default_rng(n)
    truth = rng.integers(0, k, size=n)
    X = np.asfortranarray(rng.normal(size=(k, 6))[truth] * 3 + rng.normal(size=(n, 6)))
    start = np.arange(n) % k
    calls = _counted_assign(monkeypatch)
    labels, inertia = kmeans(X, k, start)
    skipped = list(calls)
    calls.clear()
    # never taking the early return runs the final assignment as before
    with monkeypatch.context() as patch:
        patch.setattr(mvkc.kmeans.np, "array_equal", lambda a, b: False)
        forced_labels, forced_inertia = kmeans(X, k, start)
    assert np.array_equal(labels, forced_labels) and labels.dtype == np.int64
    assert inertia == forced_inertia
    assert len(skipped) == len(calls) - 1
    # the assignment dropped is the last one, which repeated its centroids
    assert all(np.array_equal(a, b) for a, b in zip(skipped, calls))
    assert np.array_equal(calls[-1], calls[-2])


def test_a_loop_that_stops_on_tol_with_a_nonzero_shift_still_assigns_once_more(monkeypatch):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 3))
    calls = _counted_assign(monkeypatch)
    kmeans(X, 4, np.arange(200) % 4, tol=10.0)  # stops after one step
    assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])


def test_a_loop_that_repaired_an_empty_cluster_still_assigns_once_more(monkeypatch):
    # every point ties on three equal centroids: each step leaves clusters
    # 1 and 2 empty and repairs them, and the means stay where they were
    calls = _counted_assign(monkeypatch)
    labels, inertia = kmeans(np.zeros((6, 2)), 3, np.arange(6) % 3)
    assert len(calls) == 2 and np.array_equal(calls[0], calls[1])
    assert sorted(np.bincount(labels)) == [1, 1, 4] and inertia == 0.0
