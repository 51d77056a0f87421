import itertools

import numpy as np
import pytest

from mvkc.kmeans import cpqr_labels, kmeans
from oracles import indicator


def exhaustive_best_inertia(X, k):
    """Minimum inertia over every possible assignment (n <= 12)."""
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        if len(np.unique(labels)) < k:
            continue
        inertia = 0.0
        for c in range(k):
            pts = X[labels == c]
            inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
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
