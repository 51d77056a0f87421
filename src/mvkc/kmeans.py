"""Seeded Lloyd k-means with k-means++ initialization.

Deterministic given (data, k, seed). A clustering is an int64 label array.
Empty clusters are repaired by moving the point currently farthest from its
centroid into the empty cluster, so every label 0..k-1 occurs in the result.
Per-cluster sums, here and in the view weights, come from ``cluster_sums``.
"""

import numpy as np
import scipy.sparse as sp


def cluster_sums(X, labels, k):
    """k x m per-cluster row sums of the n x m matrix X: the k x n sparse
    indicator of ``labels`` times X, summed in row order."""
    n = len(labels)
    indicator = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    return indicator @ X


def _plusplus_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.einsum("ij,ij->i", X - centroids[0], X - centroids[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centroids[c] = X[idx]
        cand = np.einsum("ij,ij->i", X - centroids[c], X - centroids[c])
        np.minimum(d2, cand, out=d2)
    return centroids


def _repair_empty(labels, dists, k):
    """Move the worst-fitting point from a multi-member cluster into each
    empty cluster. Returns True if anything changed."""
    counts = np.bincount(labels, minlength=k)
    changed = False
    for c in range(k):
        while counts[c] == 0:
            candidates = np.flatnonzero(counts[labels] > 1)
            idx = candidates[int(np.argmax(dists[candidates]))]
            counts[labels[idx]] -= 1
            labels[idx] = c
            counts[c] += 1
            dists[idx] = -1.0
            changed = True
    return changed


def _assign(X, centroids):
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = c2[None, :] - 2.0 * X @ centroids.T
    labels = np.argmin(d2, axis=1)
    x2 = np.einsum("ij,ij->i", X, X)
    dists = np.maximum(d2[np.arange(len(labels)), labels] + x2, 0.0)
    return labels, dists


def kmeans(X, k, seed=0, max_iter=300, tol=1e-6):
    """Lloyd iterations from a k-means++ start.

    Returns (labels, inertia), with int64 labels in which all k clusters
    occur. Stops when the relative centroid movement drops below ``tol`` or
    after ``max_iter`` iterations.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(X, k, rng)
    prev_inertia = np.inf
    repaired = False
    for _ in range(max_iter):
        labels, dists = _assign(X, centroids)
        inertia = dists.sum()
        # Lloyd inertia is nonincreasing except right after a repair
        assert repaired or inertia <= prev_inertia * (1.0 + 1e-12) + 1e-12
        prev_inertia = inertia
        repaired = _repair_empty(labels, dists, k)
        new_centroids = cluster_sums(X, labels, k) / np.bincount(labels, minlength=k)[:, None]
        shift = np.linalg.norm(new_centroids - centroids)
        scale = np.linalg.norm(centroids)
        centroids = new_centroids
        if shift <= tol * max(scale, 1.0):
            break
    labels, dists = _assign(X, centroids)
    repaired = _repair_empty(labels, dists, k)
    if repaired:
        diff = X - centroids[labels]
        dists = np.einsum("ij,ij->i", diff, diff)
    inertia = float(dists.sum())
    return labels.astype(np.int64), inertia
