"""Deterministic discretization: a seedless CPQR start, then Lloyd k-means.

A clustering is an int64 label array. Empty clusters are repaired by moving
the point currently farthest from its centroid into the empty cluster, so
every label 0..k-1 occurs in the result. Per-cluster sums, here and in the
view weights, come from ``cluster_sums``.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp


def cluster_sums(X, labels, k):
    """k x m per-cluster row sums of the n x m matrix X: the k x n sparse
    indicator of ``labels`` times X, summed in row order."""
    n = len(labels)
    indicator = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    return indicator @ X


def cpqr_labels(U, k):
    """Labels from the first k spectral vectors U[:, :k] (Damle, Minden and
    Ying 2019): a column-pivoted QR picks k rows, U[:, :k] is rotated by the
    polar factor of those rows, and each row takes the column of its largest
    |entry|. A label may not occur; ``kmeans`` repairs that."""
    Uk = U[:, :k]
    _, piv = scipy.linalg.qr(Uk.T, mode="r", pivoting=True)
    W, _, Vt = np.linalg.svd(Uk[piv[:k]].T)
    return np.argmax(np.abs(Uk @ (W @ Vt)), axis=1)


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


def _means(X, labels, k):
    """k x m cluster means; an empty cluster's row is 0."""
    return cluster_sums(X, labels, k) / np.maximum(np.bincount(labels, minlength=k), 1)[:, None]


def _assign(X, centroids):
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = c2[None, :] - 2.0 * X @ centroids.T
    labels = np.argmin(d2, axis=1)
    x2 = np.einsum("ij,ij->i", X, X)
    dists = np.maximum(d2[np.arange(len(labels)), labels] + x2, 0.0)
    return labels, dists


def kmeans(X, k, start, max_iter=300, tol=1e-6):
    """Lloyd iterations from the means of ``start``, one label in 0..k-1 per
    row of X, after repairing any cluster it leaves empty.

    Returns (labels, inertia), with int64 labels in which all k clusters
    occur. Stops when the relative centroid movement drops below ``tol`` or
    after ``max_iter`` iterations.
    """
    X = np.asarray(X, dtype=np.float64)
    if not (1 <= k <= len(X)):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={len(X)}")
    labels = np.array(start, dtype=np.int64)
    diff = X - _means(X, labels, k)[labels]
    _repair_empty(labels, np.einsum("ij,ij->i", diff, diff), k)
    centroids = _means(X, labels, k)
    prev_inertia = np.inf
    repaired = False
    for _ in range(max_iter):
        labels, dists = _assign(X, centroids)
        inertia = dists.sum()
        # Lloyd inertia is nonincreasing except right after a repair
        assert repaired or inertia <= prev_inertia * (1.0 + 1e-12) + 1e-12
        prev_inertia = inertia
        repaired = _repair_empty(labels, dists, k)
        new_centroids = _means(X, labels, k)
        shift = np.linalg.norm(new_centroids - centroids)
        scale = np.linalg.norm(centroids)
        centroids = new_centroids
        if shift <= tol * max(scale, 1.0):
            break
    labels, dists = _assign(X, centroids)
    if _repair_empty(labels, dists, k):
        diff = X - centroids[labels]
        dists = np.einsum("ij,ij->i", diff, diff)
    return labels.astype(np.int64), float(dists.sum())
