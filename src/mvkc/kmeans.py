"""Deterministic discretization: a seedless CPQR start, then Lloyd k-means.

A clustering is an int64 label array. Empty clusters are repaired by moving
the point currently farthest from its centroid into the empty cluster, so
every label 0..k-1 occurs in the result. Per-cluster sums, here and in the
view weights, come from ``cluster_sums``, a column-wise ``np.bincount`` with
no sparse indicator matrix. Its columns, the row blocks of ``_assign``, and
the n-row steps of ``cpqr_labels`` (the pivots' norms and projections, the
rotation and its running argmax) run on the pool of ``mvkc.workers`` above
its size rule, on a partition that depends on n alone, so the labels do not
depend on the core count.

Memory: beyond the spectral vectors U, ``cpqr_labels`` holds a few n-long
vectors, and ``_assign`` holds one k x n distance array plus a few n-long
vectors. The CPQR pivots come from greedy column pivoting in numpy rather
than LAPACK's pivoted QR, whose workspace and R grow with n, and each
argmin or argmax over k columns is a running comparison, one column at a
time, with ties to the lowest index. On the pool, the row blocks of
``_assign`` and ``cpqr_labels`` write into those same arrays, allocated on
the calling thread, and each worker of ``cluster_sums`` holds one k-long
column of sums, so none holds more on more cores.
"""

import numpy as np

from .workers import map_blocks, map_columns


def cluster_sums(X, labels, k):
    """k x m per-cluster row sums of the n x m matrix X, one column at a
    time, each summed in row order. At most one column per worker is copied
    at a time, so X may be in either memory order."""
    sums = np.empty((k, X.shape[1]))

    def column(j):
        sums[:, j] = np.bincount(labels, weights=X[:, j], minlength=k)

    map_columns(len(X), X.shape[1], column)
    return sums


def _pivot_rows(Uk):
    """The k rows of the n x k array Uk that QR with column pivoting of Uk.T
    picks, in pick order (Businger and Golub 1965): take the row of largest
    remaining squared norm, orthogonalize it twice against the rows taken,
    and subtract its squared projections from every norm. O(nk^2) time and
    O(n) memory beyond Uk. The first norms and each step's projection and
    norm update run on row blocks; the argmax is global."""
    n, k = Uk.shape
    norms, proj = np.empty(n), np.empty(n)
    map_blocks(n, lambda start, stop: np.einsum("ij,ij->i", Uk[start:stop], Uk[start:stop],
                                                out=norms[start:stop]))
    Q = np.zeros((k, k))  # orthonormal basis of the rows taken, one per row
    piv = np.empty(k, dtype=np.int64)

    def update(start, stop):
        p = np.matmul(Uk[start:stop], Q[j], out=proj[start:stop])
        norms[start:stop] -= np.square(p, out=p)

    for j in range(k):
        piv[j] = np.argmax(norms)
        q = Uk[piv[j]].copy()
        for _ in range(2):
            q -= Q.T @ (Q @ q)
        Q[j] = q / np.linalg.norm(q)
        map_blocks(n, update)
        norms[piv[j]] = -np.inf  # a row taken is never taken again
    return piv


def cpqr_labels(U, k):
    """Labels from the first k spectral vectors U[:, :k] (Damle, Minden and
    Ying 2019): column pivoting picks k rows, U[:, :k] is rotated by the
    polar factor of those rows, and each row takes the column of its largest
    |entry|. A label may not occur; ``kmeans`` repairs that."""
    Uk = U[:, :k]
    W, _, Vt = np.linalg.svd(Uk[_pivot_rows(Uk)].T)
    R = W @ Vt
    n = len(Uk)
    labels = np.zeros(n, dtype=np.int64)
    best, col, larger = np.empty(n), np.empty(n), np.empty(n, dtype=bool)

    def block(start, stop):
        # argmax of |Uk R| over columns, one column at a time
        u, label, low = Uk[start:stop], labels[start:stop], best[start:stop]
        v, mask = col[start:stop], larger[start:stop]
        np.abs(np.matmul(u, R[:, 0], out=low), out=low)
        for c in range(1, k):
            np.abs(np.matmul(u, R[:, c], out=v), out=v)
            np.putmask(label, np.greater(v, low, out=mask), c)
            np.maximum(low, v, out=low)

    map_blocks(n, block)
    return labels


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


def _assign(X, centroids, x2):
    """Nearest centroid of each row of X and its squared distance; ``x2``
    holds the squared row norms of X. Ties go to the lowest index."""
    # scaling the small operand by -2 is exact, so d2 rounds as c2 - 2 C X.T
    scaled = -2.0 * centroids
    c2 = np.einsum("ij,ij->i", centroids, centroids)[:, None]
    d2 = np.empty((len(centroids), len(X)))
    labels = np.zeros(len(X), dtype=np.int64)
    best, smaller = np.empty(len(X)), np.empty(len(X), dtype=bool)

    def block(start, stop):
        d2b = np.matmul(scaled, X[start:stop].T, out=d2[:, start:stop])
        d2b += c2
        label, low, mask = labels[start:stop], best[start:stop], smaller[start:stop]
        low[:] = d2b[0]
        for c in range(1, len(d2b)):
            np.putmask(label, np.less(d2b[c], low, out=mask), c)
            np.minimum(low, d2b[c], out=low)
        low += x2[start:stop]
        np.maximum(low, 0.0, out=low)

    map_blocks(len(X), block)
    return labels, best


def kmeans(X, k, start, max_iter=300, tol=1e-6):
    """Lloyd iterations from the means of ``start``, one label in 0..k-1 per
    row of X, after repairing any cluster it leaves empty.

    Returns (labels, inertia), with int64 labels in which all k clusters
    occur. Stops when the relative centroid movement drops below ``tol`` or
    after ``max_iter`` iterations, then assigns once more to the last
    centroids. A step that repairs no cluster and leaves the centroids
    unchanged, bit for bit, ends the loop with its own assignment, which
    that last one would repeat.
    """
    X = np.asarray(X, dtype=np.float64)
    if not (1 <= k <= len(X)):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={len(X)}")
    # the labels are returned in the call's first array, so no array that
    # outlives the call sits above the loop's temporaries in the heap
    result = np.array(start, dtype=np.int64)
    if np.bincount(result, minlength=k).min() == 0:
        diff = X - _means(X, result, k)[result]
        _repair_empty(result, np.einsum("ij,ij->i", diff, diff), k)
        del diff
    x2 = np.einsum("ij,ij->i", X, X)
    centroids = _means(X, result, k)
    prev_inertia = np.inf
    repaired = settled = False
    for _ in range(max_iter):
        labels, dists = _assign(X, centroids, x2)
        inertia = dists.sum()
        # Lloyd inertia is nonincreasing except right after a repair
        assert repaired or inertia <= prev_inertia * (1.0 + 1e-12) + 1e-12
        prev_inertia = inertia
        repaired = _repair_empty(labels, dists, k)
        new_centroids = _means(X, labels, k)
        # the final assignment would repeat this one, bit for bit
        settled = not repaired and np.array_equal(new_centroids, centroids)
        if settled:
            break
        del dists  # the next assignment can take its memory
        shift = np.linalg.norm(new_centroids - centroids)
        scale = np.linalg.norm(centroids)
        centroids = new_centroids
        if shift <= tol * max(scale, 1.0):
            break
    if not settled:
        labels, dists = _assign(X, centroids, x2)
    del x2  # before the repair's n x m difference
    if _repair_empty(labels, dists, k):
        diff = X - centroids[labels]
        dists = np.einsum("ij,ij->i", diff, diff)
    result[:] = labels
    return result, float(dists.sum())
