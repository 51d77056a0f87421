"""Deterministic discretization: the seedless CPQR labels of the spectral
vectors, with no iteration (Damle, Minden and Ying 2019).

A clustering is an int64 label array in which every label 0..k-1 occurs:
each of the k pivot rows takes its own column's label. Per-cluster sums, in
the view weights, come from ``cluster_sums``, a column-wise ``np.bincount``
with no sparse indicator matrix. Its columns and the n-row steps of
``cpqr_labels`` (the pivots' norms and projections, the rotation and its
running argmax) run on the pool of ``mvkc.workers`` above its size rule, on
a partition that depends on n alone, so the labels do not depend on the
core count.

Memory: beyond the spectral vectors U, ``cpqr_labels`` holds a few n-long
vectors. The CPQR pivots come from greedy column pivoting in numpy rather
than LAPACK's pivoted QR, whose workspace and R grow with n, and the argmax
over k columns is a running comparison, one column at a time, with ties to
the lowest index. On the pool, the row blocks of ``cpqr_labels`` write into
those same vectors, allocated on the calling thread, and each worker of
``cluster_sums`` holds one k-long column of sums, so none holds more on
more cores.
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
    |entry|. Each pivot row then takes its own column's label, so every
    label 0..k-1 occurs."""
    if not 1 <= k <= min(U.shape):
        raise ValueError(f"need 1 <= k <= n and k spectral vectors, got k={k}, U {U.shape}")
    Uk = U[:, :k]
    piv = _pivot_rows(Uk)
    W, _, Vt = np.linalg.svd(Uk[piv].T)
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
    labels[piv] = np.arange(k)  # the pivots are distinct
    return labels
