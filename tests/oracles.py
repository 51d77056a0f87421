"""Dense reference computations that the tests compare the factorized code
against. They materialize n x n or n x k matrices or full SVDs, so they suit
small inputs only."""

from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from mvkc.data import SparseGraph
from mvkc.kernels import apply_map
from mvkc.linalg import EXACT_SVD_MAX_DIM, SVDResult


def consensus_affinity_oracle(factor_values, lambdas, max_n=2048):
    """Materialized weighted consensus affinity sum_v lambda_v B_v @ B_v.T.

    The side-by-side weighted factors have exactly this Gram matrix; the
    pipeline's consensus has it less each view's tail past its top 2(f + 1)
    directions.
    """
    n = factor_values[0].shape[0]
    if n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}, got {n}")
    out = np.zeros((n, n))
    for lam, B in zip(lambdas, factor_values):
        out += lam * (B @ B.T)
    return out


def kernel_factor(kind, U, m=None, gamma=None, seed=0):
    """``apply_map``'s factor F and right factor M, None for quadratic."""
    right = None if kind == "quadratic" else np.empty((m, m))
    return apply_map(kind, U, m, gamma=gamma, seed=seed, right=right), right


def explicit_map(kind, U, m=None, gamma=None, seed=0):
    """The map Phi(U) with its whitening product formed: for rbf, the n x m
    by m x m product K_nm M that the pipeline applies on the m x m side."""
    F, right = kernel_factor(kind, U, m, gamma, seed)
    return F if right is None else F @ right


def indicator(labels):
    """Binary n x k membership matrix of labels 0..k-1, exactly one 1 per row."""
    F = np.zeros((len(labels), labels.max() + 1))
    F[np.arange(len(labels)), labels] = 1.0
    return F


def cluster_sums_oracle(X, labels, k):
    """k x m per-cluster row sums of X as the k x n sparse indicator of
    ``labels`` times X; scipy sums each cluster's rows in row order."""
    n = len(labels)
    G = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n))
    return G @ X


def lapack_pivots(Uk):
    """The k rows of the n x k array Uk that LAPACK's QR with column pivoting
    (``dgeqp3``) of Uk.T picks, in pick order."""
    _, piv = scipy.linalg.qr(Uk.T, mode="r", pivoting=True, check_finite=False)
    return piv[:Uk.shape[1]]


def cpqr_labels_oracle(U, k):
    """``mvkc.kmeans.cpqr_labels`` as first written: LAPACK's pivots, then
    ``np.argmax`` over the whole n x k rotated array. It agrees with
    ``cpqr_labels`` wherever each pivot row's largest |entry| lies in its
    own column, so that no pivot row's label is overruled."""
    Uk = U[:, :k]
    W, _, Vt = np.linalg.svd(Uk[lapack_pivots(Uk)].T)
    return np.argmax(np.abs(Uk @ (W @ Vt)), axis=1)


def exact_svd(X):
    """Full dense SVD, guarded to small matrices."""
    X = np.asarray(X, dtype=np.float64)
    if min(X.shape) > EXACT_SVD_MAX_DIM:
        raise ValueError(
            f"exact_svd limited to min dim {EXACT_SVD_MAX_DIM}, got {X.shape}"
        )
    U, s, Vt = scipy.linalg.svd(X, full_matrices=False)
    return SVDResult(U, s, Vt.T)


def align_signs(res, ref):
    """``res`` with each pair of singular vectors flipped where its left
    vector points away from the same column of ``ref.U``: an SVD fixes each
    pair only up to a common sign."""
    r = res.U.shape[1]
    signs = np.where(np.einsum("ij,ij->j", res.U, ref.U[:, :r]) < 0.0, -1.0, 1.0)
    return SVDResult(res.U * signs, res.s, res.V * signs, res.block)


def same_graph(a, b):
    """True when two graphs hold the same edges and weights, in any order."""
    return (
        a.n == b.n
        and a.symmetric == b.symmetric
        and np.array_equal(a.adj.indptr, b.adj.indptr)
        and np.array_equal(a.adj.indices, b.adj.indices)
        and np.array_equal(a.adj.data, b.adj.data)
    )


def propagation_oracle(graph, features, p):
    """``mvkc.propagation.propagate`` as first written: the sparse operator
    D^{-1/2} (A + I) D^{-1/2} built as a CSR matrix from A + I and two
    diagonal products (zero rows where the A + I degree is not positive),
    then multiplied into the features p times."""
    adj = graph.adj + sp.identity(graph.n, format="csr")
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, degrees, 1.0) ** -0.5
    inv_sqrt[degrees <= 0] = 0.0
    op = (sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)).tocsr()
    out = np.asarray(features, dtype=np.float64)
    for _ in range(p):
        out = op @ out
    return out


def k_smallest_oracle(d2, k):
    """Column indices of the k smallest entries of each row of ``d2`` from a
    full stable sort: ties keep the lowest column first, and NaN sorts last."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def knn_oracle(features, k, self_loops=False):
    """The k-NN graph of ``mvkc.data.build_knn_graph`` from a full stable sort
    of each row of the n x n squared distances, sq_i - 2 g_ij + sq_j, so equal
    distances keep the lowest index first."""
    X = np.asarray(features, dtype=np.float64)
    n = len(X)
    sq = np.einsum("ij,ij->i", X, X)
    d2 = sq[:, None] - 2.0 * X @ X.T + sq[None, :]
    np.fill_diagonal(d2, np.inf)
    neighbors = k_smallest_oracle(d2, k)
    rows = np.repeat(np.arange(n), k)
    cols = neighbors.ravel()
    loops = np.arange(n) if self_loops else np.arange(0)
    # the union of both edge directions, each edge once
    keys = np.unique(np.concatenate([rows * n + cols, cols * n + rows, loops * (n + 1)]))
    return SparseGraph(n, keys // n, keys % n, np.ones(len(keys)), symmetric=True)


def exact_knn_edges(features, k):
    """The directed edges (i, j) and (j, i) of each row i and its k nearest
    other rows j, by squared distances computed exactly, in rationals, on the
    float inputs; equal distances keep the lowest index first."""
    X = [[Fraction(x) for x in row] for row in np.asarray(features, dtype=np.float64).tolist()]
    edges = set()
    for i, xi in enumerate(X):
        d2 = {j: sum((a - b) ** 2 for a, b in zip(xi, xj)) for j, xj in enumerate(X) if j != i}
        for j in sorted(d2, key=lambda j: (d2[j], j))[:k]:
            edges |= {(i, j), (j, i)}
    return edges


def ritz_oracle(X, W, r):
    """The QR Rayleigh-Ritz step of ``mvkc.linalg`` as first written: X W in
    row-major order and ``np.linalg.qr`` on a copy."""
    Q, _ = np.linalg.qr(X @ W)
    Ub, s, Vt = scipy.linalg.svd(Q.T @ X, full_matrices=False)
    return SVDResult((Ub[:, :r].T @ Q.T).T, s[:r], Vt[:r].T)
