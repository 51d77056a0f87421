"""Dense linear algebra: column centering and seeded truncated SVDs.

``truncated_svd`` takes one of three routes for an n x d input:

- Gram, for tall inputs (n >= d) with d at most ``EXACT_SVD_MAX_DIM``: the
  top eigenpairs (lambda_i, v_i) of the d x d Gram matrix X.T X give
  s_i = sqrt(lambda_i), V = [v_i] and U = X V diag(1/s), read off one n-row
  product. It costs O(n d^2) and builds only the left vectors asked for. The
  Gram matrix squares the condition number: lambda_r carries an absolute
  error of about eps lambda_0, so s_r and the orthogonality of U are good to
  about eps (s_0 / s_r)^2. So the route takes a kept s_r / s_0 of at least
  ``GRAM_COND_FLOOR`` = 1e-4, where that is about 2e-8 (|U.T U - I| read
  1.1e-8 at most over 20 random spectra at the floor).
- exact ``scipy.linalg.svd``, for wide inputs and as the fallback when the
  Gram route would lose too much: a top eigenvalue that is not positive, or
  a kept s_r / s_0 below ``GRAM_COND_FLOOR``.
- randomized, when min(n, d) exceeds ``EXACT_SVD_MAX_DIM``: a Gaussian
  sketch with oversampling and QR-stabilized subspace power iterations,
  O(n d r) per pass, then a QR Rayleigh-Ritz step on X over the range of
  X W (Halko, Martinsson and Tropp 2011), ``_ritz``. Only this route calls
  ``_orth`` and ``_ritz``.

Every n-row product is formed as (W.T @ X.T).T, so BLAS runs along n and the
result is column-major; ``_orth``, the one QR call, factors it in place and
forms Q in the same buffer. On every route U is column-major. Its column
signs are whatever the route's LAPACK call or n-row product gives: the
pipeline reads U only through kernel values and the CPQR labels, and
neither depends on them.

The passes over n rows run on the row blocks of ``workers.row_blocks``: the
column centering (its means are one whole-array ``X.mean``), the n-row
products block by block into the one output, the Gram route's division by
s, and the Gram matrix X.T X and the Rayleigh-Ritz Q.T X as sums, in block
order, of the blocks' partial products, one w x d array per block. Below
the workers' size rule there is one block, and each pass is one whole-array
call; above it the block sums round differently from one product, by about
1e-16 relative, but the same on every core count, and every other pass
equals its whole-array form bit for bit. Of the n-row passes, only the
column means and ``_orth``'s QR run on one core.

Given t >= r, ``truncated_svd`` also returns the principal block
X V_t = U_t diag(s_t): the Gram route takes t eigenpairs,
forms X W_t as its one product and divides U out of its first r columns
into a new array, while the conditioning check reads the top r only; the
other routes scale their top t left vectors.

Given a d x d ``right`` M, ``truncated_svd`` factors X M without forming it
on the Gram route, which takes the eigenpairs of M.T (X.T X) M and forms
X (M W) as its one n-row product. X.T X carries an absolute error of about
eps ||X||^2, which M.T ... M carries into the Gram matrix as about
eps kappa(M.T M) lambda_0, on top of the route's own eps lambda_0. For a
Nystroem factor, M.T M = K_mm^{-1}, whose eigenvalues ``kernels.EIG_FLOOR``
= ``GRAM_COND_FLOOR``^2 floors, so that term stays at most
eps / GRAM_COND_FLOOR^2 relative to lambda_0, the same as the error the
route accepts at its floor. When the Gram route does not apply or its check
fails, X M is formed once, as one n-row product, and the exact or
randomized route factors it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .workers import map_blocks, sum_blocks

EXACT_SVD_MAX_DIM = 2048
OVERSAMPLE = 10  # extra sketch columns of the randomized SVD
POWER_ITERS = 4  # subspace iterations of the randomized SVD
GRAM_COND_FLOOR = 1e-4  # smallest kept s_r / s_0 the Gram route accepts


@dataclass
class SVDResult:
    """Truncated SVD: X ~ U diag(s) V.T with orthonormal U (n x r), V (d x r)."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    block: np.ndarray | None = None  # n x t principal block X V_t, when asked for


def center_columns(X):
    """Subtract the column means so every column sums to zero. The means
    are one whole-array ``X.mean(axis=0)``; the subtraction runs on row
    blocks into a new array of X's memory order."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    out = np.empty_like(X)
    map_blocks(len(X), lambda start, stop: np.subtract(X[start:stop], mean, out=out[start:stop]))
    return out


def _product(X, W):
    """X W as (W.T @ X.T).T, a new column-major n x w array, one row block at
    a time."""
    out = np.empty((len(X), W.shape[1]), order="F")
    map_blocks(len(X), lambda start, stop: np.matmul(W.T, X[start:stop].T,
                                                     out=out[start:stop].T))
    return out


def _inner(A, X):
    """A.T @ X for the n-row A and X, summed over the row blocks."""
    return sum_blocks(len(X), (A.shape[1], X.shape[1]),
                      lambda start, stop, out: np.matmul(A[start:stop].T, X[start:stop], out=out))


def _orth(Y):
    """Orthonormal basis Q of the range of the tall column-major Y, by an
    economic QR that overwrites Y: Q takes Y's buffer."""
    return scipy.linalg.qr(Y, mode="economic", overwrite_a=True, check_finite=False)[0]


def _ritz(X, W, r):
    """One QR Rayleigh-Ritz step on X over the range of X W (Halko, Martinsson
    and Tropp 2011): the top-r SVD of X restricted to that subspace."""
    Q = _orth(_product(X, W))
    Ub, s, Vt = scipy.linalg.svd(_inner(Q, X), full_matrices=False)
    # U in column-major order, as LAPACK returns it, so that column slices
    # such as the embedding's U[:, :k] stay contiguous for the CPQR labels
    return SVDResult(_product(Q, Ub[:, :r]), s[:r], Vt[:r].T)


def randomized_svd(X, r, seed=0):
    """Seeded randomized truncated SVD of rank r.

    Gaussian range sketch of width r + OVERSAMPLE and POWER_ITERS rounds of
    QR-stabilized subspace iteration, then the Rayleigh-Ritz step.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if not (1 <= r <= min(n, d)):
        raise ValueError(f"rank r={r} out of range for shape {X.shape}")
    sketch = min(r + OVERSAMPLE, min(n, d))
    W = np.random.default_rng(seed).standard_normal((d, sketch))
    for _ in range(POWER_ITERS):
        Q = _orth(_product(X, W))
        W = _orth(_inner(Q, X).T)
    return _ritz(X, W, r)


def truncated_svd(X, r, seed=0, t=None, right=None):
    """Rank-r SVD of X, or of X @ right given the d x d ``right``, by the
    route the module docstring gives for X's shape.

    The Gram and exact routes return min(n, d, r) columns; ``seed`` seeds
    the randomized route. Given ``t``, the result also carries the principal
    block of min(n, d, t) columns.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n >= d and d <= EXACT_SVD_MAX_DIM:
        r = min(r, d)
        w = r if t is None else min(t, d)
        G = _inner(X, X)
        if right is not None:
            G = right.T @ G @ right
        evals, W = scipy.linalg.eigh(G, subset_by_index=[d - w, d - 1])
        evals, W = evals[::-1], W[:, ::-1]
        # eigenvalues of the Gram matrix are squared singular values; the
        # tail beyond r may sit at round-off, as only its span is kept
        if evals[0] > 0.0 and evals[r - 1] >= GRAM_COND_FLOOR**2 * evals[0]:
            P = _product(X, W if right is None else right @ W)
            s = np.sqrt(evals[:r])
            # U = X W_r diag(1/s), in place when no principal block is kept
            U = P if t is None else np.empty((n, r), order="F")
            map_blocks(n, lambda start, stop: np.divide(P[start:stop, :r], s, out=U[start:stop]))
            return SVDResult(U, s, W[:, :r], None if t is None else P)
    if right is not None:
        X = _product(X, right)
    if min(n, d) > EXACT_SVD_MAX_DIM:
        svd = randomized_svd(X, t or r, seed=seed)
        block = None if t is None else svd.U * svd.s
        return SVDResult(svd.U[:, :r], svd.s[:r], svd.V[:, :r], block)
    U, s, Vt = scipy.linalg.svd(X, full_matrices=False)
    block = None if t is None else U[:, :t] * s[:t]
    return SVDResult(U[:, :r], s[:r], Vt[:r].T, block)
