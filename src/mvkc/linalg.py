"""Dense linear algebra: column centering and seeded truncated SVDs.

The randomized SVD uses a Gaussian sketch with oversampling and subspace
power iterations (QR-stabilized), which is accurate enough for spectral
clustering while costing O(n d r) per pass. Signs are fixed so the
largest-magnitude entry of each left singular vector is positive.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

EXACT_SVD_MAX_DIM = 2048
OVERSAMPLE = 10  # extra sketch columns of the randomized SVD
POWER_ITERS = 4  # subspace iterations of the randomized SVD


@dataclass
class SVDResult:
    """Truncated SVD: X ~ U diag(s) V.T with orthonormal U (n x r), V (d x r)."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


def center_columns(X):
    """Subtract the column means so every column sums to zero."""
    X = np.asarray(X, dtype=np.float64)
    return X - X.mean(axis=0, keepdims=True)


def _fix_signs(U, V):
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs, V * signs


def randomized_svd(X, r, seed=0):
    """Seeded randomized truncated SVD of rank r.

    Gaussian range sketch of width r + OVERSAMPLE, POWER_ITERS rounds of
    QR-stabilized subspace iteration, then an exact SVD of the projected
    (r + OVERSAMPLE) x d matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if not (1 <= r <= min(n, d)):
        raise ValueError(f"rank r={r} out of range for shape {X.shape}")
    sketch = min(r + OVERSAMPLE, min(n, d))
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, sketch))
    Q, _ = np.linalg.qr(X @ G)
    for _ in range(POWER_ITERS):
        Q, _ = np.linalg.qr(X.T @ Q)
        Q, _ = np.linalg.qr(X @ Q)
    B = Q.T @ X
    Ub, s, Vt = scipy.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    U, V = _fix_signs(U[:, :r], Vt[:r].T)
    return SVDResult(U, s[:r], V)


def truncated_svd(X, r, seed=0):
    """Rank-r SVD, exact for small inputs and randomized above the guard."""
    X = np.asarray(X, dtype=np.float64)
    if min(X.shape) <= EXACT_SVD_MAX_DIM:
        U, s, Vt = scipy.linalg.svd(X, full_matrices=False)
        U, V = _fix_signs(U[:, :r], Vt[:r].T)
        return SVDResult(U, s[:r], V)
    return randomized_svd(X, r, seed=seed)
