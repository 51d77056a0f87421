"""Explicit feature maps for nonnegative kernels, named as ``mvkc run --kernel``
takes them.

``quadratic``, (u.v)^2, has an exact f(f+1)/2-dimensional map. ``rbf``,
exp(-gamma |u - v|^2), and ``sigmoid``, tanh(slope u.v + coef0), are
infinite-dimensional and get landmark (Nystroem) approximations: sample m
rows, form the landmark kernel matrix, and whiten by its inverse square root.
``apply_map`` does either in one call and returns the factor Phi(U); the
implicit affinity of the mapped data is then Phi(U) @ Phi(U).T.

A Nystroem map builds K_nm and its product with the whitening matrix one row
block at a time, so it never holds an n x m array beside the factor. Each
kernel block is built in its own buffer, one elementwise step at a time."""

import numpy as np
import scipy.linalg

KERNEL_KINDS = ("quadratic", "rbf", "sigmoid")

# relative eigenvalue floor when inverting the landmark kernel matrix
EIG_FLOOR = 1e-12
# rows per Nystroem block, at most; the blocks are near-equal, since a tail of
# a few rows takes another BLAS route and can round differently
ROW_BLOCK = 4096


def _rbf(X, Y, gamma):
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    # -2 scales an operand, not the product, so this stays a general matrix
    # multiply when Y is X; X @ X.T would take BLAS's symmetric route, which
    # rounds differently
    K = X @ (-2.0 * Y).T
    K += x2[:, None]
    K += y2
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def _sigmoid(X, Y, slope, coef0):
    K = X @ Y.T
    K *= slope
    K += coef0
    return np.tanh(K, out=K)


def kernel_matrix(kind, X, Y, params):
    """Exact values of a Nystroem kernel between the rows of X and Y."""
    if kind == "rbf":
        return _rbf(X, Y, params["gamma"])
    if kind == "sigmoid":
        return _sigmoid(X, Y, params["slope"], params["coef0"])
    raise ValueError(f"unknown kernel kind: {kind}")


def default_params(kind, input_dim):
    """Every parameter the kernel reads, at its default value."""
    if kind == "rbf":
        return {"gamma": 1.0 / input_dim}
    if kind == "sigmoid":
        return {"slope": 1.0 / input_dim, "coef0": 0.0}
    return {}


def apply_map(kind, U, m=None, params=None, seed=0):
    """Map each row of the n x f matrix U through Phi and return the n x m
    factor matrix, a new column-major array.

    The quadratic map is exact, with m = f(f+1)/2. Nystroem maps sample m
    landmark rows uniformly without replacement and return the landmark
    kernel values K_nm times the inverse square root of the landmark kernel
    matrix K_mm (eigenvalues floored at a relative threshold).
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind: {kind}")
    U = np.asarray(U, dtype=np.float64)
    n, f = U.shape
    if kind != "quadratic" and (m is None or m > n):
        raise ValueError(f"Nystroem needs m <= n, got m={m}, n={n}")
    out = np.empty((n, f * (f + 1) // 2 if kind == "quadratic" else m), order="F")
    if kind == "quadratic":
        # U**2, then sqrt(2) U_i U_j for i < j in row-major order of (i, j)
        np.multiply(U, U, out=out[:, :f])
        start = f
        for i in range(f - 1):
            stop = start + f - 1 - i
            np.multiply(np.sqrt(2.0) * U[:, i:i + 1], U[:, i + 1:], out=out[:, start:stop])
            start = stop
        return out
    merged = default_params(kind, f)
    merged.update(params or {})
    rng = np.random.default_rng(seed)
    landmarks = U[np.sort(rng.choice(n, size=m, replace=False))]
    K_mm = kernel_matrix(kind, landmarks, landmarks, merged)
    K_mm = 0.5 * (K_mm + K_mm.T)
    evals, evecs = scipy.linalg.eigh(K_mm)
    floor = EIG_FLOOR * max(evals.max(), 0.0)
    if floor <= 0.0:
        raise ValueError("landmark kernel matrix has no positive spectrum")
    evals = np.maximum(evals, floor)
    whiten = (evecs / np.sqrt(evals)) @ evecs.T
    n_blocks = -(-n // ROW_BLOCK)
    for b in range(n_blocks):
        rows = slice(n * b // n_blocks, n * (b + 1) // n_blocks)
        out[rows] = kernel_matrix(kind, U[rows], landmarks, merged) @ whiten
    return out
