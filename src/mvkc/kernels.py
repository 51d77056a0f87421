"""Explicit feature maps for nonnegative kernels, named as ``mvkc run --kernel``
takes them.

``quadratic``, (u.v)^2, has an exact f(f+1)/2-dimensional map. ``rbf``,
exp(-gamma |u - v|^2) with gamma its one parameter, is infinite-dimensional
and gets a landmark (Nystroem) approximation: sample m rows, form the
landmark kernel matrix, and whiten by its inverse square root. ``apply_map``
does either in one call and returns the factor Phi(U); the implicit affinity
of the mapped data is then Phi(U) @ Phi(U).T.

The Nystroem map builds K_nm and its product with the whitening matrix one
row block at a time, so it never holds an n x m array beside the factor. The
ceil(n / ``ROW_BLOCK``) near-equal blocks depend on n alone and run on every
usable core through ``workers.map_row_blocks``, whose docstring gives the
pool's rules; each worker builds its kernel block and its whitened product,
one elementwise step at a time, in its own two buffers of up to ``ROW_BLOCK``
x m values, so each added worker holds about 16 KiB more per landmark
(4.7 MiB at m = 300). When there is more than one block, BLAS is held at one thread from
the landmark matrix's eigendecomposition on. A row comes out of the same
operations in the same block on any core count, so the factor is the same
on any number of cores."""

import numpy as np
import scipy.linalg

from .workers import map_row_blocks, pool

KERNEL_KINDS = ("quadratic", "rbf")

# relative eigenvalue floor when inverting the landmark kernel matrix
EIG_FLOOR = 1e-12
# rows per Nystroem block, at most; the blocks are near-equal, since a tail of
# a few rows takes another BLAS route and can round differently. 1024 to 2048
# rows ran faster on one worker than 4096, and keep each worker's buffers small
ROW_BLOCK = 1024


def rbf_kernel(X, Y, gamma, out=None):
    """exp(-gamma |x - y|^2) between the rows of X and Y, written into
    ``out`` (C-ordered, len(X) x len(Y)) when given."""
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    # -2 scales an operand, not the product, so this stays a general matrix
    # multiply when Y is X; X @ X.T would take BLAS's symmetric route, which
    # rounds differently
    K = np.matmul(X, (-2.0 * Y).T, out=out)
    K += x2[:, None]
    K += y2
    np.maximum(K, 0.0, out=K)
    K *= -gamma
    return np.exp(K, out=K)


def apply_map(kind, U, m=None, gamma=None, seed=0):
    """Map each row of the n x f matrix U through Phi and return the n x m
    factor matrix, a new column-major array.

    The quadratic map is exact, with m = f(f+1)/2. The rbf map, at gamma or
    else 1/f, samples m landmark rows uniformly without replacement and
    returns the landmark kernel values K_nm times the inverse square root of
    the landmark kernel matrix K_mm (eigenvalues floored at a relative
    threshold).
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
    if gamma is None:
        gamma = 1.0 / f
    rng = np.random.default_rng(seed)
    landmarks = U[np.sort(rng.choice(n, size=m, replace=False))]

    def block(start, stop, K, P):
        rbf_kernel(U[start:stop], landmarks, gamma, out=K[:stop - start])
        out[start:stop] = np.matmul(K[:stop - start], whiten, out=P[:stop - start])

    # BLAS on one thread from the landmark eigh on, whose threads would
    # otherwise still spin while the workers run
    with pool(one_blas_thread=n > ROW_BLOCK):
        K_mm = rbf_kernel(landmarks, landmarks, gamma)
        K_mm = 0.5 * (K_mm + K_mm.T)
        evals, evecs = scipy.linalg.eigh(K_mm)
        floor = EIG_FLOOR * max(evals.max(), 0.0)
        if floor <= 0.0:
            raise ValueError("landmark kernel matrix has no positive spectrum")
        evals = np.maximum(evals, floor)
        whiten = (evecs / np.sqrt(evals)) @ evecs.T
        map_row_blocks(n, ROW_BLOCK, (m, m), block)
    return out
