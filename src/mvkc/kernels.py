"""Explicit feature maps for nonnegative kernels, named as ``mvkc run --kernel``
takes them.

``quadratic``, (u.v)^2, has an exact f(f+1)/2-dimensional map. ``rbf`` is
infinite-dimensional and gets a landmark (Nystroem) approximation (Williams
and Seeger, NIPS 2001): sample m landmark rows, then take the kernel values
K_nm between every row and the landmarks and the whitening M = K_mm^{-1/2}
of the landmark kernel matrix. ``apply_map`` does either in one call and
returns the n x m factor F; the map Phi(U) is F for quadratic and F M for
rbf, and the implicit affinity of the mapped data is Phi(U) @ Phi(U).T. The n x m by
m x m product F M is never formed: ``apply_map`` writes M into the m x m
array its caller passes as ``right``, and every later step applies it on the
m x m side (``embedding.implicit_degrees``, ``linalg.truncated_svd``,
``weighting.clusterability_trace``).

The rbf kernel acts on the rows of sqrt(n) U: it is
exp(-gamma n |u - v|^2), with gamma 1/f unless given. The pipeline's U has
orthonormal columns, so its rows have squared norms of about f / n; scaled
by sqrt(n), about f, whatever n is, so a given gamma means the same at every
n, and the default keeps the kernel values clear of 1.

The Nystroem map builds K_nm one row block at a time and copies each block
into the column-major factor. The ceil(n / ``ROW_BLOCK``) near-equal blocks
depend on n alone and run on every usable core through
``workers.map_row_blocks``, whose docstring gives the pool's rules; each
worker builds its kernel block, one elementwise step at a time, in its own
buffer of up to ``ROW_BLOCK`` x m values, so each added worker holds about
8 KiB more per landmark (2.3 MiB at m = 300). The landmark matrix and its
eigendecomposition come after the blocks, inside the same ``workers.pool``
block, so they run in the pool's BLAS hold whenever the blocks did. A row
comes out of the same operations in the same block on any core count, so
the factor is the same on any number of cores."""

import numpy as np
import scipy.linalg

from .workers import map_row_blocks, pool

KERNEL_KINDS = ("quadratic", "rbf")

# relative eigenvalue floor when inverting the landmark kernel matrix: the
# m-side Gram matrix of ``linalg.truncated_svd`` carries an error of about
# eps kappa(K_mm), which this floor keeps within that route's own bound,
# eps / GRAM_COND_FLOOR^2
EIG_FLOOR = 1e-8
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


def apply_map(kind, U, m=None, gamma=None, seed=0, right=None):
    """Map each row of the n x f matrix U through the kernel's map and return
    the n x m factor F, a new column-major array.

    The quadratic map is exact, with m = f(f+1)/2, and is F itself. The rbf
    map, exp(-gamma n |u - v|^2) at gamma or else 1/f, samples m landmark
    rows uniformly without replacement, returns the landmark kernel values
    K_nm and writes the inverse square root of the landmark kernel matrix
    K_mm (eigenvalues floored at ``EIG_FLOOR`` relative to the largest) into
    ``right``, an m x m float array; the map is then F @ right.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind: {kind}")
    U = np.asarray(U, dtype=np.float64)
    n, f = U.shape
    if kind != "quadratic" and (m is None or m > n):
        raise ValueError(f"Nystroem needs m <= n, got m={m}, n={n}")
    if kind != "quadratic" and (right is None or right.shape != (m, m)):
        raise ValueError(f"the rbf map writes its right factor into an m x m array, m={m}")
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
    # exp(-gamma |sqrt(n) u - sqrt(n) v|^2)
    width = n * (1.0 / f if gamma is None else gamma)
    rng = np.random.default_rng(seed)
    landmarks = U[np.sort(rng.choice(n, size=m, replace=False))]

    def block(start, stop, K):
        out[start:stop] = rbf_kernel(U[start:stop], landmarks, width, out=K[:stop - start])

    with pool():  # the eigh runs inside the BLAS hold that the blocks' pass took
        map_row_blocks(n, ROW_BLOCK, (m,), block)
        K_mm = rbf_kernel(landmarks, landmarks, width)
        K_mm = 0.5 * (K_mm + K_mm.T)
        evals, evecs = scipy.linalg.eigh(K_mm)
        floor = EIG_FLOOR * max(evals.max(), 0.0)
        if floor <= 0.0:
            raise ValueError("landmark kernel matrix has no positive spectrum")
        evals = np.maximum(evals, floor)
        np.matmul(evecs / np.sqrt(evals), evecs.T, out=right)
    return out
