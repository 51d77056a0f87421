"""Factorized degree normalization.

Factors are plain n x m float arrays B whose implicit affinity is
W = B @ B.T, or W = B M M.T B.T when an m x m right factor M rides beside B,
as the whitening K_mm^{-1/2} beside a Nystroem factor's K_nm. W is never
formed, nor is B M: the row sums come from B @ (M (M.T (B.T @ 1))) in O(nm),
and normalization scales the rows of B, which scales those of B M alike.
The spectral coordinates, which the pipeline takes with
``linalg.truncated_svd``, are left singular vectors of B (B M): they span
the same subspace as the top eigenvectors of W.
``degree_normalize`` overwrites B rather than copying it: the caller owns B
and passes a copy if it reads the raw factor again. The column sums B.T @ 1
run one column at a time, and both row passes on the row blocks of
``workers.row_blocks``.
"""

import logging

import numpy as np

from .workers import map_blocks, map_columns

log = logging.getLogger(__name__)

# relative floor applied to degrees so isolated rows or slightly negative
# kernel sums never produce infinities
DEGREE_FLOOR = 1e-12


def implicit_degrees(B, right=None):
    """Row sums of the implicit affinity, computed as B @ (B.T @ 1), or as
    B @ (M (M.T (B.T @ 1))) for the affinity B M M.T B.T given the m x m
    M = ``right``. Each column sum is ``B[:, j].sum()``, which equals
    ``B.sum(axis=0)`` bit for bit for a column-major B, as the pipeline's
    factors are.

    Nonpositive degrees are counted, warned about, and floored at a relative
    epsilon. Both kernels are nonnegative, but a Nystroem factor only
    approximates its kernel, so a row's affinity sum can come out at or
    below zero; so can that of a zero row.
    """
    sums = np.empty(B.shape[1])

    def column(j):
        sums[j] = B[:, j].sum()

    map_columns(len(B), B.shape[1], column)
    if right is not None:
        sums = right @ (right.T @ sums)
    d = np.empty(B.shape[0])
    map_blocks(len(d), lambda start, stop: np.matmul(B[start:stop], sums, out=d[start:stop]))
    nonpositive = int(np.count_nonzero(d <= 0.0))
    if nonpositive:
        log.warning("%d nonpositive affinity degrees floored", nonpositive)
    floor = DEGREE_FLOOR * max(d.max(), DEGREE_FLOOR)
    return np.maximum(d, floor)


def degree_normalize(B, d):
    """Scale row i of the float factor B by d_i^{-1/2}, in place, and return B.

    The implicit affinity becomes D^{-1/2} B B.T D^{-1/2}. The degrees are
    checked first, so a rejected call leaves B as it was.
    """
    d = np.asarray(d, dtype=np.float64)
    if len(d) != B.shape[0]:
        raise ValueError(f"degree vector has length {len(d)}, expected {B.shape[0]}")
    if np.any(d <= 0.0):
        raise ValueError("degrees must be strictly positive")
    scale = d**-0.5
    map_blocks(len(d), lambda start, stop: np.multiply(B[start:stop], scale[start:stop, None],
                                                       out=B[start:stop]))
    return B

