"""Factorized degree normalization and spectral embedding.

Factors are plain n x m float arrays B whose implicit affinity is
W = B @ B.T. W is never formed: its row sums come from B @ (B.T @ 1) in
O(nm), normalization scales the rows of B, and the spectral coordinates are
left singular vectors of B, which span the same subspace as the top
eigenvectors of W.
"""

import logging

import numpy as np

from .linalg import truncated_svd

log = logging.getLogger(__name__)

# relative floor applied to degrees so isolated rows or slightly negative
# kernel sums never produce infinities
DEGREE_FLOOR = 1e-12


def implicit_degrees(B):
    """Row sums of the implicit affinity, computed as B @ (B.T @ 1).

    Nonpositive degrees (possible with indefinite kernels such as sigmoid)
    are counted, warned about, and floored at a relative epsilon.
    """
    d = B @ B.sum(axis=0)
    nonpositive = int(np.count_nonzero(d <= 0.0))
    if nonpositive:
        log.warning("%d nonpositive affinity degrees floored", nonpositive)
    floor = DEGREE_FLOOR * max(d.max(), DEGREE_FLOOR)
    return np.maximum(d, floor)


def degree_normalize(B, d):
    """Scale row i of the factor by d_i^{-1/2}.

    The implicit affinity becomes D^{-1/2} B B.T D^{-1/2}.
    """
    d = np.asarray(d, dtype=np.float64)
    if len(d) != B.shape[0]:
        raise ValueError(f"degree vector has length {len(d)}, expected {B.shape[0]}")
    if np.any(d <= 0.0):
        raise ValueError("degrees must be strictly positive")
    return B * (d**-0.5)[:, None]


def spectral_embedding(B, r, seed=0):
    """Top r+1 left singular vectors of the normalized factor, as an n x (r+1)
    array. The first is the trivial quasi-constant one; the other r are the
    clustering coordinates."""
    n, m = B.shape
    if r + 1 > min(n, m):
        raise ValueError(
            f"need r+1={r + 1} singular vectors but factor is {n} x {m}; "
            "kernel map too small"
        )
    return truncated_svd(B, r + 1, seed=seed).U
