"""Dense reference computations that the tests compare the factorized code
against. They materialize n x n or n x k matrices, so they suit small inputs
only."""

import numpy as np


def consensus_affinity_oracle(factor_values, lambdas, max_n=2048):
    """Materialized weighted consensus affinity sum_v lambda_v B_v @ B_v.T.

    The pipeline's concatenated factor must have exactly this Gram matrix.
    """
    n = factor_values[0].shape[0]
    if n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}, got {n}")
    out = np.zeros((n, n))
    for lam, B in zip(lambdas, factor_values):
        out += lam * (B @ B.T)
    return out


def indicator(partition):
    """Binary n x k membership matrix with exactly one 1 per row."""
    F = np.zeros((partition.n, partition.k))
    F[np.arange(partition.n), partition.labels] = 1.0
    return F
