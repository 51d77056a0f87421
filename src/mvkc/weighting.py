"""View weights from the clusterability of each view's implicit affinity.

The score of a view is Tr(G.T (I - W) G) with W = B @ B.T and G the n x k
indicator matrix of the view's labels; it reduces to n - ||G.T B||_F^2, where
G.T B holds the per-cluster sums of ``kmeans.cluster_sums``. Given the m x m
right factor M of a Nystroem factor, W = B M M.T B.T and the score is
n - ||(G.T B) M||_F^2, with M applied to the k x m sums. Neither W nor G
is ever formed, not even as a sparse matrix. The weights take one of two
modes, named as ``mvkc run --weight-mode`` takes them: ``negated`` weights a
view by its trace^(-1/2), the closed form of AMGL (Nie, Li and Li, IJCAI
2016), so the most clusterable view (smallest trace) weighs most and only
the ratios of the traces count; ``uniform`` ignores the traces.
"""

import numpy as np

from .kmeans import cluster_sums

WEIGHT_MODES = ("negated", "uniform")


def clusterability_trace(B, labels, right=None):
    """Tr(G.T (I - W) G) for W = B B.T, or W = B M M.T B.T given the m x m
    M = ``right``, with B an n x m factor and G the indicator of the int
    ``labels``, 0..k-1, computed in O(nm)."""
    n = B.shape[0]
    if n != len(labels):
        raise ValueError(f"factor has n={n} but labels has n={len(labels)}")
    S = cluster_sums(B, labels, labels.max() + 1)  # G.T @ B
    if right is not None:
        S = S @ right
    return float(n - np.einsum("ij,ij->", S, S))


def view_weights(traces, mode):
    """Weights summing to 1, one per trace: proportional to trace^(-1/2) in
    mode ``negated``, equal in mode ``uniform``.

    A trace of 0, or a round-off negative one (every cluster's rows equal),
    counts as the smallest positive float, so the weights stay finite.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode: {mode}")
    if mode == "uniform":
        return np.full(len(traces), 1.0 / len(traces))
    traces = np.maximum(traces, np.finfo(np.float64).tiny)
    # relative to the smallest trace, so the largest term is 1
    r = np.sqrt(traces.min() / traces)
    return r / r.sum()
