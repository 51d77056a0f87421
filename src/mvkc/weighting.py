"""View weights from the clusterability of each view's implicit affinity.

The score of a view is Tr(G.T (I - W) G) with W = B @ B.T and G the n x k
indicator matrix of the view's labels; it reduces to n - ||G.T B||_F^2, where
G.T B holds the per-cluster sums of ``kmeans.cluster_sums``. Neither W nor G
is ever formed, not even as a sparse matrix. The weights are a temperature softmax over the per-view scores, in one of
three modes, named as ``mvkc run --weight-mode`` takes them: ``softmax``,
``negated`` and ``uniform``.
"""

from dataclasses import dataclass

import numpy as np

from .kmeans import cluster_sums

WEIGHT_MODES = ("softmax", "negated", "uniform")


@dataclass
class ViewWeights:
    lambdas: np.ndarray
    raw_traces: np.ndarray


def clusterability_trace(B, labels):
    """Tr(G.T (I - B B.T) G) for an n x m factor B and the indicator G of
    the int ``labels``, 0..k-1, computed in O(nm)."""
    n = B.shape[0]
    if n != len(labels):
        raise ValueError(f"factor has n={n} but labels has n={len(labels)}")
    M = cluster_sums(B, labels, labels.max() + 1)  # G.T @ B
    return float(n - np.einsum("ij,ij->", M, M))


def softmax_weights(traces, temperature, mode="softmax"):
    """Numerically stable softmax of traces / T (optionally negated or flat).

    ``softmax`` follows the weighting formula as printed: larger trace,
    larger weight. ``negated`` flips the sign so the most clusterable
    view (smallest trace) gets the largest weight. ``uniform`` ignores the
    traces entirely.
    """
    traces = np.asarray(traces, dtype=np.float64)
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode: {mode}")
    if mode == "uniform":
        lambdas = np.full(len(traces), 1.0 / len(traces))
    else:
        # the extreme trace is subtracted before the division, so z is 0 at
        # the extreme and at most -inf elsewhere, however small the temperature
        with np.errstate(over="ignore"):
            if mode == "negated":
                z = (traces.min() - traces) / temperature
            else:
                z = (traces - traces.max()) / temperature
        e = np.exp(z)
        lambdas = e / e.sum()
    return ViewWeights(lambdas, traces.copy())
