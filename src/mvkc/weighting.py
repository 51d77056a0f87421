"""View weights from the clusterability of each view's implicit affinity.

The score of a view is Tr(G.T (I - W) G) with W = B @ B.T and G the
indicator matrix of the view's partition; it reduces to
n - ||B.T G||_F^2 and never needs W. The weights are a temperature softmax
over the per-view scores, in one of three modes, named as
``mvkc run --weight-mode`` takes them: ``softmax``, ``negated`` and
``uniform``.
"""

from dataclasses import dataclass

import numpy as np

WEIGHT_MODES = ("softmax", "negated", "uniform")


@dataclass
class ViewWeights:
    lambdas: np.ndarray
    raw_traces: np.ndarray


def clusterability_trace(B, partition):
    """Tr(G.T (I - B B.T) G) for an n x m factor B, computed in O(nm)."""
    n, m = B.shape
    if n != partition.n:
        raise ValueError(
            f"factor has n={n} but partition has n={partition.n}"
        )
    # B.T @ G accumulated per cluster without materializing G
    M = np.zeros((partition.k, m))
    np.add.at(M, partition.labels, B)
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
        z = traces / temperature
        if mode == "negated":
            z = -z
        z = z - z.max()
        e = np.exp(z)
        lambdas = e / e.sum()
    return ViewWeights(lambdas, traces.copy())
