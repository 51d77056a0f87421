"""External clustering evaluation: accuracy, macro F1, NMI, ARI.

All four scores are computed from one contingency table between the
predicted and ground-truth partitions, so they are invariant to relabeling
on either side. Accuracy and F1 share one exact optimal one-to-one matching
of clusters to classes on the (possibly rectangular) table; a class left
without a cluster scores F1 = 0.
"""

import logging

import numpy as np
from scipy.optimize import linear_sum_assignment

log = logging.getLogger(__name__)


def contingency_table(pred, truth):
    """k_pred x k_true table of co-occurrence counts."""
    if len(pred) != len(truth):
        raise ValueError(
            f"length mismatch: pred has {len(pred)}, truth has {len(truth)}"
        )
    _, pred = np.unique(pred, return_inverse=True)
    _, truth = np.unique(truth, return_inverse=True)
    kp, kt = pred.max() + 1, truth.max() + 1
    counts = np.bincount(pred * kt + truth, minlength=kp * kt)
    return counts.reshape(kp, kt)


def clustering_accuracy(pred, truth):
    """Best accuracy over one-to-one cluster-to-class assignments."""
    return _matched_scores(contingency_table(pred, truth))[0]


def macro_f1(pred, truth):
    """Macro-averaged F1 over classes, after the optimal cluster matching.

    Class c matched to cluster r scores 2 table[r, c] / (|r| + |c|).
    """
    return _matched_scores(contingency_table(pred, truth))[1]


def _matched_scores(table):
    """Accuracy and macro F1 under one optimal cluster-to-class matching."""
    rows, cols = linear_sum_assignment(table, maximize=True)
    f1 = np.zeros(table.shape[1])
    f1[cols] = 2.0 * table[rows, cols] / (table.sum(axis=1)[rows] + table.sum(axis=0)[cols])
    return float(table[rows, cols].sum()) / table.sum(), float(np.mean(f1))


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(pred, truth):
    """Normalized mutual information with arithmetic-mean normalization."""
    return _nmi(contingency_table(pred, truth))


def _nmi(table):
    n = table.sum()
    rowsum, colsum = table.sum(axis=1), table.sum(axis=0)
    hp = _entropy(rowsum, n)
    ht = _entropy(colsum, n)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    i, j = np.nonzero(table)
    pij = table[i, j] / n
    mi = (pij * np.log(pij / ((rowsum[i] / n) * (colsum[j] / n)))).sum()
    return float(mi / (0.5 * (hp + ht)))


def ari(pred, truth):
    """Adjusted Rand index under the permutation-model correction.

    A degenerate single-cluster ground truth carries no pair information;
    that case is logged and scored 0.
    """
    return _ari(contingency_table(pred, truth))


def _ari(table):
    if table.shape[1] == 1:
        log.warning("ARI against a single-cluster ground truth; returning 0")
        return 0.0
    n = table.sum()
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table.astype(np.float64)).sum()
    sum_i = comb(table.sum(axis=1).astype(np.float64)).sum()
    sum_j = comb(table.sum(axis=0).astype(np.float64)).sum()
    total = comb(float(n))
    expected = sum_i * sum_j / total
    max_index = 0.5 * (sum_i + sum_j)
    if max_index == expected:
        return 1.0 if sum_ij == expected else 0.0
    return float((sum_ij - expected) / (max_index - expected))


def evaluate(pred, truth):
    """All four metrics as a dict, from one contingency table and one matching."""
    table = contingency_table(pred, truth)
    ca, cf1 = _matched_scores(table)
    return {"ca": ca, "cf1": cf1, "nmi": _nmi(table), "ari": _ari(table)}
