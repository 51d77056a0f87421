"""Feature smoothing by powers of a normalized adjacency operator.

Each view's features are pre-multiplied p times by the self-loop,
symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}, with D the
degree of A + I. Its spectral radius is at most 1, so high propagation
orders stay bounded. Results can be cached on disk under a content hash;
a cache file is written to a temporary name and then renamed, so a reader
never sees a partial file.
"""

import hashlib
import os
import tempfile

import numpy as np
import scipy.sparse as sp

from .data import load_features, save_features


class NormalizedAdjacency:
    """Sparse propagation operator D^{-1/2} (A + I) D^{-1/2} of a graph."""

    def __init__(self, graph):
        self.n = graph.n
        adj = graph.to_csr() + sp.identity(self.n, format="csr")
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        self.degrees = degrees
        inv_sqrt = np.where(degrees > 0, degrees, 1.0) ** -0.5
        inv_sqrt[degrees <= 0] = 0.0
        self.op = (sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)).tocsr()


def propagate(adj, features, p):
    """Apply the normalized adjacency p times to the feature matrix."""
    if adj.n != features.shape[0]:
        raise ValueError(
            f"adjacency has n={adj.n} but features have {features.shape[0]} rows"
        )
    if p < 0:
        raise ValueError(f"propagation order must be >= 0, got {p}")
    out = np.asarray(features, dtype=np.float64)
    for _ in range(p):
        out = adj.op @ out
    if not np.isfinite(out).all():
        raise FloatingPointError("propagation produced non-finite values")
    return out


def _cache_key(graph, features, p):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.rows).tobytes())
    h.update(np.ascontiguousarray(graph.cols).tobytes())
    h.update(np.ascontiguousarray(graph.weights).tobytes())
    h.update(np.ascontiguousarray(features, dtype="<f8").tobytes())
    # the operator name stays in the hashed bytes so existing cache files still hit
    h.update(f"p={p};norm=sym_selfloop".encode())
    return h.hexdigest()[:32]


def propagate_cached(graph, features, p, cache_dir=None):
    """Propagate, reusing an on-disk result keyed by a content hash."""
    if p == 0:
        return np.asarray(features, dtype=np.float64)
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, _cache_key(graph, features, p) + ".bin")
        if os.path.isfile(path):
            return load_features(path)
    out = propagate(NormalizedAdjacency(graph), features, p)
    if cache_dir is not None:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        os.close(fd)
        try:
            save_features(out, tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return out
