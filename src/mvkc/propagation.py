"""Feature smoothing by powers of a normalized adjacency operator.

Each view's features are pre-multiplied p times by the self-loop,
symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}, with D the
degree of A + I, applied by scaling rows: no operator matrix is built, and
rows of non-positive degree come out zero. Its spectral radius is at most 1,
so high propagation orders stay bounded.
Results can be cached on disk under a hash of the CSR arrays of ``graph.adj``,
the features and p, so edge order in a graph file does not change the key. A
cache file is written to a temporary name and renamed, so none is seen partial;
it builds no ``View`` when read, so ``propagate_cached`` checks its shape and
values.
"""

import hashlib
import os
import tempfile

import numpy as np

from .data import FormatError, load_features, save_features


def propagate(graph, features, p):
    """Apply the normalized self-loop adjacency of ``graph`` p times to the
    feature matrix, one row per node: y = s X, then X <- A y + y, then X <- s X."""
    degrees = np.asarray(graph.adj.sum(axis=1)).reshape(-1, 1) + 1.0
    scale = np.where(degrees > 0, degrees, np.inf) ** -0.5  # s = (deg(A) + 1)^{-1/2}
    out = np.asarray(features, dtype=np.float64)
    for _ in range(p):
        y = scale * out
        out = graph.adj @ y
        out += y
        out *= scale
    if not np.isfinite(out).all():
        raise FloatingPointError("propagation produced non-finite values")
    return out


def _cache_key(graph, features, p):
    h = hashlib.sha256()
    # hashlib reads each contiguous array's buffer in place, with no bytes copy
    h.update(np.ascontiguousarray(graph.adj.indptr, dtype="<i8"))
    h.update(np.ascontiguousarray(graph.adj.indices, dtype="<i8"))
    h.update(np.ascontiguousarray(graph.adj.data, dtype="<f8"))
    h.update(np.ascontiguousarray(features, dtype="<f8"))
    h.update(f"p={p};norm=sym_selfloop".encode())
    return h.hexdigest()[:32]


def propagate_cached(graph, features, p, cache_dir=None):
    """Propagate, reusing an on-disk result keyed by a content hash."""
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, _cache_key(graph, features, p) + ".bin")
        if os.path.isfile(path):
            out = load_features(path)
            if out.shape != features.shape:
                raise FormatError(f"{path}: cached array has shape {out.shape}, "
                                  f"but the features have {features.shape}")
            if not np.isfinite(out).all():
                raise FormatError(f"{path}: features contain NaN or Inf")
            return out
    out = propagate(graph, features, p)
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
