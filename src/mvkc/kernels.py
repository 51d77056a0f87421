"""Explicit feature maps for nonnegative kernels, named as ``mvkc run --kernel``
takes them.

``quadratic``, (u.v)^2, has an exact f(f+1)/2-dimensional map. ``rbf``,
exp(-gamma |u - v|^2), and ``sigmoid``, tanh(slope u.v + coef0), are
infinite-dimensional and get landmark (Nystroem) approximations: sample m
rows, form the landmark kernel matrix, and whiten by its inverse square root.
The implicit affinity of the mapped data is then Phi(U) @ Phi(U).T."""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

KERNEL_KINDS = ("quadratic", "rbf", "sigmoid")

# relative eigenvalue floor when inverting the landmark kernel matrix
EIG_FLOOR = 1e-12


@dataclass
class KernelMap:
    """A fitted feature map Phi with declared input/output dimensions."""

    kind: str
    input_dim: int
    output_dim: int
    params: dict = field(default_factory=dict)
    landmarks: np.ndarray | None = None
    whiten: np.ndarray | None = None


def _rbf(X, Y, gamma):
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    d2 = np.maximum(x2[:, None] - 2.0 * X @ Y.T + y2[None, :], 0.0)
    return np.exp(-gamma * d2)


def _sigmoid(X, Y, slope, coef0):
    return np.tanh(slope * (X @ Y.T) + coef0)


def kernel_matrix(kind, X, Y, params):
    """Exact kernel values between the rows of X and Y."""
    if kind == "quadratic":
        return (X @ Y.T) ** 2
    if kind == "rbf":
        return _rbf(X, Y, params["gamma"])
    if kind == "sigmoid":
        return _sigmoid(X, Y, params["slope"], params["coef0"])
    raise ValueError(f"unknown kernel kind: {kind}")


def default_params(kind, input_dim):
    """Every parameter the kernel reads, at its default value."""
    if kind == "rbf":
        return {"gamma": 1.0 / input_dim}
    if kind == "sigmoid":
        return {"slope": 1.0 / input_dim, "coef0": 0.0}
    return {}


def fit_kernel_map(kind, U, m=None, params=None, seed=0):
    """Fit a feature map on the n x f matrix U.

    The quadratic map needs no fitting. Nystroem maps sample m landmark rows
    uniformly without replacement and store the inverse square root of the
    landmark kernel matrix (eigenvalues floored at a relative threshold) as
    the whitening transform.
    """
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind: {kind}")
    U = np.asarray(U, dtype=np.float64)
    n, f = U.shape
    merged = default_params(kind, f)
    merged.update(params or {})
    if kind == "quadratic":
        return KernelMap(kind, f, f * (f + 1) // 2, merged)
    if m is None or m > n:
        raise ValueError(f"Nystroem needs m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    landmarks = U[idx].copy()
    K_mm = kernel_matrix(kind, landmarks, landmarks, merged)
    K_mm = 0.5 * (K_mm + K_mm.T)
    evals, evecs = scipy.linalg.eigh(K_mm)
    floor = EIG_FLOOR * max(evals.max(), 0.0)
    if floor <= 0.0:
        raise ValueError("landmark kernel matrix has no positive spectrum")
    evals = np.maximum(evals, floor)
    whiten = (evecs / np.sqrt(evals)) @ evecs.T
    return KernelMap(kind, f, m, merged, landmarks=landmarks, whiten=whiten)


def apply_map(kmap, U):
    """Map each row of U through Phi; the result is the n x m factor matrix."""
    U = np.asarray(U, dtype=np.float64)
    n, f = U.shape
    if f != kmap.input_dim:
        raise ValueError(
            f"map expects input dim {kmap.input_dim}, got {f}"
        )
    if kmap.kind == "quadratic":
        iu, ju = np.triu_indices(f, k=1)
        out = np.empty((n, kmap.output_dim))
        out[:, :f] = U**2
        out[:, f:] = np.sqrt(2.0) * U[:, iu] * U[:, ju]
        return out
    K_nm = kernel_matrix(kmap.kind, U, kmap.landmarks, kmap.params)
    return K_nm @ kmap.whiten
