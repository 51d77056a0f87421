"""End-to-end clustering pipeline.

Per view: smooth features at the view's ``propagation_order``, center, take
the f leading left singular vectors, map them through the kernel feature
map, degree-normalize the factor, embed and cluster. An rbf view's factor is
its landmark kernel values K_nm, and its whitening M = K_mm^{-1/2} rides
beside it as ``right``: the degrees, the embedding's SVD and the
clusterability trace apply M on the m x m side, so the n x m by m x m
product K_nm M is never formed. The quadratic factor has no ``right``. A
view whose centered features have no singular value above round-off raises
``FloatingPointError``. Then weight each view in proportion to its
clusterability trace^(-1/2) (``weighting.view_weights``), and run the same
embed/cluster pass once more on the consensus for its labels. The consensus
is not normalized again: its blocks come from normalized factors, so with
one-hot weights it reproduces the chosen view's labels. Every clustering is
the int64 label array of the seedless ``cpqr_labels``, with no iteration.
Never allocates an n x n matrix.

The consensus holds each view's top t = 2(f + 1) spectral directions, not its
whole factor B (for rbf, B = K_nm M after normalization): the embedding's
SVD of B also returns the principal block B V_t = U_t S_t. On the Gram route
that block is the SVD's one n-row product, and U is its first f + 1 columns
divided by their singular values.
The blocks, scaled by the square roots of the weights, stand side by side in
one column-major n x sum_v min(t, m_v) array. Its Gram matrix falls short of
sum_v lambda_v B_v B_v^T by at most sum_v lambda_v s_{v,t+1}^2 (Eckart-Young).

Memory: a view's factor is normalized in place (the caller of
``degree_normalize`` owns the factor it overwrites) and released once its
labels and clusterability trace are taken; for rbf that factor is K_nm
itself. A Nystroem map runs its row blocks of K_nm on every usable core,
each worker in one buffer of its own of at most ``ROW_BLOCK`` = 1024 rows
x m_v, which the calling thread allocates.
Above the size rule of ``mvkc.workers`` the spectral stage's passes (the
centering, the SVDs' products, the degrees and normalization, the CPQR
labels and the clusterability trace) also run on every usable core, each
block writing straight into the output or the n-long buffers its caller
allocated; the Gram matrix holds one small partial product per block of
8192 rows. One pool of worker threads serves the whole run and is closed
when it returns. Each view's propagated and centered features are released
once its SVD is taken. The discretization, ``cpqr_labels``, holds O(n)
memory beyond the spectral vectors. So beyond the input, the resident
peak is about one view's n x m_v factor, the blocks of the views so far, one
spectral embedding's principal block and n x (f + 1) U and, per usable core,
one worker's map buffer.
``mvkc run`` loads only the graphs of views that propagate, so with p = 0
everywhere no graph is held.
"""

import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset, graph_sources
from .embedding import degree_normalize, implicit_degrees
from .kernels import KERNEL_KINDS, apply_map
from .kmeans import cpqr_labels
from .linalg import center_columns, truncated_svd
from .propagation import propagate_cached
from .weighting import WEIGHT_MODES, clusterability_trace, view_weights
from .workers import pool


@dataclass
class PipelineConfig:
    """All tunables of a clustering run, checked when it is built: a value
    that would make the run meaningless raises ``ValueError``."""

    k: int
    f: int | None = None  # components per view; defaults to k
    kernel: str = "quadratic"
    kernel_components: int | None = None  # Nystroem landmarks; defaults to 10k, unset for quadratic
    gamma: float | None = None  # the rbf width; defaults to 1/f, unset for quadratic
    weight_mode: str = "negated"
    seed: int = 0  # reaches only Nystroem landmarks and SVDs wider than EXACT_SVD_MAX_DIM
    cache_dir: str | None = None

    def __post_init__(self):
        if self.f is None:
            self.f = self.k
        if self.kernel_components is None and self.kernel != "quadratic":
            self.kernel_components = 10 * self.k
        if self.k < 2:
            raise ValueError(f"need k >= 2 clusters, got {self.k}")
        if self.f < 1:
            raise ValueError(f"need f >= 1 components, got {self.f}")
        # the embedding needs f + 1 columns: quadratic maps to f(f+1)/2 of them,
        # a Nystroem kernel to kernel_components
        if self.kernel == "quadratic":
            if self.kernel_components is not None:
                raise ValueError("kernel quadratic does not read kernel_components")
            if self.gamma is not None:
                raise ValueError("kernel quadratic does not read gamma")
            if self.f < 2:
                raise ValueError(f"kernel quadratic needs f >= 2, got f={self.f}")
        elif self.kernel_components < self.f + 1:
            raise ValueError(f"need kernel_components >= {self.f + 1}, got {self.kernel_components}")
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel: {self.kernel}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"need a finite gamma > 0, got {self.gamma}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {self.weight_mode}")

    def check_fits(self, n):
        """Raise ``ValueError`` unless a dataset of n points can carry this
        run: k, f + 1 and ``kernel_components`` at most n, and f + 1 >= k."""
        if max(self.k, self.f + 1) > n:
            raise ValueError(f"need k <= n and f + 1 <= n for n={n} points, "
                             f"got k={self.k}, f={self.f}")
        if self.kernel_components is not None and self.kernel_components > n:
            raise ValueError(f"need kernel_components <= n={n}, got {self.kernel_components}")
        if self.f + 1 < self.k:
            raise ValueError(f"--f {self.f} gives f + 1 = {self.f + 1} spectral vectors, fewer than "
                             f"k={self.k}; CPQR needs f + 1 >= k, got f={self.f}, k={self.k}")


@dataclass
class ClusteringResult:
    """The consensus labels, one label array per view, the view weights, the
    views' clusterability traces they came from and the seconds of each
    stage."""

    consensus: np.ndarray
    per_view: list
    weights: np.ndarray
    traces: np.ndarray
    timings: dict


def _derived_seeds(seed, n_views):
    """Independent child seeds for every stochastic stage."""
    children = np.random.SeedSequence(seed).spawn(n_views + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def _cluster_factor(B, config, seed, timer, stages, t=None, right=None):
    """Embed the factor B, or B @ right given ``right``, as its top f + 1
    left singular vectors, the first the trivial quasi-constant one, then
    take their CPQR labels.

    ``stages`` names the ``timer`` entries of (embed, discretize). Returns
    the labels and, given ``t``, the factor's principal block of up to t
    columns, else None.
    """
    t0 = time.perf_counter()
    svd = truncated_svd(B, config.f + 1, seed=seed, t=t, right=right)
    timer[stages[0]] += time.perf_counter() - t0

    t0 = time.perf_counter()
    labels = cpqr_labels(svd.U, config.k)
    timer[stages[1]] += time.perf_counter() - t0
    return labels, svd.block


def run_pipeline(dataset: MultiViewDataset, config: PipelineConfig) -> ClusteringResult:
    """Run the full multi-view clustering pass and return all label arrays.

    ``timings`` maps each stage to its seconds, summed over the views. Before
    any view runs, an invalid dataset raises its ``DataError``, and a config
    that does not fit n or propagation with no graph raises ``ValueError``; an
    exception raised in a view keeps its class and carries a ``view <index>`` note.
    """
    dataset.validate()
    config.check_fits(dataset.n)
    sources = graph_sources([view.graph is not None for view in dataset.views],
                            [view.propagation_order for view in dataset.views])
    with pool():  # one pool of worker threads for the whole run
        n_views = dataset.n_views
        seeds = _derived_seeds(config.seed, n_views)
        timer = defaultdict(float)  # seconds by stage, summed over views

        t = 2 * (config.f + 1)  # the most spectral directions a view gives the consensus
        blocks = []
        per_view = []
        traces = []
        for v, view in enumerate(dataset.views):
            try:
                t0 = time.perf_counter()
                if sources[v] is not None:
                    X = propagate_cached(dataset.views[sources[v]].graph, view.features,
                                         view.propagation_order, cache_dir=config.cache_dir)
                else:
                    X = view.features
                timer["propagation"] += time.perf_counter() - t0

                t0 = time.perf_counter()
                Xc = center_columns(X)
                svd = truncated_svd(Xc, config.f, seed=seeds[v])
                timer["svd"] += time.perf_counter() - t0
                # centering leaves round-off of at most about n eps ||X||_F; a view
                # with nothing above it has no variance to cluster
                if svd.s[0] <= len(X) * np.finfo(np.float64).eps * np.linalg.norm(X):
                    raise FloatingPointError("centered features have no variance above round-off")
                del X, Xc  # only the singular vectors are read from here on

                t0 = time.perf_counter()
                m = config.kernel_components
                right = None if config.kernel == "quadratic" else np.empty((m, m))
                B = apply_map(config.kernel, svd.U, m=m, gamma=config.gamma, seed=seeds[v],
                              right=right)
                timer["kernel_map"] += time.perf_counter() - t0
                del svd

                t0 = time.perf_counter()
                degree_normalize(B, implicit_degrees(B, right))
                timer["embedding"] += time.perf_counter() - t0
                labels, block = _cluster_factor(B, config, seeds[v], timer,
                                                ("embedding", "discretize"), t, right)

                t0 = time.perf_counter()
                traces.append(clusterability_trace(B, labels, right))
                timer["weighting"] += time.perf_counter() - t0
                del B  # the consensus reads only the principal block
                blocks.append(block)
                per_view.append(labels)
            except Exception as exc:
                exc.add_note(f"view {v}")
                raise

        t0 = time.perf_counter()
        traces = np.array(traces)
        weights = view_weights(traces, config.weight_mode)
        # block v scaled by sqrt(lambda_v) adds lambda_v U_v S_v^2 U_v^T to the
        # Gram matrix; column-major, so each block is contiguous
        concat = np.empty((dataset.n, sum(block.shape[1] for block in blocks)), order="F")
        start = 0
        for lam, block in zip(weights, blocks):
            np.multiply(block, np.sqrt(lam), out=concat[:, start:start + block.shape[1]])
            start += block.shape[1]
        del blocks, block
        timer["weighting"] += time.perf_counter() - t0

        consensus, _ = _cluster_factor(concat, config, seeds[n_views], timer,
                                       ("consensus", "consensus"))
        return ClusteringResult(consensus, per_view, weights, traces, dict(timer))
