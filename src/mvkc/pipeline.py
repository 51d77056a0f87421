"""End-to-end clustering pipeline.

Per view: smooth features, center, take the f leading left singular vectors,
map them through the kernel feature map, degree-normalize the factor, embed
and cluster. A view whose centered features have no singular value above
round-off raises ``FloatingPointError``. Then weight the views by
clusterability, scale each factor by the square root of its weight, and run
the same normalize/embed/cluster pass once more on their concatenation for the
consensus labels. Every clustering is an int64 label array from ``kmeans``,
started from the seedless ``cpqr_labels``. Never allocates an n x n matrix.

Memory: the consensus is one column-major n x sum(m_v) array, allocated
before the first view, and each view's factor is its column block: the kernel
map writes into the block, the per-view pass normalizes it in place, the
weights scale it in place, and the consensus pass normalizes the whole array
in place. The caller of ``degree_normalize`` owns the factor it overwrites.
No factor is ever copied, a Nystroem map holds one row block of K_nm at a
time, and each view's propagated and centered features are released once
its SVD is taken. The discretization (``cpqr_labels`` and ``kmeans``) holds
O(n) memory beyond the spectral vectors. So beyond the input, the resident
peak is about one n x sum(m_v) array plus the few n x (f + 1) arrays of one
spectral embedding. ``mvkc run`` loads only the graphs of views that
propagate, so with p = 0 everywhere no graph is held.
"""

import dataclasses
import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset, graph_sources
from .embedding import degree_normalize, implicit_degrees, spectral_embedding
from .kernels import KERNEL_KINDS, apply_map, default_params, map_width
from .kmeans import cpqr_labels, kmeans
from .linalg import center_columns, truncated_svd
from .propagation import propagate_cached
from .weighting import WEIGHT_MODES, ViewWeights, clusterability_trace, softmax_weights


@dataclass
class PipelineConfig:
    """All tunables of a clustering run, checked when it is built: a value
    that would make the run meaningless raises ``ValueError``."""

    k: int
    f: int | None = None  # components per view; defaults to k
    temperature: float = 0.1
    kernel: str = "quadratic"
    kernel_components: int | None = None  # Nystroem landmarks; defaults to 10k, unset for quadratic
    kernel_params: dict = field(default_factory=dict)
    weight_mode: str = "softmax"
    propagation_orders: list | None = None  # per-view override
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
        if self.temperature <= 0:
            raise ValueError(f"need temperature > 0, got {self.temperature}")
        # the embedding needs f + 1 columns: quadratic maps to f(f+1)/2 of them,
        # a Nystroem kernel to kernel_components
        if self.kernel == "quadratic":
            if self.kernel_components is not None:
                raise ValueError("kernel quadratic does not read kernel_components")
            if self.f < 2:
                raise ValueError(f"kernel quadratic needs f >= 2, got f={self.f}")
        elif self.kernel_components < self.f + 1:
            raise ValueError(f"need kernel_components >= {self.f + 1}, got {self.kernel_components}")
        if self.kernel not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel: {self.kernel}")
        unused = sorted(set(self.kernel_params) - set(default_params(self.kernel, self.f)))
        if unused:
            raise ValueError(f"kernel {self.kernel} does not read {unused}")
        if self.kernel_params.get("gamma", 1.0) <= 0:
            raise ValueError(f"need gamma > 0, got {self.kernel_params['gamma']}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode: {self.weight_mode}")
        if self.propagation_orders is not None and min(self.propagation_orders, default=0) < 0:
            raise ValueError(f"propagation orders must be >= 0, got {self.propagation_orders}")

    def to_dict(self):
        return dataclasses.asdict(self)

    def hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ClusteringResult:
    """The consensus labels, one label array per view, the view weights and
    the seconds of each stage."""

    consensus: np.ndarray
    per_view: list
    weights: ViewWeights
    timings: dict


def _derived_seeds(seed, n_views):
    """Independent child seeds for every stochastic stage."""
    children = np.random.SeedSequence(seed).spawn(n_views + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def _cluster_factor(B, config, seed, timer, stages):
    """Degree-normalize the factor in place, embed it spectrally, then CPQR
    and k-means.

    ``stages`` names the ``timer`` entries of (normalize + embed, k-means).
    Returns the labels.
    """
    t0 = time.perf_counter()
    degree_normalize(B, implicit_degrees(B))
    U = spectral_embedding(B, config.f, seed=seed)
    timer[stages[0]] += time.perf_counter() - t0

    t0 = time.perf_counter()
    labels, _ = kmeans(U[:, 1:], config.k, cpqr_labels(U, config.k))
    timer[stages[1]] += time.perf_counter() - t0
    return labels


def run_pipeline(dataset: MultiViewDataset, config: PipelineConfig) -> ClusteringResult:
    """Run the full multi-view clustering pass and return all label arrays.

    ``timings`` maps each stage to its seconds, summed over the views. An
    exception raised while processing a view keeps its class and carries
    a ``view <index>`` note.
    """
    if config.f + 1 < config.k:
        raise ValueError(f"the CPQR start needs f + 1 >= k, got f={config.f}, k={config.k}")
    n_views = dataset.n_views
    seeds = _derived_seeds(config.seed, n_views)
    timer = defaultdict(float)  # seconds by stage, summed over views
    orders = (config.propagation_orders if config.propagation_orders is not None
              else [view.propagation_order for view in dataset.views])
    sources = graph_sources([view.graph is not None for view in dataset.views], orders)

    # truncated_svd returns min(n, d_v, f) singular vectors for view v
    widths = [map_width(config.kernel, min(dataset.n, view.features.shape[1], config.f),
                        config.kernel_components) for view in dataset.views]
    bounds = np.cumsum([0] + widths)
    # column-major, so each view's block is contiguous and touches only its pages
    concat = np.empty((dataset.n, bounds[-1]), order="F")
    per_view = []
    traces = []
    for v, view in enumerate(dataset.views):
        try:
            t0 = time.perf_counter()
            if orders[v] > 0:
                if sources[v] is None:
                    raise ValueError("propagation requested but no graph available")
                X = propagate_cached(dataset.views[sources[v]].graph, view.features, orders[v],
                                     cache_dir=config.cache_dir)
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
            B = apply_map(config.kernel, svd.U, m=config.kernel_components,
                          params=config.kernel_params, seed=seeds[v],
                          out=concat[:, bounds[v]:bounds[v + 1]])
            timer["kernel_map"] += time.perf_counter() - t0
            del svd

            labels = _cluster_factor(B, config, seeds[v], timer, ("embedding", "kmeans"))

            t0 = time.perf_counter()
            traces.append(clusterability_trace(B, labels))
            timer["weighting"] += time.perf_counter() - t0
            per_view.append(labels)
        except Exception as exc:
            exc.add_note(f"view {v}")
            raise

    t0 = time.perf_counter()
    weights = softmax_weights(np.array(traces), config.temperature, mode=config.weight_mode)
    # scaling factor v by sqrt(lambda_v) gives the concatenation the Gram
    # matrix sum_v lambda_v B_v B_v^T, the weighted consensus affinity
    for v, lam in enumerate(weights.lambdas):
        concat[:, bounds[v]:bounds[v + 1]] *= np.sqrt(lam)
    timer["weighting"] += time.perf_counter() - t0

    consensus = _cluster_factor(concat, config, seeds[n_views], timer,
                                ("consensus", "consensus"))
    return ClusteringResult(consensus, per_view, weights, dict(timer))
