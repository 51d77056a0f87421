"""End-to-end clustering pipeline.

Per view: smooth features, center, take the f leading left singular vectors,
map them through the kernel feature map, degree-normalize the factor, embed
and cluster. Then weight the views by clusterability, concatenate the scaled
factors, and run the same normalize/embed/cluster pass once more for the
consensus partition. Never allocates an n x n matrix.
"""

import dataclasses
import hashlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset
from .embedding import degree_normalize, implicit_degrees, spectral_embedding
from .kernels import KERNEL_KINDS, apply_map, default_params, fit_kernel_map
from .kmeans import Partition, kmeans
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
    kernel_components: int | None = None  # Nystroem landmarks; defaults to 10k
    kernel_params: dict = field(default_factory=dict)
    weight_mode: str = "softmax"
    propagation_orders: list | None = None  # per-view override
    seed: int = 0
    cache_dir: str | None = None

    def __post_init__(self):
        if self.f is None:
            self.f = self.k
        if self.kernel_components is None:
            self.kernel_components = 10 * self.k
        if self.k < 2:
            raise ValueError(f"need k >= 2 clusters, got {self.k}")
        if self.f < 1:
            raise ValueError(f"need f >= 1 components, got {self.f}")
        if self.temperature <= 0:
            raise ValueError(f"need temperature > 0, got {self.temperature}")
        # a Nystroem factor has kernel_components columns; the embedding needs f + 1
        least = self.f + 1 if self.kernel in ("rbf", "sigmoid") else 1
        if self.kernel_components < least:
            raise ValueError(f"need kernel_components >= {least}, got {self.kernel_components}")
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
    consensus: Partition
    per_view: list
    weights: ViewWeights
    timings: dict


def _derived_seeds(seed, n_views):
    """Independent child seeds for every stochastic stage."""
    children = np.random.SeedSequence(seed).spawn(n_views + 1)
    return [int(c.generate_state(1)[0]) for c in children]


def _cluster_factor(B, config, seed, timer, stages):
    """Degree-normalize the factor, embed it spectrally and run k-means.

    ``stages`` names the ``timer`` entries of (normalize + embed, k-means).
    Returns the normalized factor and the partition.
    """
    t0 = time.perf_counter()
    B = degree_normalize(B, implicit_degrees(B))
    coords = spectral_embedding(B, config.f, seed=seed)
    timer[stages[0]] += time.perf_counter() - t0

    t0 = time.perf_counter()
    partition, _ = kmeans(coords, config.k, seed=seed)
    timer[stages[1]] += time.perf_counter() - t0
    return B, partition


def run_pipeline(dataset: MultiViewDataset, config: PipelineConfig) -> ClusteringResult:
    """Run the full multi-view clustering pass and return all partitions.

    ``timings`` maps each stage to its seconds, summed over the views. An
    exception raised while processing a view keeps its class and carries
    a ``view <index>`` note.
    """
    n_views = dataset.n_views
    seeds = _derived_seeds(config.seed, n_views)
    timer = defaultdict(float)  # seconds by stage, summed over views
    # views that propagate without a graph of their own use the first one given
    shared_graph = next((view.graph for view in dataset.views if view.graph is not None), None)

    factors = []
    partitions = []
    traces = []
    for v, view in enumerate(dataset.views):
        try:
            p = view.propagation_order
            if config.propagation_orders is not None:
                p = config.propagation_orders[v]
            graph = view.graph if view.graph is not None else shared_graph
            t0 = time.perf_counter()
            if p > 0:
                if graph is None:
                    raise ValueError("propagation requested but no graph available")
                X = propagate_cached(graph, view.features, p, cache_dir=config.cache_dir)
            else:
                X = view.features
            timer["propagation"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            Xc = center_columns(X)
            svd = truncated_svd(Xc, config.f, seed=seeds[v])
            timer["svd"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            kmap = fit_kernel_map(config.kernel, svd.U,
                                  m=min(config.kernel_components, dataset.n),
                                  params=config.kernel_params, seed=seeds[v])
            B = apply_map(kmap, svd.U)
            timer["kernel_map"] += time.perf_counter() - t0

            B, G = _cluster_factor(B, config, seeds[v], timer, ("embedding", "kmeans"))

            t0 = time.perf_counter()
            traces.append(clusterability_trace(B, G))
            timer["weighting"] += time.perf_counter() - t0
            factors.append(B)
            partitions.append(G)
        except Exception as exc:
            exc.add_note(f"view {v}")
            raise

    t0 = time.perf_counter()
    weights = softmax_weights(np.array(traces), config.temperature, mode=config.weight_mode)
    # scaling factor v by sqrt(lambda_v) gives the concatenation the Gram
    # matrix sum_v lambda_v B_v B_v^T, the weighted consensus affinity
    concat = np.hstack([np.sqrt(lam) * B for lam, B in zip(weights.lambdas, factors)])
    timer["weighting"] += time.perf_counter() - t0

    _, consensus = _cluster_factor(concat, config, seeds[n_views], timer,
                                   ("consensus", "consensus"))
    return ClusteringResult(consensus, partitions, weights, dict(timer))
