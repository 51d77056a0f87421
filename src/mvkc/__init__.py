"""Scalable multi-view clustering with explicit kernel feature maps.

Clusters n entities described by several views (feature matrices, optionally
with graphs) by building a low-dimensional factor B per view whose implicit
affinity is B @ B.T, weighting and concatenating the factors, and running
spectral clustering through SVDs of the factors. No n x n matrix is ever
materialized.
"""

from .data import (
    SparseGraph,
    View,
    MultiViewDataset,
    load_dataset,
    save_dataset,
    build_knn_graph,
)
from .pipeline import PipelineConfig, ClusteringResult, run_pipeline
from .metrics import clustering_accuracy, macro_f1, nmi, ari

__all__ = [
    "SparseGraph",
    "View",
    "MultiViewDataset",
    "load_dataset",
    "save_dataset",
    "build_knn_graph",
    "PipelineConfig",
    "ClusteringResult",
    "run_pipeline",
    "clustering_accuracy",
    "macro_f1",
    "nmi",
    "ari",
]
