import numpy as np
import pytest

from mvkc.data import MultiViewDataset, View
from mvkc.metrics import ari
from mvkc.pipeline import PipelineConfig, run_pipeline
from oracles import consensus_affinity_oracle
from synth import synth_multiview


def test_config_defaults():
    cfg = PipelineConfig(k=4)
    assert cfg.f == 4
    assert cfg.kernel_components is None  # the default quadratic kernel reads none
    assert PipelineConfig(k=4, kernel="rbf").kernel_components == 40
    assert cfg.temperature == 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k=1)
    with pytest.raises(ValueError):
        PipelineConfig(k=3, kernel="cubic")
    with pytest.raises(ValueError):
        PipelineConfig(k=3, weight_mode="magic")


def test_end_to_end_synthetic():
    ds = synth_multiview(300, 3, 2, noise=0.05, seed=0)
    res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=0))
    assert ari(res.consensus, ds.labels) >= 0.95
    assert len(res.consensus) == ds.n
    assert len(res.per_view) == 2
    assert res.weights.lambdas.sum() == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    ds = synth_multiview(200, 3, 2, noise=0.2, seed=1)
    a = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=5))
    b = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=5))
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.weights.lambdas, b.weights.lambdas)


def test_quadratic_labels_do_not_depend_on_the_seed():
    # quadratic maps and inputs no wider than EXACT_SVD_MAX_DIM leave no random step
    ds = synth_multiview(400, 4, 2, noise=0.3, seed=6)
    runs = [run_pipeline(ds, PipelineConfig(k=4, seed=seed)).consensus for seed in range(4)]
    for labels in runs[1:]:
        assert np.array_equal(labels, runs[0])


def test_f_plus_one_below_k_is_rejected():
    ds = synth_multiview(100, 4, 2, noise=0.1, seed=0)
    with pytest.raises(ValueError, match=r"f \+ 1 >= k, got f=2, k=4"):
        run_pipeline(ds, PipelineConfig(k=4, f=2))


def test_single_view_matches_per_view_path():
    ds = synth_multiview(200, 3, 1, noise=0.05, seed=2)
    res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=0, weight_mode="uniform"))
    assert res.weights.lambdas[0] == pytest.approx(1.0)
    # consensus over one view is the view partition up to relabeling
    assert ari(res.consensus, res.per_view[0]) == pytest.approx(1.0)


def test_two_identical_views_match_single_view():
    base = synth_multiview(200, 3, 1, noise=0.05, seed=3)
    view = base.views[0]
    doubled = MultiViewDataset([view, View(view.features.copy(), view.graph, view.propagation_order)],
                               labels=base.labels)
    single = run_pipeline(base, PipelineConfig(k=3, f=2, seed=0))
    double = run_pipeline(doubled, PipelineConfig(k=3, f=2, seed=0))
    assert ari(double.consensus, single.consensus) == pytest.approx(1.0)


def test_propagation_override_and_shared_graph():
    ds = synth_multiview(150, 3, 2, noise=0.2, seed=4)
    # second view loses its graph; propagation falls back to the shared one
    ds.views[1] = View(ds.views[1].features, None, propagation_order=0)
    res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=0, propagation_orders=[2, 2]))
    assert len(res.consensus) == 150


def test_propagation_without_any_graph_fails():
    ds = MultiViewDataset([View(np.random.default_rng(0).normal(size=(50, 4)))])
    cfg = PipelineConfig(k=2, f=2, propagation_orders=[1])
    with pytest.raises(ValueError, match="view 0"):
        run_pipeline(ds, cfg)


def test_view_failure_names_view():
    good = np.random.default_rng(1).normal(size=(30, 6))
    thin = np.random.default_rng(1).normal(size=(30, 1))  # rank too low for f=3
    ds = MultiViewDataset([View(good), View(thin)])
    with pytest.raises(ValueError, match="view 1"):
        run_pipeline(ds, PipelineConfig(k=3, f=3, seed=0))


def test_peak_memory_linear_in_n():
    import tracemalloc

    peaks = []
    for n in (1000, 10000):
        ds = synth_multiview(n, 5, 2, noise=0.1, seed=0)
        cfg = PipelineConfig(k=5, f=4, seed=0)
        run_pipeline(ds, cfg)  # warm-up so allocator state is comparable
        tracemalloc.start()
        run_pipeline(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= 1.3 * 10 * peaks[0]


def test_timings_cover_stages():
    ds = synth_multiview(100, 2, 2, noise=0.1, seed=5)
    res = run_pipeline(ds, PipelineConfig(k=2, f=1, kernel="rbf", seed=0))
    for stage in ("svd", "kernel_map", "embedding", "kmeans", "consensus"):
        assert stage in res.timings


# ---------------------------------------------------------------------------
# consensus affinity oracle


def test_oracle_single_view():
    B = np.random.default_rng(0).normal(size=(20, 4))
    assert np.allclose(consensus_affinity_oracle([B], [1.0]), B @ B.T, atol=1e-12)


def test_oracle_matches_concatenation():
    rng = np.random.default_rng(1)
    Bs = [rng.normal(size=(50, m)) for m in (3, 5)]
    lams = [0.3, 0.7]
    oracle = consensus_affinity_oracle(Bs, lams)
    concat = np.hstack([np.sqrt(l) * B for l, B in zip(lams, Bs)])
    assert np.abs(concat @ concat.T - oracle).max() < 1e-12


def test_oracle_zero_weight_elimination():
    rng = np.random.default_rng(2)
    B1, B2 = rng.normal(size=(15, 3)), rng.normal(size=(15, 4))
    oracle = consensus_affinity_oracle([B1, B2], [0.0, 1.0])
    assert np.allclose(oracle, B2 @ B2.T, atol=1e-12)


def test_oracle_size_guard():
    with pytest.raises(ValueError):
        consensus_affinity_oracle([np.zeros((3000, 2))], [1.0])
