import dataclasses
import itertools
import os
import threading
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import mvkc.data
import mvkc.linalg
import mvkc.pipeline
import mvkc.workers
from mvkc.data import MultiViewDataset, View, load_dataset, save_dataset
from mvkc.embedding import degree_normalize, implicit_degrees
from mvkc.kernels import EIG_FLOOR, apply_map
from mvkc.kmeans import cpqr_labels
from mvkc.linalg import center_columns, truncated_svd
from mvkc.metrics import ari, contingency_table
from mvkc.pipeline import PipelineConfig, cluster_bases, run_pipeline, view_bases
from mvkc.weighting import clusterability_trace
from mvkc.workers import SPECTRAL_MIN_ROWS, openblas_threads
from oracles import consensus_affinity_oracle, explicit_map, kernel_factor
from synth import rings, synth_multiview, with_view


def test_config_defaults():
    cfg = PipelineConfig(k=4)
    assert cfg.f == 4
    assert cfg.kernel_components is None  # the default quadratic kernel reads none
    assert PipelineConfig(k=4, kernel="rbf").kernel_components == 40
    assert cfg.weight_mode == "negated"


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
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    ds = synth_multiview(200, 3, 2, noise=0.2, seed=1)
    a = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=5))
    b = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=5))
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("n, n_views, noise, seed", [(200, 2, 0.3, 3), (90, 3, 0.5, 2)])
def test_duplicating_every_row_leaves_the_weights(n, n_views, noise, seed):
    # n -> 2n doubles every trace; the weights read only their ratios
    views = [View(view.features) for view in synth_multiview(n, 3, n_views, noise, seed).views]
    once = run_pipeline(MultiViewDataset(views), PipelineConfig(k=3, f=2))
    twice = run_pipeline(MultiViewDataset([View(np.repeat(view.features, 2, axis=0))
                                           for view in views]), PipelineConfig(k=3, f=2))
    assert np.array_equal(twice.consensus, np.repeat(once.consensus, 2))
    assert np.allclose(twice.traces, 2 * once.traces, rtol=1e-12, atol=0)
    assert np.allclose(twice.weights, once.weights, rtol=0, atol=1e-12)


def test_quadratic_labels_do_not_depend_on_the_seed():
    # quadratic maps and inputs no wider than EXACT_SVD_MAX_DIM leave no random step
    ds = synth_multiview(400, 4, 2, noise=0.3, seed=6)
    runs = [run_pipeline(ds, PipelineConfig(k=4, seed=seed)).consensus for seed in range(4)]
    for labels in runs[1:]:
        assert np.array_equal(labels, runs[0])


def test_the_bases_do_not_read_the_seed_on_the_randomized_route(monkeypatch):
    # a feature SVD wider than EXACT_SVD_MAX_DIM is sketched with its view's index
    monkeypatch.setattr(mvkc.linalg, "EXACT_SVD_MAX_DIM", 8)
    sketches = []
    randomized_svd = mvkc.linalg.randomized_svd
    monkeypatch.setattr(mvkc.linalg, "randomized_svd",
                        lambda *args, **kw: sketches.append(kw["seed"]) or randomized_svd(*args, **kw))
    ds = synth_multiview(200, 3, 2, noise=0.3, seed=6)
    assert ds.views[0].features.shape[1] > 8
    (first, _), (second, _) = (view_bases(ds, PipelineConfig(k=3, seed=seed)) for seed in (0, 7))
    assert sketches == [0, 1, 0, 1]
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(a, b)


def test_a_run_is_its_bases_then_their_clustering():
    ds = synth_multiview(300, 3, 2, noise=0.3, seed=1)
    config = PipelineConfig(k=3, kernel="rbf", seed=4)
    whole = run_pipeline(ds, config)
    bases, timings = view_bases(ds, config)
    assert list(timings) == ["propagation", "svd"]
    part = cluster_bases(bases, config)
    assert bases == []  # each basis is taken out as its view starts
    assert np.array_equal(part.consensus, whole.consensus)
    assert np.array_equal(part.weights, whole.weights)
    assert np.array_equal(part.traces, whole.traces)
    assert list(whole.timings) == list(timings) + list(part.timings)


def test_f_plus_one_below_k_is_rejected():
    ds = synth_multiview(100, 4, 2, noise=0.1, seed=0)
    with pytest.raises(ValueError, match=r"f \+ 1 >= k, got f=2, k=4"):
        run_pipeline(ds, PipelineConfig(k=4, f=2))


def test_size_check_comes_before_any_view(monkeypatch):
    ds = synth_multiview(100, 4, 2, noise=0.1, seed=0)
    svd_calls = []
    monkeypatch.setattr(mvkc.pipeline, "truncated_svd",
                        lambda *args, **kw: svd_calls.append(args) or truncated_svd(*args, **kw))
    with pytest.raises(ValueError, match=r"k <= n") as excinfo:
        run_pipeline(ds, PipelineConfig(k=120, f=130))
    assert not getattr(excinfo.value, "__notes__", None)  # no view note
    assert svd_calls == []


@pytest.mark.parametrize("views, error, match", [
    ([], mvkc.data.FormatError, "no views"),
    ([(300, 4), (200, 4)], mvkc.data.SizeMismatchError, "view 1: has 200 rows"),
], ids=["no-views", "row-counts-differ"])
def test_an_invalid_dataset_raises_its_data_error_before_any_view(views, error, match):
    # a dataset is checked when it is built, so no invalid one reaches run_pipeline
    rng = np.random.default_rng(0)
    with pytest.raises(error, match=match):
        MultiViewDataset([View(rng.normal(size=shape)) for shape in views])


@pytest.mark.parametrize("kernel", ["quadratic", "rbf"])
def test_no_output_reads_the_signs_of_the_singular_vectors(kernel, monkeypatch):
    # U is read only through kernel values and the CPQR labels, and the
    # principal blocks only through the consensus's Gram matrix: flipping a
    # fixed subset of their columns leaves every output bit unchanged
    ds = synth_multiview(600, 3, 2, noise=0.3, seed=4)
    expected = run_pipeline(ds, PipelineConfig(k=3, kernel=kernel))

    def flipped(*args, **kwargs):
        svd = truncated_svd(*args, **kwargs)
        svd.U[:, 1::2] *= -1.0
        if svd.block is not None:
            svd.block[:, ::2] *= -1.0
        return svd

    monkeypatch.setattr(mvkc.pipeline, "truncated_svd", flipped)
    res = run_pipeline(ds, PipelineConfig(k=3, kernel=kernel))
    assert np.array_equal(res.consensus, expected.consensus)
    for labels, want in zip(res.per_view, expected.per_view, strict=True):
        assert np.array_equal(labels, want)
    assert np.array_equal(res.weights, expected.weights)
    assert np.array_equal(res.traces, expected.traces)


def test_single_view_matches_per_view_path():
    ds = synth_multiview(200, 3, 1, noise=0.05, seed=2)
    res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=0, weight_mode="uniform"))
    assert res.weights[0] == pytest.approx(1.0)
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
    ds = with_view(synth_multiview(150, 3, 2, noise=0.2, seed=4), 0, propagation_order=2)
    # second view loses its graph; propagation falls back to the shared one
    ds = with_view(ds, 1, graph=None, propagation_order=2)
    res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=0))
    assert len(res.consensus) == 150


@pytest.mark.parametrize("override", [False, True])
def test_loading_reads_exactly_the_graphs_the_run_propagates_over(tmp_path, monkeypatch, override):
    # every view with or without a graph file, each with order 0 or 1, given
    # in the manifest or as overrides of the opposite manifest order
    base = synth_multiview(40, 2, 3, noise=0.1, seed=9)
    graph_names, used = {}, set()
    load_graph, propagate_cached = mvkc.data.load_graph, mvkc.pipeline.propagate_cached

    def recording_load_graph(path, n_rows):
        graph = load_graph(path, n_rows)
        graph_names[id(graph)] = os.path.basename(path)
        return graph

    def recording_propagate_cached(graph, features, p, cache_dir=None):
        used.add(graph_names[id(graph)])
        return propagate_cached(graph, features, p, cache_dir)

    monkeypatch.setattr(mvkc.data, "load_graph", recording_load_graph)
    monkeypatch.setattr(mvkc.pipeline, "propagate_cached", recording_propagate_cached)
    for case, (has_graph, orders) in enumerate(itertools.product(
            itertools.product([False, True], repeat=3), itertools.product([0, 1], repeat=3))):
        path = str(tmp_path / str(case))
        manifest_orders = [1 - p for p in orders] if override else orders
        views = [View(view.features, view.graph if has else None, p)
                 for view, has, p in zip(base.views, has_graph, manifest_orders)]
        save_dataset(MultiViewDataset(views, base.labels), path)
        graph_names.clear()
        used.clear()
        if any(orders) and not any(has_graph):  # found by the load, before any run
            with pytest.raises(ValueError, match="propagates at order 1, but the dataset has no graph"):
                load_dataset(path, dict(enumerate(orders)) if override else {})
            assert not graph_names
            continue
        dataset = load_dataset(path, dict(enumerate(orders)) if override else {})
        read = set(graph_names.values())
        run_pipeline(dataset, PipelineConfig(k=2, f=2))
        assert read == used, (has_graph, orders)


def test_propagation_without_any_graph_fails():
    ds = MultiViewDataset([View(np.random.default_rng(0).normal(size=(50, 4)), propagation_order=1)])
    cfg = PipelineConfig(k=2, f=2)
    with pytest.raises(ValueError, match="view 0"):
        run_pipeline(ds, cfg)


def test_propagation_without_any_graph_fails_before_any_view(monkeypatch):
    rng = np.random.default_rng(0)
    ds = MultiViewDataset([View(rng.normal(size=(50, 4))),
                           View(rng.normal(size=(50, 4)), propagation_order=1)])
    calls = []
    for name in ("propagate_cached", "apply_map"):
        def counted(*args, _name=name, _fn=getattr(mvkc.pipeline, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mvkc.pipeline, name, counted)
    with pytest.raises(ValueError, match="view 1 propagates at order 1, but the dataset has no graph"):
        run_pipeline(ds, PipelineConfig(k=2, f=2))
    assert calls == []


def test_view_failure_names_view():
    good = np.random.default_rng(1).normal(size=(30, 6))
    thin = np.random.default_rng(1).normal(size=(30, 1))  # rank too low for f=3
    ds = MultiViewDataset([View(good), View(thin)])
    with pytest.raises(ValueError, match="view 1"):
        run_pipeline(ds, PipelineConfig(k=3, f=3, seed=0))


def spectral_stage_peak(n):
    """Traced peak of one view's spectral stage, after a warm-up call, on an
    n x 55 quadratic factor of four blobs: normalize, embed, CPQR and the
    clusterability trace, at k = 4, f = 10. Returns it and the labels."""
    rng = np.random.default_rng(4)
    truth = np.arange(n) % 4
    U = np.linalg.qr(rng.normal(size=(4, 10))[truth] + 0.5 * rng.normal(size=(n, 10)))[0]
    factor = apply_map("quadratic", U)
    config = PipelineConfig(k=4, f=10)
    for _ in range(2):
        B = factor.copy(order="F")
        tracemalloc.start()
        try:
            degree_normalize(B)
            labels, _ = mvkc.pipeline._cluster_factor(B, config, 0, defaultdict(float),
                                                      ("embedding", "discretize"), t=22)
            clusterability_trace(B, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert ari(labels, truth) > 0.99
    return peak, labels


def test_spectral_stage_on_more_cores_takes_no_more_memory(monkeypatch):
    # above the size rule the passes write into the outputs their callers
    # allocate, and the Gram matrix's block products depend on n alone
    peaks = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        peaks[cores], _ = spectral_stage_peak(50000)
    assert peaks[2] <= 1.01 * peaks[1] and peaks[3] <= 1.01 * peaks[1]


def test_spectral_stage_below_the_size_rule_allocates_no_more_than_whole_array_passes(
        monkeypatch):
    # graph-p2's n: the stage as it ran before its passes took row blocks
    # peaked at 6,910,416 traced bytes here (numpy 2.4, scipy 1.17); the
    # passes' Python frames and closures add under 2 KB, while a temporary
    # copy of any pass's output (the principal block, the normalized factor)
    # adds 0.6 MB or more
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 3)
    peak, _ = spectral_stage_peak(20000)
    assert peak <= 6_910_416 + 4096


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_a_run_leaves_no_thread_behind(fail, monkeypatch):
    # the run's one pool starts at its first pass above the size rule and is
    # joined, with the BLAS thread counts restored, also when a view raises
    monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: 2)
    n = SPECTRAL_MIN_ROWS + 100
    rng = np.random.default_rng(0)
    truth = np.arange(n) % 3
    views = [View(rng.normal(size=(3, 8))[truth] + 0.3 * rng.normal(size=(n, 8)))
             for _ in range(2)]
    if fail:  # no variance: raises once view 0's feature SVD has run on the pool
        views[1] = View(np.ones((n, 8)))
    during = []

    def counted(*args, **kwargs):  # the pool starts at view 0's centering, before its SVD
        during.append(threading.active_count())
        return truncated_svd(*args, **kwargs)

    monkeypatch.setattr(mvkc.pipeline, "truncated_svd", counted)
    threads = threading.active_count()
    blas = [get() for get, _ in openblas_threads()]
    if fail:
        with pytest.raises(FloatingPointError, match="view 1"):
            run_pipeline(MultiViewDataset(views, truth), PipelineConfig(k=3, f=3))
    else:
        run_pipeline(MultiViewDataset(views, truth), PipelineConfig(k=3, f=3))
    assert during and min(during) > threads
    assert threading.active_count() == threads
    assert [get() for get, _ in openblas_threads()] == blas


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


def consensus_peak_ratio(n, k, **config):
    """Traced peak of one run over three 16-column views, in units of the
    n x sum(m_v) concatenation of the kernel maps; asserts the run recovers
    the clusters."""
    import tracemalloc

    rng = np.random.default_rng(0)
    labels = np.arange(n) % k
    views = [View(rng.normal(size=(k, 16))[labels] + 0.3 * rng.normal(size=(n, 16)))
             for _ in range(3)]
    cfg = PipelineConfig(k=k, **config)
    width = cfg.f * (cfg.f + 1) // 2 if cfg.kernel == "quadratic" else cfg.kernel_components
    tracemalloc.start()
    res = run_pipeline(MultiViewDataset(views, labels), cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert ari(res.consensus, labels) == pytest.approx(1.0)
    return peak / (n * 3 * width * 8)


def test_consensus_peak_memory_is_about_one_concatenation():
    # one view's factor (1/3), the principal blocks of 2(f + 1) = 12 of its
    # 60 columns (0.2 for all three) and one embedding come to about 0.64;
    # holding every factor, as an n x sum(m_v) concatenation does, to 1.2
    assert consensus_peak_ratio(20000, 5, kernel="rbf", kernel_components=60) < 0.7


def test_quadratic_consensus_peak_memory_is_about_one_concatenation():
    # blocks of 22 of 55 columns: about 0.88, against 1.23 for the concatenation
    assert consensus_peak_ratio(20000, 5, kernel="quadratic", f=10) < 0.95


def test_views_of_different_widths_fill_their_own_blocks():
    # quadratic with f = 4 maps a 3-column view to 6 columns and a 16-column
    # view to 10
    n, k = 300, 3
    rng = np.random.default_rng(8)
    labels = np.arange(n) % k
    views = [View(rng.normal(size=(k, d))[labels] + 0.5 * rng.normal(size=(n, d)))
             for d in (3, 16)]
    cfg = PipelineConfig(k=k, f=4, kernel="quadratic")
    both = run_pipeline(MultiViewDataset(views, labels), cfg)
    for view, labels_v in zip(views, both.per_view):
        alone = run_pipeline(MultiViewDataset([view], labels), cfg)
        assert np.array_equal(labels_v, alone.per_view[0])
    assert len(both.consensus) == n


@pytest.mark.parametrize("chosen", [0, 1])
def test_one_hot_weights_give_the_chosen_views_labels(chosen, monkeypatch):
    # the consensus of one view is that view's principal block, already
    # normalized: its labels are the view's own, up to a permutation. At
    # gamma = 5 neither ring view finds the rings alone, so the labels
    # rest on a flat spectrum, which a second normalization would rotate
    dataset = rings(2000, 2)
    one_hot = np.eye(2)[chosen]
    monkeypatch.setattr(mvkc.pipeline, "view_weights", lambda traces, mode: one_hot)
    config = PipelineConfig(k=2, kernel="rbf", kernel_components=200, gamma=5.0)
    res = run_pipeline(dataset, config)
    assert np.array_equal(res.weights, one_hot)
    table = contingency_table(res.consensus, res.per_view[chosen])
    assert table.shape == (2, 2) and np.count_nonzero(table) == 2


def test_timings_cover_stages():
    ds = synth_multiview(100, 2, 2, noise=0.1, seed=5)
    res = run_pipeline(ds, PipelineConfig(k=2, f=1, kernel="rbf", seed=0))
    for stage in ("svd", "kernel_map", "embedding", "discretize", "consensus"):
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


def record_consensus(monkeypatch, dataset, config):
    """Run the pipeline and return each view's normalized factor, the
    consensus array as the consensus pass receives it, and the result."""
    factors, consensus = [], []
    cluster_factor = mvkc.pipeline._cluster_factor

    def recording_cluster_factor(B, config, seed, timer, stages, t=None, right=None):
        if stages == ("consensus", "consensus"):
            consensus.append(B.copy())
            return cluster_factor(B, config, seed, timer, stages, t)
        out = cluster_factor(B, config, seed, timer, stages, t, right)
        factors.append(B.copy() if right is None else B @ right)  # normalized in place by now
        return out

    monkeypatch.setattr(mvkc.pipeline, "_cluster_factor", recording_cluster_factor)
    res = run_pipeline(dataset, config)
    assert len(factors) == dataset.n_views and len(consensus) == 1
    return factors, consensus[0], res


def blob_views(n, k, dims, seed, noise=0.5):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k
    views = [View(rng.normal(size=(k, d))[labels] + noise * rng.normal(size=(n, d))) for d in dims]
    return MultiViewDataset(views, labels)


@pytest.mark.parametrize("dims, config", [
    ((16, 16), dict(f=2)),  # quadratic maps of 3 columns, t = 6: exact
    ((3, 16), dict(f=4)),  # 6 and 10 columns, t = 10: exact
    ((16, 16, 16), dict(f=4, kernel="rbf", kernel_components=40)),
    ((16, 16), dict(f=6)),  # 21 columns, t = 14
], ids=["quadratic-exact", "mixed-widths-exact", "rbf", "quadratic"])
def test_consensus_is_the_top_spectral_blocks_of_the_views(monkeypatch, dims, config):
    # uniform weights, so that every view's blocks count
    config = PipelineConfig(k=3, weight_mode="uniform", **config)
    dataset = blob_views(400, 3, dims, seed=len(dims) + config.f)
    factors, C, res = record_consensus(monkeypatch, dataset, config)
    t = 2 * (config.f + 1)
    assert C.shape == (dataset.n, sum(min(t, B.shape[1]) for B in factors))
    # Eckart-Young: dropping the directions past t moves lambda_v B_v B_v^T
    # by lambda_v s_{v,t+1}^2 in spectral norm, so no entry moves more
    tails = [np.linalg.svd(B, compute_uv=False) for B in factors]
    bound = sum(lam * s[t] ** 2 for lam, s in zip(res.weights, tails) if len(s) > t)
    if all(B.shape[1] <= t for B in factors):
        assert bound == 0.0
    oracle = consensus_affinity_oracle(factors, res.weights)
    assert np.abs(C @ C.T - oracle).max() <= bound + 1e-10


def rank_f_plus_one_labels(dataset, config):
    """Each view's labels from the top f + 1 left singular vectors of its
    normalized factor alone, as a rank-(f + 1) truncated SVD gives them."""
    seeds = mvkc.pipeline._derived_seeds(config.seed, dataset.n_views)
    out = []
    for v, (view, seed) in enumerate(zip(dataset.views, seeds)):
        svd = truncated_svd(center_columns(view.features), config.f, seed=v)
        B, right = kernel_factor(config.kernel, svd.U, m=config.kernel_components,
                                 gamma=config.gamma, seed=seed)
        degree_normalize(B, right)
        U = truncated_svd(B, config.f + 1, seed=seed, right=right).U
        out.append(cpqr_labels(U, config.k))
    return out


@pytest.mark.parametrize("config", [
    dict(k=3, f=2),
    dict(k=4, f=4),
    dict(k=5, f=6),
    dict(k=3, f=3, kernel="rbf", kernel_components=30, seed=1),
    dict(k=4, f=4, kernel="rbf", kernel_components=60, seed=2),
], ids=["quadratic-f2", "quadratic-f4", "quadratic-f6", "rbf-m30", "rbf-m60"])
def test_per_view_labels_are_those_of_the_rank_f_plus_one_embedding(config):
    config = PipelineConfig(**config)
    dataset = blob_views(1500, config.k, (16, 10, 16), seed=config.k + config.f, noise=1.0)
    res = run_pipeline(dataset, config)
    for labels, expected in zip(res.per_view, rank_f_plus_one_labels(dataset, config)):
        assert np.array_equal(labels, expected)


def blob_basis(n, k, seed):
    """The f = k left singular vectors of one centered 16-column blob view."""
    return truncated_svd(center_columns(blob_views(n, k, (16,), seed).views[0].features), k).U


def both_routes(U, m, gamma, k):
    """One view's spectral stage two ways: on K_nm with its whitening M
    applied on the m x m side, as the pipeline runs it, and on the explicit
    product K_nm M. Returns, per route, the degrees, the SVD with its
    principal block, the labels and the clusterability trace."""
    t = 2 * (k + 1)
    F, right = kernel_factor("rbf", U, m, gamma)
    routes = [(F, right), (explicit_map("rbf", U, m, gamma), None)]
    out = []
    for B, M in routes:
        d = implicit_degrees(B, M)
        degree_normalize(B, M)
        svd = truncated_svd(B, k + 1, t=t, right=M)
        labels = cpqr_labels(svd.U, k)
        out.append((d, svd, labels, clusterability_trace(B, labels, M)))
    return out, right


@pytest.mark.parametrize("n, k, m", [(3000, 4, 100), (6000, 10, 100), (2000, 3, 60)])
def test_the_m_side_route_matches_the_explicit_whitening_product(n, k, m, monkeypatch):
    # at the default gamma; the product of the m-side route is the n x t
    # principal block K_nm (M W_t), never an n x m one
    U = blob_basis(n, k, seed=n + k)
    widths = []
    product = mvkc.linalg._product
    monkeypatch.setattr(mvkc.linalg, "_product",
                        lambda X, W: widths.append(W.shape[1]) or product(X, W))
    (ours, oracle), _ = both_routes(U, m, None, k)
    assert widths == [2 * (k + 1)] * 2
    np.testing.assert_allclose(ours[0], oracle[0], rtol=1e-12, atol=0)
    # the Gram route's tolerances: singular values to 1e-8 relative, and the
    # principal blocks' Gram matrices, in an orthonormal basis of both ranges
    np.testing.assert_allclose(ours[1].s, oracle[1].s, rtol=1e-8, atol=0)
    P, R = ours[1].block, oracle[1].block
    Q = np.linalg.qr(np.hstack([P, R]))[0]
    QP, QR = Q.T @ P, Q.T @ R
    assert np.linalg.norm(QP @ QP.T - QR @ QR.T) < 1e-10
    assert np.array_equal(ours[2], oracle[2])
    assert ours[3] == pytest.approx(oracle[3], rel=1e-12)


@pytest.mark.parametrize("n, k, seed", [(5000, 4, 0), (4000, 3, 2)])
def test_the_routes_agree_where_the_eigenvalue_floor_binds(n, k, seed):
    # gamma = 1e-4 crowds the kernel values near 1, so dozens of K_mm's
    # eigenvalues sit on the floor; the m-side Gram matrix's error, about
    # eps kappa(K_mm), stays at the Gram route's bound, and both routes give
    # the same labels and traces
    (ours, oracle), right = both_routes(blob_basis(n, k, seed), 100, 1e-4, k)
    evals = np.linalg.eigvalsh(np.linalg.inv(right @ right))
    assert np.count_nonzero(evals < 1.0001 * EIG_FLOOR * evals.max()) > 10
    assert np.array_equal(ours[2], oracle[2])
    assert ours[3] == pytest.approx(oracle[3], rel=1e-12)


@pytest.mark.parametrize("n", [2000, 8000])
def test_a_gamma_means_the_same_at_every_n(n):
    # the rbf map acts on sqrt(n) U: at gamma = 2 neither ring view finds the
    # rings alone, but their consensus does; at gamma = 50 every view does
    dataset = rings(n, 2)
    config = PipelineConfig(k=2, kernel="rbf", kernel_components=200, gamma=2.0)
    res = run_pipeline(dataset, config)
    assert all(abs(ari(labels, dataset.labels)) < 0.05 for labels in res.per_view)
    assert ari(res.consensus, dataset.labels) == 1.0
    res = run_pipeline(dataset, dataclasses.replace(config, gamma=50.0))
    assert all(ari(labels, dataset.labels) >= 0.996 for labels in res.per_view)
