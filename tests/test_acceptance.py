"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mvkc.workers
from mvkc.data import MultiViewDataset, View, load_dataset
from mvkc.embedding import degree_normalize
from mvkc.linalg import randomized_svd, truncated_svd
from mvkc.metrics import ari, clustering_accuracy, contingency_table, macro_f1, nmi
from mvkc.pipeline import PipelineConfig, run_pipeline
from mvkc.weighting import clusterability_trace
from oracles import consensus_affinity_oracle, indicator, kernel_factor
from synth import synth_multiview


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. weighted kernel-summation identity


def test_criterion_1_kernel_summation_identity():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    kernels = ["quadratic", "rbf"]
    for _ in range(100):
        n = int(rng.integers(20, 201))
        V = int(rng.integers(1, 5))
        factors = []
        for _ in range(V):
            # resample views whose affinity degrees come out near zero:
            # flooring would blow up the normalized entries and the 1e-10
            # absolute tolerance only makes sense on well-posed inputs
            while True:
                f = int(rng.integers(2, 7))
                # rows of squared norm about f / n, as the pipeline's U has them
                U = rng.normal(size=(n, f)) / np.sqrt(n)
                kind = kernels[rng.integers(0, 2)]
                m = None if kind == "quadratic" else int(rng.integers(f + 1, n + 1))
                B, right = kernel_factor(kind, U, m=m, seed=int(rng.integers(0, 1 << 31)))
                d = B @ (B.sum(axis=0) if right is None else right @ right.T @ B.sum(axis=0))
                if d.min() > 1e-3 * d.max():
                    break
            degree_normalize(B, right)
            factors.append(B if right is None else B @ right)
        lams = rng.dirichlet(np.ones(V))
        concat = np.hstack([np.sqrt(l) * B for l, B in zip(lams, factors)])
        oracle = consensus_affinity_oracle(factors, lams)
        worst = max(worst, np.abs(concat @ concat.T - oracle).max())
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 10.0,
           f"max-abs deviation {worst:.2e} over 100 instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. SVD left singular vectors span the top eigenspace of B B^T


def test_criterion_2_svd_eigendecomposition_equivalence():
    rng = np.random.default_rng(1)
    r = 5
    worst = 0.0
    trials = 0
    while trials < 50:
        B = rng.normal(size=(80, 12))
        evals = np.sort(np.linalg.eigvalsh(B @ B.T))[::-1]
        if np.min(np.abs(np.diff(evals[: r + 3]))) <= 1e-8:
            continue  # eigengap precondition
        trials += 1
        top = np.linalg.eigh(B @ B.T)[1][:, ::-1][:, : r + 1]
        for svd in (truncated_svd(B, r + 1), randomized_svd(B, r + 1, seed=trials)):
            angles = scipy.linalg.subspace_angles(svd.U, top)
            worst = max(worst, float(np.max(angles)))
    report(2, worst < 1e-6, f"max principal angle {worst:.2e} over 50 matrices")


# ---------------------------------------------------------------------------
# 3. factorized clusterability trace equals the dense trace


def test_criterion_3_factorized_trace():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 101))
        m = int(rng.integers(2, 9))
        k = int(rng.integers(2, 6))
        values = rng.normal(size=(n, m))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        G = labels
        F = indicator(G)
        dense = np.trace(F.T @ (np.eye(n) - values @ values.T) @ F)
        worst = max(worst, abs(clusterability_trace(values, G) - dense))
    report(3, worst < 1e-10, f"max deviation {worst:.2e} over 50 pairs")


# ---------------------------------------------------------------------------
# 4. synthetic end-to-end quality and speed


def test_criterion_4_synthetic_end_to_end():
    ds = synth_multiview(1000, 5, 3, noise=0.1, seed=0)
    aris, cas, times = [], [], []
    for seed in range(5):
        # centered blob features have signal rank k-1, hence f = k-1
        config = PipelineConfig(k=5, f=4, seed=seed)
        t0 = time.perf_counter()
        res = run_pipeline(ds, config)
        times.append(time.perf_counter() - t0)
        aris.append(ari(res.consensus, ds.labels))
        cas.append(clustering_accuracy(res.consensus, ds.labels))
    ok = np.mean(aris) >= 0.9 and np.mean(cas) >= 0.9 and max(times) < 5.0
    report(4, ok, f"mean ARI {np.mean(aris):.3f}, mean CA {np.mean(cas):.3f}, "
                  f"max {max(times):.2f}s/run")


# ---------------------------------------------------------------------------
# 5. near-linear runtime and memory scaling in n


def _peak_memory(ds, config):
    tracemalloc.start()
    run_pipeline(ds, config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_criterion_5_scaling_law():
    sizes = [10_000, 20_000, 40_000]
    config = PipelineConfig(k=10, seed=0)
    datasets = [synth_multiview(n, 10, 2, noise=0.1, seed=0) for n in sizes]
    samples = [[] for _ in sizes]
    # OpenBLAS decides per call, by problem size, whether to use its threads,
    # so the sizes compared could otherwise run on different thread counts and
    # the time ratio would not measure scaling
    with mvkc.workers._one_blas_thread():
        for ds in datasets:
            run_pipeline(ds, config)  # warm-up
        # interleave sizes per repetition so clock or cache drift over the
        # measurement window hits all sizes alike, then take the median
        for _ in range(9):
            for i, ds in enumerate(datasets):
                t0 = time.perf_counter()
                run_pipeline(ds, config)
                samples[i].append(time.perf_counter() - t0)
    times = [float(np.median(s)) for s in samples]
    peaks = [_peak_memory(ds, config) for ds in datasets]
    t_ratios = [times[i + 1] / times[i] for i in range(2)]
    m_ratios = [peaks[i + 1] / peaks[i] for i in range(2)]
    ok = all(r <= 2.5 for r in t_ratios) and all(r <= 2.5 for r in m_ratios)
    report(5, ok,
           f"time ratios {t_ratios[0]:.2f}/{t_ratios[1]:.2f}, "
           f"memory ratios {m_ratios[0]:.2f}/{m_ratios[1]:.2f}, "
           f"times {['%.2fs' % t for t in times]}")


# ---------------------------------------------------------------------------
# 6. benchmark-number reproduction (waived when the datasets are absent)

BENCHMARKS = {"acm": (3, 93.21), "dblp": (4, 93.09)}


def test_criterion_6_benchmark_reproduction():
    root = os.environ.get("MVKC_DATASETS", "datasets")
    missing = [name for name in BENCHMARKS
               if not os.path.isfile(os.path.join(root, name, "manifest.txt"))]
    if missing:
        print(f"criterion 6: WAIVED (benchmark datasets not available: {missing}; "
              "criteria 1-5 and 7-9 govern acceptance)")
        pytest.skip("benchmark datasets not available")
    for name, (k, expected_ca) in BENCHMARKS.items():
        ds = load_dataset(os.path.join(root, name))
        cas, times = [], []
        for seed in range(5):
            config = PipelineConfig(k=k, seed=seed)
            t0 = time.perf_counter()
            res = run_pipeline(ds, config)
            times.append(time.perf_counter() - t0)
            cas.append(100.0 * clustering_accuracy(res.consensus, ds.labels))
        ok = abs(np.mean(cas) - expected_ca) <= 3.0 and min(times) <= 50 * 0.19
        report(6, ok, f"{name}: mean CA {np.mean(cas):.2f} vs {expected_ca}, "
                      f"best {min(times):.2f}s")


# ---------------------------------------------------------------------------
# 7. view weighting downweights a pure-noise view


def test_criterion_7_ablation_direction():
    rng = np.random.default_rng(7)
    base = synth_multiview(600, 3, 2, noise=0.1, seed=3)
    noise_view = View(rng.normal(size=(600, 16)))
    ds = MultiViewDataset([*base.views, noise_view], labels=base.labels)

    def mean_ari(mode):
        scores, weights = [], []
        for seed in range(5):
            res = run_pipeline(ds, PipelineConfig(k=3, f=2, seed=seed,
                                                  weight_mode=mode))
            scores.append(ari(res.consensus, ds.labels))
            weights.append(res.weights)
        return float(np.mean(scores)), np.mean(weights, axis=0)

    negated, w_neg = mean_ari("negated")
    uniform, _ = mean_ari("uniform")
    ok = int(np.argmin(w_neg)) == 2 and negated >= uniform
    report(7, ok, f"negated weights {np.round(w_neg, 3)} "
                  f"(noise view last), ARI negated {negated:.3f} vs uniform {uniform:.3f}")


# ---------------------------------------------------------------------------
# 8. metric oracles on every partition pair with n <= 8, k <= 3


def set_partitions(n, kmax=3):
    """All partitions as canonical restricted-growth label vectors."""
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(np.array(prefix))
            return
        for v in range(min(used + 1, kmax)):
            rec(prefix + [v], max(used, v + 1))

    rec([], 0)
    return out


def oracle_accuracy(pred, truth):
    table = contingency_table(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    best = max(sum(padded[perm[j], j] for j in range(size))
               for perm in itertools.permutations(range(size)))
    return best / table.sum()


def oracle_f1_values(pred, truth):
    """Macro F1 for every accuracy-optimal assignment (tie set)."""
    table = contingency_table(pred, truth)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    scores = [sum(padded[perm[j], j] for j in range(size))
              for perm in itertools.permutations(range(size))]
    best = max(scores)
    values = set()
    for perm, score in zip(itertools.permutations(range(size)), scores):
        if score != best:
            continue
        mapping = {perm[j]: j for j in range(size)}
        f1s = []
        for c in range(table.shape[1]):
            tp = sum(1 for p, t in zip(pred, truth)
                     if mapping.get(p, -1) == c and t == c)
            fp = sum(1 for p, t in zip(pred, truth)
                     if mapping.get(p, -1) == c and t != c)
            fn = sum(1 for p, t in zip(pred, truth)
                     if mapping.get(p, -1) != c and t == c)
            denom = 2 * tp + fp + fn
            f1s.append(2.0 * tp / denom if denom else 0.0)
        values.add(round(sum(f1s) / len(f1s), 15))
    return values


def oracle_nmi(pred, truth):
    n = len(pred)
    kp, kt = max(pred) + 1, max(truth) + 1
    nij = [[sum(1 for p, t in zip(pred, truth) if p == i and t == j)
            for j in range(kt)] for i in range(kp)]
    ni = [sum(row) for row in nij]
    nj = [sum(nij[i][j] for i in range(kp)) for j in range(kt)]
    hp = -sum(c / n * math.log(c / n) for c in ni if c)
    ht = -sum(c / n * math.log(c / n) for c in nj if c)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    if hp == 0.0 or ht == 0.0:
        return 0.0
    mi = sum(nij[i][j] / n * math.log(n * nij[i][j] / (ni[i] * nj[j]))
             for i in range(kp) for j in range(kt) if nij[i][j])
    return mi / (0.5 * (hp + ht))


def oracle_ari(pred, truth):
    if len(set(truth)) == 1:
        return 0.0  # documented degenerate-truth convention
    a = b = c = d = 0
    n = len(pred)
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            if sp and st:
                a += 1
            elif not sp and st:
                b += 1
            elif sp and not st:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return 2.0 * (a * d - b * c) / denom


def _check_pair(pred, truth):
    assert clustering_accuracy(pred, truth) == oracle_accuracy(pred, truth)
    assert nmi(pred, truth) == pytest.approx(oracle_nmi(pred, truth), abs=1e-12)
    assert ari(pred, truth) == pytest.approx(oracle_ari(pred, truth), abs=1e-12)
    f1 = macro_f1(pred, truth)
    assert any(abs(f1 - v) <= 1e-12 for v in oracle_f1_values(pred, truth))


def test_criterion_8_metric_oracles():
    checked = 0
    for n in range(2, 6):
        parts = set_partitions(n)
        for pred in parts:
            for truth in parts:
                _check_pair(pred, truth)
                checked += 1
    # for n in 6..8 every pair is covered through its contingency table:
    # all four metrics are functions of the table alone (relabel invariance
    # is asserted separately in the unit tests)
    for n in range(6, 9):
        parts = set_partitions(n)
        onehot = np.stack([np.eye(3, dtype=np.int64)[p] for p in parts])
        seen = set()
        for t in range(len(parts)):
            tables = np.einsum("pnc,nd->pcd", onehot, onehot[t])
            for p, table in enumerate(tables):
                key = (n, table.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                _check_pair(parts[p], parts[t])
                checked += 1
    report(8, True, f"{checked} exhaustive pairs checked exactly")


# ---------------------------------------------------------------------------
# 9. both kernels agree and complete


def test_criterion_9_kernel_variant_parity():
    ds = synth_multiview(400, 3, 2, noise=0.1, seed=4)
    results = {}
    for kernel in ("quadratic", "rbf"):
        scores = []
        for seed in range(3):
            landmarks = None if kernel == "quadratic" else 30  # quadratic reads none
            res = run_pipeline(ds, PipelineConfig(k=3, f=2, kernel=kernel,
                                                  kernel_components=landmarks, seed=seed))
            scores.append(ari(res.consensus, ds.labels))
        results[kernel] = float(np.mean(scores))
    gap = abs(results["quadratic"] - results["rbf"])
    report(9, gap <= 0.05,
           f"ARI quadratic {results['quadratic']:.3f}, "
           f"rbf {results['rbf']:.3f} (gap {gap:.3f}), both completed")
