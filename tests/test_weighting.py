import numpy as np
import pytest

from mvkc.weighting import clusterability_trace, softmax_weights
from oracles import indicator


def random_partition(n, k, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every cluster nonempty
    return labels


def test_trace_identity_affinity():
    n = 6
    B = np.eye(n)  # W = I
    G = random_partition(n, 2, 0)
    assert clusterability_trace(B, G) == pytest.approx(0.0, abs=1e-12)


def test_trace_zero_factor():
    n = 8
    B = np.zeros((n, 3))
    G = random_partition(n, 3, 1)
    assert clusterability_trace(B, G) == pytest.approx(float(n))


def test_trace_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for seed in range(10):
        n, m, k = 40, 6, 4
        values = rng.normal(size=(n, m))
        G = random_partition(n, k, seed)
        F = indicator(G)
        dense = np.trace(F.T @ (np.eye(n) - values @ values.T) @ F)
        assert clusterability_trace(values, G) == pytest.approx(dense, abs=1e-10)


def test_trace_dimension_mismatch():
    B = np.zeros((5, 2))
    with pytest.raises(ValueError):
        clusterability_trace(B, random_partition(6, 2, 0))


def test_softmax_equal_traces_uniform():
    w = softmax_weights([3.0, 3.0, 3.0], 0.5)
    assert np.allclose(w.lambdas, 1 / 3)
    assert w.lambdas.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_extreme_traces_stable():
    w = softmax_weights([0.0, 1000.0], 0.1)
    assert np.isfinite(w.lambdas).all()
    assert w.lambdas[0] < 1e-30
    assert w.lambdas[1] == pytest.approx(1.0)


@pytest.mark.parametrize("mode, extreme", [("softmax", 0), ("negated", 1)])
@pytest.mark.parametrize("temperature", [1e-300, 1e-320, 5e-324])
def test_tiny_temperature_gives_finite_one_hot_weights(mode, extreme, temperature):
    # the raw traces of two graph-p2 views at p = 0; divided by the
    # temperature before the maximum is subtracted, they overflow to inf
    # below about 1e-300 and the weights come out NaN
    w = softmax_weights([12814.4, 12803.0], temperature, mode=mode)
    assert np.array_equal(w.lambdas, np.eye(2)[extreme])
    assert np.array_equal(softmax_weights([12814.4] * 2, temperature, mode=mode).lambdas,
                          [0.5, 0.5])


def test_softmax_against_high_precision_oracle():
    import mpmath

    traces = [1.0, 2.0, 3.0]
    w = softmax_weights(traces, 1.0)
    with mpmath.workdps(50):
        es = [mpmath.e**t for t in traces]
        total = sum(es)
        expected = [float(e / total) for e in es]
    assert np.allclose(w.lambdas, expected, atol=1e-15)


def test_softmax_shift_invariance():
    a = softmax_weights([1.0, 5.0, 2.0], 0.7)
    b = softmax_weights([101.0, 105.0, 102.0], 0.7)
    assert np.allclose(a.lambdas, b.lambdas, atol=1e-12)


def test_softmax_temperature_limits():
    traces = [1.0, 2.0]
    prev_gap = np.inf
    for T in (0.01, 0.1, 1.0, 10.0, 100.0):
        w = softmax_weights(traces, T)
        gap = abs(w.lambdas[1] - w.lambdas[0])
        assert gap <= prev_gap + 1e-15  # weights flatten as T grows
        prev_gap = gap
    assert np.allclose(softmax_weights(traces, 1e9).lambdas, 0.5, atol=1e-6)


def test_largest_trace_gets_largest_weight():
    w = softmax_weights([3.0, 1.0, 2.0], 0.5)
    assert np.argmax(w.lambdas) == np.argmax(w.raw_traces)


def test_negated_mode_flips_direction():
    w = softmax_weights([3.0, 1.0, 2.0], 0.5, mode="negated")
    assert np.argmax(w.lambdas) == np.argmin(w.raw_traces)


def test_uniform_mode():
    w = softmax_weights([3.0, 1.0], 0.5, mode="uniform")
    assert np.allclose(w.lambdas, 0.5)


def test_nonpositive_temperature():
    with pytest.raises(ValueError):
        softmax_weights([1.0], 0.0)
