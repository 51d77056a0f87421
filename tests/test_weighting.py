import numpy as np
import pytest

from mvkc.weighting import clusterability_trace, view_weights
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


@pytest.mark.parametrize("traces", [[3.0, 3.0, 3.0], [12814.4] * 2, [0.0, 0.0]])
def test_equal_traces_give_uniform_weights(traces):
    w = view_weights(traces, "negated")
    assert np.allclose(w, 1 / len(traces), atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-9, 0.5, 2.0, 1e9])
def test_scaling_every_trace_leaves_the_weights(scale):
    # only the ratios of the traces count, so the weights mean the same at every n
    traces = np.array([4663.1, 4665.9, 12803.0])
    assert np.allclose(view_weights(scale * traces, "negated"),
                       view_weights(traces, "negated"), rtol=0, atol=1e-15)


def test_negated_mode_flips_direction():
    traces = [3.0, 1.0, 2.0]
    w = view_weights(traces, "negated")
    assert np.argmax(w) == np.argmin(traces)
    assert np.array_equal(np.argsort(w), np.argsort(traces)[::-1])  # smaller trace, larger weight


@pytest.mark.parametrize("traces, expected", [
    ([1.0, 4.0], [2 / 3, 1 / 3]),
    ([1.0, 4.0, 9.0], [6 / 11, 3 / 11, 2 / 11]),
    ([0.25, 4.0], [0.8, 0.2]),
])
def test_weights_are_the_closed_form(traces, expected):
    assert np.allclose(view_weights(traces, "negated"), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("traces", [[0.0, 5.0], [-1e-13, 5.0], [0.0, -1e-13, 5.0],
                                    [5e-324, 1e308]])
def test_zero_or_round_off_negative_trace_gives_finite_weights(traces):
    # a trace of 0 or just below it: every cluster's rows are identical
    w = view_weights(traces, "negated")
    assert np.isfinite(w).all() and (w >= 0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmin(w) == np.argmax(traces)


def test_uniform_mode():
    for traces in ([3.0, 1.0], [0.0, 1e9], [-1e-13, 5.0]):
        assert np.array_equal(view_weights(traces, "uniform"), [0.5, 0.5])


def test_unknown_mode():
    with pytest.raises(ValueError):
        view_weights([1.0, 2.0], "softmax")
