import numpy as np
import pytest

import mvkc.metrics
from mvkc.metrics import ari, clustering_accuracy, contingency_table, evaluate, macro_f1, nmi


def test_identical_partitions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_accuracy(labels, labels) == 1.0
    assert macro_f1(labels, labels) == pytest.approx(1.0)
    assert nmi(labels, labels) == pytest.approx(1.0)
    assert ari(labels, labels) == pytest.approx(1.0)


def test_permutation_invariance():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])  # same partition, renamed
    assert clustering_accuracy(pred, truth) == 1.0
    assert macro_f1(pred, truth) == pytest.approx(1.0)
    assert nmi(pred, truth) == pytest.approx(1.0)
    assert ari(pred, truth) == pytest.approx(1.0)


def test_relabel_invariance_all_metrics():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 3, size=50)
    truth = rng.integers(0, 3, size=50)
    perm = np.array([2, 0, 1])
    for fn in (clustering_accuracy, macro_f1, nmi, ari):
        assert fn(perm[pred], truth) == pytest.approx(fn(pred, truth), abs=1e-12)
        assert fn(pred, perm[truth]) == pytest.approx(fn(pred, truth), abs=1e-12)


def test_accuracy_half():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_accuracy_rectangular():
    # more predicted clusters than classes
    pred = np.array([0, 1, 2, 2])
    truth = np.array([0, 0, 1, 1])
    assert clustering_accuracy(pred, truth) == 0.75


def test_accuracy_lower_bound_balanced():
    rng = np.random.default_rng(1)
    truth = np.repeat(np.arange(4), 25)
    pred = rng.integers(0, 4, size=100)
    assert clustering_accuracy(pred, truth) >= 0.25


def test_nmi_symmetric():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 3, size=60)
    b = rng.integers(0, 4, size=60)
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_ari_random_near_zero():
    rng = np.random.default_rng(3)
    truth = np.repeat(np.arange(10), 1000)
    pred = rng.integers(0, 10, size=10000)
    assert abs(ari(pred, truth)) < 0.02


def test_ari_hand_tables():
    # perfect diagonal table -> 1
    assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == pytest.approx(1.0)
    # fully mixed [[1,1],[1,1]] table -> adjustment <= 0
    assert ari([0, 1, 0, 1], [0, 0, 1, 1]) <= 0.0


def test_ari_single_cluster_truth(caplog):
    with caplog.at_level("WARNING"):
        assert ari([0, 1, 0, 1], [0, 0, 0, 0]) == 0.0
    assert "single-cluster" in caplog.text


def test_length_mismatch():
    with pytest.raises(ValueError):
        clustering_accuracy([0, 1], [0, 1, 2])


def test_contingency_counts():
    table = contingency_table([0, 0, 1, 1], [0, 1, 1, 1])
    assert table.sum() == 4
    assert np.array_equal(table, [[1, 1], [0, 2]])


def test_macro_f1_unmatched_cluster():
    # three predicted clusters, two classes: the unmatched cluster only
    # costs recall, never precision of a class
    pred = np.array([0, 0, 1, 1, 2, 2])
    truth = np.array([0, 0, 1, 1, 1, 1])
    score = macro_f1(pred, truth)
    assert 0.0 < score < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluate_equals_the_four_metrics_one_by_one_from_one_table(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 10, size=50000)
    pred = np.where(rng.random(50000) < 0.8, truth, rng.integers(0, 12, size=50000)) * 3 - 7
    expected = {"ca": clustering_accuracy(pred, truth), "cf1": macro_f1(pred, truth),
                "nmi": nmi(pred, truth), "ari": ari(pred, truth)}
    tables, matchings = [], []
    assign = mvkc.metrics.linear_sum_assignment

    def counted(*args):
        tables.append(contingency_table(*args))
        return tables[-1]

    def counted_assignment(*args, **kwargs):
        matchings.append(assign(*args, **kwargs))
        return matchings[-1]

    monkeypatch.setattr(mvkc.metrics, "contingency_table", counted)
    monkeypatch.setattr(mvkc.metrics, "linear_sum_assignment", counted_assignment)
    assert evaluate(pred, truth) == expected
    assert len(tables) == 1
    assert len(matchings) == 1  # accuracy and F1 share one matching
