import numpy as np
import pytest

from mvkc.data import (
    FormatError,
    IndexRangeError,
    MissingFileError,
    MultiViewDataset,
    SizeMismatchError,
    SparseGraph,
    View,
    build_knn_graph,
    load_dataset,
    load_features,
    load_graph,
    save_dataset,
    save_features,
    save_graph,
)
from synth import synth_multiview


def small_graph(n=4):
    return SparseGraph(n, [0, 1], [1, 0], [1.0, 1.0], symmetric=True)


def test_feature_roundtrip(tmp_path):
    X = np.random.default_rng(0).normal(size=(10, 3))
    path = tmp_path / "f.bin"
    save_features(X, path)
    Y = load_features(path)
    assert np.array_equal(X, Y)


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = synth_multiview(50, 3, 2, noise=0.3, seed=7)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.n_views == ds.n_views
    assert np.array_equal(back.labels, ds.labels)
    for a, b in zip(ds.views, back.views):
        assert np.array_equal(a.features, b.features)
        assert a.graph == b.graph
        assert a.propagation_order == b.propagation_order


def test_load_acm_sized_layout(tmp_path):
    # two views over 3025 nodes, as in the small co-citation benchmarks
    n = 3025
    rng = np.random.default_rng(0)
    views = [View(rng.normal(size=(n, 4)), small_graph(n), 2) for _ in range(2)]
    save_dataset(MultiViewDataset(views), tmp_path / "acmish")
    ds = load_dataset(tmp_path / "acmish")
    assert ds.n_views == 2 and ds.n == 3025


def test_load_single_view_no_graph(tmp_path):
    ds = MultiViewDataset([View(np.ones((5, 2)))])
    save_dataset(ds, tmp_path / "one")
    back = load_dataset(tmp_path / "one")
    assert back.n_views == 1 and back.views[0].graph is None


def test_load_size_mismatch_names_view(tmp_path):
    views = [View(np.ones((12, 2)), small_graph(12))]
    save_dataset(MultiViewDataset(views), tmp_path / "bad")
    # shrink the feature file to 10 rows behind the manifest's back
    save_features(np.ones((10, 2)), tmp_path / "bad" / "features_0.bin")
    with pytest.raises(SizeMismatchError):
        load_dataset(tmp_path / "bad")


def test_missing_manifest(tmp_path):
    with pytest.raises(MissingFileError):
        load_dataset(tmp_path / "nope")


def test_malformed_graph_header(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("nodes 4 edges 1\n0 1 1.0\n")
    with pytest.raises(FormatError, match="g.txt"):
        load_graph(path)


def test_graph_index_out_of_range(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 1 symmetric 0\n0 7 1.0\n")
    with pytest.raises(IndexRangeError):
        load_graph(path)


def test_graph_validated_when_built():
    with pytest.raises(IndexRangeError):
        SparseGraph(3, [0], [7], [1.0], symmetric=False)
    with pytest.raises(FormatError, match="not symmetric"):
        SparseGraph(3, [0], [1], [1.0], symmetric=True)


def test_graph_error_notes_the_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 2.0\n")
    with pytest.raises(FormatError) as info:
        load_graph(path)
    assert str(path) in info.value.__notes__


def test_graph_non_finite_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 inf\n1 0 inf\n")
    with pytest.raises(FormatError, match="NaN or Inf"):
        load_graph(path)


def test_graph_more_edge_lines_than_nnz(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 1.0\n1 2 1.0\n")
    with pytest.raises(FormatError, match="nnz=2"):
        load_graph(path)
    # trailing blank lines are not edges
    path.write_text("n 3 nnz 2 symmetric 1\n0 1 1.0\n1 0 1.0\n\n")
    assert load_graph(path).nnz == 2


def test_labels_length_mismatch(tmp_path):
    ds = MultiViewDataset([View(np.ones((5, 2)))], labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(SizeMismatchError):
        ds.validate()


# ---------------------------------------------------------------------------
# k-NN graphs


def test_knn_line_pairs():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    g = build_knn_graph(X, 1)
    edges = set(zip(g.rows.tolist(), g.cols.tolist()))
    assert edges == {(0, 1), (1, 0), (2, 3), (3, 2)}


def test_knn_brute_force_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    k = 4
    g = build_knn_graph(X, k)
    # oracle: full pairwise distances, stable sort
    d = np.linalg.norm(X[:, None] - X[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    expected = set()
    for i in range(40):
        for j in np.argsort(d[i], kind="stable")[:k]:
            expected.add((i, int(j)))
            expected.add((int(j), i))
    assert set(zip(g.rows.tolist(), g.cols.tolist())) == expected


def test_knn_complete_graph():
    X = np.arange(5, dtype=float)[:, None]
    g = build_knn_graph(X, 4)
    assert g.nnz == 5 * 4


def test_knn_ties_lowest_index():
    X = np.zeros((3, 2))
    g1 = build_knn_graph(X, 1)
    g2 = build_knn_graph(X, 1)
    assert g1 == g2
    # every node picks node 0 (or node 1 for node 0 itself)
    edges = set(zip(g1.rows.tolist(), g1.cols.tolist()))
    assert edges == {(0, 1), (1, 0), (2, 0), (0, 2)}


def test_knn_symmetric_with_self_loops():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    g = build_knn_graph(X, 3, self_loops=True)
    g.validate()
    diag = [(i, i) in set(zip(g.rows.tolist(), g.cols.tolist())) for i in range(20)]
    assert all(diag)
    assert np.all(g.weights == 1.0)


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        build_knn_graph(np.zeros((3, 1)), 3)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_balanced_and_deterministic():
    a = synth_multiview(300, 3, 2, noise=0.1, seed=0)
    b = synth_multiview(300, 3, 2, noise=0.1, seed=0)
    assert np.array_equal(np.bincount(a.labels), [100, 100, 100])
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va.features, vb.features)
        assert va.graph == vb.graph


def test_synth_zero_noise_identical_rows():
    ds = synth_multiview(30, 3, 2, noise=0.0, seed=5)
    for view in ds.views:
        for c in range(3):
            rows = view.features[ds.labels == c]
            assert np.all(rows == rows[0])


def test_synth_preconditions():
    with pytest.raises(ValueError):
        synth_multiview(3, 4, 1)
    with pytest.raises(ValueError):
        synth_multiview(10, 2, 0)
