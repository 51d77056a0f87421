import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mvkc.workers
from mvkc.kernels import EIG_FLOOR, ROW_BLOCK, apply_map, rbf_kernel
from oracles import explicit_map, kernel_factor


def test_quadratic_output_dim():
    assert apply_map("quadratic", np.zeros((5, 3))).shape[1] == 6


def test_quadratic_basis_vector():
    out = apply_map("quadratic", np.array([[1.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 0.0, 0.0]])


def test_quadratic_reproduces_kernel():
    u = apply_map("quadratic", np.array([[1.0, 2.0]]))[0]
    v = apply_map("quadratic", np.array([[3.0, 4.0]]))[0]
    assert u @ v == pytest.approx(121.0, abs=1e-12)  # (1*3 + 2*4)^2


def test_quadratic_random_pairs():
    rng = np.random.default_rng(0)
    U = rng.normal(size=(50, 6))
    Phi = apply_map("quadratic", U)
    assert np.allclose(Phi @ Phi.T, (U @ U.T) ** 2, atol=1e-10)


def basis_rows(rng, n, f):
    """n x f rows of squared norm about f / n, as those of the pipeline's
    orthonormal U; the rbf map widens them by sqrt(n)."""
    return rng.normal(size=(n, f)) / np.sqrt(n)


def test_rbf_full_landmarks_exact():
    rng = np.random.default_rng(1)
    U = basis_rows(rng, 150, 5)
    Phi = explicit_map("rbf", U, m=150, seed=0)
    exact = rbf_kernel(U, U, 150 / 5)  # the default gamma, 1/f, on sqrt(n) U
    assert np.abs(Phi @ Phi.T - exact).max() < 1e-6


def test_rbf_random_pair_products():
    rng = np.random.default_rng(2)
    U = basis_rows(rng, 100, 4)
    Phi = explicit_map("rbf", U, m=100, seed=3)
    exact = rbf_kernel(U, U, 100 / 4)
    for _ in range(100):
        i, j = rng.integers(0, 100, size=2)
        assert abs(Phi[i] @ Phi[j] - exact[i, j]) < 1e-6


def test_rbf_landmarks_follow_the_seed():
    rng = np.random.default_rng(4)
    U = basis_rows(rng, 500, 4)
    a = kernel_factor("rbf", U, m=50, seed=9)
    b = kernel_factor("rbf", U, m=50, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = kernel_factor("rbf", U, m=50, seed=10)
    assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])


def test_rbf_gamma_sets_the_kernel_width():
    rng = np.random.default_rng(3)
    U = basis_rows(rng, 60, 3)
    Phi = explicit_map("rbf", U, m=60, gamma=0.25, seed=1)
    assert np.abs(Phi @ Phi.T - rbf_kernel(U, U, 0.25 * 60)).max() < 1e-6


def test_rbf_gamma_means_the_same_at_every_n():
    # n copies of each row of a basis, renormalized to unit columns: sqrt(n) U
    # keeps the rows, so the map gives the same kernel values at every n
    U = basis_rows(np.random.default_rng(5), 40, 3)
    kernels = []
    for copies in (1, 4):
        Phi = explicit_map("rbf", np.repeat(U, copies, axis=0) / np.sqrt(copies),
                           m=40 * copies, gamma=0.5, seed=2)
        kernels.append((Phi @ Phi.T)[::copies, ::copies])
    assert np.abs(kernels[1] - kernels[0]).max() < 1e-6
    assert np.abs(kernels[0] - rbf_kernel(U, U, 0.5 * 40)).max() < 1e-6


def test_nystroem_m_too_large():
    with pytest.raises(ValueError):
        apply_map("rbf", np.zeros((5, 2)), m=6, right=np.empty((6, 6)))


@pytest.mark.parametrize("right", [None, np.empty((4, 5))], ids=["none", "wrong-shape"])
def test_rbf_map_needs_an_m_by_m_right_factor(right):
    with pytest.raises(ValueError, match="m x m"):
        apply_map("rbf", np.random.default_rng(0).normal(size=(10, 2)), m=5, right=right)


def test_concatenation_summation_identity():
    # concatenated maps realize the kernel sum exactly
    rng = np.random.default_rng(5)
    U = rng.normal(size=(30, 4))
    Pa = apply_map("quadratic", U)
    Pb = explicit_map("rbf", U / np.sqrt(30), m=30, seed=0)
    concat = np.hstack([Pa, Pb])
    for _ in range(50):
        i, j = rng.integers(0, 30, size=2)
        lhs = concat[i] @ concat[j]
        rhs = Pa[i] @ Pa[j] + Pb[i] @ Pb[j]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_quadratic_kernel_nonnegative():
    rng = np.random.default_rng(6)
    U = rng.normal(size=(40, 5))
    Phi = apply_map("quadratic", U)
    assert (Phi @ Phi.T).min() >= -1e-12


def test_scaled_map_scales_kernel():
    rng = np.random.default_rng(7)
    U = rng.normal(size=(20, 3))
    Phi = apply_map("quadratic", U)
    lam = 0.37
    scaled = np.sqrt(lam) * Phi
    assert np.allclose(scaled @ scaled.T, lam * (Phi @ Phi.T), atol=1e-12)


def rbf_oracle(X, Y, gamma):
    """The out-of-place RBF expression the in-place block must reproduce."""
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    d2 = np.maximum(x2[:, None] - 2.0 * X @ Y.T + y2[None, :], 0.0)
    return np.exp(-gamma * d2)


@pytest.mark.parametrize("n, m, f", [(1, 1, 1), (7, 3, 2), (200, 40, 5), (513, 100, 16)])
@pytest.mark.parametrize("same", [False, True], ids=["landmarks", "self"])
def test_in_place_blocks_match_out_of_place_expressions(n, m, f, same):
    rng = np.random.default_rng(n + f)
    X = rng.normal(scale=3.0, size=(n, f))
    # Y is X itself, as for the landmark matrix K_mm, or m of its rows, as
    # for K_nm: each row of Y meets itself in X, where d^2 is pure round-off
    Y = X if same else X[np.sort(rng.choice(n, size=min(m, n), replace=False))]
    assert np.array_equal(rbf_kernel(X, Y, 0.7), rbf_oracle(X, Y, 0.7))
    if n >= 200:  # the larger shapes hold rows where d^2 rounds below 0
        x2 = np.einsum("ij,ij->i", X, X)
        y2 = np.einsum("ij,ij->i", Y, Y)
        assert (x2[:, None] - 2.0 * X @ Y.T + y2[None, :]).min() < 0.0


def whole_map_oracle(kind, U, m, seed):
    """The factor as one expression over all n rows, C-ordered, and its right
    factor: U**2 beside sqrt(2) U_i U_j and None, or the whole rbf K_nm and
    the whitening matrix, at the default width n / f."""
    n, f = U.shape
    if kind == "quadratic":
        iu, ju = np.triu_indices(f, k=1)
        out = np.empty((n, f * (f + 1) // 2))
        out[:, :f] = U**2
        out[:, f:] = np.sqrt(2.0) * U[:, iu] * U[:, ju]
        return out, None
    landmarks = U[np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))]
    width = n * (1.0 / f)
    K_mm = rbf_kernel(landmarks, landmarks, width)
    evals, evecs = scipy.linalg.eigh(0.5 * (K_mm + K_mm.T))
    evals = np.maximum(evals, EIG_FLOOR * evals.max())
    return rbf_kernel(U, landmarks, width), (evecs / np.sqrt(evals)) @ evecs.T


@pytest.mark.parametrize("n", [100, 4097, 8193, 12289])
@pytest.mark.parametrize("kind", ["rbf", "quadratic"])
def test_map_written_into_out_equals_the_whole_map(kind, n, monkeypatch):
    # apply_map writes the map, row block by row block and on every core, into
    # the column-major array it returns; n just above a multiple of the row
    # block, where a short tail block would take another BLAS route
    f, m = 6, 40
    U = np.asfortranarray(basis_rows(np.random.default_rng(n), n, f))
    m = None if kind == "quadratic" else m
    expected, expected_right = whole_map_oracle(kind, U, m, seed=5)
    assert expected.flags.c_contiguous
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        out, right = kernel_factor(kind, U, m, seed=5)
        assert out.flags.f_contiguous
        assert np.array_equal(out, expected)
        assert right is expected_right is None or np.array_equal(right, expected_right)


@pytest.mark.parametrize("kind", ["rbf"])
def test_map_of_a_features_rbf_view_has_the_same_bits_on_any_core_count(kind, monkeypatch):
    # one features-rbf view: n = 50000, f = 10, m = 100; no thread outlives a call
    U = np.asfortranarray(basis_rows(np.random.default_rng(8), 50000, 10))
    expected, expected_right = whole_map_oracle(kind, U, 100, seed=2)
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        threads = threading.active_count()
        out, right = kernel_factor(kind, U, 100, seed=2)
        assert np.array_equal(out, expected) and np.array_equal(right, expected_right)
        assert threading.active_count() == threads


@pytest.mark.parametrize("n, f, m", [(9000, 13, 203), (100000, 10, 300), (50000, 10, 100),
                                     (33000, 7, 64)])
def test_map_has_the_same_bits_on_any_core_count(n, f, m, monkeypatch):
    # the row blocks depend on n alone; n = 9000 is not a multiple of the block
    U = np.asfortranarray(basis_rows(np.random.default_rng(n + f), n, f))
    maps = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        maps[cores] = apply_map("rbf", U, m, seed=3, right=np.empty((m, m)))
    assert np.array_equal(maps[2], maps[1]) and np.array_equal(maps[3], maps[1])


@pytest.mark.parametrize("kind", ["rbf"])
def test_map_on_more_cores_takes_one_more_workers_buffers_per_core(kind, monkeypatch):
    # each added worker holds its own kernel block, the largest block's rows
    # x m, plus the few temporaries of its block, such as numpy's 64 KiB
    # iterator buffer of a broadcast step; m = 300
    n, m = 50000, 300
    U = np.asfortranarray(basis_rows(np.random.default_rng(9), n, 10))
    rows = -(-n // -(-n // ROW_BLOCK))
    worker = rows * m * 8 + 128 * 2**10
    right = np.empty((m, m))
    peaks = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(mvkc.workers, "_usable_cores", lambda: cores)
        tracemalloc.start()
        try:
            out = apply_map(kind, U, m, seed=2, right=right)
            peaks[cores] = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + worker and peaks[3] <= peaks[1] + 2 * worker
