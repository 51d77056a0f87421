import numpy as np
import pytest

from mvkc.kernels import apply_map, default_params, kernel_matrix


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


def test_rbf_full_landmarks_exact():
    rng = np.random.default_rng(1)
    U = rng.normal(size=(150, 5))
    Phi = apply_map("rbf", U, m=150, seed=0)
    exact = kernel_matrix("rbf", U, U, default_params("rbf", 5))
    assert np.abs(Phi @ Phi.T - exact).max() < 1e-6


def test_rbf_random_pair_products():
    rng = np.random.default_rng(2)
    U = rng.normal(size=(100, 4))
    Phi = apply_map("rbf", U, m=100, seed=3)
    exact = kernel_matrix("rbf", U, U, default_params("rbf", 4))
    for _ in range(100):
        i, j = rng.integers(0, 100, size=2)
        assert abs(Phi[i] @ Phi[j] - exact[i, j]) < 1e-6


def test_sigmoid_landmarks_deterministic():
    rng = np.random.default_rng(4)
    U = rng.normal(size=(500, 4))
    a = apply_map("sigmoid", U, m=50, seed=9)
    b = apply_map("sigmoid", U, m=50, seed=9)
    assert np.array_equal(a, b)
    c = apply_map("sigmoid", U, m=50, seed=10)
    assert not np.array_equal(a, c)


def test_nystroem_m_too_large():
    with pytest.raises(ValueError):
        apply_map("rbf", np.zeros((5, 2)), m=6)


def test_concatenation_summation_identity():
    # concatenated maps realize the kernel sum exactly
    rng = np.random.default_rng(5)
    U = rng.normal(size=(30, 4))
    Pa = apply_map("quadratic", U)
    Pb = apply_map("rbf", U, m=30, seed=0)
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
