import numpy as np
import pytest

from mvkc.kernels import apply_map, fit_kernel_map, kernel_matrix


def test_quadratic_output_dim():
    kmap = fit_kernel_map("quadratic", np.zeros((5, 3)))
    assert kmap.output_dim == 6


def test_quadratic_basis_vector():
    kmap = fit_kernel_map("quadratic", np.zeros((1, 2)))
    out = apply_map(kmap, np.array([[1.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 0.0, 0.0]])


def test_quadratic_reproduces_kernel():
    kmap = fit_kernel_map("quadratic", np.zeros((1, 2)))
    u = apply_map(kmap, np.array([[1.0, 2.0]]))[0]
    v = apply_map(kmap, np.array([[3.0, 4.0]]))[0]
    assert u @ v == pytest.approx(121.0, abs=1e-12)  # (1*3 + 2*4)^2


def test_quadratic_random_pairs():
    rng = np.random.default_rng(0)
    U = rng.normal(size=(50, 6))
    kmap = fit_kernel_map("quadratic", U)
    Phi = apply_map(kmap, U)
    assert np.allclose(Phi @ Phi.T, (U @ U.T) ** 2, atol=1e-10)


def test_rbf_full_landmarks_exact():
    rng = np.random.default_rng(1)
    U = rng.normal(size=(150, 5))
    kmap = fit_kernel_map("rbf", U, m=150, seed=0)
    Phi = apply_map(kmap, U)
    exact = kernel_matrix("rbf", U, U, kmap.params)
    assert np.abs(Phi @ Phi.T - exact).max() < 1e-6


def test_rbf_random_pair_products():
    rng = np.random.default_rng(2)
    U = rng.normal(size=(100, 4))
    kmap = fit_kernel_map("rbf", U, m=100, seed=3)
    Phi = apply_map(kmap, U)
    exact = kernel_matrix("rbf", U, U, kmap.params)
    for _ in range(100):
        i, j = rng.integers(0, 100, size=2)
        assert abs(Phi[i] @ Phi[j] - exact[i, j]) < 1e-6


def test_sigmoid_landmarks_deterministic():
    rng = np.random.default_rng(4)
    U = rng.normal(size=(500, 4))
    a = fit_kernel_map("sigmoid", U, m=50, seed=9)
    b = fit_kernel_map("sigmoid", U, m=50, seed=9)
    assert np.array_equal(a.landmarks, b.landmarks)
    c = fit_kernel_map("sigmoid", U, m=50, seed=10)
    assert not np.array_equal(a.landmarks, c.landmarks)


def test_nystroem_m_too_large():
    with pytest.raises(ValueError):
        fit_kernel_map("rbf", np.zeros((5, 2)), m=6)


def test_input_dim_mismatch():
    kmap = fit_kernel_map("quadratic", np.zeros((3, 4)))
    with pytest.raises(ValueError):
        apply_map(kmap, np.zeros((3, 5)))


def test_concatenation_summation_identity():
    # concatenated maps realize the kernel sum exactly
    rng = np.random.default_rng(5)
    U = rng.normal(size=(30, 4))
    quad = fit_kernel_map("quadratic", U)
    rbf = fit_kernel_map("rbf", U, m=30, seed=0)
    Pa = apply_map(quad, U)
    Pb = apply_map(rbf, U)
    concat = np.hstack([Pa, Pb])
    for _ in range(50):
        i, j = rng.integers(0, 30, size=2)
        lhs = concat[i] @ concat[j]
        rhs = Pa[i] @ Pa[j] + Pb[i] @ Pb[j]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_quadratic_kernel_nonnegative():
    rng = np.random.default_rng(6)
    U = rng.normal(size=(40, 5))
    kmap = fit_kernel_map("quadratic", U)
    Phi = apply_map(kmap, U)
    assert (Phi @ Phi.T).min() >= -1e-12


def test_scaled_map_scales_kernel():
    rng = np.random.default_rng(7)
    U = rng.normal(size=(20, 3))
    kmap = fit_kernel_map("quadratic", U)
    Phi = apply_map(kmap, U)
    lam = 0.37
    scaled = np.sqrt(lam) * Phi
    assert np.allclose(scaled @ scaled.T, lam * (Phi @ Phi.T), atol=1e-12)
