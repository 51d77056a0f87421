import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import mvkc.linalg
from mvkc.linalg import (
    EXACT_SVD_MAX_DIM,
    GRAM_COND_FLOOR,
    OVERSAMPLE,
    POWER_ITERS,
    _ritz,
    center_columns,
    randomized_svd,
    truncated_svd,
)
from oracles import align_signs, exact_svd, ritz_oracle


def test_center_two_points():
    assert np.array_equal(center_columns([[1.0], [3.0]]), [[-1.0], [1.0]])


def test_center_idempotent():
    X = np.random.default_rng(0).normal(size=(20, 4))
    Xc = center_columns(X)
    assert np.allclose(center_columns(Xc), Xc, atol=1e-12)


def test_center_column_sums():
    X = np.random.default_rng(1).normal(size=(50, 7)) * 100
    sums = center_columns(X).sum(axis=0)
    assert np.all(np.abs(sums) < 1e-9 * 50 * np.abs(X).max())


def test_exact_svd_identity():
    res = exact_svd(np.eye(3))
    assert np.allclose(res.s, [1, 1, 1])


def test_exact_svd_zero():
    res = exact_svd(np.zeros((2, 2)))
    assert np.allclose(res.s, [0, 0])


def test_exact_svd_reconstructs():
    X = np.random.default_rng(2).normal(size=(30, 20))
    res = exact_svd(X)
    assert np.allclose(res.U @ np.diag(res.s) @ res.V.T, X, atol=1e-10)


def test_exact_svd_dimension_guard():
    with pytest.raises(ValueError):
        exact_svd(np.zeros((2049, 2049)))


def test_randomized_diag():
    X = np.diag([3.0, 2.0, 1.0])
    res = randomized_svd(X, 2, seed=0)
    assert np.allclose(res.s, [3, 2], atol=1e-10)


def test_randomized_exact_rank_recovery():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 5)) @ rng.normal(size=(5, 40))
    res = randomized_svd(X, 5, seed=0)
    recon = res.U @ np.diag(res.s) @ res.V.T
    assert np.linalg.norm(recon - X) < 1e-8


def test_randomized_decaying_spectrum_near_optimal():
    rng = np.random.default_rng(4)
    n, d, r = 200, 80, 10
    Q1, _ = np.linalg.qr(rng.normal(size=(n, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = (np.arange(1, d + 1, dtype=float)) ** -2.0
    X = Q1 @ np.diag(s) @ Q2.T
    res = randomized_svd(X, r, seed=1)
    err = np.linalg.norm(X - res.U @ np.diag(res.s) @ res.V.T)
    optimal = np.linalg.norm(s[r:])  # dense-SVD oracle's rank-r error
    assert err <= 1.05 * optimal


def test_randomized_seed_determinism():
    X = np.random.default_rng(5).normal(size=(60, 30))
    a = randomized_svd(X, 6, seed=42)
    b = randomized_svd(X, 6, seed=42)
    assert np.array_equal(a.U, b.U) and np.array_equal(a.s, b.s)
    c = randomized_svd(X, 6, seed=43)
    assert not np.array_equal(a.U, c.U)


@pytest.mark.parametrize("factory", [
    exact_svd,
    lambda X: randomized_svd(X, 8, seed=0),
    pytest.param(lambda X: truncated_svd(X, 8), id="truncated_svd"),
])
def test_svd_invariants(factory):
    rng = np.random.default_rng(6)
    d = 30
    s = np.exp(-0.4 * np.arange(d))
    X = np.linalg.qr(rng.normal(size=(80, d)))[0] @ np.diag(s) @ np.linalg.qr(rng.normal(size=(d, d)))[0]
    res = factory(X)
    r = len(res.s)
    # orthonormal blocks
    assert np.allclose(res.U.T @ res.U, np.eye(r), atol=1e-8)
    assert np.allclose(res.V.T @ res.V, np.eye(r), atol=1e-8)
    # nonincreasing singular values
    assert np.all(np.diff(res.s) <= 1e-12)
    # X.T u_i = s_i v_i per retained component
    for i in range(r):
        resid = np.linalg.norm(X.T @ res.U[:, i] - res.s[i] * res.V[:, i])
        assert resid <= 1e-6 * res.s[0]


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        randomized_svd(np.ones((4, 3)), 5)


def test_truncated_svd_dispatch_matches_exact():
    X = np.random.default_rng(7).normal(size=(40, 10))
    full = exact_svd(X)
    res = align_signs(truncated_svd(X, 4), full)
    assert np.allclose(res.s, full.s[:4])
    assert np.allclose(res.U, full.U[:, :4])


def _with_factors(n, d, s, seed):
    """X = U diag(s) V.T from random orthonormal U and V, and U diag(s)."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(n, len(s))))[0]
    V = np.linalg.qr(rng.normal(size=(d, len(s))))[0]
    return U @ np.diag(s) @ V.T, U * s


def _with_spectrum(n, d, s, seed):
    return _with_factors(n, d, s, seed)[0]


def test_truncated_svd_ill_conditioned_tall_matches_exact():
    # kept s_3 / s_0 lies below the Gram route's floor, and s_3 is not
    # resolved from s_4 in X.T X, so only the exact SVD recovers U
    s = np.array([1.0, 0.5, 1e-3, 1e-2 * GRAM_COND_FLOOR, 0.9e-2 * GRAM_COND_FLOOR, 1e-12])
    X = _with_spectrum(60, 12, s, seed=8)
    full = exact_svd(X)
    res = align_signs(truncated_svd(X, 4), full)
    assert np.allclose(res.s, full.s[:4], rtol=0, atol=1e-10)
    assert np.allclose(res.U, full.U[:, :4], rtol=0, atol=1e-10)


def test_truncated_svd_rank_above_width_returns_all_columns():
    X = np.random.default_rng(9).normal(size=(50, 6))
    res = truncated_svd(X, 10)
    assert res.U.shape == (50, 6) and res.s.shape == (6,) and res.V.shape == (6, 6)
    assert np.allclose(res.U @ np.diag(res.s) @ res.V.T, X, atol=1e-10)


def test_truncated_svd_wide_matches_exact():
    # a near-degenerate kept spectrum above the Gram floor: the Gram matrix
    # resolves u_4 from u_5 only to about 1e-5, the exact SVD to round-off
    s = np.array([1.0, 0.5, 0.1, 1e-2, 1e-5, 0.9e-5, 1e-6])
    X = _with_spectrum(20, 60, s, seed=10)
    full = exact_svd(X)
    res = align_signs(truncated_svd(X, 5), full)
    assert res.U.shape == (20, 5)
    assert np.allclose(res.s, full.s[:5], rtol=0, atol=1e-10)
    assert np.allclose(res.U, full.U[:, :5], rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape, r, spectrum", [
    ((60, 12), 4, None),  # Gram
    ((60, 12), 4, [1.0, 0.5, 1e-3, 1e-2 * GRAM_COND_FLOOR, 1e-12]),  # ill-conditioned fallback
    ((20, 60), 5, None),  # wide exact
    ((EXACT_SVD_MAX_DIM + 1, EXACT_SVD_MAX_DIM + 1), 6, None),  # randomized
], ids=["gram", "fallback", "wide", "randomized"])
def test_truncated_svd_left_vectors_column_major(shape, r, spectrum):
    # column-major U keeps the embedding's column slice U[:, 1:] contiguous
    if spectrum is None:
        X = np.random.default_rng(11).normal(size=shape)
    else:
        X = _with_spectrum(*shape, np.array(spectrum), seed=8)
    U = truncated_svd(X, r).U
    assert U.shape == (shape[0], r)
    assert U.flags.f_contiguous and U[:, 1:].flags.f_contiguous


def _reference_basis(X, r, seed):
    """The d x w basis W of the Gram or randomized route, on whose range the
    oracle takes its Rayleigh-Ritz step, computed with ``np.linalg.qr`` on
    row-major products."""
    n, d = X.shape
    if min(n, d) <= EXACT_SVD_MAX_DIM:
        return scipy.linalg.eigh(X.T @ X, subset_by_index=[d - r, d - 1])[1]
    W = np.random.default_rng(seed).standard_normal((d, r + OVERSAMPLE))
    for _ in range(POWER_ITERS):
        W = np.linalg.qr(X.T @ np.linalg.qr(X @ W)[0])[0]
    return W


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, d, r", [
    (4097, 100, 2),
    (6000, 16, 5),
    (20000, 55, 11),
    (EXACT_SVD_MAX_DIM + 50, EXACT_SVD_MAX_DIM + 10, 6),  # randomized
])
def test_truncated_svd_agrees_with_the_row_major_ritz_oracle(n, d, r, order):
    # the column-major product rounds differently from X @ W in the last bits
    # on some of these shapes, never by more than round-off
    s = np.exp(-0.15 * np.arange(min(d, 40)))
    X = np.asarray(_with_spectrum(n, d, s, seed=n + r), order=order)
    X += 1e-3 * np.random.default_rng(r).normal(size=X.shape)
    res = truncated_svd(X, r, seed=3)
    assert res.U.flags.f_contiguous
    ref = ritz_oracle(X, _reference_basis(X, r, seed=3), r)
    res = align_signs(res, ref)
    assert np.allclose(res.U, ref.U, rtol=0, atol=1e-12)
    assert np.allclose(res.s, ref.s, rtol=0, atol=1e-12)
    assert np.allclose(res.V, ref.V, rtol=0, atol=1e-12)


def test_ritz_holds_two_n_by_r_arrays():
    # X W and its Q share one buffer, and U is scaled in place: at most the
    # basis and U are alive at once
    n, d, r = 50000, 100, 11
    X = np.random.default_rng(12).normal(size=(n, d))
    W = np.linalg.qr(np.random.default_rng(13).normal(size=(d, r)))[0]
    tracemalloc.start()
    _ritz(X, W, r)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2.4 * n * r * 8


def test_no_route_calls_numpy_qr(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    rng = np.random.default_rng(14)
    for shape, r in [((300, 20), 5), ((20, 60), 5), ((EXACT_SVD_MAX_DIM + 1, EXACT_SVD_MAX_DIM + 1), 4)]:
        res = truncated_svd(rng.normal(size=shape), r)
        assert res.U.shape == (shape[0], r)


@pytest.mark.parametrize("shape, r, t, s", [
    ((300, 20), 4, 8, 0.7 ** np.arange(20)),
    # tail below the Gram floor, as a Nystroem map's: only the top r is checked
    ((300, 20), 4, 8, np.r_[0.7 ** np.arange(4), 1e-9 * 0.7 ** np.arange(16)]),
    ((60, 12), 4, 8, np.array([1.0, 0.5, 1e-3, 1e-2 * GRAM_COND_FLOOR, 1e-12])),
    ((20, 60), 5, 30, 0.8 ** np.arange(20)),
    ((EXACT_SVD_MAX_DIM + 1, EXACT_SVD_MAX_DIM + 1), 3, 6, 0.6 ** np.arange(12)),
], ids=["gram", "gram-tiny-tail", "fallback", "wide", "randomized"])
def test_principal_block_has_the_gram_matrix_of_the_top_t_directions(shape, r, t, s):
    X, US = _with_factors(*shape, s, seed=15)
    res = truncated_svd(X, r, seed=2, t=t)
    w = min(t, *shape)
    assert res.block.shape == (shape[0], w) and res.block.flags.f_contiguous
    assert truncated_svd(X, r, seed=2).block is None
    # B B.T - R R.T with R = U_w diag(s_w), in an orthonormal basis Q of
    # both ranges, where it has the same Frobenius norm
    B, R = res.block, US[:, :w]
    Q = np.linalg.qr(np.hstack([B, R]))[0]
    QB, QR = Q.T @ B, Q.T @ R
    assert np.linalg.norm(QB @ QB.T - QR @ QR.T) < 1e-10


def _record_calls(monkeypatch, module, name, calls):
    """Replace module.name with a wrapper that appends name to calls."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


def test_principal_block_leaves_the_rank_r_result_unchanged(monkeypatch):
    calls = []
    _record_calls(monkeypatch, mvkc.linalg, "_ritz", calls)
    _record_calls(monkeypatch, scipy.linalg, "svd", calls)
    s = np.r_[0.7 ** np.arange(6), 1e-9 * 0.7 ** np.arange(34)]
    X = _with_spectrum(5000, 40, s, seed=16)
    a, b = truncated_svd(X, 6), truncated_svd(X, 6, t=14)
    # the Gram route both times: neither call reaches the exact SVD or Rayleigh-Ritz
    assert calls == []
    for name in ("U", "s", "V"):
        assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [None, 8])
def test_gram_route_makes_one_n_row_product_and_no_qr(monkeypatch, t):
    calls = []
    _record_calls(monkeypatch, mvkc.linalg, "_product", calls)
    _record_calls(monkeypatch, mvkc.linalg, "_orth", calls)
    X = np.random.default_rng(17).normal(size=(300, 20))
    res = truncated_svd(X, 4, t=t)
    assert res.U.shape == (300, 4)
    assert calls == ["_product"]


def test_gram_route_accuracy_at_twice_the_floor(monkeypatch):
    # U = X V diag(1/s) loses orthogonality as eps (s_0 / s_r)^2
    s = np.array([1.0, 0.3, 0.05, 1e-2, 2 * GRAM_COND_FLOOR, GRAM_COND_FLOOR, 1e-3 * GRAM_COND_FLOOR])
    X = _with_spectrum(2000, 30, s, seed=18)
    full = exact_svd(X)
    calls = []
    _record_calls(monkeypatch, scipy.linalg, "svd", calls)
    res = truncated_svd(X, 5)
    assert calls == []
    assert np.abs(res.U.T @ res.U - np.eye(5)).max() <= 1e-8
    assert np.allclose(res.s, full.s[:5], rtol=1e-8, atol=0)
    # just below the floor, the exact route
    X = _with_spectrum(2000, 30, np.r_[s[:4], 0.9 * GRAM_COND_FLOOR, s[5:] / 2], seed=18)
    truncated_svd(X, 5)
    assert calls == ["svd"]


def test_gram_route_with_a_block_holds_the_block_and_u():
    # X W_t, and U divided out of its first r columns: no Q, no second product
    n, d, r, t = 50000, 100, 11, 22
    X = np.random.default_rng(19).normal(size=(n, d))
    tracemalloc.start()
    truncated_svd(X, r, t=t)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1.1 * (t + r) * n * 8


@pytest.mark.parametrize("shape, r, t, s, route", [
    ((300, 20), 4, 8, 0.7 ** np.arange(20), []),  # Gram: M.T (X.T X) M and X (M W_t)
    ((60, 12), 4, 8, np.array([1.0, 0.5, 1e-3, 1e-2 * GRAM_COND_FLOOR, 1e-12]), ["svd"]),
    ((20, 60), 5, 10, 0.8 ** np.arange(20), ["svd"]),  # wide: exact on X M
], ids=["gram", "fallback", "wide"])
def test_a_right_factor_gives_the_svd_of_the_product(shape, r, t, s, route, monkeypatch):
    X = _with_spectrum(*shape, s, seed=20)
    d = shape[1]
    # a scaled rotation keeps the fallback's s_3 / s_0 below the Gram floor
    M = np.linalg.qr(np.random.default_rng(21).normal(size=(d, d)))[0] * np.linspace(1.0, 2.0, d)
    ref = truncated_svd(X @ M, r, t=t)
    calls = []
    _record_calls(monkeypatch, scipy.linalg, "svd", calls)
    res = align_signs(truncated_svd(X, r, t=t, right=M), ref)
    assert calls == route
    assert np.allclose(res.s, ref.s, rtol=1e-8, atol=0)
    assert np.allclose(res.U, ref.U, rtol=0, atol=1e-8)
    assert np.allclose(res.V, ref.V, rtol=0, atol=1e-8)
    B, R = res.block, ref.block
    Q = np.linalg.qr(np.hstack([B, R]))[0]
    QB, QR = Q.T @ B, Q.T @ R
    assert np.linalg.norm(QB @ QB.T - QR @ QR.T) < 1e-10
