import numpy as np
import pytest

from kooplift.numerics import (
    RankTolerance,
    psd_pinv_sqrt,
    psd_pinv_sqrt_factor,
    psd_sqrt,
    solve_psd,
    spectral_radius,
    tau,
)


def test_rank_tolerance_validation():
    with pytest.raises(ValueError):
        RankTolerance(0.0)
    with pytest.raises(ValueError):
        RankTolerance(1.0)


def test_pinv_sqrt_identity():
    np.testing.assert_allclose(psd_pinv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_sqrt_rank_deficient_diagonal():
    R = psd_pinv_sqrt(np.diag([4.0, 0.0]))
    np.testing.assert_allclose(R, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_sqrt_projector_property():
    # oracle: eigendecomposition of a synthetic PSD matrix with known range
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    lam = np.array([3.0, 1.5, 0.9, 0.2, 0.0, 0.0])
    M = (Q * lam) @ Q.T
    R = psd_pinv_sqrt(M)
    projector = (Q * (lam > 0)) @ Q.T
    np.testing.assert_allclose(M @ R @ R, projector, atol=1e-10)


def test_pinv_sqrt_zero_matrix():
    np.testing.assert_array_equal(psd_pinv_sqrt(np.zeros((4, 4))), np.zeros((4, 4)))


def test_pinv_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_pinv_sqrt(np.diag([1.0, -1.0]))


def test_pinv_sqrt_squared_equals_clipped_pinv():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(7, 7))
    M = A @ A.T
    R = psd_pinv_sqrt(M)
    np.testing.assert_allclose(R @ R, np.linalg.pinv(M, rcond=1e-10, hermitian=True), atol=1e-10)


def test_pinv_sqrt_factor_whitens_the_kept_range():
    # the synthetic PSD matrix of the projector test: rank 4 of 6
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = (Q * np.array([3.0, 1.5, 0.9, 0.2, 0.0, 0.0])) @ Q.T
    E, info = psd_pinv_sqrt_factor(M)
    assert E.shape == (6, 4) and info["rank"] == 4 and info["clipped"] == 2
    np.testing.assert_allclose(E.T @ M @ E, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(E @ info["basis"].T, psd_pinv_sqrt(M), atol=1e-12)
    assert info["cond"] == pytest.approx(15.0)


def test_pinv_sqrt_info():
    _, info = psd_pinv_sqrt_factor(np.diag([4.0, 1.0, 0.0]))
    assert info["rank"] == 2
    assert info["clipped"] == 1
    assert info["cond"] == pytest.approx(4.0)


def test_psd_sqrt():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    M = A @ A.T
    R = psd_sqrt(M)
    assert R.shape == (5, 5)
    np.testing.assert_allclose(R.T @ R, M, atol=1e-10)
    # thin: one row per kept eigenvalue
    R = psd_sqrt(np.diag([4.0, 1.0, 0.0]))
    assert R.shape == (2, 3)
    np.testing.assert_allclose(R.T @ R, np.diag([4.0, 1.0, 0.0]), atol=1e-14)
    assert psd_sqrt(np.zeros((4, 4))).shape == (0, 4)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


def test_spectral_radius_scaled_rotation():
    th = 0.7
    L = 0.7 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert spectral_radius(L) == pytest.approx(0.7, abs=1e-12)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)


def test_spectral_radius_bounded_by_two_norm():
    rng = np.random.default_rng(3)
    for _ in range(25):
        L = rng.normal(size=(5, 5))
        assert spectral_radius(L) <= np.linalg.norm(L, 2) + 1e-12


def test_spectral_radius_rejects_nonfinite():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_tau_contraction_identity():
    res = tau(0.5 * np.eye(2), zeta=0.5)
    assert res.value == pytest.approx(1.0)
    assert not res.truncated


def test_tau_nilpotent():
    res = tau(np.array([[0.0, 1.0], [0.0, 0.0]]), zeta=0.5)
    assert res.value == pytest.approx(2.0)


def test_tau_normal_matrix():
    res = tau(np.diag([0.9, 0.1]), zeta=0.9)
    assert res.value == pytest.approx(1.0)


def test_tau_at_least_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        L = rng.normal(size=(4, 4))
        L *= 0.8 / max(spectral_radius(L), 1e-9)
        assert tau(L).value >= 1.0


def test_tau_default_zeta_is_midpoint():
    L = np.diag([0.6, 0.2])
    res = tau(L)
    # zeta = 0.8, ||L^k|| = 0.6^k <= 0.8^k immediately
    assert res.value == pytest.approx(1.0)


def test_tau_preconditions():
    with pytest.raises(ValueError):
        tau(np.eye(2), zeta=0.5)  # rho = 1 > zeta
    with pytest.raises(ValueError):
        tau(0.5 * np.eye(2), zeta=1.0)


def test_solve_psd_plain_and_jitter():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    M = A @ A.T + np.eye(5)
    rhs = rng.normal(size=(5, 2))
    x, jit = solve_psd(M, rhs)
    assert not jit
    np.testing.assert_allclose(M @ x, rhs, atol=1e-10)
    # exactly singular PSD matrix triggers the jitter fallback
    S = np.diag([1.0, 0.0])
    x, jit = solve_psd(S, np.array([1.0, 0.0]))
    assert jit
    assert np.all(np.isfinite(x))
