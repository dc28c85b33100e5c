import copy
import math

import numpy as np
import pytest

from kooplift.data import Dataset, LandmarkStrategy, build_pairs, sample_landmarks
from kooplift.identify import NystromLift, fit, load_model, save_model
from kooplift.kernels import KernelFamily, KernelSpec
import kooplift.lqr as lqr
from kooplift.lqr import (
    LqrWeights,
    _deflate_marginal_modes,
    _riccati_core,
    build_weights,
    solve_dare,
    solve_model_dare,
)
from kooplift.simulate import (
    CollectionProtocol,
    UniformBox,
    UniformIID,
    collect_training_data,
    cubic_system,
    rollout_closed_loop,
)

M52 = KernelSpec(KernelFamily.Matern52, 1.0, 1.0)


def value_iteration_oracle(A, B, Q, R, horizon=10_000):
    """Finite-horizon backward recursion, independent of the solver under test."""
    P = Q.copy()
    for _ in range(horizon):
        BtP = B.T @ P
        P = A.T @ P @ A - (BtP @ A).T @ np.linalg.solve(R + BtP @ B, BtP @ A) + Q
        P = 0.5 * (P + P.T)
    return P


def random_stabilizable_system(rng, n, n_u=1):
    A = rng.normal(size=(n, n)) / math.sqrt(n)
    A *= 0.95 / max(np.max(np.abs(np.linalg.eigvals(A))), 0.1)
    B = rng.normal(size=(n, n_u))
    Q = np.eye(n)
    R = np.eye(n_u)
    return A, B, LqrWeights(Q, R)


def test_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights(np.diag([1.0, -1.0]), np.eye(1))
    with pytest.raises(ValueError):
        LqrWeights(np.eye(2), np.zeros((1, 1)))


def test_build_weights_zero_qprime():
    ds = Dataset([[0.1], [0.2]], [[0.0], [0.0]], [[0.1], [0.2]])
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 2, seed=0)), gamma=1e-4)
    w = build_weights(model, np.zeros((1, 1)), np.eye(1))
    assert np.all(w.Q_m == 0.0)


def test_build_weights_orthonormal_rows():
    # C with orthonormal rows: Q_m = C'C has trace d
    ds = Dataset(np.eye(2), np.zeros((2, 1)), np.eye(2))
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 2, seed=0)), gamma=1e-4)
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.C_r = C
    w = build_weights(model, np.eye(2), np.eye(1))
    np.testing.assert_allclose(w.Q_m, C.T @ C, atol=1e-14)
    assert np.trace(w.Q_m) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        build_weights(model, np.eye(3), np.eye(1))


def test_scalar_zero_dynamics():
    sol = solve_dare(np.array([[0.0]]), np.array([[1.0]]), LqrWeights(np.eye(1), np.eye(1)))
    assert sol.P_m[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sol.K_m[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_scalar_golden_ratio():
    sol = solve_dare(np.array([[1.0]]), np.array([[1.0]]), LqrWeights(np.eye(1), np.eye(1)))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert sol.P_m[0, 0] == pytest.approx(golden, abs=1e-12)
    assert sol.K_m[0, 0] == pytest.approx(-(golden / (1.0 + golden)), abs=1e-12)
    assert sol.rho_L == pytest.approx(2.0 - golden, abs=1e-10)
    assert sol.residual <= 1e-12
    assert sol.converged


def test_agrees_with_value_iteration_oracle():
    rng = np.random.default_rng(0)
    for trial in range(10):
        A, B, w = random_stabilizable_system(rng, n=4)
        sol = solve_dare(A, B, w)
        P_vi = value_iteration_oracle(A, B, w.Q_m, w.R)
        assert np.linalg.norm(sol.P_m - P_vi, 2) <= 1e-6
        assert sol.residual <= 1e-9
        assert sol.rho_L < 1.0


def test_agrees_with_schur_solver():
    import scipy.linalg

    rng = np.random.default_rng(1)
    A, B, w = random_stabilizable_system(rng, n=5)
    sol = solve_dare(A, B, w)
    P_ref = scipy.linalg.solve_discrete_are(A, B, w.Q_m, w.R)
    assert np.linalg.norm(sol.P_m - P_ref, 2) <= 1e-8 * (1 + np.linalg.norm(P_ref, 2))


def test_solution_psd_and_monotone_tail():
    rng = np.random.default_rng(2)
    A, B, w = random_stabilizable_system(rng, n=6)
    sol = solve_dare(A, B, w)
    wmin = float(np.min(np.linalg.eigvalsh(sol.P_m)))
    assert wmin >= -1e-8 * np.linalg.norm(sol.P_m, 2)
    tail = sol.delta_history[-10:]
    assert all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))


def test_scale_covariance():
    rng = np.random.default_rng(3)
    A, B, w = random_stabilizable_system(rng, n=4)
    sol1 = solve_dare(A, B, w)
    eta = 7.5
    sol2 = solve_dare(A, B, LqrWeights(eta * w.Q_m, eta * w.R))
    np.testing.assert_allclose(sol2.P_m, eta * sol1.P_m, atol=1e-8 * eta * np.linalg.norm(sol1.P_m))
    np.testing.assert_allclose(sol2.K_m, sol1.K_m, atol=1e-10)


def test_riccati_solution_records_any_jitter(monkeypatch, marginal_cubic_model):
    # the input-weight solve, each checked residual and the gain: a jitter in any one shows
    from kooplift.numerics import solve_psd

    A, B, w = np.array([[1.0]]), np.array([[1.0]]), LqrWeights(np.eye(1), np.eye(1))
    sol = solve_dare(A, B, w)
    assert sol.jitter_applied is False
    n_solves = 2 + len(sol.delta_history)
    for flagged in range(n_solves):
        calls = []

        def solve(M, rhs):
            calls.append(None)
            return solve_psd(M, rhs)[0], len(calls) == flagged + 1

        monkeypatch.setattr(lqr, "solve_psd", solve)
        again = solve_dare(A, B, w)
        assert len(calls) == n_solves
        np.testing.assert_array_equal(again.P_m, sol.P_m)
        assert again.jitter_applied is True
    # solve_model_dare passes its core's flag on
    monkeypatch.setattr(lqr, "solve_psd", lambda M, rhs: (solve_psd(M, rhs)[0], M.shape == (1, 1)))
    assert solve_model_dare(marginal_cubic_model, np.eye(1), np.eye(1)).jitter_applied is True
    monkeypatch.setattr(lqr, "solve_psd", solve_psd)
    assert solve_model_dare(marginal_cubic_model, np.eye(1), np.eye(1)).jitter_applied is False


def test_nonconvergence_raises():
    # marginally unstable and uncontrollable mode: value iteration cannot settle
    A = np.diag([1.0, 0.5])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(RuntimeError):
        solve_dare(A, B, LqrWeights(np.eye(2), np.eye(1)))


def test_model_dare_matches_plain_solve_on_full_rank_model():
    # no mode within the band: the basis is I_r and the synthesis is, bit for
    # bit, the strict solver's on (A_r, B_r)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(40, 1))
    U = rng.uniform(-1, 1, size=(40, 1))
    ds = Dataset(X, U, 0.5 * X + 0.2 * U)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 8, LandmarkStrategy.SharedUniform, seed=1)), gamma=1e-3)
    assert np.all(np.abs(np.abs(np.linalg.eigvals(model.A_r)) - 1.0) >= lqr.MARGINAL_BAND)
    weights = build_weights(model, np.eye(1), np.eye(1))
    direct = solve_dare(model.A_r, model.B_r, weights)
    via_model = solve_model_dare(model, np.eye(1), np.eye(1))
    assert via_model.converged and via_model.deflated == 0
    assert np.array_equal(via_model.basis, np.eye(model.r))
    np.testing.assert_array_equal(via_model.P_m, direct.P_m)
    np.testing.assert_array_equal(via_model.K_m, direct.K_m)
    assert via_model.rho_L_full == via_model.rho_L == direct.rho_L


def test_model_dare_horizon_cap_flags_nonconvergence(monkeypatch):
    # the iteration guard, lowered to 3, is a recorded event
    monkeypatch.setattr(lqr, "MAX_ITERATIONS", 3)
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(40, 1))
    U = rng.uniform(-1, 1, size=(40, 1))
    ds = Dataset(X, U, 0.5 * X + 0.2 * U)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 8, seed=2)), gamma=1e-3)
    sol = solve_model_dare(model, np.eye(1), np.eye(1))
    assert sol.iterations == 3
    assert not sol.converged


def test_model_dare_requires_weights_or_qr():
    ds = Dataset([[0.1], [0.2]], [[0.0], [0.1]], [[0.05], [0.1]])
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 2, seed=0)), gamma=1e-4)
    with pytest.raises(ValueError):
        solve_model_dare(model)


def test_saved_model_synthesizes_the_fitted_gain(tmp_path):
    # the reloaded model must keep the lift range the fit kept, so synthesis
    # and the closed loop reproduce the in-memory results bit for bit
    sys = cubic_system()
    protocol = CollectionProtocol(5, 1.0, UniformIID(-1, 1), UniformBox(-1, 1), seed=0)
    ds = build_pairs(collect_training_data(sys, protocol))
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 40, LandmarkStrategy.SharedUniform, seed=0)), gamma=1e-6)
    assert model.diagnostics["clipped_gram_out"] > 0
    save_model(tmp_path / "model.json", model)
    loaded = load_model(tmp_path / "model.json")
    sols = [solve_model_dare(m, np.eye(1), np.eye(1)) for m in (model, loaded)]
    np.testing.assert_array_equal(sols[1].K_m, sols[0].K_m)
    costs = [rollout_closed_loop(sys, m, s, [0.9], 300).total_cost for m, s in zip((model, loaded), sols)]
    assert costs[1] == costs[0]


@pytest.fixture(scope="module")
def marginal_cubic_model():
    # a kernel lift of the cubic system: constants sit at eigenvalue ~1 with
    # negligible control authority, so the value iteration does not settle
    sys = cubic_system()
    protocol = CollectionProtocol(5, 1.0, UniformIID(-1, 1), UniformBox(-1, 1), seed=0)
    ds = build_pairs(collect_training_data(sys, protocol))
    return fit(ds, NystromLift(M52, sample_landmarks(ds, 40, LandmarkStrategy.SharedUniform, seed=0)), gamma=1e-6)


def restricted_problem(model, sol):
    """The problem ``sol`` was synthesized on, (A_r, B_r, Q_r, R) restricted to
    its basis V, and P_m read on the same basis."""
    V = sol.basis
    Q = V.T @ build_weights(model, np.eye(1), np.eye(1)).Q_m @ V
    return V.T @ model.A_r @ V, V.T @ model.B_r, 0.5 * (Q + Q.T), np.eye(1), V.T @ sol.P_m @ V


@pytest.mark.parametrize("N", [1, 3, 7, 127, 1023, 4095])
def test_doubling_matches_value_iteration_at_capped_horizon(marginal_cubic_model, monkeypatch, N):
    # the core on the whole lift, marginal modes included, so no guard
    # N = 2^j - 1 is reached early
    monkeypatch.setattr(lqr, "MAX_ITERATIONS", N)
    model = marginal_cubic_model
    sol = _riccati_core(model.A_r, model.B_r, build_weights(model, np.eye(1), np.eye(1)))
    A, B, Q, R, P_solver = restricted_problem(model, sol)
    P_oracle = value_iteration_oracle(A, B, Q, R, horizon=N)
    assert np.linalg.norm(P_solver - P_oracle, 2) <= 1e-10 * np.linalg.norm(P_oracle, 2)
    assert sol.iterations == N
    delta = np.linalg.norm(value_iteration_oracle(A, B, Q, R, horizon=N + 1) - P_oracle, 2)
    assert sol.converged == bool(delta <= 1e-12 * (1.0 + np.linalg.norm(P_oracle, 2)))


def test_doubling_stops_at_converged_doubled_iterate(marginal_cubic_model):
    model = marginal_cubic_model
    # the constant mode sits in the band; the rest converges to a contractive loop
    sol = solve_model_dare(model, np.eye(1), np.eye(1))
    assert sol.converged and sol.deflated > 0
    assert sol.rho_L < 1.0 and sol.rho_L_full >= sol.rho_L
    assert sol.iterations < lqr.MAX_ITERATIONS
    assert math.log2(sol.iterations + 1).is_integer()
    A, B, Q, R, P_solver = restricted_problem(model, sol)
    P_oracle = value_iteration_oracle(A, B, Q, R, horizon=sol.iterations)
    assert np.linalg.norm(P_solver - P_oracle, 2) <= 1e-10 * np.linalg.norm(P_oracle, 2)


def test_overflowing_iterate_raises_in_solve_dare():
    # the unstable mode is out of reach of the input, so P_k grows as 2.25^k
    A = np.diag([1.5, 0.5])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(RuntimeError, match="not finite beyond iteration 511"):
        solve_dare(A, B, LqrWeights(np.eye(2), np.eye(1)))


def test_overflowing_iterate_raises_in_solve_model_dare(marginal_cubic_model):
    model = copy.deepcopy(marginal_cubic_model)
    model.A_r = 1.5 * model.A_r
    model.B_r = np.zeros_like(model.B_r)
    with pytest.raises(RuntimeError, match=rf"not finite beyond iteration \d+ \(guard {lqr.MAX_ITERATIONS}\)"):
        solve_model_dare(model, np.eye(1), np.eye(1))


def test_band_keeps_an_unstable_mode_outside_it():
    # only the mode at 1.0 is marginal; the one at 1.0005 is unstable and synthesized
    U1, T11 = _deflate_marginal_modes(np.diag([1.0, 1.0005, 0.5]))
    assert U1.shape == (3, 2)
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(T11).real), [0.5, 1.0005], rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(U1[0]), 0.0, atol=1e-15)
    A = np.diag([1.0 + 2 * lqr.MARGINAL_BAND, 0.5])
    U1, T11 = _deflate_marginal_modes(A)
    assert np.array_equal(U1, np.eye(2)) and T11 is A
