import math

import numpy as np
import pytest

from kooplift import theory
from kooplift.data import Dataset, LandmarkSet, LandmarkStrategy, sample_landmarks
from kooplift.identify import NystromLift, fit
from kooplift.kernels import KernelFamily, KernelSpec, gram
from kooplift.lqr import LqrWeights, solve_model_dare
from kooplift.numerics import RankTolerance

M52 = KernelSpec(KernelFamily.Matern52, 1.0, 1.0)
RBF = KernelSpec(KernelFamily.RBF, 1.0, 1.0)


def toy_dataset(n=40, seed=0, control=True):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 1))
    U = rng.uniform(-1, 1, size=(n, 1)) if control else np.zeros((n, 1))
    Y = 0.6 * X + 0.25 * U
    return Dataset(X, U, Y)


def explicit_coordinates(spec, points):
    """Explicit finite-dimensional coordinates for the features of the points."""
    K = gram(spec, points)
    w, V = np.linalg.eigh(K)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)).T  # column i = coordinates of psi(points[i])


def test_exact_operator_single_pair():
    ds = Dataset([[0.2]], [[0.0]], [[0.4]])
    gamma = 0.3
    G = theory.build_exact_operator(ds, M52, gamma)
    # SS* = k(x,x)/1 = 1; coeff = (1/n) (1+gamma)^(-1) on the single feature
    assert G.core[0, 0] == pytest.approx(1.0 / (1.0 + gamma), abs=1e-12)
    assert G.core[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_exact_operator_vanishes_at_large_gamma():
    ds = toy_dataset()
    G = theory.build_exact_operator(ds, M52, 1e8)
    assert theory.operator_norm(G) <= 1e-6


def test_exact_operator_risk_matches_explicit_ridge():
    # independent oracle: solve the same regularized regression in explicit
    # coordinates built from the joint Gram factor
    ds = toy_dataset(n=25, seed=3)
    gamma = 1e-2
    G = theory.build_exact_operator(ds, M52, gamma)
    # mean squared lifted residual ||psi(y_i) - G (psi(x_i), u_i)||^2 through
    # Gram identities on G's output-feature coefficients
    coeffs = G.core @ np.vstack([gram(M52, G.in_anchors, ds.X), ds.U.T])
    cross = np.sum(coeffs * gram(M52, G.out_anchors, ds.Y), axis=0)
    quad = np.sum(coeffs * (gram(M52, G.out_anchors) @ coeffs), axis=0)
    risk = float(np.mean(M52.variance - 2.0 * cross + quad))

    pts = np.vstack([ds.X, ds.Y])
    Phi = explicit_coordinates(M52, pts)
    PX, PY = Phi[:, : ds.n], Phi[:, ds.n :]
    n = ds.n
    F = np.vstack([PX, ds.U.T])  # phi(w_i) columns
    # W minimizes (1/n)||PY - W F||_F^2 + gamma ||W||_F^2
    W = PY @ F.T @ np.linalg.inv(F @ F.T + gamma * n * np.eye(F.shape[0]))
    resid = PY - W @ F
    oracle = float(np.mean(np.sum(resid**2, axis=0)))
    assert risk == pytest.approx(oracle, abs=1e-10)


def test_full_landmarks_degenerate_to_exact():
    ds = toy_dataset(n=40, seed=1)
    gamma = 1e-3
    G = theory.build_exact_operator(ds, M52, gamma)
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    G_ny = theory.build_nystrom_operator(ds, M52, gamma, lm)
    assert theory.operator_gap_norm(G, G_ny) <= 1e-8


def test_far_landmark_gives_vanishing_operator():
    ds = toy_dataset(n=20, seed=2)
    lm = LandmarkSet([[60.0]], [[60.0]], seed=0)
    G_ny = theory.build_nystrom_operator(ds, RBF, 1e-3, lm)
    assert theory.operator_norm(G_ny) <= 1e-6


def test_nystrom_control_block_zero_without_controls():
    ds = toy_dataset(n=20, seed=4, control=False)
    lm = sample_landmarks(ds, 5, seed=0)
    G_ny = theory.build_nystrom_operator(ds, M52, 1e-3, lm)
    assert theory.operator_norm(G_ny.control_part()) <= 1e-14


def test_gap_of_identical_operators_is_zero():
    # cancellation happens inside whitened matrix products, so the result sits
    # at round-off level relative to the coefficient scale (~1/gamma)
    ds = toy_dataset(n=15, seed=5)
    G = theory.build_exact_operator(ds, M52, 1e-2)
    assert theory.operator_gap_norm(G, G) <= 1e-9


def test_rank_one_operator_norm():
    # D = psi(a) <psi(b), .>  has norm sqrt(k(a,a) k(b,b)) = variance
    spec = KernelSpec(KernelFamily.Matern52, 1.0, 2.5)
    D = theory.RkhsOperator(
        kernel=spec,
        out_anchors=np.array([[0.3, 0.1]]),
        core=np.array([[1.0]]),
        in_anchors=np.array([[-0.4, 0.8]]),
        n_u=0,
    )
    assert theory.operator_norm(D) == pytest.approx(spec.variance, abs=1e-10)


def test_operator_norm_monte_carlo_bracket():
    # the norm dominates a Monte-Carlo max over random unit inputs (uniform on
    # the unit sphere of the spanned subspace); a clustered fixture keeps the
    # effective dimension low enough for 10^4 draws to approach the top
    # direction
    rng0 = np.random.default_rng(6)
    X = 0.25 * rng0.uniform(-1, 1, size=(6, 1))
    U = rng0.uniform(-1, 1, size=(6, 1))
    ds = Dataset(X, U, 0.6 * X + 0.25 * U)
    lm = sample_landmarks(ds, 3, seed=1)
    G = theory.build_exact_operator(ds, M52, 1e-2)
    G_ny = theory.build_nystrom_operator(ds, M52, 1e-2, lm)
    norm = theory.operator_gap_norm(G, G_ny)

    anchors = np.vstack([ds.X, lm.inputs])
    Kb = gram(M52, anchors)
    wb, Vb = np.linalg.eigh(Kb)
    kept = wb > 1e-10 * wb[-1]
    # columns map whitened coordinates to anchor coefficients of unit-norm features
    white = Vb[:, kept] * (wb[kept] ** -0.5)
    r = white.shape[1]
    outs = np.vstack([G.out_anchors, G_ny.out_anchors])
    Gf = gram(M52, outs)
    rng = np.random.default_rng(7)
    best = 0.0
    for _ in range(10_000):
        w = rng.normal(size=r + 1)
        w /= np.linalg.norm(w)
        c = white @ w[:r]
        u = w[r:]
        evals = Kb @ c
        out_a = G.core @ np.concatenate([evals[: ds.n], u])
        out_b = G_ny.out_weight @ (G_ny.core @ np.concatenate([G_ny.in_weight @ evals[ds.n :], u]))
        coeff = np.concatenate([out_a, -out_b])
        val = math.sqrt(max(float(coeff @ Gf @ coeff), 0.0))
        best = max(best, val)
    assert best <= norm + 1e-9
    assert norm - best <= 0.02 * norm


def dense_operator_gap(ds, spec, gamma, landmarks):
    """Spectral norm of G - G_m with both operators as explicit matrices.

    Coordinates are those of span{psi(X), psi(Y)} (the landmarks are stacked
    in too, so their coordinates come from the same factor).  With the sample
    covariance C = F F'/n, F = [psi(X); U'], the exact operator is
    G = Z*S (C + gamma)^-1 with Z*S = psi(Y) F'/n, and the compressed one is
    G_m = Pi_out Z*S P (P C P + gamma)^-1 with P = blockdiag(Pi_in, I).
    """
    n, m_in = ds.n, len(landmarks.inputs)
    Phi = explicit_coordinates(spec, np.vstack([ds.X, ds.Y, landmarks.inputs, landmarks.outputs]))
    PX, PY = Phi[:, :n], Phi[:, n : 2 * n]
    L_in, L_out = Phi[:, 2 * n : 2 * n + m_in], Phi[:, 2 * n + m_in :]
    r = Phi.shape[0]
    F = np.vstack([PX, ds.U.T])
    C = F @ F.T / n
    ZS = PY @ F.T / n
    eye = np.eye(r + ds.n_u)
    G = ZS @ np.linalg.inv(C + gamma * eye)
    P = eye.copy()
    P[:r, :r] = L_in @ np.linalg.pinv(L_in)
    Pi_out = L_out @ np.linalg.pinv(L_out)
    G_m = Pi_out @ ZS @ P @ np.linalg.inv(P @ C @ P + gamma * eye)
    return float(np.linalg.norm(G - G_m, 2))


def test_operator_gap_matches_dense_oracle():
    # the data Grams of this fixture decay to ~1e-13 of their top eigenvalue;
    # the norm is evaluated at a cutoff that keeps those directions, since the
    # default one drops them and moves the norm by up to 8e-5 relative here,
    # while the dense oracle keeps every direction
    spec = KernelSpec(KernelFamily.Matern52, 0.3, 1.0)
    ds = toy_dataset(n=60, seed=11)  # the draws of small_control_fixture
    gamma = 1e-4
    G = theory.build_exact_operator(ds, spec, gamma)
    for m in (3, 8, 15):
        for seed in range(3):
            lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
            # the build clips no landmark direction, so it is exact in real arithmetic
            for pts in (lm.inputs, lm.outputs):
                w = np.linalg.eigvalsh(gram(spec, pts))
                assert w[0] > RankTolerance().rel_cutoff * w[-1]
            G_ny = theory.build_nystrom_operator(ds, spec, gamma, lm)
            val = theory.operator_gap_norm(G, G_ny, RankTolerance(1e-13))
            assert val == pytest.approx(dense_operator_gap(ds, spec, gamma, lm), rel=1e-7)


ORACLE_SPEC = KernelSpec(KernelFamily.Matern52, 0.3, 1.0)
ORACLE_GAMMA = 1e-4
# norms only enter the bound, which these oracle checks do not read
UNIT_NORMS = theory.ExactModelNorms(
    A=1.0, B=1.0, P=1.0, K=1.0, L=1.0, sigma_min_P=1.0, rho_L=0.5, zeta=0.75, tau=1.0, tau_truncated=False
)


def test_riccati_gap_matches_dense_oracle():
    # two compressed models of the operator-oracle fixture; each Riccati
    # operator is written out as Phi W P W Phi' on explicit coordinates of
    # both models' output landmarks
    ds = toy_dataset(n=60, seed=11)
    for m in (3, 8, 15):
        models = []
        for seed in (0, 1):
            lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
            model = fit(ds, NystromLift(ORACLE_SPEC, lm), gamma=ORACLE_GAMMA)
            w = np.linalg.eigvalsh(gram(ORACLE_SPEC, model.lifting.landmarks.outputs))
            assert w[0] > RankTolerance().rel_cutoff * w[-1]
            models.append((model, solve_model_dare(model, np.eye(1), np.eye(1), rho_cap=0.9995)))
        (a, sol_a), (b, sol_b) = models
        out_a, out_b = a.lifting.landmarks.outputs, b.lifting.landmarks.outputs
        Phi = explicit_coordinates(ORACLE_SPEC, np.vstack([out_a, out_b]))
        Pa, Pb = Phi[:, : len(out_a)] @ a.gram_out_pinv_sqrt, Phi[:, len(out_a) :] @ b.gram_out_pinv_sqrt
        oracle = np.linalg.norm(Pa @ sol_a.P_m @ Pa.T - Pb @ sol_b.P_m @ Pb.T, 2)
        rep = theory.riccati_gap(a, sol_a, b, sol_b, UNIT_NORMS, np.eye(1), 0.1, RankTolerance(1e-13))
        assert rep.gap == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("data_seed", [11, 0, 3])
def test_exact_model_norms_match_dense_oracle(data_seed):
    # A, B, P, K and L = A + B K as explicit matrices on the coordinates of
    # span{psi(X), psi(Y)}; the exact model's landmarks are (X, Y)
    ds = toy_dataset(n=60, seed=data_seed)
    n = ds.n
    G = theory.build_exact_operator(ds, ORACLE_SPEC, ORACLE_GAMMA)
    lift = NystromLift(ORACLE_SPEC, LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1))
    model = fit(ds, lift, gamma=ORACLE_GAMMA)
    sol = solve_model_dare(model, np.eye(1), np.eye(1), rho_cap=0.9995)
    norms = theory.exact_model_norms(G, model, sol, RankTolerance(1e-13))

    Phi = explicit_coordinates(ORACLE_SPEC, np.vstack([ds.X, ds.Y]))
    PX, PY = Phi[:, :n], Phi[:, n:]
    r = Phi.shape[0]
    F = np.vstack([PX, ds.U.T])
    G_dense = (PY @ F.T / n) @ np.linalg.inv(F @ F.T / n + ORACLE_GAMMA * np.eye(r + ds.n_u))
    A, B = G_dense[:, :r], G_dense[:, r:]
    PW = PY @ model.gram_out_pinv_sqrt
    K = sol.K_m @ PW.T  # the gain reads the state through the output landmarks
    oracle = {
        "A": np.linalg.norm(A, 2),
        "B": np.linalg.norm(B, 2),
        "P": np.linalg.norm(PW @ sol.P_m @ PW.T, 2),
        "K": np.linalg.norm(K, 2),
        "L": np.linalg.norm(A + B @ K, 2),
    }
    for name, val in oracle.items():
        assert getattr(norms, name) == pytest.approx(val, rel=1e-9), name


def test_riccati_gap_rejects_kernel_mismatch(small_control_fixture):
    ds, gamma, exact_model, exact_sol, _, _, norms = small_control_fixture
    lm = sample_landmarks(ds, 10, LandmarkStrategy.IndependentUniform, seed=0)
    rbf_model = fit(ds, NystromLift(RBF, lm), gamma=gamma)
    rbf_sol = solve_model_dare(rbf_model, np.eye(1), np.eye(1), rho_cap=0.9995)
    with pytest.raises(ValueError, match="different kernels"):
        theory.riccati_gap(exact_model, exact_sol, rbf_model, rbf_sol, norms, np.eye(1), epsilon=0.1)


def test_operator_norm_of_empty_factor_is_zero(monkeypatch):
    # an operator with no input block, and one whose anchor Gram whitens to
    # zero rows, both have an empty factor and norm 0
    ds = toy_dataset(n=10, seed=13)
    G = theory.build_exact_operator(Dataset(ds.X, np.zeros((ds.n, 0)), ds.Y), M52, 1e-2)
    assert theory.operator_norm(G.control_part()) == 0.0

    def zero_gram(spec, A, B=None):
        return np.zeros((len(A), len(A if B is None else B)))

    monkeypatch.setattr(theory, "gram", zero_gram)
    assert theory.operator_norm(G) == 0.0


def test_gap_bound_formula_example():
    val = theory.nystrom_gap_bound(1.0, 1.0, 100, 0.05)
    lg = math.log(8 * 100 / (5 * 0.05))
    first = 2.0 * 4.0 * math.sqrt(3.0 / 100 * lg)
    second = 48.0 / 100 * lg
    assert val == pytest.approx(first + second, abs=1e-12)
    assert first == pytest.approx(3.937, abs=1e-3)
    assert second == pytest.approx(3.874, abs=1e-3)
    assert val == pytest.approx(7.81, abs=5e-3)


def test_gap_bound_eventually_decreasing():
    vals = [theory.nystrom_gap_bound(1.0, 1e-2, m, 0.05) for m in (10**3, 10**4, 10**5)]
    assert vals[0] > vals[1] > vals[2]


def test_gap_bound_kappa_gamma_scaling():
    # with gamma = kappa^2 both terms are invariant under kappa scaling
    a = theory.nystrom_gap_bound(1.0, 1.0, 50, 0.1)
    b = theory.nystrom_gap_bound(2.0, 4.0, 50, 0.1)
    assert a == pytest.approx(b, rel=1e-12)


def test_projection_error_zero_for_full_landmarks():
    # floor set by the rank policy: sqrt(cutoff * lambda_max / n) ~ 7e-6 here
    ds = toy_dataset(n=20, seed=8)
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    assert theory.projection_error(ds, "input", M52, lm) <= 1e-5
    assert theory.projection_error(ds, "output", M52, lm) <= 1e-5
    single = Dataset([[0.2]], [[0.0]], [[0.3]])
    lm1 = LandmarkSet([[0.2]], [[0.3]], seed=0)
    assert theory.projection_error(single, "input", M52, lm1) <= 1e-9


def test_projection_error_matches_gram_schmidt_oracle():
    ds = toy_dataset(n=15, seed=9)
    lm = sample_landmarks(ds, 4, seed=2)
    val = theory.projection_error(ds, "input", M52, lm)
    # oracle: dense projector built from explicit orthonormalized coordinates
    pts = np.vstack([ds.X, lm.inputs])
    Phi = explicit_coordinates(M52, pts)
    PX, PL = Phi[:, : ds.n], Phi[:, ds.n :]
    Q, Rm = np.linalg.qr(PL)
    keep = np.abs(np.diag(Rm)) > 1e-10
    Q = Q[:, keep]
    resid = PX - Q @ (Q.T @ PX)
    oracle = math.sqrt(max(np.linalg.eigvalsh(resid.T @ resid / ds.n)[-1], 0.0))
    assert val == pytest.approx(oracle, abs=1e-10)


def test_projection_error_within_probability_bound():
    # high-probability bound at delta = 0.05 over 200 landmark draws on the
    # rate-study fixture; the feature norm already caps the error at kappa
    from kooplift.experiments import fixture_dataset

    _, ds = fixture_dataset(n=500, seed=7)
    m, delta = 20, 0.05
    bound = theory.projection_bound(M52.kappa, m, delta)
    hits = 0
    total = 0
    for seed in range(200):
        lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
        for side in ("input", "output"):
            total += 1
            hits += int(theory.projection_error(ds, side, M52, lm) <= bound)
    assert hits / total >= 0.95


def test_projection_error_side_validation():
    ds = toy_dataset(n=10, seed=10)
    lm = sample_landmarks(ds, 3, seed=0)
    with pytest.raises(ValueError):
        theory.projection_error(ds, "sideways", M52, lm)


@pytest.fixture(scope="module")
def small_control_fixture():
    rng = np.random.default_rng(11)
    n = 60
    X = rng.uniform(-1, 1, size=(n, 1))
    U = rng.uniform(-1, 1, size=(n, 1))
    Y = 0.6 * X + 0.25 * U
    ds = Dataset(X, U, Y)
    gamma = 1e-3
    exact_model = fit(ds, NystromLift(M52, LandmarkSet(X.copy(), Y.copy(), seed=-1)), gamma=gamma)
    Q_exact = exact_model.C.T @ exact_model.C
    exact_sol = solve_model_dare(exact_model, np.eye(1), np.eye(1), rho_cap=0.9995)
    G = theory.build_exact_operator(ds, M52, gamma)
    norms = theory.exact_model_norms(G, exact_model, exact_sol, RankTolerance())
    return ds, gamma, exact_model, exact_sol, Q_exact, G, norms


def test_exact_model_norms_sane(small_control_fixture):
    _, _, _, exact_sol, _, _, norms = small_control_fixture
    assert norms.A > 0 and norms.B > 0 and norms.P > 0 and norms.K > 0
    assert norms.Gamma >= 1.0
    assert norms.rho_L == exact_sol.rho_L < norms.zeta < 1.0
    assert norms.tau >= 1.0


def test_riccati_gap_identical_models_is_zero(small_control_fixture):
    ds, gamma, exact_model, exact_sol, Q_exact, G, norms = small_control_fixture
    rep = theory.riccati_gap(exact_model, exact_sol, exact_model, exact_sol, norms, np.eye(1), epsilon=0.0)
    assert rep.gap <= 1e-9
    assert rep.bound == 0.0


def test_riccati_gap_zero_state_cost(small_control_fixture):
    ds, gamma, exact_model, _, _, G, norms = small_control_fixture
    lm = sample_landmarks(ds, 10, LandmarkStrategy.IndependentUniform, seed=3)
    ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
    w0 = LqrWeights(np.zeros((exact_model.m, exact_model.m)), np.eye(1))
    sol0 = solve_model_dare(exact_model, weights=w0, rho_cap=0.9995)
    w0n = LqrWeights(np.zeros((ny_model.m, ny_model.m)), np.eye(1))
    sol0n = solve_model_dare(ny_model, weights=w0n, rho_cap=0.9995)
    rep = theory.riccati_gap(exact_model, sol0, ny_model, sol0n, norms, np.eye(1), epsilon=0.1)
    assert rep.gap <= 1e-10


def test_riccati_and_objective_gap_decrease_and_nonnegative(small_control_fixture):
    ds, gamma, exact_model, exact_sol, Q_exact, G, norms = small_control_fixture
    gaps = {}
    for m in (5, 20, 50):
        vals = []
        obj_vals = []
        for seed in range(6):
            lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
            G_ny = theory.build_nystrom_operator(ds, M52, gamma, lm)
            eps = theory.operator_gap_norm(G, G_ny)
            ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
            Q_ny = theory.transport_weights(exact_model, Q_exact, ny_model)
            ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, np.eye(1)), rho_cap=0.9995)
            rep = theory.riccati_gap(exact_model, exact_sol, ny_model, ny_sol, norms, np.eye(1), epsilon=eps)
            obj = theory.objective_gap(
                exact_model, exact_sol, ny_model, ny_sol, norms, Q_exact, np.eye(1), [0.9], g_eps=rep.bound
            )
            vals.append(rep.gap)
            obj_vals.append(obj.gap)
            assert obj.gap >= -1e-9
            assert obj.J >= 0.0
        gaps[m] = (float(np.median(vals)), float(np.median(obj_vals)))
    assert gaps[5][0] > gaps[50][0]
    assert gaps[5][1] > gaps[50][1]


def test_objective_gap_equal_gains(small_control_fixture):
    _, _, exact_model, exact_sol, Q_exact, _, norms = small_control_fixture
    obj = theory.objective_gap(
        exact_model, exact_sol, exact_model, exact_sol, norms, Q_exact, np.eye(1), [0.9], g_eps=0.0
    )
    assert obj.gap == pytest.approx(0.0, abs=1e-9)
    assert obj.stabilizes


def longdouble_cost(L, Qbar, z0):
    """sum_t z_t' Qbar z_t along z_{t+1} = L z_t, rolled in extended precision
    until a stage no longer changes the sum."""
    L, Qbar, z = (np.asarray(a, dtype=np.longdouble) for a in (L, Qbar, z0))
    total = np.longdouble(0.0)
    for _ in range(100_000):
        stage = z @ Qbar @ z
        if total + stage == total:
            return total
        total += stage
        z = L @ z
    raise AssertionError("rollout did not settle in 100 000 steps")


def assert_objective_gap_matches_rollout(ds, gamma, exact_model, exact_sol, Q_exact, m, seed):
    """Both costs of ``objective_gap`` against longdouble rollouts of the same
    reduced closed loops, stage weights Q + K'RK and start z0.

    Asserted: each cost within 1e-9 relative, the gap within 1e-3 relative.
    """
    R = np.eye(1)
    lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
    ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
    Q_ny = theory.transport_weights(exact_model, Q_exact, ny_model)
    ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, R), rho_cap=0.9995)
    rep = theory.objective_gap(exact_model, exact_sol, ny_model, ny_sol, UNIT_NORMS, Q_exact, R, [0.9], g_eps=0.0)

    V = exact_sol.basis
    A_r, B_r = V.T @ exact_model.A_m @ V, V.T @ exact_model.B_m
    Q_r = V.T @ Q_exact @ V
    z0 = V.T @ exact_model.embed_states(np.array([[0.9]]))[:, 0]
    cross = gram(M52, ny_model.lifting.landmarks.outputs, exact_model.lifting.landmarks.outputs)
    T = ny_model.gram_out_pinv_sqrt @ cross @ exact_model.gram_out_pinv_sqrt
    J, J_hat = (
        longdouble_cost(A_r + B_r @ K, Q_r + K.T @ R @ K, z0) for K in (exact_sol.K_m @ V, (ny_sol.K_m @ T) @ V)
    )
    assert rep.stabilizes
    assert rep.J == pytest.approx(float(J), rel=1e-9)
    assert rep.J_hat == pytest.approx(float(J_hat), rel=1e-9)
    assert J_hat > J
    assert rep.gap == pytest.approx(float(J_hat - J), rel=1e-3, abs=0.0)


def test_objective_gap_matches_longdouble_rollout(small_control_fixture):
    # this fixture's closed loops are slow (a stage stops moving the sum only
    # after about 9 000 steps), so the sums stop with a tail left: measured
    # 1.6e-10 relative on J and <= 6e-8 relative on the gap
    ds, gamma, exact_model, exact_sol, Q_exact, _, _ = small_control_fixture
    for m in (5, 20, 50):
        assert_objective_gap_matches_rollout(ds, gamma, exact_model, exact_sol, Q_exact, m, seed=0)


def test_objective_gap_matches_longdouble_rollout_on_rate_study():
    # the rate-study fixture at m = 160, where the gaps (1.3e-8 to 2.0e-7) are
    # differences of two costs of about 35.4; measured: J within 1.2e-14
    # relative and the gaps within 5.4e-5 relative (<= 7.3e-13 absolute) with
    # two OpenBLAS threads, 1.2e-15 and 1.6e-6 with one
    from kooplift.experiments import fit_exact, fixture_dataset

    _, ds = fixture_dataset(n=500, seed=7)
    gamma = 1e-6
    exact_model = fit_exact(ds, gamma)
    Q_exact = exact_model.C.T @ exact_model.C
    exact_sol = solve_model_dare(exact_model, np.eye(1), np.eye(1), rho_cap=0.9995)
    for seed in range(3):
        assert_objective_gap_matches_rollout(ds, gamma, exact_model, exact_sol, Q_exact, 160, seed)


def test_operator_kernel_mismatch_rejected():
    ds = toy_dataset(n=10, seed=12)
    G1 = theory.build_exact_operator(ds, M52, 1e-2)
    G2 = theory.build_exact_operator(ds, RBF, 1e-2)
    with pytest.raises(ValueError):
        theory.operator_gap_norm(G1, G2)


def test_bound_report_validation_and_csv(tmp_path):
    row = theory.BoundReport(
        m=10, seed=0, gamma=1e-6, delta=0.05, kappa=1.0,
        empirical_gap=0.5, gap_bound=2.0, proj_in=0.1, proj_out=0.2,
    )
    theory.write_bound_reports(tmp_path / "b.csv", [row])
    text = (tmp_path / "b.csv").read_text().splitlines()
    assert text[0].split(",")[:7] == ["m", "seed", "gamma", "delta", "kappa", "empirical_gap", "gap_bound"]
    assert len(text) == 2
    with pytest.raises(ValueError):
        theory.BoundReport(
            m=10, seed=0, gamma=1e-6, delta=0.05, kappa=1.0,
            empirical_gap=-1.0, gap_bound=2.0, proj_in=0.1, proj_out=0.2,
        )
