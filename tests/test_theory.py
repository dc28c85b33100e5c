import math
from dataclasses import replace

import numpy as np
import pytest

from kooplift import theory
from kooplift.data import Dataset, LandmarkSet, LandmarkStrategy, sample_landmarks
from kooplift.identify import NystromLift, ThinPlateLift, fit
from kooplift.kernels import KernelFamily, KernelSpec, gram, gram_factor
import kooplift.lqr as lqr
from kooplift.lqr import LqrWeights, solve_model_dare
from kooplift.numerics import RankTolerance, psd_sqrt

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
    G_ny = theory.build_nystrom_operator(fit(ds, NystromLift(M52, lm), gamma=gamma))
    assert theory.operator_gap_norm(G, G_ny) <= 1e-8


def test_far_landmark_gives_vanishing_operator():
    ds = toy_dataset(n=20, seed=2)
    lm = LandmarkSet([[60.0]], [[60.0]], seed=0)
    G_ny = theory.build_nystrom_operator(fit(ds, NystromLift(RBF, lm), gamma=1e-3))
    assert theory.operator_norm(G_ny) <= 1e-6


def control_part(op):
    """The operator restricted to its control input: its state block zeroed."""
    core = op.core.copy()
    core[:, : op.b] = 0.0
    return replace(op, core=core)


def test_nystrom_control_block_zero_without_controls():
    ds = toy_dataset(n=20, seed=4, control=False)
    lm = sample_landmarks(ds, 5, seed=0)
    G_ny = theory.build_nystrom_operator(fit(ds, NystromLift(M52, lm), gamma=1e-3))
    assert theory.operator_norm(control_part(G_ny)) <= 1e-14


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
    G_ny = theory.build_nystrom_operator(fit(ds, NystromLift(M52, lm), gamma=1e-2))
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
            G_ny = theory.build_nystrom_operator(fit(ds, NystromLift(spec, lm), gamma=gamma))
            val = theory.operator_gap_norm(G, G_ny, RankTolerance(1e-13))
            assert val == pytest.approx(dense_operator_gap(ds, spec, gamma, lm), rel=1e-7)


ORACLE_SPEC = KernelSpec(KernelFamily.Matern52, 0.3, 1.0)
ORACLE_GAMMA = 1e-4


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
            models.append((model, solve_model_dare(model, np.eye(1), np.eye(1))))
        (a, sol_a), (b, sol_b) = models
        out_a, out_b = a.lifting.landmarks.outputs, b.lifting.landmarks.outputs
        Phi = explicit_coordinates(ORACLE_SPEC, np.vstack([out_a, out_b]))
        Pa, Pb = Phi[:, : len(out_a)] @ a.out_factor, Phi[:, len(out_a) :] @ b.out_factor
        oracle = np.linalg.norm(Pa @ sol_a.P_m @ Pa.T - Pb @ sol_b.P_m @ Pb.T, 2)
        gap = theory.riccati_gap(a, sol_a, b, sol_b, RankTolerance(1e-13))
        assert gap == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("data_seed", [11, 0, 3])
def test_exact_model_norms_match_dense_oracle(data_seed, monkeypatch):
    # G, A, B, P, K and L = A + B K as explicit matrices on the coordinates
    # of span{psi(X), psi(Y)}; the exact model's landmarks are (X, Y).  Each
    # model's top mode (|eig| 0.99957-0.99989) lies outside the band, so a
    # band widened to 1e-3 checks the norms of a deflated synthesis as well
    ds = toy_dataset(n=60, seed=data_seed)
    n = ds.n
    G = theory.build_exact_operator(ds, ORACLE_SPEC, ORACLE_GAMMA)
    lift = NystromLift(ORACLE_SPEC, LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1))
    model = fit(ds, lift, gamma=ORACLE_GAMMA)

    Phi = explicit_coordinates(ORACLE_SPEC, np.vstack([ds.X, ds.Y]))
    PX, PY = Phi[:, :n], Phi[:, n:]
    r = Phi.shape[0]
    F = np.vstack([PX, ds.U.T])
    G_dense = (PY @ F.T / n) @ np.linalg.inv(F @ F.T / n + ORACLE_GAMMA * np.eye(r + ds.n_u))
    A, B = G_dense[:, :r], G_dense[:, r:]
    PW = PY @ model.out_factor
    for band, deflated in ((lqr.MARGINAL_BAND, False), (1e-3, True)):
        monkeypatch.setattr(lqr, "MARGINAL_BAND", band)
        sol = solve_model_dare(model, np.eye(1), np.eye(1))
        assert (sol.deflated > 0) == deflated
        norms = theory.exact_model_norms(G, model, sol, RankTolerance(1e-13))
        K = sol.K_m @ PW.T  # the gain reads the state through the output landmarks
        oracle = {
            "G": np.linalg.norm(G_dense, 2),
            "A": np.linalg.norm(A, 2),
            "B": np.linalg.norm(B, 2),
            "P": np.linalg.norm(PW @ sol.P_m @ PW.T, 2),
            "K": np.linalg.norm(K, 2),
            "L": np.linalg.norm(A + B @ K, 2),
        }
        for name, val in oracle.items():
            assert getattr(norms, name) == pytest.approx(val, rel=1e-9), name


def test_riccati_gap_rejects_kernel_mismatch(small_control_fixture):
    ds, gamma, exact_model, exact_sol, _, _ = small_control_fixture
    lm = sample_landmarks(ds, 10, LandmarkStrategy.IndependentUniform, seed=0)
    rbf_model = fit(ds, NystromLift(RBF, lm), gamma=gamma)
    rbf_sol = solve_model_dare(rbf_model, np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="different kernels"):
        theory.riccati_gap(exact_model, exact_sol, rbf_model, rbf_sol)


def test_model_norms_reject_thin_plate_models(small_control_fixture):
    # the norms read kernel landmarks, which a thin-plate lift does not have:
    # a TypeError, as build_nystrom_operator and transport_weights raise
    ds, gamma, exact_model, exact_sol, _, _ = small_control_fixture
    tp = fit(ds, ThinPlateLift(np.linspace(-1.0, 1.0, 5)[:, None]), gamma=gamma)
    tp_sol = solve_model_dare(tp, np.eye(1), np.eye(1))
    exact, thin = (exact_model, exact_sol), (tp, tp_sol)
    for a, b in ((thin, thin), (exact, thin), (thin, exact)):
        with pytest.raises(TypeError, match="kernel lifts"):
            theory.riccati_gap(*a, *b)
    with pytest.raises(TypeError, match="kernel-lift model"):
        theory.exact_model_norms(theory.build_exact_operator(ds, M52, gamma), tp, tp_sol)


def test_operator_norm_of_empty_factor_is_zero(monkeypatch):
    # an operator with a zero state block and no control has a zero factor, and
    # one whose anchor Gram whitens to zero rows (its Gram factor has no
    # column) an empty factor: both have norm 0
    ds = toy_dataset(n=10, seed=13)
    G = theory.build_exact_operator(Dataset(ds.X, np.zeros((ds.n, 0)), ds.Y), M52, 1e-2)
    assert theory.operator_norm(control_part(G)) == 0.0

    def rank_zero_factor(spec, points):
        factor = gram_factor(spec, points)
        return replace(factor, L=factor.L[:, :0])

    monkeypatch.setattr(theory, "gram_factor", rank_zero_factor)
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
    Q_exact = exact_model.C_r.T @ exact_model.C_r
    exact_sol = solve_model_dare(exact_model, np.eye(1), np.eye(1))
    G = theory.build_exact_operator(ds, M52, gamma)
    norms = theory.exact_model_norms(G, exact_model, exact_sol, RankTolerance())
    return ds, gamma, exact_model, exact_sol, Q_exact, norms


def test_exact_model_norms_sane(small_control_fixture):
    _, _, _, exact_sol, _, norms = small_control_fixture
    assert norms.A > 0 and norms.B > 0 and norms.P > 0 and norms.K > 0
    assert norms.Gamma >= 1.0
    assert norms.rho_L == exact_sol.rho_L < norms.zeta < 1.0
    assert norms.tau >= 1.0


def test_exact_model_norms_reject_other_output_landmarks(small_control_fixture):
    # the norms whiten G's output anchors once for P too, so the exact model
    # must read its state at those anchors
    ds, gamma, _, _, _, _ = small_control_fixture
    lm = sample_landmarks(ds, 10, LandmarkStrategy.IndependentUniform, seed=0)
    model = fit(ds, NystromLift(M52, lm), gamma=gamma)
    sol = solve_model_dare(model, np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="output anchors"):
        theory.exact_model_norms(theory.build_exact_operator(ds, M52, gamma), model, sol)


# non-unit norms, so that every factor of the bound formulas shows
EXAMPLE_NORMS = theory.ExactModelNorms(
    G=3.0, A=2.0, B=0.5, P=4.0, K=1.5, L=2.5, sigma_min_P=1.25, rho_L=0.6, zeta=0.8, tau=3.0, tau_truncated=False
)


def test_riccati_bound_formulas_example():
    norms, norm_R_inv, eps = EXAMPLE_NORMS, 2.0, 1e-3
    # 6 eps tau^2/(1-zeta^2) (|A|+1)^2 (|P|+1)^2 (|B|+1) (|R^-1|+1)
    want = 6.0 * eps * 3.0**2 / (1.0 - 0.8**2) * 3.0**2 * 5.0**2 * 1.5 * 3.0
    assert theory.riccati_gap_bound(eps, norms, norm_R_inv) == pytest.approx(want, rel=1e-12)
    assert theory.riccati_gap_bound(0.0, norms, norm_R_inv) == 0.0
    # eps < min(|B|, (1-zeta^2)^2 / (12 ((|L|+1)^2 + |P|+1) tau^4 (|A|+1)^2
    # (|P|+1)^2 (|B|+1)^3 (|R^-1|+1)^2)) and sigma_min(P) >= 1
    cap = (1.0 - 0.8**2) ** 2 / (12.0 * (3.5**2 + 5.0) * 3.0**4 * 3.0**2 * 5.0**2 * 1.5**3 * 3.0**2)
    assert cap == pytest.approx(1.1310e-9, rel=1e-4)
    assert theory.riccati_gap_precondition(0.99 * cap, norms, norm_R_inv)
    assert not theory.riccati_gap_precondition(1.01 * cap, norms, norm_R_inv)
    assert not theory.riccati_gap_precondition(0.99 * cap, replace(norms, sigma_min_P=0.99), norm_R_inv)
    assert theory.riccati_gap_precondition(0.99 * cap, replace(norms, sigma_min_P=1.0), norm_R_inv)
    # the |B| arm of the minimum
    small_B = replace(norms, B=1e-12)
    assert theory.riccati_gap_precondition(0.99e-12, small_B, norm_R_inv)
    assert not theory.riccati_gap_precondition(1.01e-12, small_B, norm_R_inv)


def test_objective_bound_formulas_example():
    norms, g_eps, variance = EXAMPLE_NORMS, 1e-3, 2.5
    gamma_ = 1.0 + 4.0  # Gamma = 1 + max(|A|, |B|, |P|, |K|)
    assert norms.Gamma == gamma_
    # 36 sigma_max(R) Gamma^9 g(eps)^2 kappa^2 tau^2/(1-zeta^2), kappa^2 the kernel variance
    want = 36.0 * 2.0 * gamma_**9 * g_eps**2 * variance * 3.0**2 / (1.0 - 0.8**2)
    assert theory.objective_gap_bound(g_eps, norms, 2.0, variance) == pytest.approx(want, rel=1e-12)
    # g(eps) <= (1-zeta) / (6 |B| tau Gamma^2) and sigma_min(R) >= 1
    threshold = (1.0 - 0.8) / (6.0 * 0.5 * 3.0 * gamma_**2)
    assert threshold == pytest.approx(8.889e-4, rel=1e-4)
    assert theory.objective_gap_precondition(0.99 * threshold, norms, 1.0)
    assert not theory.objective_gap_precondition(1.01 * threshold, norms, 1.0)
    assert not theory.objective_gap_precondition(0.99 * threshold, norms, 0.99)


def test_riccati_gap_identical_models_is_zero(small_control_fixture):
    _, _, exact_model, exact_sol, _, _ = small_control_fixture
    assert theory.riccati_gap(exact_model, exact_sol, exact_model, exact_sol) <= 1e-9


def test_riccati_gap_zero_state_cost(small_control_fixture):
    ds, gamma, exact_model, _, _, _ = small_control_fixture
    lm = sample_landmarks(ds, 10, LandmarkStrategy.IndependentUniform, seed=3)
    ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
    w0 = LqrWeights(np.zeros((exact_model.r, exact_model.r)), np.eye(1))
    sol0 = solve_model_dare(exact_model, weights=w0)
    w0n = LqrWeights(np.zeros((ny_model.r, ny_model.r)), np.eye(1))
    sol0n = solve_model_dare(ny_model, weights=w0n)
    assert theory.riccati_gap(exact_model, sol0, ny_model, sol0n) <= 1e-10


def test_riccati_and_objective_gap_decrease_and_nonnegative(small_control_fixture):
    ds, gamma, exact_model, exact_sol, Q_exact, _ = small_control_fixture
    ref = theory.objective_reference(exact_model, exact_sol, Q_exact, np.eye(1), [0.9])
    gaps = {}
    for m in (5, 20, 50):
        vals = []
        obj_vals = []
        for seed in range(6):
            lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
            ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
            Q_ny, T = theory.transport_weights(exact_model, Q_exact, ny_model)
            ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, np.eye(1)))
            obj = theory.objective_gap(ref, ny_sol, T)
            vals.append(theory.riccati_gap(exact_model, exact_sol, ny_model, ny_sol))
            obj_vals.append(obj.gap)
            assert obj.gap >= -1e-9
            assert obj.J >= 0.0
        gaps[m] = (float(np.median(vals)), float(np.median(obj_vals)))
    assert gaps[5][0] > gaps[50][0]
    assert gaps[5][1] > gaps[50][1]


def test_objective_gap_equal_gains(small_control_fixture):
    _, _, exact_model, exact_sol, Q_exact, _ = small_control_fixture
    ref = theory.objective_reference(exact_model, exact_sol, Q_exact, np.eye(1), [0.9])
    _, T = theory.transport_weights(exact_model, Q_exact, exact_model)
    obj = theory.objective_gap(ref, exact_sol, T)
    assert obj.gap == pytest.approx(0.0, abs=1e-9)
    assert obj.stabilizes


def test_objective_gap_non_stabilizing_gain_keeps_reference_cost(small_control_fixture):
    _, _, exact_model, exact_sol, Q_exact, _ = small_control_fixture
    ref = theory.objective_reference(exact_model, exact_sol, Q_exact, np.eye(1), [0.9])
    _, T = theory.transport_weights(exact_model, Q_exact, exact_model)
    flipped = replace(exact_sol, K_m=-1e3 * exact_sol.K_m)
    obj = theory.objective_gap(ref, flipped, T)
    assert not obj.stabilizes
    assert obj.J == ref.J and math.isinf(obj.J_hat) and math.isinf(obj.gap)


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


def longdouble_objective_gap(A, B, P, Q, R, K_hat, z0):
    """J(K_hat) - J(K) from the cost-difference identity, every step in
    extended precision: K = -M^-1 B'PA is the greedy gain of P, M = R + B'PB,
    D = Q + A'PA - A'PB M^-1 B'PA - P, and the gap is the stage sum of
    D + dK' M dK along A + B K_hat minus the stage sum of D along A + B K."""
    A, B, P, Q, R, K_hat = (np.asarray(a, dtype=np.longdouble) for a in (A, B, P, Q, R, K_hat))
    P = (P + P.T) / 2
    M = R + B.T @ P @ B
    assert M.shape == (1, 1)  # one input, so M^-1 is a division
    K = -(B.T @ P @ A) / M[0, 0]
    D = Q + A.T @ P @ A + (A.T @ P @ B) @ K - P
    dK = K_hat - K
    return longdouble_cost(A + B @ K_hat, D + dK.T @ M @ dK, z0) - longdouble_cost(A + B @ K, D, z0)


def assert_objective_gap_matches_rollout(ds, gamma, exact_model, exact_sol, Q_exact, m, seed):
    """Both costs of ``objective_gap`` against longdouble rollouts of the same
    reduced closed loops, stage weights Q + K'RK and start z0, and the gap
    against the longdouble stage sums of the cost-difference identity.

    Asserted: each cost within 1e-9 relative, the gap within 1e-7 relative
    (measured: at most 3.4e-9, from the float64 gain and D of the exact side).
    Returns the report and the two longdouble costs.
    """
    R = np.eye(1)
    lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
    ny_model = fit(ds, NystromLift(M52, lm), gamma=gamma)
    Q_ny, T = theory.transport_weights(exact_model, Q_exact, ny_model)
    ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, R))
    ref = theory.objective_reference(exact_model, exact_sol, Q_exact, R, [0.9])
    rep = theory.objective_gap(ref, ny_sol, T)

    V = exact_sol.basis
    A_r, B_r = V.T @ exact_model.A_r @ V, V.T @ exact_model.B_r
    Q_r = V.T @ Q_exact @ V
    z0 = V.T @ exact_model.embed_states(np.array([[0.9]]))[:, 0]
    cross = gram(M52, ny_model.lifting.landmarks.outputs, exact_model.lifting.landmarks.outputs)
    T_ny = ny_model.out_factor.T @ cross @ exact_model.out_factor
    J, J_hat = (
        longdouble_cost(A_r + B_r @ K, Q_r + K.T @ R @ K, z0) for K in (exact_sol.K_m @ V, (ny_sol.K_m @ T_ny) @ V)
    )
    # the gap is a second-order difference: reassociating the product that
    # forms K_hat moves K_hat by up to 2.0e-10 relative here and the gap by up
    # to 1.1e-8 (rate fixture, m = 160), so the gap-level oracle takes K_hat as
    # objective_gap forms it
    gap = longdouble_objective_gap(A_r, B_r, V.T @ exact_sol.P_m @ V, Q_r, R, (ny_sol.K_m @ T.T) @ V, z0)
    assert rep.stabilizes
    assert rep.J == pytest.approx(float(J), rel=1e-9)
    assert rep.J_hat == pytest.approx(float(J_hat), rel=1e-9)
    assert J_hat > J
    assert rep.gap == pytest.approx(float(gap), rel=1e-7, abs=0.0)
    return rep, J, J_hat


def test_objective_gap_matches_longdouble_rollout(small_control_fixture):
    # this fixture's closed loops are slow (a stage stops moving the sum only
    # after about 9 000 steps); measured: J within 6.2e-16 relative, J_hat
    # within 6.3e-12 and the gap within 6e-14 of the identity's longdouble
    # sums.  The cost difference J_hat - J of the rollouts (within 2.3e-8 of
    # the gap) checks the identity's algebra independently
    ds, gamma, exact_model, exact_sol, Q_exact, _ = small_control_fixture
    for m in (5, 20, 50):
        rep, J, J_hat = assert_objective_gap_matches_rollout(ds, gamma, exact_model, exact_sol, Q_exact, m, seed=0)
        assert rep.gap == pytest.approx(float(J_hat - J), rel=1e-3, abs=0.0)


def test_objective_gap_identity_holds_at_a_truncated_riccati_iterate(small_control_fixture, monkeypatch):
    # the identity needs no converged P: at the 3-stage value iterate D has
    # norm 2.2e-2, and leaving X_hat(D) - X(D) out would move the gap by 30%.
    # Measured: 5.4e-13 from the gap-level oracle and 3.4e-9 from the
    # rollouts' J_hat - J, whose K_hat is formed in another product order
    ds, gamma, exact_model, _, Q_exact, _ = small_control_fixture
    with monkeypatch.context() as patch:
        # the guard also stops the trajectory Gramians' sums, so it is lowered
        # for the synthesis alone
        patch.setattr(lqr, "MAX_ITERATIONS", 3)
        sol = solve_model_dare(exact_model, np.eye(1), np.eye(1))
    assert sol.iterations == 3 and not sol.converged
    rep, J, J_hat = assert_objective_gap_matches_rollout(ds, gamma, exact_model, sol, Q_exact, 20, seed=0)
    assert rep.gap == pytest.approx(float(J_hat - J), rel=1e-6, abs=0.0)


def test_objective_gap_matches_longdouble_rollout_on_rate_study():
    # the rate-study fixture at m = 160, where the gaps (2.4e-11 to 1.9e-9)
    # are below what the difference of two costs of about 35.6 resolves: the
    # rollouts' J_hat - J is up to 9.8e-3 relative off the gap, so the gap is
    # checked against the identity's longdouble stage sums instead, measured
    # within 3.4e-9 relative with one and with two OpenBLAS threads
    from kooplift.experiments import fit_exact, fixture_dataset

    _, ds = fixture_dataset(n=500, seed=7)
    gamma = 1e-6
    exact_model = fit_exact(ds, gamma)
    Q_exact = exact_model.C_r.T @ exact_model.C_r
    exact_sol = solve_model_dare(exact_model, np.eye(1), np.eye(1))
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
        m=20, seed=3, gamma=1e-6, delta=0.05, kappa=1.0,
        empirical_gap=0.125, gap_bound=7.5, proj_in=0.1, proj_out=0.2,
        riccati_gap=2.5, riccati_bound=1e3, riccati_precondition=False,
        objective_gap=math.inf, objective_bound=3e12, objective_precondition=True,
        Gamma=12.25, tau=1.5, tau_truncated=True, zeta=0.999, sigma_min_P=-7.3e-16, norm_G=33.0, basis_rank=90,
    )
    theory.write_bound_reports(tmp_path / "b.csv", [row])
    text = (tmp_path / "b.csv").read_text().splitlines()
    assert text == [
        "m,seed,gamma,delta,kappa,empirical_gap,gap_bound,proj_in,proj_out,riccati_gap,riccati_bound,"
        "riccati_precondition,objective_gap,objective_bound,objective_precondition,Gamma,tau,tau_truncated,"
        "zeta,sigma_min_P,norm_G,basis_rank",
        "20,3,9.9999999999999995e-07,0.050000000000000003,1,0.125,7.5,0.10000000000000001,"
        "0.20000000000000001,2.5,1000,False,inf,3000000000000,True,12.25,1.5,True,0.999,"
        "-7.3000000000000003e-16,33,90",
    ]
    with pytest.raises(ValueError):
        theory.BoundReport(
            m=10, seed=0, gamma=1e-6, delta=0.05, kappa=1.0,
            empirical_gap=-1.0, gap_bound=2.0, proj_in=0.1, proj_out=0.2,
        )


def test_anchor_basis_columns_factor_the_gram_of_its_rows():
    ds = toy_dataset(n=20, seed=14)
    pts = np.vstack([ds.X, ds.Y, ds.X[:5]])  # repeated rows share one column
    basis = theory.AnchorBasis(M52, pts, RankTolerance(1e-13))
    R = basis.columns(pts)
    assert basis.rank == len(R) <= 40
    assert np.allclose(R.T @ R, gram(M52, pts), atol=1e-12)
    assert np.array_equal(basis.columns(ds.X[:5]), R[:, 40:])


def test_anchor_basis_rejects_points_outside_it():
    # a basis never whitens again: a point that is not one of its rows is an error
    ds = toy_dataset(n=20, seed=14)
    basis = theory.AnchorBasis(M52, ds.X, RankTolerance())
    with pytest.raises(ValueError, match=r"point \[5\.0\] is not a row"):
        basis.columns(np.vstack([ds.X[:3], [[5.0]], [[6.0]]]))
    G = theory.build_exact_operator(ds, M52, 1e-2)  # its output anchors are Y
    with pytest.raises(ValueError, match="is not a row"):
        theory.operator_norm(G, basis)
    with pytest.raises(ValueError, match="different kernel"):
        theory.operator_norm(G, theory.AnchorBasis(RBF, np.vstack([ds.X, ds.Y]), RankTolerance()))


def stacked_anchor_norm(ops, tol):
    """The operator norm of a signed sum with each anchor stack whitened from
    its own Gram: R_out from the stacked output anchors, R_in from the stacked
    input anchors (the same factor when every term reads its input at its own
    output anchors), and each term added on its own columns of both."""
    kernel = ops[0][0].kernel
    R_out = psd_sqrt(gram(kernel, np.vstack([op.out_anchors for op, _ in ops])), tol)
    if all(op.in_anchors is op.out_anchors for op, _ in ops):
        R_in = R_out
    else:
        R_in = psd_sqrt(gram(kernel, np.vstack([op.in_anchors for op, _ in ops])), tol)
    r_in = len(R_in)
    C = np.zeros((len(R_out), r_in + ops[0][0].n_u))
    q0 = p0 = 0
    for op, sign in ops:
        W_out = R_out[:, q0 : q0 + op.q]
        if op.out_weight is not None:
            W_out = W_out @ op.out_weight
        W_in = R_in[:, p0 : p0 + op.p].T
        if op.in_weight is not None:
            W_in = op.in_weight @ W_in
        C[:, :r_in] += sign * (W_out @ op.core[:, : op.b] @ W_in)
        C[:, r_in:] += sign * (W_out @ op.core[:, op.b :])
        q0, p0 = q0 + op.q, p0 + op.p
    return float(np.linalg.norm(C, 2))


def riccati_form(model, P):
    """The quadratic form P on the model's lifted coordinates, F E_out P E_out' F^*."""
    out, E = model.lifting.landmarks.outputs, model.out_factor
    return theory.RkhsOperator(model.lifting.kernel, out, P, out, E, E.T)


@pytest.fixture(scope="module")
def rate_sweep_rows():
    """riccati_objective_sweep on the rate fixture at m = 20 and 160, seeds 0-2."""
    from kooplift.experiments import fixture_dataset, riccati_objective_sweep

    _, ds = fixture_dataset(n=500, seed=7)
    return ds, riccati_objective_sweep(ds, m_list=(20, 160), n_seeds=3)


def test_sweep_basis_gaps_match_stacked_anchor_whitening(rate_sweep_rows):
    # every norm of the sweep reads one basis over the fixture's distinct rows
    # (rank 90 of 510 at the 1e-13 cutoff); the reference whitens each row's
    # stacked anchors from their own Gram at the same cutoff.  Measured: within
    # 1.9e-5 (operator gap) and 6.6e-5 (Riccati gap) relative
    from kooplift.experiments import MATERN_UNIT, fit_exact

    ds, rows = rate_sweep_rows
    tol = RankTolerance(1e-13)
    gamma = rows[0].gamma
    G = theory.build_exact_operator(ds, MATERN_UNIT, gamma)
    exact_model = fit_exact(ds, gamma)
    Q_exact = exact_model.C_r.T @ exact_model.C_r
    exact_sol = solve_model_dare(exact_model, np.eye(1), np.eye(1))
    P_exact = riccati_form(exact_model, exact_sol.P_m)
    for row in rows:
        lm = sample_landmarks(ds, row.m, LandmarkStrategy.IndependentUniform, seed=row.seed)
        ny_model = fit(ds, NystromLift(MATERN_UNIT, lm), gamma=gamma, lam=gamma)
        G_ny = theory.build_nystrom_operator(ny_model)
        Q_ny, _ = theory.transport_weights(exact_model, Q_exact, ny_model)
        ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, np.eye(1)))
        P_ny = riccati_form(ny_model, ny_sol.P_m)
        assert row.basis_rank == 90
        assert row.empirical_gap == pytest.approx(stacked_anchor_norm([(G, 1.0), (G_ny, -1.0)], tol), rel=1e-4)
        assert row.riccati_gap == pytest.approx(stacked_anchor_norm([(P_exact, 1.0), (P_ny, -1.0)], tol), rel=1e-4)


def test_riccati_gap_is_the_gap_of_the_riccati_forms(small_control_fixture, rate_sweep_rows):
    # on a shared basis riccati_gap is, bit for bit, the operator gap of the
    # two forms F E_out P E_out' F^*, and exact_model_norms' P and L are the
    # norms of the exact model's form and of its closed loop: G's state block
    # plus the feedback F G_u K E_out' F^*, taken as the gap to the negated
    # feedback (x - (-y) is x + y exactly)
    from kooplift.experiments import MATERN_UNIT, fit_exact

    small_ds, small_gamma, small_exact, small_sol, small_Q, _ = small_control_fixture
    rate_ds, rows = rate_sweep_rows
    rate_exact = fit_exact(rate_ds, rows[0].gamma)
    rate_sol = solve_model_dare(rate_exact, np.eye(1), np.eye(1))
    cases = [
        (small_ds, M52, small_gamma, small_exact, small_sol, small_Q, 10, RankTolerance()),
        (rate_ds, MATERN_UNIT, rows[0].gamma, rate_exact, rate_sol, rate_exact.C_r.T @ rate_exact.C_r, 20,
         RankTolerance(1e-13)),
    ]
    for ds, kernel, gamma, exact_model, exact_sol, Q_exact, m, tol in cases:
        basis = theory.AnchorBasis(kernel, np.vstack([ds.X, ds.Y]), tol)
        lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=0)
        ny_model = fit(ds, NystromLift(kernel, lm), gamma=gamma, lam=gamma)
        Q_ny, _ = theory.transport_weights(exact_model, Q_exact, ny_model)
        ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, np.eye(1)))
        gap = theory.riccati_gap(exact_model, exact_sol, ny_model, ny_sol, basis)
        forms = riccati_form(exact_model, exact_sol.P_m), riccati_form(ny_model, ny_sol.P_m)
        assert gap > 0
        assert gap == theory.operator_gap_norm(*forms, basis)

        G = theory.build_exact_operator(ds, kernel, gamma)
        norms = theory.exact_model_norms(G, exact_model, exact_sol, basis)
        state = theory.RkhsOperator(kernel, G.out_anchors, G.core[:, : G.b], G.in_anchors)
        out = exact_model.lifting.landmarks.outputs
        minus_feedback = theory.RkhsOperator(
            kernel, out, -(G.core[:, G.b :] @ exact_sol.K_m), out, in_weight=exact_model.out_factor.T
        )
        assert norms.P == theory.operator_norm(forms[0], basis)
        assert norms.L == theory.operator_gap_norm(state, minus_feedback, basis)


def test_sweep_projection_errors_match_explicit_coordinates(rate_sweep_rows):
    # oracle: explicit coordinates of the side's points and landmarks from
    # one unclipped Gram eigendecomposition, projected onto the landmark
    # coordinates' left singular vectors with sigma^2 above 1e-10 of the top
    # (the default rank rule on K_m).  Measured: within 4.4e-5 relative here;
    # at m = 80 the 1e-13 basis cutoff leaves up to 1.6e-4
    ds, rows = rate_sweep_rows
    for row in rows:
        lm = sample_landmarks(ds, row.m, LandmarkStrategy.IndependentUniform, seed=row.seed)
        for val, pts, L in ((row.proj_in, ds.X, lm.inputs), (row.proj_out, ds.Y, lm.outputs)):
            Phi = explicit_coordinates(M52, np.vstack([pts, L]))
            PX, PL = Phi[:, : len(pts)], Phi[:, len(pts) :]
            U, sv, _ = np.linalg.svd(PL, full_matrices=False)
            Q = U[:, sv**2 > RankTolerance().rel_cutoff * sv[0] ** 2]
            oracle = float(np.linalg.norm(PX - Q @ (Q.T @ PX), 2)) / math.sqrt(len(pts))
            assert val == pytest.approx(oracle, rel=1e-4)


def test_sweeps_bit_identical_across_worker_counts():
    # the sweep's one basis is shared read-only by seed_map's threads
    from kooplift.experiments import fixture_dataset, gap_sweep, riccati_objective_sweep

    _, ds = fixture_dataset(n=100, seed=7)
    for sweep in (gap_sweep, riccati_objective_sweep):
        serial, threaded = (sweep(ds, m_list=(5, 10), n_seeds=3, gamma=1e-4, workers=w) for w in (1, 2))
        if sweep is gap_sweep:
            (serial, norm_1), (threaded, norm_2) = serial, threaded
            assert repr(norm_1) == repr(norm_2)
        assert len(serial) == 6
        assert [repr(r) for r in serial] == [repr(r) for r in threaded]
