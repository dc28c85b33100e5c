import re

import numpy as np
import pytest

from kooplift.data import Dataset, LandmarkSet, LandmarkStrategy, sample_landmarks
from kooplift.identify import (
    ForecastDivergence,
    NystromLift,
    ThinPlateLift,
    _dedup_rows,
    _state_row_blocks,
    _state_rows,
    embed_state,
    fit,
    fit_factored,
    fit_nested,
    forecast,
    load_model,
    WHITENING_TOL,
    model_from_dict,
    model_to_dict,
    readout_stack,
    save_model,
)
from kooplift.kernels import FACTOR_CUTOFF, KernelFamily, KernelSpec, gram, gram_factor, thin_plate_matrix
from kooplift.numerics import psd_pinv_sqrt, psd_pinv_sqrt_factor, solve_psd

M52 = KernelSpec(KernelFamily.Matern52, 1.0, 1.0)
RBF = KernelSpec(KernelFamily.RBF, 1.0, 1.0)


def scalar_dataset(rhs, n=80, n_u=1, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, size=(n, 1))
    U = rng.uniform(lo, hi, size=(n, n_u))
    Y = rhs(X, U)
    return Dataset(X, U, Y)


@pytest.fixture(scope="module")
def linear_model():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=100, seed=1)
    lm = sample_landmarks(ds, 40, LandmarkStrategy.SharedUniform, seed=0)
    return ds, fit(ds, NystromLift(M52, lm), gamma=1e-8)


def test_shape_contract(linear_model):
    ds, model = linear_model
    assert model.A_r.shape == (model.r, model.r)
    assert model.B_r.shape == (model.r, ds.n_u)
    assert model.C_r.shape == (ds.d, model.r)
    assert model.out_factor.shape == (model.m, model.r)
    assert model.r <= model.m == 40
    assert model.embed_states(ds.X[:3]).shape == (model.r, 3)


def test_zero_controls_give_exactly_zero_B():
    ds = scalar_dataset(lambda x, u: 0.5 * x, n=50, seed=2)
    ds = Dataset(ds.X, np.zeros((50, 1)), ds.Y)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 20, seed=3)), gamma=1e-6)
    assert np.all(model.B_r == 0.0)


def test_identity_dynamics_interpolates_training_outputs():
    # well-separated points keep the blocked normal equations solvable at the
    # vanishing-regularization limit
    X = np.linspace(-1.0, 1.0, 12)[:, None]
    ds = Dataset(X, np.zeros((12, 1)), X.copy())
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-12)
    Z = model.embed_states(ds.X)
    pred = (model.C_r @ (model.A_r @ Z)).T
    assert np.max(np.abs(pred - ds.Y)) <= 1e-6


def test_embed_single_landmark_unit_variance():
    ds = Dataset([[0.3]], [[0.0]], [[0.3]])
    lm = LandmarkSet([[0.3]], [[0.3]], seed=0)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-4)
    z = embed_state(model, [0.3])
    assert z.shape == (1,)
    assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_embed_far_from_landmarks_decays():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=30, seed=5)
    lm = LandmarkSet([[0.0], [0.5]], [[0.0], [0.5]], seed=0)
    model = fit(ds, NystromLift(RBF, lm), gamma=1e-4)
    z = embed_state(model, [50.0])
    assert np.linalg.norm(z) <= 1e-6


def test_embed_norm_bounded_and_matches_projection_norm(linear_model):
    _, model = linear_model
    spec = model.lifting.kernel
    lm_out = model.lifting.landmarks.outputs
    Kp = np.linalg.pinv(gram(spec, lm_out), rcond=1e-10, hermitian=True)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=1)
        z = embed_state(model, x)
        # round-off here is amplified by the pinv-sqrt of a clustered Gram
        assert np.linalg.norm(z) <= spec.kappa + 1e-6
        k = gram(spec, lm_out, x[None, :])[:, 0]
        proj_norm_sq = float(k @ Kp @ k)
        assert np.dot(z, z) == pytest.approx(proj_norm_sq, rel=1e-6, abs=1e-9)


def test_forecast_empty():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=20, seed=8)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 10, seed=0)), gamma=1e-6)
    out = forecast(model, [0.2], np.zeros((0, 1)))
    assert out.shape == (0, 1)


def test_forecast_linear_decay():
    # oracle: the exact linear recursion x_t = 0.5^t x_0
    rng = np.random.default_rng(9)
    X = rng.uniform(-1, 1, size=(200, 1))
    ds = Dataset(X, np.zeros((200, 1)), 0.5 * X)
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-9)
    fc = forecast(model, [0.45], np.zeros((10, 1)))
    truth = 0.45 * 0.5 ** np.arange(1, 11)
    assert np.max(np.abs(fc[:, 0] - truth)) <= 1e-3


def test_forecast_identity_fixed_point():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(60, 1))
    ds = Dataset(X, np.zeros((60, 1)), X.copy())
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-10)
    fc = forecast(model, [0.3], np.zeros((20, 1)))
    assert np.max(np.abs(fc[:, 0] - 0.3)) <= 1e-4


def test_forecast_divergence_reports_step():
    model = fit(
        scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=20, seed=11),
        NystromLift(M52, sample_landmarks(scalar_dataset(lambda x, u: 0.5 * x, n=20, seed=11), 5, seed=0)),
        gamma=1e-6,
    )
    model.A_r[:] = 10.0 * np.eye(model.r)  # force blow-up
    with pytest.raises(ForecastDivergence) as err:
        forecast(model, [0.5], np.zeros((500, 1)))
    assert err.value.step >= 1


def test_training_risk_monotone_in_gamma():
    ds = scalar_dataset(lambda x, u: np.tanh(2 * x) + 0.3 * u, n=60, seed=12)
    lm = sample_landmarks(ds, 25, LandmarkStrategy.SharedUniform, seed=1)

    def lifted_risk(model):
        # mean squared lifted residual ||psi(y) - F_out E z_hat||^2 through
        # Gram identities, with z_hat = A z(x) + B u
        Z_hat = model.A_r @ model.embed_states(ds.X) + model.B_r @ ds.U.T
        E = model.out_factor
        cross = np.sum((E.T @ gram(M52, lm.outputs, ds.Y)) * Z_hat, axis=0)
        quad = np.sum(Z_hat * (E.T @ gram(M52, lm.outputs) @ E @ Z_hat), axis=0)
        return float(np.mean(M52.variance - 2.0 * cross + quad))

    risks = [lifted_risk(fit(ds, NystromLift(M52, lm), gamma=g)) for g in (1e-8, 1e-3, 1e1)]
    assert risks[0] <= risks[1] + 1e-12 <= risks[2] + 1e-12


def test_reconstruction_matrix_is_ridge_minimizer():
    ds = scalar_dataset(lambda x, u: np.tanh(2 * x) + 0.3 * u, n=40, seed=13)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 15, seed=2)), gamma=1e-4)
    Z = model.embed_states(ds.Y)

    def objective(C):
        # the ridge objective C minimizes: reconstruct y from z(y)
        resid = ds.Y - (C @ Z).T
        return float(np.mean(np.sum(resid**2, axis=1)) + model.lam * np.sum(C**2))

    base = objective(model.C_r)
    rng = np.random.default_rng(14)
    for _ in range(10):
        C = model.C_r.copy()
        i, j = rng.integers(0, C.shape[0]), rng.integers(0, C.shape[1])
        C[i, j] += rng.choice([-1e-4, 1e-4])
        assert objective(C) >= base - 1e-12


def _mp_oracle_fit(ds, lift_features, gamma, lam, dps=40):
    """[A_m | B_m] and C from the regularized least-squares formulas in mpmath.

    ``lift_features`` maps the dataset to the feature block Phi (n, r_in), the
    lifted outputs Z (m_out, n) and the transport T (r_in, m_out), all as
    mpmath matrices.  With F = [Phi | U]:
        [A | B] = Z F (F'F + gamma n I)^(-1) diag(T, I),
        C' = (Z Z' + lam n I)^(-1) Z Y.
    """
    import mpmath

    with mpmath.workdps(dps):
        Phi, Z, T = lift_features()
        n, n_u = ds.n, ds.n_u
        r_in, m_out = Phi.cols, Z.rows
        k = r_in + n_u
        F = mpmath.matrix(n, k)
        rhs = mpmath.zeros(k, m_out + n_u)
        for i in range(n):
            for j in range(r_in):
                F[i, j] = Phi[i, j]
            for j in range(n_u):
                F[i, r_in + j] = mpmath.mpf(float(ds.U[i, j]))
        for i in range(r_in):
            for j in range(m_out):
                rhs[i, j] = T[i, j]
        for j in range(n_u):
            rhs[r_in + j, m_out + j] = 1
        gn = mpmath.mpf(gamma) * n
        AB = Z * F * mpmath.inverse(F.T * F + gn * mpmath.eye(k)) * rhs
        Y = mpmath.matrix(ds.Y.tolist())
        Ct = mpmath.inverse(Z * Z.T + mpmath.mpf(lam) * n * mpmath.eye(m_out)) * Z * Y
        to_np = lambda M: np.array(M.tolist(), dtype=float)
        AB = to_np(AB)
        return AB[:, :m_out], AB[:, m_out:], to_np(Ct).T


def _mp_matern52(P, Q):
    import mpmath

    K = mpmath.matrix(len(P), len(Q))
    for i, p in enumerate(P):
        for j, q in enumerate(Q):
            s = mpmath.sqrt(5) * mpmath.sqrt(sum((mpmath.mpf(float(a)) - mpmath.mpf(float(b))) ** 2 for a, b in zip(p, q)))
            K[i, j] = (1 + s + s * s / 3) * mpmath.exp(-s)
    return K


def _mp_thin_plate(P, Q):
    import mpmath

    K = mpmath.matrix(len(P), len(Q))
    for i, p in enumerate(P):
        for j, q in enumerate(Q):
            r2 = sum((mpmath.mpf(float(a)) - mpmath.mpf(float(b))) ** 2 for a, b in zip(p, q))
            K[i, j] = r2 * mpmath.log(r2) / 2 if r2 > 0 else mpmath.mpf(0)
    return K


def _oracle_dataset():
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    U = rng.uniform(-1.0, 1.0, size=(60, 1))
    Y = np.column_stack([X[:, 0] + 0.1 * X[:, 1], 0.9 * X[:, 1] - 0.2 * np.sin(X[:, 0]) + 0.1 * U[:, 0]])
    return Dataset(X, U, Y)


def _assert_close(got, want, rtol=1e-9):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), np.linalg.norm(got - want) / np.linalg.norm(want)


def _oracle_trajectories():
    """80 regression pairs of 4 forced oscillator trajectories of 0.2 s: 2-D
    states, and pairs that share states within a trajectory, so the fit reads
    its output features both from the shifted block and from the states that
    end a trajectory."""
    from kooplift.data import build_pairs
    from kooplift.simulate import CollectionProtocol, UniformBall, UniformIID, collect_training_data, duffing_system

    protocol = CollectionProtocol(
        n_traj=4, duration=0.2, input_law=UniformIID(-1.0, 1.0), init_law=UniformBall(1.0), seed=8
    )
    return build_pairs(collect_training_data(duffing_system(dt=0.01), protocol))


def dense_form(model):
    """The model in the coordinates W k_out(x) of the symmetric m x m embedding
    weight W = E_out V_out' (V_out the unit columns of E_out, the kept
    eigenvectors of K_out): (A_m, B_m, C, W) with A_m = V_out A_r V_out',
    B_m = V_out B_r and C = C_r V_out'.  The extended-precision oracle states
    its regression in these coordinates."""
    V = model.out_factor / np.linalg.norm(model.out_factor, axis=0)
    return V @ model.A_r @ V.T, V @ model.B_r, model.C_r @ V.T, model.out_factor @ V.T


def _mp_fitted_nystrom_features(model, ds):
    """The features of a fitted kernel model in mpmath, read through its own
    rank decisions: the clipped input factor E_in and embedding weight W."""
    import mpmath

    def features():
        E_in, W = mpmath.matrix(model._in_factor.tolist()), mpmath.matrix(dense_form(model)[3].tolist())
        lm_in, lm_out = model.lifting.landmarks.inputs, model.lifting.landmarks.outputs
        return _mp_matern52(ds.X, lm_in) * E_in, W * _mp_matern52(lm_out, ds.Y), E_in.T * _mp_matern52(lm_in, lm_out) * W

    return features


def _mp_thin_plate_features(ds, centers):
    import mpmath

    return lambda: (_mp_thin_plate(ds.X, centers), _mp_thin_plate(ds.Y, centers).T, mpmath.eye(len(centers)))


@pytest.mark.parametrize(
    "lift", ["nystrom", "thinplate", "nystrom-rate-fixture", "thinplate-nested", "nystrom-nested-independent"]
)
def test_fit_matches_extended_precision_oracle(lift):
    # well-conditioned cases: 60 pairs, four well-separated landmarks (input
    # and output sets differ, so the transport is a true cross-Gram) or
    # centers, and lam != gamma, so a swapped regularizer shows.  The
    # ill-conditioned case is the rate study's m = 20 fit, whose landmark Grams
    # clip 3 of 20 (input) and 5 of 20 (output) directions at the rank cutoff.
    # The nested cases check fits that ``fit_nested`` reads from shared
    # products, each against a 40-digit solve of its own normal equations
    import mpmath

    gamma, lam, rtol = 1e-3, 3e-2, 1e-9
    if lift == "nystrom":
        ds = _oracle_dataset()
        lm_in = np.array([[-0.6, -0.6], [-0.6, 0.6], [0.6, -0.6], [0.6, 0.6]])
        lm_out = np.array([[0.0, -0.7], [0.0, 0.7], [-0.7, 0.0], [0.7, 0.0]])
        model = fit(ds, NystromLift(M52, LandmarkSet(lm_in, lm_out, seed=0)), gamma=gamma, lam=lam)

        def features():
            def inv_sqrt_factor(K):  # (V Lambda^(-1/2), V)
                w, V = mpmath.eigsy(K)
                return V * mpmath.diag([1 / mpmath.sqrt(x) for x in w]), V

            E_in, _ = inv_sqrt_factor(_mp_matern52(lm_in, lm_in))
            E_out, V_out = inv_sqrt_factor(_mp_matern52(lm_out, lm_out))
            W = E_out * V_out.T
            return _mp_matern52(ds.X, lm_in) * E_in, W * _mp_matern52(lm_out, ds.Y), E_in.T * _mp_matern52(lm_in, lm_out) * W

        fits = [(model, features)]
    elif lift == "thinplate":
        ds = _oracle_dataset()
        centers = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.0]])
        fits = [(fit(ds, ThinPlateLift(centers), gamma=gamma, lam=lam), _mp_thin_plate_features(ds, centers))]
    elif lift == "nystrom-rate-fixture":
        # the rank decisions are the fit's own: the oracle reads its clipped
        # input factor E_in and embedding weight W, and solves the regression
        # they define; measured within 1.1e-9 (A), 1.5e-11 (B) and 4.0e-11 (C)
        # relative, with one and with two OpenBLAS threads
        from kooplift.experiments import fixture_dataset

        _, ds = fixture_dataset(500, 7)
        gamma = lam = 1e-6
        lm = sample_landmarks(ds, 20, LandmarkStrategy.IndependentUniform, seed=0)
        model = fit(ds, NystromLift(M52, lm), gamma=gamma, lam=lam)
        rtol = 1e-7
        fits = [(model, _mp_fitted_nystrom_features(model, ds))]
    elif lift == "thinplate-nested":
        # three m read from the products of the largest: each smaller fit is a
        # leading sub-block of them
        ds = _oracle_trajectories()
        pool = np.random.default_rng(9).uniform(-1.0, 1.0, size=(8, 2))
        lifts = [ThinPlateLift(pool[:m]) for m in (3, 5, 8)]
        models = fit_nested(ds, lifts, gamma=gamma, lam=lam)
        fits = [(model, _mp_thin_plate_features(ds, lifting.centers)) for model, lifting in zip(models, lifts)]
    else:
        # input and output landmarks differ, so Psi_y = K(Y, lm_out) E_out is
        # its own feature product, with E_out taken from W; the output Gram
        # clips 1 of 10 directions at m = 10, and 1 of 20 (input) and 2 of 20
        # (output) at m = 20, and the oracle reads the fit's rank decisions as
        # in the rate-fixture case; measured within 9.2e-11 relative
        ds = _oracle_trajectories()
        lifts = [NystromLift(M52, sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=3)) for m in (5, 10, 20)]
        models = fit_nested(ds, lifts, gamma=gamma, lam=lam)
        fits = [(model, _mp_fitted_nystrom_features(model, ds)) for model in models]

    for model, features in fits:
        A, B, C = _mp_oracle_fit(ds, features, gamma, lam)
        A_m, B_m, C_m, _ = dense_form(model)
        _assert_close(A_m, A, rtol)
        _assert_close(B_m, B, rtol)
        _assert_close(C_m, C, rtol)


def test_thinplate_fit_and_forecast():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=100, seed=15)
    centers = np.linspace(-1.2, 1.2, 15)[:, None]
    model = fit(ds, ThinPlateLift(centers), gamma=1e-8)
    assert model.A_r.shape == (15, 15)
    np.testing.assert_array_equal(model.out_factor, np.eye(15))
    fc = forecast(model, [0.4], np.zeros((5, 1)))
    truth = 0.4 * 0.5 ** np.arange(1, 6)
    assert np.max(np.abs(fc[:, 0] - truth)) <= 1e-2


def test_duplicate_landmarks_are_dropped():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=30, seed=16)
    lm = LandmarkSet([[0.1], [0.1], [0.5]], [[0.2], [0.2], [0.6]], seed=0)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-6)
    assert model.m == 2
    assert model.diagnostics["m_in"] == 2


def test_serialization_round_trip_lossless(tmp_path, linear_model):
    _, model = linear_model
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    np.testing.assert_array_equal(back.A_r, model.A_r)
    np.testing.assert_array_equal(back.B_r, model.B_r)
    np.testing.assert_array_equal(back.C_r, model.C_r)
    np.testing.assert_array_equal(back.out_factor, model.out_factor)
    assert back.gamma == model.gamma and back.lam == model.lam
    x = np.array([0.37])
    np.testing.assert_array_equal(embed_state(back, x), embed_state(model, x))
    # dict round trip is stable, and the document carries its layout version
    assert model_to_dict(model_from_dict(model_to_dict(model))) == model_to_dict(model)
    assert model_to_dict(model)["schema_version"] == 2


def _edit(path, change):
    """A corruption of a model document: replace doc[path] by change(doc[path])."""

    def corrupt(doc):
        *outer, key = path
        for k in outer:
            doc = doc[k]
        doc[key] = change(doc[key])

    return corrupt


def _schema_1(doc):
    """The document as schema 1 stored it: m x m matrices under their old names."""
    E = np.array(doc.pop("out_factor"))
    V = E / np.linalg.norm(E, axis=0)
    forms = {"A_r": ("A_m", lambda A: V @ A @ V.T), "B_r": ("B_m", lambda B: V @ B), "C_r": ("C", lambda C: C @ V.T)}
    for new, (old, form) in forms.items():
        doc[old] = form(np.array(doc.pop(new))).tolist()
    doc["gram_out_pinv_sqrt"] = (E @ V.T).tolist()
    doc["schema_version"] = 1


@pytest.mark.parametrize(
    "corrupt, match",
    [
        pytest.param(_edit(["A_r"], lambda A: [row[:-1] for row in A]), "A_r has shape", id="A_r-not-square"),
        pytest.param(
            _edit(["A_r"], lambda A: [row[:-1] for row in A[:-1]]), "A_r has shape", id="A_r-square-but-not-r"
        ),
        pytest.param(_edit(["B_r"], lambda B: B[:-1]), "B_r has shape", id="B_r-rows"),
        pytest.param(_edit(["C_r"], lambda C: [row[:-1] for row in C]), "C_r has shape", id="C-columns"),
        pytest.param(_edit(["out_factor"], lambda W: W[:-1]), "landmarks_out has shape", id="W-shape"),
        pytest.param(
            _edit(["lifting", "landmarks_out"], lambda L: L[:-1]), "landmarks_out has shape", id="landmark-count"
        ),
        pytest.param(
            _edit(["lifting", "landmarks_in"], lambda L: [row + [0.0] for row in L]),
            "landmarks_in has shape",
            id="landmark-dimension",
        ),
        pytest.param(
            _edit(["A_r"], lambda A: [[float("nan")] + row[1:] for row in A]), "A_r has non-finite", id="nan-A_r"
        ),
        pytest.param(
            _edit(["lifting", "landmarks_out"], lambda L: [[float("inf")]] + L[1:]),
            "landmarks_out has non-finite",
            id="inf-landmark",
        ),
        pytest.param(_edit(["gamma"], lambda g: float("inf")), "gamma and lambda", id="gamma-not-finite"),
        pytest.param(
            _edit(["out_factor"], lambda E: (1 + 1e-3) * np.array(E)),
            "does not whiten",
            id="W-disagrees-with-landmarks",
        ),
        pytest.param(
            _edit(["lifting", "landmarks_out"], lambda L: [[1.01 * row[0]] for row in L]),
            "does not whiten",
            id="out_factor-of-other-landmarks",
        ),
        pytest.param(_schema_1, "schema_version is 1", id="schema-version-1"),
        pytest.param(_edit(["schema_version"], lambda v: 3), "schema_version is 3", id="schema-version-3"),
        pytest.param(lambda doc: doc.pop("schema_version"), "schema_version is None", id="schema-version-missing"),
    ],
)
def test_model_from_dict_rejects(linear_model, corrupt, match):
    _, model = linear_model
    doc = model_to_dict(model)
    corrupt(doc)
    with pytest.raises(ValueError, match=match):
        model_from_dict(doc)


def _drop(path):
    """A corruption of a model document: delete doc[path]."""

    def corrupt(doc):
        *outer, key = path
        for k in outer:
            doc = doc[k]
        del doc[key]

    return corrupt


@pytest.mark.parametrize(
    "corrupt, match",
    [
        *(
            pytest.param(_drop(path), f"model has no '{'.'.join(path)}'", id="no-" + ".".join(path))
            for path in (
                ["gamma"],
                ["lambda"],
                ["A_r"],
                ["B_r"],
                ["C_r"],
                ["out_factor"],
                ["lifting"],
                ["lifting", "variant"],
                ["lifting", "kernel"],
                ["lifting", "kernel", "family"],
                ["lifting", "kernel", "lengthscale"],
                ["lifting", "kernel", "variance"],
                ["lifting", "landmarks_in"],
                ["lifting", "landmarks_out"],
            )
        ),
        pytest.param(_edit(["gamma"], lambda g: "1e-8"), "gamma must be a number", id="string-gamma"),
        pytest.param(
            _edit(["lifting", "kernel", "lengthscale"], lambda v: "1.0"),
            "lifting.kernel.lengthscale must be a number",
            id="string-lengthscale",
        ),
        pytest.param(
            _edit(["lifting", "landmark_seed"], lambda v: "0"),
            "lifting.landmark_seed must be an integer",
            id="string-landmark-seed",
        ),
    ],
)
def test_model_from_dict_names_missing_and_mistyped_keys(linear_model, corrupt, match):
    # a loader error names the key, so the CLI prints more than "error: 'gamma'"
    _, model = linear_model
    doc = model_to_dict(model)
    corrupt(doc)
    with pytest.raises(ValueError, match=re.escape(match)):
        model_from_dict(doc)


def test_model_from_dict_refuses_a_document_that_is_not_an_object():
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        model_from_dict([])


def test_model_from_dict_rejects_thinplate_center_count():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=40, seed=15)
    doc = model_to_dict(fit(ds, ThinPlateLift(np.linspace(-1.0, 1.0, 6)[:, None]), gamma=1e-6))
    model_from_dict(doc)
    # a thin identity E_out = I_{m,r}, r < m, with A_r, B_r and C_r cut to match
    thin = dict(doc, out_factor=np.eye(6, 3).tolist(), A_r=np.array(doc["A_r"])[:3, :3].tolist(),
                B_r=np.array(doc["B_r"])[:3].tolist(), C_r=np.array(doc["C_r"])[:, :3].tolist())
    with pytest.raises(ValueError, match=r"out_factor has shape \(6, 3\), expected \(6, 6\)"):
        model_from_dict(thin)
    doc["lifting"]["centers"] = doc["lifting"]["centers"][:-1]
    with pytest.raises(ValueError, match="centers has shape"):
        model_from_dict(doc)


def test_model_from_dict_accepts_round_off_in_stored_weight(linear_model):
    # the loader checks E'KE = I to WHITENING_TOL instead of decomposing K
    # again: round-off in the stored factor passes, a factor off by more fails
    _, model = linear_model
    doc = model_to_dict(model)
    E = model.out_factor
    doc["out_factor"] = ((1 + 1e-12) * E).tolist()
    back = model_from_dict(doc)
    np.testing.assert_array_equal(back.out_factor, (1 + 1e-12) * E)
    defect = E.T @ gram(M52, model.lifting.landmarks.outputs) @ E - np.eye(model.r)
    assert np.max(np.abs(defect)) <= WHITENING_TOL
    # a relative change of s in E moves E'KE - I by about 2s
    doc["out_factor"] = ((1 + WHITENING_TOL) * E).tolist()
    with pytest.raises(ValueError, match="does not whiten"):
        model_from_dict(doc)


def test_fit_rejects_bad_regularization(linear_model):
    ds, model = linear_model
    with pytest.raises(ValueError):
        fit(ds, model.lifting, gamma=0.0)
    with pytest.raises(ValueError):
        fit(ds, model.lifting, gamma=1e-6, lam=-1.0)


def test_readout_stack_matches_gram_bit_for_bit(linear_model):
    ds, model = linear_model
    models = [model] + [
        fit(ds, NystromLift(M52, sample_landmarks(ds, 40, LandmarkStrategy.SharedUniform, seed=s)), gamma=1e-8)
        for s in (1, 2)
    ]
    Ms = [np.random.default_rng(17 + s).normal(size=(2, mod.r)) for s, mod in enumerate(models)]
    readout = readout_stack(models, Ms)
    X = np.array([[0.3], [-0.85], models[2].lifting.landmarks.outputs[4]])
    U = readout(X)
    for s, mod in enumerate(models):
        lm = mod.lifting.landmarks.outputs
        k = gram(mod.lifting.kernel, lm, X[s : s + 1])[:, 0]
        np.testing.assert_array_equal(U[s], (Ms[s] @ mod.out_factor.T) @ k)
    np.testing.assert_array_equal(readout.take(np.array([2]))(X[2:]), U[2:])
    with pytest.raises(ValueError):
        readout(np.array([[0.3], [np.nan], [0.0]]))
    thin = fit(ds, ThinPlateLift(np.linspace(-1.0, 1.0, 40)[:, None]), gamma=1e-8)
    with pytest.raises(ValueError, match="share"):
        readout_stack([model, thin], Ms[:2])


def test_thinplate_readout_stack_matches_features_bit_for_bit():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=100, seed=15)
    center_sets = [np.linspace(-1.2, 1.2, 15)[:, None], np.linspace(-1.0, 1.4, 15)[:, None]]
    models = [fit(ds, ThinPlateLift(centers), gamma=1e-8) for centers in center_sets]
    Ms = np.random.default_rng(18).normal(size=(2, 1, 15))
    readout = readout_stack(models, Ms)
    for X in ([[0.3], [-0.85]], [center_sets[0][2], center_sets[1][7]]):
        U = readout(X)
        for s, centers in enumerate(center_sets):
            np.testing.assert_array_equal(U[s], Ms[s] @ thin_plate_matrix(np.atleast_2d(X[s]), centers)[0])
    with pytest.raises(ValueError):
        readout([[np.inf], [0.0]])


# ---------------------------------------------------------------------------
# One product set per fit: oracles of the cross-product fit
# ---------------------------------------------------------------------------

# relative tolerances of the cross-product fit against the two-pass formula and
# of nested fits against separate ones: the n-long sums are taken in another
# order (see the ``identify`` module docstring).  Kernel lifts solve whitened
# equations, measured within 6.8e-11.  Thin-plate features are not whitened:
# the planar thin-plate fit's equations have condition number 1.0e7, and both
# orders sit 0.6e-9 to 1.4e-9 from a 40-digit solve of them, so they differ by
# up to 1.5e-9 (A of that fit)
FIT_RTOL = {NystromLift: 1e-9, ThinPlateLift: 5e-9}


def _ridge(F, T, reg):
    """(F'F + reg)^-1 F'T from F and T themselves."""
    M = F.T @ F
    M += reg
    return solve_psd(M, F.T @ T)[0]


def two_pass_fit(ds, lifting, gamma, lam=None):
    """The fit as two feature passes, one over X and one over Y, with F stacked
    by ``hstack`` and the lifted outputs Z' = (W K(landmarks_out, Y))' built
    whole: the regression the cross products read their sums from, spelled out
    as the fit's oracle.  Returns (A_m, B_m, C, W, S)."""
    lam = gamma if lam is None else lam
    n = ds.n
    if isinstance(lifting, NystromLift):
        spec = lifting.kernel
        lm_in, lm_out = _dedup_rows(lifting.landmarks.inputs), _dedup_rows(lifting.landmarks.outputs)
        W = psd_pinv_sqrt(gram(spec, lm_out))
        E_in, _ = psd_pinv_sqrt_factor(gram(spec, lm_in))
        Phi = gram(spec, ds.X, lm_in) @ E_in
        Zt = (W @ gram(spec, lm_out, ds.Y)).T
        transport = (E_in.T @ gram(spec, lm_in, lm_out)) @ W
    else:
        centers = _dedup_rows(lifting.centers)
        Phi, Zt = thin_plate_matrix(ds.X, centers), thin_plate_matrix(ds.Y, centers)
        W, transport = np.eye(len(centers)), None
    r_in = Phi.shape[1]
    F = np.hstack([Phi, ds.U])
    sol = _ridge(F, Zt, gamma * n * np.eye(F.shape[1]))
    A_m = sol[:r_in].T if transport is None else sol[:r_in].T @ transport
    Ct = _ridge(Zt, ds.Y, lam * n * np.eye(Zt.shape[1]))
    return A_m, sol[r_in:].T, Ct.T, W, sol


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_models_close(got, want):
    """Coefficients within the lift's ``FIT_RTOL``; the embedding factor, which
    no n-long sum enters, and the diagnostics equal."""
    for name in ("A_r", "B_r", "C_r", "_coef"):
        _assert_close(getattr(got, name), getattr(want, name), FIT_RTOL[type(got.lifting)])
    assert_same_bits(got.out_factor, want.out_factor)
    assert got.diagnostics == want.diagnostics


@pytest.fixture(scope="module")
def planar_pairs():
    """Regression pairs of 6 forced oscillator trajectories: 2-D states, so the
    kernels' inner products sum two terms, and pairs shared within a trajectory."""
    from kooplift.data import build_pairs
    from kooplift.simulate import CollectionProtocol, UniformBall, UniformIID, collect_training_data, duffing_system

    protocol = CollectionProtocol(
        n_traj=6, duration=1.0, input_law=UniformIID(-1.0, 1.0), init_law=UniformBall(1.0), seed=4
    )
    trajs = collect_training_data(duffing_system(dt=0.01), protocol)
    return build_pairs(trajs), len(trajs)


@pytest.fixture(scope="module")
def rate_fixture():
    from kooplift.experiments import fixture_dataset

    return fixture_dataset(500, 7)[1]


def _shuffled(ds):
    """300 pairs of ``ds`` in an order that leaves no two consecutive pairs adjacent."""
    return ds.subset(np.random.default_rng(1).permutation(ds.n)[:300])


def _fit_cases(rate_fixture, planar_pairs):
    from kooplift.experiments import cubic_training_data

    _, cubic = cubic_training_data(seed=0)
    planar, _ = planar_pairs
    yield "cubic-m100", cubic, NystromLift(M52, sample_landmarks(cubic, 100, LandmarkStrategy.SharedUniform, seed=0))
    for strategy in LandmarkStrategy:
        for m in (10, 20, 160):
            lm = sample_landmarks(rate_fixture, m, strategy, seed=1)
            yield f"rate-{strategy.value}-m{m}", rate_fixture, NystromLift(M52, lm)
    yield "rate-thinplate", rate_fixture, ThinPlateLift(np.linspace(-1.0, 1.0, 30)[:, None])
    yield "planar-nystrom", planar, NystromLift(M52, sample_landmarks(planar, 40, LandmarkStrategy.SharedUniform, seed=2))
    yield "planar-thinplate", planar, ThinPlateLift(np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 2)))
    shuffled = _shuffled(rate_fixture)
    lm = sample_landmarks(shuffled, 40, LandmarkStrategy.IndependentUniform, seed=2)
    yield "shuffled-subset", shuffled, NystromLift(M52, lm)
    yield "shuffled-thinplate", shuffled, ThinPlateLift(rate_fixture.X[:30])


# relative tolerances of the range form against the dense m x m formulas of
# ``two_pass_fit``, compared basis-free (see the test below).  Kernel lifts:
# measured within 5.4e-8 (A of the shared-landmark rate fits, whose output
# Grams reach condition number 8.8e9: the dense transport E_in' K W equals V_r'
# only to about eps times that, where the range form takes I_r), 3.2e-8 (B),
# 9.0e-9 (C) and 5.3e-9 (S).  Thin-plate lifts take the same fit as before
# (E_out = I), within FIT_RTOL
RANGE_RTOL = {NystromLift: 2e-7, ThinPlateLift: FIT_RTOL[ThinPlateLift]}


def test_fit_matches_two_pass_formula(rate_fixture, planar_pairs):
    # the range form against the dense formulas in the coordinates of the
    # symmetric weight W = (K_out^+)^(1/2), read basis-free:
    # E A_r E' = W A_m W, E B_r = W B_m, C_r E' = C W and S_r E' = S W with
    # E = out_factor hold in exact arithmetic whatever the signs of the kept
    # eigenvectors, and E E' = W W is the fit's rank decision
    cases = list(_fit_cases(rate_fixture, planar_pairs))
    assert len(cases) == 15
    for name, ds, lifting in cases:
        model = fit(ds, lifting, gamma=1e-6)
        A_m, B_m, C, W, S = two_pass_fit(ds, lifting, 1e-6)
        E = model.out_factor
        pairs = (
            (E @ model.A_r @ E.T, W @ A_m @ W),
            (E @ model.B_r, W @ B_m),
            (model.C_r @ E.T, C @ W),
            (model._coef @ E.T, S @ W),
            (E @ E.T, W @ W),
        )
        for got, want in pairs:
            assert got.shape == want.shape, name
            _assert_close(got, want, RANGE_RTOL[type(lifting)])


def test_shared_landmark_fit_builds_one_gram_and_one_pass(monkeypatch, planar_pairs):
    # shared landmarks: one landmark Gram per lift (decomposed once for
    # E_in = E_out; the transport is I_r, so no cross Gram of the landmarks is
    # built) and each distinct state's row against the landmarks, a block at a
    # time, a state read twice only where two blocks meet.  Independent
    # landmarks add each lift's input Gram and cross Gram, and each state's row
    # against the input landmarks.  A nested sweep reads the rows once for all
    # its lifts, against the largest point sets
    from collections import Counter

    import kooplift.identify as identify

    ds, _ = planar_pairs
    states = Counter(row.tobytes() for row in _state_rows(ds.X, ds.Y)[0])
    calls = []

    def counting_gram(spec, A, B=None):
        calls.append((np.asarray(A), None if B is None else np.asarray(B)))
        return gram(spec, A, B)

    monkeypatch.setattr(identify, "gram", counting_gram)
    monkeypatch.setattr(identify, "_BLOCK_PAIRS", 79)  # blocks of 79 of the 600 pairs
    for strategy, grams_per_lift in ((LandmarkStrategy.SharedUniform, 1), (LandmarkStrategy.IndependentUniform, 3)):
        lifts = [NystromLift(M52, sample_landmarks(ds, m, strategy, seed=0)) for m in (10, 30)]
        for sweep in (lifts[1:], lifts):
            calls.clear()
            fit_nested(ds, sweep, gamma=1e-6)
            landmarks = {P.tobytes() for lift in sweep for P in (lift.landmarks.inputs, lift.landmarks.outputs)}
            reads = [(A, B) for A, B in calls if A.tobytes() not in landmarks]
            assert len(calls) - len(reads) == grams_per_lift * len(sweep)
            largest = {P.tobytes() for P in (sweep[-1].landmarks.inputs, sweep[-1].landmarks.outputs)}
            assert {B.tobytes() for _, B in reads} == largest
            assert len(reads) > 2 * len(largest)  # the ends and several blocks per point set
            for P in largest:
                blocks = [A for A, B in reads if B.tobytes() == P]
                counts = Counter(row.tobytes() for A in blocks for row in A)
                edges = Counter(A[i].tobytes() for A in blocks for i in (0, -1))
                assert counts.keys() == states.keys()
                assert all(states[s] <= counts[s] <= states[s] + edges[s] for s in counts)


@pytest.mark.parametrize("data", ["cubic", "duffing"])
def test_row_blocks_hold_the_whole_matrix_rows_bit_for_bit(data):
    # the fits sum their products from the rows of the data's distinct states,
    # read a block at a time, each block's last state the next one's first:
    # every block, at starts aligned to nothing and down to a last block of
    # one pair (whose one new row is read as a block of two), holds the rows of
    # the whole kernel or thin-plate matrix bit for bit.  At d = 2 this rests
    # on the product shapes the ``kernels`` module docstring lists
    from kooplift.experiments import cubic_training_data, duffing_training_data

    ds = (cubic_training_data if data == "cubic" else duffing_training_data)(seed=0)[1]
    m = 100 if data == "cubic" else 80
    D, _ = _state_rows(ds.X, ds.Y)
    n = ds.n
    lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=0)
    centers = np.random.default_rng(1).uniform(-1.0, 1.0, size=(m, ds.d))
    for pairwise, point_sets in (
        (lambda A, P: gram(M52, A, P), (lm.inputs, lm.outputs)),
        (thin_plate_matrix, (centers,)),
    ):
        whole = [pairwise(D, P) for P in point_sets]
        for step in (997, (n - 1) // 3):  # n = 1 mod 3: the second leaves a last block of one pair
            rows = _state_row_blocks(pairwise, D, point_sets)
            for a, b in [(n, len(D))] + [(i0, min(i0 + step, n) + 1) for i0 in range(0, n, step)]:
                for got, want in zip(rows(a, b), whole):
                    assert_same_bits(got, want[a:b])


def test_state_rows_split_shared_states(planar_pairs, rate_fixture):
    ds, n_traj = planar_pairs
    D, iy = _state_rows(ds.X, ds.Y)
    assert len(D) == ds.n + n_traj
    assert_same_bits(D[: ds.n], ds.X)
    assert_same_bits(D[iy], ds.Y)
    # a row-shuffled subset shares no rows: every output is a row of its own
    shuffled = _shuffled(rate_fixture)
    D, iy = _state_rows(shuffled.X, shuffled.Y)
    assert len(D) == 2 * shuffled.n
    assert_same_bits(D[iy], shuffled.Y)
    # -0.0 and 0.0 compare equal but differ in their bytes, so they are kept apart
    ds0 = Dataset([[1.0], [0.0]], [[0.0], [0.0]], [[-0.0], [2.0]])
    D, iy = _state_rows(ds0.X, ds0.Y)
    assert len(D) == 4
    assert_same_bits(D[iy], ds0.Y)


@pytest.mark.parametrize("strategy", [LandmarkStrategy.SharedUniform, LandmarkStrategy.IndependentUniform])
def test_fit_nested_matches_separate_fits_nystrom(planar_pairs, strategy):
    ds, _ = planar_pairs
    lifts = [NystromLift(M52, sample_landmarks(ds, m, strategy, seed=3)) for m in (20, 10, 40)]
    models = fit_nested(ds, lifts, gamma=1e-6, lam=1e-5)
    for model, lifting in zip(models, lifts):
        assert_models_close(model, fit(ds, lifting, gamma=1e-6, lam=1e-5))


@pytest.mark.parametrize("data", ["cubic", "duffing"])
def test_fit_nested_nystrom_lifts_are_fit_bit_for_bit(data):
    # every fit sums its products over the same blocks of pairs, whatever its
    # width, from the leading columns of the same rows, so each Nystrom lift
    # of a sweep is the model ``fit`` returns on it alone, bit for bit, with
    # shared and with independent landmarks (the cubic data take 4 blocks, the
    # Duffing data 69)
    from kooplift.experiments import MATERN_UNIT, cubic_training_data, duffing_training_data

    ds = (cubic_training_data if data == "cubic" else duffing_training_data)(seed=0)[1]
    ms = (10, 20, 50, 100) if data == "cubic" else (10, 20, 40, 80)
    for strategy in (LandmarkStrategy.SharedUniform, LandmarkStrategy.IndependentUniform):
        lifts = [NystromLift(MATERN_UNIT, sample_landmarks(ds, m, strategy, seed=1)) for m in ms]
        for model, lifting in zip(fit_nested(ds, lifts, gamma=1e-6), lifts):
            alone = fit(ds, lifting, gamma=1e-6)
            for name in ("A_r", "B_r", "C_r", "out_factor", "_coef", "_in_factor"):
                assert_same_bits(getattr(model, name), getattr(alone, name))
            assert model.diagnostics == alone.diagnostics


def test_fit_nested_matches_separate_fits_thinplate(planar_pairs):
    ds, _ = planar_pairs
    pool = np.random.default_rng(6).uniform(-1.0, 1.0, size=(40, 2))
    lifts = [ThinPlateLift(pool[:m]) for m in (10, 20, 40)]
    for model, lifting in zip(fit_nested(ds, lifts, gamma=1e-6), lifts):
        assert_models_close(model, fit(ds, lifting, gamma=1e-6))


def test_fit_nested_keeps_prefix_after_dropping_duplicates(planar_pairs):
    ds, _ = planar_pairs
    pool = sample_landmarks(ds, 12, LandmarkStrategy.SharedUniform, seed=4).outputs.copy()
    pool[5] = pool[2]  # a duplicate inside the larger sets only
    lifts = [NystromLift(M52, LandmarkSet(pool[:m], pool[:m], seed=4)) for m in (4, 8, 12)]
    models = fit_nested(ds, lifts, gamma=1e-6)
    assert [model.m for model in models] == [4, 7, 11]
    for model, lifting in zip(models, lifts):
        assert_models_close(model, fit(ds, lifting, gamma=1e-6))
    tp_lifts = [ThinPlateLift(pool[:m]) for m in (4, 8, 12)]
    for model, lifting in zip(fit_nested(ds, tp_lifts, gamma=1e-6), tp_lifts):
        assert_models_close(model, fit(ds, lifting, gamma=1e-6))


def test_fit_nested_rejects_lifts_it_cannot_share(planar_pairs):
    ds, _ = planar_pairs
    lift = NystromLift(M52, sample_landmarks(ds, 10, LandmarkStrategy.SharedUniform, seed=0))
    other_draw = NystromLift(M52, sample_landmarks(ds, 20, LandmarkStrategy.SharedUniform, seed=1))
    with pytest.raises(ValueError, match="prefix"):
        fit_nested(ds, [lift, other_draw], gamma=1e-6)
    with pytest.raises(ValueError, match="kind"):
        fit_nested(ds, [lift, ThinPlateLift(lift.landmarks.outputs)], gamma=1e-6)
    with pytest.raises(ValueError, match="kernel"):
        fit_nested(ds, [lift, NystromLift(RBF, lift.landmarks)], gamma=1e-6)
    centers = np.random.default_rng(7).uniform(-1.0, 1.0, size=(10, 2))
    with pytest.raises(ValueError, match="prefix"):
        fit_nested(ds, [ThinPlateLift(centers[:5]), ThinPlateLift(centers[::-1])], gamma=1e-6)
    with pytest.raises(ValueError):
        fit_nested(ds, [], gamma=1e-6)


def _nested_fit_peak(data, case):
    """The traced peak of a nested fit of three lifts, in units of one feature
    pass, (n + n_traj) x m doubles at the largest m, and the passes a fit that
    held them would hold (two when input and output landmarks differ)."""
    import tracemalloc

    from kooplift.experiments import cubic_training_data, duffing_training_data

    if data == "cubic":
        _, ds = cubic_training_data(seed=0)
        ms = (50, 100, 200)
        pool = np.linspace(-1.0, 1.0, ms[-1])[:, None]
    else:
        _, ds = duffing_training_data(seed=0)
        ms = (20, 40, 80)
        pool = np.random.default_rng(0).uniform(-1.0, 1.0, size=(ms[-1], 2))
    if case == "thinplate":
        lifts, passes = [ThinPlateLift(pool[:k]) for k in ms], 1
    else:
        strategy = LandmarkStrategy.SharedUniform if case == "shared" else LandmarkStrategy.IndependentUniform
        lifts = [NystromLift(M52, sample_landmarks(ds, k, strategy, seed=0)) for k in ms]
        passes = 1 if case == "shared" else 2
    fit_nested(ds, lifts[:1], gamma=1e-6)  # first-call imports are not the fit's memory
    unit = len(_state_rows(ds.X, ds.Y)[0]) * ms[-1] * 8
    tracemalloc.start()
    try:
        fit_nested(ds, lifts, gamma=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / unit, passes


@pytest.mark.parametrize("case", ["shared", "independent", "thinplate"])
def test_fit_nested_peak_memory_stays_near_its_feature_passes(case):
    # the fit reads the data's rows a block at a time and builds no pass: its
    # traced peak is the block buffers (1 024 rows of G, the block's rows,
    # features and products) and the summed products.  At the cubic data's
    # 4 020 states and m = 200 a pass (6.4 MB) is about the size of those
    # buffers, so this size cannot tell the two apart and keeps the bound of
    # passes + 1 units: measured 0.63 (shared), 0.93 (independent) and 1.21
    # (thin-plate, whose 402 columns of G make the widest block), where fits
    # that held their passes peaked at 1.60, 2.73 and 1.74
    peak, passes = _nested_fit_peak("cubic", case)
    assert peak <= passes + 1, peak


@pytest.mark.parametrize("case", ["shared", "independent", "thinplate"])
def test_fit_nested_peak_memory_does_not_grow_with_n(case):
    # on the Duffing data (70 200 states, lifts 20/40/80) the block buffers
    # are a fraction of one pass: measured 0.13 (shared), 0.15 (independent)
    # and 0.12 (thin-plate) passes, where fits that held their passes peaked
    # at 1.14, 2.14 and 1.09
    peak, _ = _nested_fit_peak("duffing", case)
    assert peak <= 0.5, peak


# relative tolerance of the factored full-landmark fit against the dense one,
# compared basis-free.  Both rank decisions sit at condition numbers near 1e10,
# where the dense eigendecompositions resolve the kept range to about
# eps * cond = 2e-6; measured within 3.4e-6 (E E' of the scalar set), 3.7e-7
# (the rate fixture) and 4.8e-7 (the planar trajectories)
FACTORED_RTOL = 1e-5


def test_fit_factored_matches_full_landmark_fit(rate_fixture, planar_pairs):
    # the same landmarks, ranks and clipped counts as ``fit`` on the whole
    # training set, and the same model read basis-free: E A_r E', E B_r,
    # C_r E', the operator's state block E S_x' E_in' and the rank decision E E'
    cases = (
        ("scalar", scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u - 0.3 * x**3, n=80, seed=3)),
        ("planar", planar_pairs[0]),
        ("rate", rate_fixture),
    )
    for name, ds in cases:
        for gamma in (1e-6, 1e-3):
            got = fit_factored(ds, gram_factor(M52, np.vstack([ds.X, ds.Y])), gamma)
            want = fit(ds, NystromLift(M52, LandmarkSet(ds.X, ds.Y, seed=-1)), gamma)
            assert got.lifting == want.lifting, name
            for key in ("m_in", "m_out", "rank_gram_in", "rank_gram_out", "clipped_gram_in", "clipped_gram_out"):
                assert got.diagnostics[key] == want.diagnostics[key], (name, key)
            E, F = got.out_factor, want.out_factor
            r = got._in_factor.shape[1]
            pairs = (
                (E @ got.A_r @ E.T, F @ want.A_r @ F.T),
                (E @ got.B_r, F @ want.B_r),
                (got.C_r @ E.T, want.C_r @ F.T),
                (E @ got._coef[:r].T @ got._in_factor.T, F @ want._coef[:r].T @ want._in_factor.T),
                (E @ E.T, F @ F.T),
            )
            for a, b in pairs:
                _assert_close(a, b, FACTORED_RTOL)
            # E_in and E_out whiten L_X L_X' and L_Y L_Y', while the model
            # reads the kernel itself at run time: they must whiten K(X, X)
            # and K(Y, Y) inside the loader's check, so the model survives a
            # save/load round trip.  Measured up to 1.1e-6 (E_in of the rate
            # fixture; 3.0e-8 for its E_out, where the dense fit shows 4.2e-7)
            lm = got.lifting.landmarks
            for E_f, pts in ((got._in_factor, lm.inputs), (E, lm.outputs)):
                defect = E_f.T @ gram(M52, pts) @ E_f - np.eye(E_f.shape[1])
                assert np.max(np.abs(defect)) < WHITENING_TOL / 10, (name, gamma)
            assert model_to_dict(model_from_dict(model_to_dict(got))) == model_to_dict(got)


def test_fit_factored_reports_its_factor(rate_fixture):
    factor = gram_factor(M52, np.vstack([rate_fixture.X, rate_fixture.Y]))
    d = fit_factored(rate_fixture, factor, 1e-6).diagnostics
    assert (d["rank_gram_in"], d["rank_gram_out"]) == (34, 33)
    assert d["factor_rank"] == factor.rank < len(factor.L)
    assert d["factor_cutoff"] == FACTOR_CUTOFF and d["factor_residual"] == factor.residual < FACTOR_CUTOFF
    assert not d["jitter_applied"] and d["cond_gram_in"] < 1e10
    with pytest.raises(ValueError, match="is not a row"):
        fit_factored(rate_fixture, gram_factor(M52, rate_fixture.X), 1e-6)


@pytest.mark.parametrize("case,units", [("rate", 2.5), ("cubic", 1.0)])
def test_fit_exact_peak_memory_stays_below_the_dense_grams(case, units):
    # one unit is one N x N array of doubles over the N distinct states, the
    # size of the Gram the factor replaces.  On the cubic data (N = 4 020,
    # factor rank 714) the whole fit stays under one unit, so it never holds
    # such an array: measured 0.47, where the dense fit peaked at 6.
    # On the rate fixture (N = 510) the factor keeps 264 columns, so its
    # r x r eigenproblems alone take about one unit and the bound is set
    # between the factored fit (measured 2.0) and the dense fit (5.0)
    import tracemalloc

    from kooplift.experiments import cubic_training_data, fit_exact, fixture_dataset

    ds = fixture_dataset(500, 7)[1] if case == "rate" else cubic_training_data(seed=0)[1]
    fit_exact(ds.subset(np.arange(50)))  # first-call work is not the fit's memory
    unit = len(_state_rows(ds.X, ds.Y)[0]) ** 2 * 8
    tracemalloc.start()
    try:
        model = fit_exact(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.diagnostics["factor_rank"] < model.m
    assert peak < units * unit, peak / unit
