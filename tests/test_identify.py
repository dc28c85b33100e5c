import numpy as np
import pytest

from kooplift.data import Dataset, LandmarkSet, LandmarkStrategy, sample_landmarks
from kooplift.identify import (
    ForecastDivergence,
    NystromLift,
    ThinPlateLift,
    embed_state,
    fit,
    forecast,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from kooplift.kernels import KernelFamily, KernelSpec, gram
from kooplift.numerics import psd_pinv

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
    assert model.A_m.shape == (model.m, model.m)
    assert model.B_m.shape == (model.m, ds.n_u)
    assert model.C.shape == (ds.d, model.m)
    assert model.gram_out_pinv_sqrt.shape == (model.m, model.m)


def test_zero_controls_give_exactly_zero_B():
    ds = scalar_dataset(lambda x, u: 0.5 * x, n=50, seed=2)
    ds = Dataset(ds.X, np.zeros((50, 1)), ds.Y)
    model = fit(ds, NystromLift(M52, sample_landmarks(ds, 20, seed=3)), gamma=1e-6)
    assert np.all(model.B_m == 0.0)


def test_identity_dynamics_interpolates_training_outputs():
    # well-separated points keep the blocked normal equations solvable at the
    # vanishing-regularization limit
    X = np.linspace(-1.0, 1.0, 12)[:, None]
    ds = Dataset(X, np.zeros((12, 1)), X.copy())
    lm = LandmarkSet(ds.X.copy(), ds.Y.copy(), seed=-1)
    model = fit(ds, NystromLift(M52, lm), gamma=1e-12)
    Z = model.embed_states(ds.X)
    pred = (model.C @ (model.A_m @ Z)).T
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
    Kp = psd_pinv(gram(spec, lm_out))
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
    model.A_m[:] = 10.0 * np.eye(model.m)  # force blow-up
    with pytest.raises(ForecastDivergence) as err:
        forecast(model, [0.5], np.zeros((500, 1)))
    assert err.value.step >= 1


def test_training_risk_monotone_in_gamma():
    ds = scalar_dataset(lambda x, u: np.tanh(2 * x) + 0.3 * u, n=60, seed=12)
    lm = sample_landmarks(ds, 25, LandmarkStrategy.SharedUniform, seed=1)

    def lifted_risk(model):
        # mean squared lifted residual ||psi(y) - F_out W z_hat||^2 through
        # Gram identities, with z_hat = A z(x) + B u
        Z_hat = model.A_m @ model.embed_states(ds.X) + model.B_m @ ds.U.T
        W = model.gram_out_pinv_sqrt
        cross = np.sum((W @ gram(M52, lm.outputs, ds.Y)) * Z_hat, axis=0)
        quad = np.sum(Z_hat * (W @ gram(M52, lm.outputs) @ W @ Z_hat), axis=0)
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

    base = objective(model.C)
    rng = np.random.default_rng(14)
    for _ in range(10):
        C = model.C.copy()
        i, j = rng.integers(0, C.shape[0]), rng.integers(0, C.shape[1])
        C[i, j] += rng.choice([-1e-4, 1e-4])
        assert objective(C) >= base - 1e-12


def test_thinplate_fit_and_forecast():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=100, seed=15)
    centers = np.linspace(-1.2, 1.2, 15)[:, None]
    model = fit(ds, ThinPlateLift(centers), gamma=1e-8)
    assert model.A_m.shape == (15, 15)
    np.testing.assert_array_equal(model.gram_out_pinv_sqrt, np.eye(15))
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
    np.testing.assert_array_equal(back.A_m, model.A_m)
    np.testing.assert_array_equal(back.B_m, model.B_m)
    np.testing.assert_array_equal(back.C, model.C)
    np.testing.assert_array_equal(back.gram_out_pinv_sqrt, model.gram_out_pinv_sqrt)
    assert back.gamma == model.gamma and back.lam == model.lam
    x = np.array([0.37])
    np.testing.assert_array_equal(embed_state(back, x), embed_state(model, x))
    # dict round trip is stable
    assert model_to_dict(model_from_dict(model_to_dict(model))) == model_to_dict(model)


def _edit(path, change):
    """A corruption of a model document: replace doc[path] by change(doc[path])."""

    def corrupt(doc):
        *outer, key = path
        for k in outer:
            doc = doc[k]
        doc[key] = change(doc[key])

    return corrupt


@pytest.mark.parametrize(
    "corrupt, match",
    [
        pytest.param(_edit(["A_m"], lambda A: [row[:-1] for row in A]), "A_m has shape", id="A_m-not-square"),
        pytest.param(_edit(["B_m"], lambda B: B[:-1]), "B_m has shape", id="B_m-rows"),
        pytest.param(_edit(["C"], lambda C: [row[:-1] for row in C]), "C has shape", id="C-columns"),
        pytest.param(_edit(["gram_out_pinv_sqrt"], lambda W: W[:-1]), "gram_out_pinv_sqrt has shape", id="W-shape"),
        pytest.param(
            _edit(["lifting", "landmarks_out"], lambda L: L[:-1]), "landmarks_out has shape", id="landmark-count"
        ),
        pytest.param(
            _edit(["lifting", "landmarks_in"], lambda L: [row + [0.0] for row in L]),
            "landmarks_in has shape",
            id="landmark-dimension",
        ),
        pytest.param(
            _edit(["A_m"], lambda A: [[float("nan")] + row[1:] for row in A]), "A_m has non-finite", id="nan-A_m"
        ),
        pytest.param(
            _edit(["lifting", "landmarks_out"], lambda L: [[float("inf")]] + L[1:]),
            "landmarks_out has non-finite",
            id="inf-landmark",
        ),
        pytest.param(_edit(["gamma"], lambda g: float("inf")), "gamma and lambda", id="gamma-not-finite"),
        pytest.param(
            _edit(["gram_out_pinv_sqrt"], lambda W: (1 + 1e-6) * np.array(W)),
            "does not match",
            id="W-disagrees-with-landmarks",
        ),
    ],
)
def test_model_from_dict_rejects(linear_model, corrupt, match):
    _, model = linear_model
    doc = model_to_dict(model)
    corrupt(doc)
    with pytest.raises(ValueError, match=match):
        model_from_dict(doc)


def test_model_from_dict_rejects_thinplate_center_count():
    ds = scalar_dataset(lambda x, u: 0.5 * x + 0.25 * u, n=40, seed=15)
    doc = model_to_dict(fit(ds, ThinPlateLift(np.linspace(-1.0, 1.0, 6)[:, None]), gamma=1e-6))
    model_from_dict(doc)
    doc["lifting"]["centers"] = doc["lifting"]["centers"][:-1]
    with pytest.raises(ValueError, match="centers has shape"):
        model_from_dict(doc)


def test_model_from_dict_accepts_round_off_in_stored_weight(linear_model):
    _, model = linear_model
    doc = model_to_dict(model)
    doc["gram_out_pinv_sqrt"] = ((1 + 1e-12) * model.gram_out_pinv_sqrt).tolist()
    back = model_from_dict(doc)
    np.testing.assert_array_equal(back.range_basis(), model.range_basis())


def test_fit_rejects_bad_regularization(linear_model):
    ds, model = linear_model
    with pytest.raises(ValueError):
        fit(ds, model.lifting, gamma=0.0)
    with pytest.raises(ValueError):
        fit(ds, model.lifting, gamma=1e-6, lam=-1.0)
