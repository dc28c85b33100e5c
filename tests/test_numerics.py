import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kooplift import experiments
from kooplift.numerics import (
    RankTolerance,
    _openblas_runtimes,
    blas_threads,
    one_blas_thread,
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


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS runtime set to 2 threads, whatever the environment said;
    the prior counts are put back after the test."""
    runtimes = _openblas_runtimes()
    prior = blas_threads()
    for _, set_threads in runtimes.values():
        set_threads(2)
    yield blas_threads()
    for name, (_, set_threads) in runtimes.items():
        set_threads(prior[name])


def _gap_fixture():
    return experiments.fixture_dataset(n=150, seed=7)[1]


# the six scenario functions at sizes that run in well under a second each
SCENARIOS = {
    "cubic_cost": lambda: experiments.cubic_cost_experiment(n_seeds=1, m=10, exact=False),
    "cubic_rmse": lambda: experiments.cubic_rmse_experiment(n_seeds=1, m=10, T=5),
    "duffing_stabilization": lambda: experiments.duffing_stabilization_experiment(n_seeds=1, m=5, horizon_s=0.05),
    "duffing_forecast": lambda: experiments.duffing_forecast_experiment(m_list=(5,), n_seeds=1, horizon_s=0.05),
    "gap_sweep": lambda: experiments.gap_sweep(_gap_fixture(), m_list=(5,), n_seeds=1),
    "riccati_objective_sweep": lambda: experiments.riccati_objective_sweep(_gap_fixture(), m_list=(5,), n_seeds=1),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_on_one_blas_thread(name, monkeypatch, two_blas_threads):
    # every scenario draws landmarks inside its call: read the counts there
    seen = []
    sample_landmarks = experiments.sample_landmarks

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return sample_landmarks(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_landmarks", spy)
    SCENARIOS[name]()
    assert seen
    assert all(counts == dict.fromkeys(two_blas_threads, 1) for counts in seen)
    assert blas_threads() == two_blas_threads


def test_blas_scope_restores_counts_after_a_raise(two_blas_threads):
    with pytest.raises(ValueError, match="gamma"):
        experiments.gap_sweep(_gap_fixture(), m_list=(5,), n_seeds=1, gamma=-1.0)
    assert blas_threads() == two_blas_threads


def test_blas_threads_reads_every_runtime(two_blas_threads):
    assert set(two_blas_threads.values()) <= {2}
    with one_blas_thread():
        assert blas_threads() == dict.fromkeys(two_blas_threads, 1)
    assert blas_threads() == two_blas_threads


def _python(args, threads: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` on this checkout's sources, with OPENBLAS_NUM_THREADS=threads if given."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def test_study_bounds_rows_do_not_depend_on_blas_threads(tmp_path):
    # the smallest rate-sweep config whose rows differed between one and two
    # OpenBLAS threads before the scenarios fixed their own thread count
    overrides = ["bounds.riccati=true", "bounds.n=150", "bounds.m_list=[1]", "bounds.seeds=1"]
    args = ["-m", "kooplift.cli", "study-bounds"] + [a for ov in overrides for a in ("--override", ov)]
    for threads in ("1", "2"):
        _python(args + ["--out", str(tmp_path / threads)], threads=threads)
    assert (tmp_path / "1" / "bounds.csv").read_bytes() == (tmp_path / "2" / "bounds.csv").read_bytes()


def test_import_and_data_builders_load_no_scipy():
    code = (
        "import sys\n"
        "import kooplift\n"
        "from kooplift import experiments\n"
        "experiments.cubic_training_data()\n"
        "experiments.duffing_training_data()\n"
        "experiments.fixture_dataset()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _python(["-c", code]).stdout.strip() == "[]"
