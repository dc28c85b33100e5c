"""Benchmark scenarios shared by the command line and the acceptance suite.

Each scenario fixes one training dataset (its own seed) and varies landmark
draws and, where relevant, test initial conditions across the requested seeds,
so repeated runs are bit-identical.  The seeds run one after another on the
calling thread.

Each scenario call runs on one OpenBLAS thread (``numerics.one_blas_thread``),
whatever the library default, and restores the prior thread counts when it
returns or raises.  Its outputs are those of a process started with
``OPENBLAS_NUM_THREADS=1``, bit for bit.  The data builders
(``cubic_training_data``, ``duffing_training_data``, ``fixture_dataset``) do
not enter that scope, so they load no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, LandmarkStrategy, build_pairs, derived_rng, sample_landmarks
from .identify import (
    ForecastDivergence,
    KoopmanModel,
    NystromLift,
    ThinPlateLift,
    fit,
    fit_factored,
    fit_nested,
    forecast,
)
from .kernels import KernelFamily, KernelSpec, gram_factor
from .lqr import LqrWeights, build_weights, solve_model_dare
from .numerics import RankTolerance, one_blas_thread
from .simulate import (
    CollectionProtocol,
    SquareWave,
    SystemSpec,
    UniformBall,
    UniformBox,
    UniformIID,
    ZeroInput,
    cubic_system,
    duffing_system,
    collect_training_data,
    metric_rmse_pct,
    metric_rmse_u_pct,
    rollout_closed_loops,
    rollout_open_loop,
    true_optimal_control_cubic,
)
from . import theory

MATERN_UNIT = KernelSpec(KernelFamily.Matern52, lengthscale=1.0, variance=1.0)
# cutoff of the rate sweeps' anchor basis: the default 1e-10 drops data
# directions that the gaps between nearly equal operators resolve
SWEEP_BASIS_TOL = RankTolerance(1e-13)

__all__ = [
    "MATERN_UNIT",
    "cubic_training_data",
    "duffing_training_data",
    "fit_nystrom",
    "fit_exact",
    "cubic_cost_experiment",
    "cubic_rmse_experiment",
    "duffing_stabilization_experiment",
    "duffing_forecast_experiment",
    "fixture_dataset",
    "gap_sweep",
    "riccati_objective_sweep",
]


def cubic_training_data(seed: int = 0) -> tuple[SystemSpec, Dataset]:
    """20 excitation trajectories of 2 s at dt = 0.01, u and x0 uniform on [-1, 1]."""
    sys = cubic_system(dt=0.01)
    protocol = CollectionProtocol(
        n_traj=20,
        duration=2.0,
        input_law=UniformIID(-1.0, 1.0),
        init_law=UniformBox(-1.0, 1.0),
        seed=seed,
    )
    return sys, build_pairs(collect_training_data(sys, protocol))


def duffing_training_data(seed: int = 0) -> tuple[SystemSpec, Dataset]:
    """100 unforced 5 s trajectories plus 100 forced 2 s trajectories, unit-ball starts."""
    sys = duffing_system(dt=0.01)
    unforced = CollectionProtocol(
        n_traj=100, duration=5.0, input_law=ZeroInput(), init_law=UniformBall(1.0), seed=seed
    )
    forced = CollectionProtocol(
        n_traj=100,
        duration=2.0,
        input_law=UniformIID(-1.0, 1.0),
        init_law=UniformBall(1.0),
        seed=seed + 1,
    )
    trajs = collect_training_data(sys, unforced) + collect_training_data(sys, forced)
    return sys, build_pairs(trajs)


def _nystrom_lift(ds: Dataset, m: int, seed: int) -> NystromLift:
    return NystromLift(MATERN_UNIT, sample_landmarks(ds, m, LandmarkStrategy.SharedUniform, seed=seed))


def fit_nystrom(ds: Dataset, m: int, seed: int, gamma: float = 1e-6) -> KoopmanModel:
    return fit(ds, _nystrom_lift(ds, m, seed), gamma=gamma, lam=gamma)


def fit_exact(ds: Dataset, gamma: float = 1e-6) -> KoopmanModel:
    """Landmarks = the full paired training set, fitted from one pivoted
    Cholesky factor of the Gram of the data's states (``identify.fit_factored``).

    The Grams K(X, X) and K(Y, Y) are clipped at the default rank cutoff like
    any other, read from that factor, so this is the uncompressed estimator
    restricted to the kept eigenvectors of K(X, X), not the dual n x n solve
    of ``theory.build_exact_operator``.  A rate sweep fits the same model from
    its anchor basis's factor instead of taking another.
    """
    return fit_factored(ds, gram_factor(MATERN_UNIT, np.vstack([ds.X, ds.Y])), gamma, gamma)


def _synthesized(ds: Dataset, m: int, gamma: float, Qprime, n_seeds: int):
    """The compressed models of seeds 0 .. n_seeds - 1 and their regulators, as two lists."""
    models = [fit_nystrom(ds, m, seed, gamma) for seed in range(n_seeds)]
    return models, [solve_model_dare(model, Qprime, np.eye(1)) for model in models]


def _check_workers(workers: int) -> None:
    """Seeds run one after another on the calling thread; ``workers`` stays
    only because the benchmark passes ``workers=1``."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")


def _optimal_cubic(x) -> np.ndarray:
    """The known optimal feedback of the cubic benchmark, as a rollout policy."""
    return np.array([true_optimal_control_cubic(x)])


@dataclass
class CubicCostResult:
    nystrom_costs: list[float]
    exact_cost: float
    optimal_cost: float
    diverged: int

    @property
    def median_cost(self) -> float:
        return float(np.median(self.nystrom_costs))


@one_blas_thread()
def cubic_cost_experiment(
    n_seeds: int = 50,
    m: int = 100,
    gamma: float = 1e-6,
    x0: float = 0.9,
    data_seed: int = 0,
    exact: bool = True,
    workers: int = 1,
) -> CubicCostResult:
    """Truncated closed-loop quadratic costs of the learned regulators.

    The cost is the plain running sum of x_t^2 + u_t^2 until ||x|| < 1e-6 or
    10^4 steps, reported for the compressed models across landmark seeds, the
    uncompressed model, and the known optimal feedback.  All of those loops
    run as one rollout stack.
    """
    _check_workers(workers)
    sys, ds = cubic_training_data(seed=data_seed)
    models, sols = _synthesized(ds, m, gamma, np.eye(1), n_seeds)
    if exact:
        model_ex = fit_exact(ds, gamma)
        models, sols = models + [model_ex], sols + [solve_model_dare(model_ex, np.eye(1), np.eye(1))]
    runs = rollout_closed_loops(
        sys,
        models,
        sols,
        np.array([x0]),
        T_steps=10_000,
        Qprime=np.eye(1),
        R=np.eye(1),
        stop_norm=1e-6,
        policies=[_optimal_cubic],
    )
    ny_runs = runs[:n_seeds]
    costs = [res.total_cost for res in ny_runs]
    diverged = sum(int(res.diverged) for res in ny_runs)
    exact_cost = runs[n_seeds].total_cost if exact else math.nan
    return CubicCostResult(costs, exact_cost, runs[-1].total_cost, diverged)


@one_blas_thread()
def cubic_rmse_experiment(
    n_seeds: int = 50,
    m: int = 100,
    gamma: float = 1e-6,
    x0: float = 0.9,
    T: int = 200,
    data_seed: int = 0,
) -> list[float]:
    """Control-signal mismatch against the known optimal regulator, in percent.

    Both controllers run in closed loop on the true system from the same start,
    every learned loop and the optimal one in one rollout stack; the metric
    compares the two control sequences over T steps.
    """
    sys, ds = cubic_training_data(seed=data_seed)
    models, sols = _synthesized(ds, m, gamma, np.eye(1), n_seeds)
    *runs, opt = rollout_closed_loops(sys, models, sols, np.array([x0]), T, policies=[_optimal_cubic])
    return [metric_rmse_u_pct(res.controls, opt.controls) for res in runs]


@dataclass
class StabilizationResult:
    reached: list[bool]
    diverged: int
    min_norms: list[float]

    @property
    def success_rate(self) -> float:
        return float(np.mean(self.reached))


@one_blas_thread()
def duffing_stabilization_experiment(
    n_seeds: int = 50,
    m: int = 20,
    gamma: float = 1e-6,
    x0=(-0.5, 0.0),
    horizon_s: float = 5.0,
    target_norm: float = 0.05,
    data_seed: int = 0,
) -> StabilizationResult:
    """Regulate the oscillator to the origin with a small compressed model."""
    sys, ds = duffing_training_data(seed=data_seed)
    T = int(round(horizon_s / sys.dt))
    runs = rollout_closed_loops(sys, *_synthesized(ds, m, gamma, np.eye(2), n_seeds), np.array(x0), T)
    min_norms = [float(np.min(np.linalg.norm(res.states, axis=1))) for res in runs]
    reached = [mn < target_norm for mn in min_norms]
    diverged = sum(int(res.diverged) for res in runs)
    return StabilizationResult(reached, diverged, min_norms)


@one_blas_thread()
def duffing_forecast_experiment(
    m_list=(10, 20, 40, 80),
    n_seeds: int = 50,
    gamma: float = 1e-6,
    horizon_s: float = 2.0,
    data_seed: int = 0,
    workers: int = 1,
) -> dict:
    """Open-loop forecast error under square-wave forcing, compressed kernel
    lift versus the thin-plate-spline baseline with matched feature counts.

    Returns per-m lists of percent RMSE, with non-finite forecasts recorded as
    +inf, plus divergence counters.  Landmark draws and thin-plate centers are
    nested across m for a fixed seed, so per-seed errors are directly comparable
    along the sweep, and each seed fits each lift's sweep with one
    ``fit_nested`` call, which evaluates the data's rows once, a block at a
    time.
    """
    _check_workers(workers)
    sys, ds = duffing_training_data(seed=data_seed)
    T = int(round(horizon_s / sys.dt))
    U = SquareWave().draw(None, 1, T, sys.dt, sys.n_u)[0]

    def one(seed: int):
        rng_ic = derived_rng("test-ic", seed)
        x0 = UniformBall(1.0).sample(rng_ic, 2)
        truth = rollout_open_loop(sys, x0, U)
        true_states = truth.states[1:]
        rng_centers = derived_rng("tp-centers", seed)
        centers_pool = np.array([UniformBall(1.0).sample(rng_centers, 2) for _ in range(max(m_list))])
        ny_models = fit_nested(ds, [_nystrom_lift(ds, m, seed) for m in m_list], gamma, gamma)
        tp_models = fit_nested(ds, [ThinPlateLift(centers_pool[:m]) for m in m_list], gamma, gamma)

        def rmse(model):
            try:
                return metric_rmse_pct(true_states, forecast(model, x0, U))
            except ForecastDivergence:
                return math.inf

        return {m: (rmse(ny), rmse(tp)) for m, ny, tp in zip(m_list, ny_models, tp_models)}

    per_seed = [one(seed) for seed in range(n_seeds)]
    results: dict = {
        "m_list": list(m_list),
        "nystrom": {m: [row[m][0] for row in per_seed] for m in m_list},
        "thinplate": {m: [row[m][1] for row in per_seed] for m in m_list},
    }
    results["nystrom_diverged"] = sum(
        1 for m in m_list for v in results["nystrom"][m] if not math.isfinite(v)
    )
    results["thinplate_diverged"] = sum(
        1 for m in m_list for v in results["thinplate"][m] if not math.isfinite(v)
    )
    return results


# ---------------------------------------------------------------------------
# Rate-study fixtures and sweeps
# ---------------------------------------------------------------------------


def fixture_dataset(n: int = 500, seed: int = 7) -> tuple[SystemSpec, Dataset]:
    """Fixed cubic-system dataset with exactly n pairs for the rate studies."""
    sys = cubic_system(dt=0.01)
    per_traj = 50
    protocol = CollectionProtocol(
        n_traj=n // per_traj,
        duration=per_traj * sys.dt,
        input_law=UniformIID(-1.0, 1.0),
        init_law=UniformBox(-1.0, 1.0),
        seed=seed,
    )
    ds = build_pairs(collect_training_data(sys, protocol))
    if ds.n != n:
        raise RuntimeError(f"fixture produced {ds.n} pairs, expected {n}")
    return sys, ds


def _sweep_basis(ds: Dataset) -> theory.AnchorBasis:
    """The one whitened basis a rate sweep reads every norm from: every anchor
    of the sweep (G's, the exact model's and each landmark set) is a row of X
    or Y.  Its Gram factor is the one the sweep's exact model is fitted from."""
    return theory.AnchorBasis(MATERN_UNIT, np.vstack([ds.X, ds.Y]), SWEEP_BASIS_TOL)


def _gap_study(
    ds: Dataset, G: theory.RkhsOperator, norm_G: float, basis: theory.AnchorBasis, gamma: float, delta: float
):
    """The per-seed gap row of both sweeps against the exact operator G.

    ``row(m, seed)`` draws the landmarks, fits the compressed model once,
    measures the gap of its operator and the two projection errors on
    ``basis``, and returns the row with the fitted model.
    """

    def row(m: int, seed: int) -> tuple[theory.BoundReport, KoopmanModel]:
        lm = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
        model = fit(ds, NystromLift(MATERN_UNIT, lm), gamma=gamma, lam=gamma)
        report = theory.BoundReport(
            m=m,
            seed=seed,
            gamma=gamma,
            delta=delta,
            kappa=MATERN_UNIT.kappa,
            empirical_gap=theory.operator_gap_norm(G, theory.build_nystrom_operator(model), basis),
            gap_bound=theory.nystrom_gap_bound(MATERN_UNIT.kappa, gamma, m, delta),
            proj_in=theory.projection_error(ds, "input", MATERN_UNIT, lm, basis),
            proj_out=theory.projection_error(ds, "output", MATERN_UNIT, lm, basis),
            norm_G=norm_G,
            basis_rank=basis.rank,
        )
        return report, model

    return row


@one_blas_thread()
def gap_sweep(
    ds: Dataset,
    m_list=(10, 20, 40, 80, 160),
    n_seeds: int = 50,
    gamma: float = 1e-6,
    delta: float = 0.05,
) -> tuple[list[theory.BoundReport], float]:
    """Measured operator gaps across landmark draws, next to the m-rate bound.

    Returns the sweep rows and the norm of the uncompressed operator (the
    yardstick for deciding whether the bound is informative).
    """
    G = theory.build_exact_operator(ds, MATERN_UNIT, gamma)
    basis = _sweep_basis(ds)
    norm_G = theory.operator_norm(G, basis)
    row = _gap_study(ds, G, norm_G, basis, gamma, delta)
    return [row(m, seed)[0] for m in m_list for seed in range(n_seeds)], norm_G


@one_blas_thread()
def riccati_objective_sweep(
    ds: Dataset,
    m_list=(10, 20, 40, 80, 160),
    n_seeds: int = 20,
    gamma: float = 1e-6,
    delta: float = 0.05,
    x0: float = 0.9,
    workers: int = 1,
) -> list[theory.BoundReport]:
    """Riccati-solution and certainty-equivalence objective gaps across seeds,
    next to the Riccati and objective bounds evaluated at the measured
    operator gap.

    The compressed model's regulator is synthesized against the exact
    surrogate's state weight transported into its coordinates, so both Riccati
    equations weigh the same operator on the lifted space.
    """
    _check_workers(workers)
    R = np.eye(1)
    eig_R = np.linalg.eigvalsh(R)
    sigma_min_R, sigma_max_R = float(np.min(eig_R)), float(np.max(eig_R))
    norm_R_inv = 1.0 / sigma_min_R
    G = theory.build_exact_operator(ds, MATERN_UNIT, gamma)
    basis = _sweep_basis(ds)
    exact_model = fit_factored(ds, basis.factor, gamma, gamma)  # fit_exact on the basis's factor
    weights = build_weights(exact_model, np.eye(ds.d), R)
    Q_exact = weights.Q_m
    exact_sol = solve_model_dare(exact_model, weights=weights)
    norms = theory.exact_model_norms(G, exact_model, exact_sol, basis)
    reference = theory.objective_reference(exact_model, exact_sol, Q_exact, R, np.array([x0]))
    row = _gap_study(ds, G, norms.G, basis, gamma, delta)

    def one(m: int, seed: int) -> theory.BoundReport:
        gap_row, ny_model = row(m, seed)
        eps = gap_row.empirical_gap
        Q_ny, T = theory.transport_weights(exact_model, Q_exact, ny_model)
        ny_sol = solve_model_dare(ny_model, weights=LqrWeights(Q_ny, R))
        obj = theory.objective_gap(reference, ny_sol, T)
        g_eps = theory.riccati_gap_bound(eps, norms, norm_R_inv)
        riccati_ok = theory.riccati_gap_precondition(eps, norms, norm_R_inv)
        return replace(
            gap_row,
            riccati_gap=theory.riccati_gap(exact_model, exact_sol, ny_model, ny_sol, basis),
            riccati_bound=g_eps,
            riccati_precondition=riccati_ok,
            objective_gap=obj.gap,
            objective_bound=theory.objective_gap_bound(g_eps, norms, sigma_max_R, MATERN_UNIT.variance),
            objective_precondition=riccati_ok and theory.objective_gap_precondition(g_eps, norms, sigma_min_R),
            Gamma=norms.Gamma,
            tau=norms.tau,
            tau_truncated=norms.tau_truncated,
            zeta=norms.zeta,
            sigma_min_P=norms.sigma_min_P,
        )

    return [one(m, seed) for m in m_list for seed in range(n_seeds)]
