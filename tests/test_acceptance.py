"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The statistical criteria
are asserted at their stated tolerances; measured runtimes are printed next to
their single-machine budgets for reference (this suite often runs on shared
single-core containers, so wall-clock is reported rather than asserted).
"""

import math
import time

import numpy as np
import pytest

from kooplift import experiments, theory
from kooplift.data import Dataset, LandmarkSet, LandmarkStrategy, sample_landmarks
from kooplift.identify import NystromLift, fit
from kooplift.kernels import KernelFamily, KernelSpec
from kooplift.lqr import LqrWeights, solve_dare, solve_model_dare
from kooplift.simulate import (
    cubic_system,
    metric_rmse_pct,
    metric_rmse_u_pct,
    rollout_closed_loop,
    rollout_policy,
    rk4_step,
    true_optimal_control_cubic,
)

M52 = experiments.MATERN_UNIT


def report(num: int, name: str, ok: bool, detail: str, t: float, budget: str) -> str:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail} [runtime {t:.0f}s, budget {budget}]"
    print("\n" + line, flush=True)
    return line


@pytest.fixture(scope="module")
def cubic_bundle():
    """Fixed cubic dataset plus 50 fitted m=100 models with their regulators."""
    sys, ds = experiments.cubic_training_data(seed=0)
    models = []
    for seed in range(50):
        model = experiments.fit_nystrom(ds, 100, seed, 1e-6)
        sol = solve_model_dare(model, np.eye(1), np.eye(1))
        models.append((model, sol))
    return sys, ds, models


@pytest.fixture(scope="module")
def rate_fixture():
    _, ds = experiments.fixture_dataset(n=500, seed=7)
    return ds


def test_criterion_1_cubic_cost_table(cubic_bundle):
    t0 = time.time()
    sys, ds, models = cubic_bundle
    costs = []
    for model, sol in models:
        res = rollout_closed_loop(
            sys, model, sol, np.array([0.9]), 10_000, Qprime=np.eye(1), R=np.eye(1), stop_norm=1e-6
        )
        costs.append(res.total_cost)
    model_ex = experiments.fit_exact(ds, 1e-6)
    sol_ex = solve_model_dare(model_ex, np.eye(1), np.eye(1))
    res_ex = rollout_closed_loop(
        sys, model_ex, sol_ex, np.array([0.9]), 10_000, Qprime=np.eye(1), R=np.eye(1), stop_norm=1e-6
    )
    opt = rollout_policy(
        sys,
        lambda x: np.array([true_optimal_control_cubic(x)]),
        np.array([0.9]),
        10_000,
        Qprime=np.eye(1),
        R=np.eye(1),
        stop_norm=1e-6,
    )
    med = float(np.median(costs))
    exact_cost = res_ex.total_cost
    rel = abs(med - exact_cost) / exact_cost
    ok = 56.0 <= med <= 58.2 and rel <= 0.015 and 55.6 <= opt.total_cost <= 57.9
    line = report(
        1,
        "cubic cost table",
        ok,
        f"median[m=100]={med:.3f} (band [56.0, 58.2]), exact={exact_cost:.3f} (rel gap {100*rel:.2f}% <= 1.5%), "
        f"optimal={opt.total_cost:.3f} (band [55.6, 57.9])",
        time.time() - t0,
        "3 min",
    )
    assert ok, line


def test_criterion_2_control_rmse(cubic_bundle):
    t0 = time.time()
    sys, _, models = cubic_bundle
    opt = rollout_policy(
        sys, lambda x: np.array([true_optimal_control_cubic(x)]), np.array([0.9]), 200
    )
    vals = []
    for model, sol in models:
        res = rollout_closed_loop(sys, model, sol, np.array([0.9]), 200)
        vals.append(metric_rmse_u_pct(res.controls, opt.controls))
    med = float(np.median(vals))
    ok = 8.0 <= med <= 18.0
    line = report(
        2,
        "control-law accuracy",
        ok,
        f"median RMSE_u over 50 seeds = {med:.2f}% (band [8%, 18%])",
        time.time() - t0,
        "3 min",
    )
    assert ok, line


def test_criterion_3_duffing_stabilization():
    t0 = time.time()
    res = experiments.duffing_stabilization_experiment(n_seeds=50, m=20, gamma=1e-6)
    rate = res.success_rate
    ok = rate >= 0.9 and res.diverged == 0
    line = report(
        3,
        "duffing stabilization",
        ok,
        f"reached ||x||<0.05 within 5 s in {100*rate:.0f}% of 50 seeds (need >= 90%), diverged={res.diverged}",
        time.time() - t0,
        "5 min",
    )
    assert ok, line


def test_criterion_4_duffing_forecast():
    t0 = time.time()
    res = experiments.duffing_forecast_experiment(m_list=(10, 20, 40, 80), n_seeds=50, gamma=1e-6)
    ny_med = [float(np.median(res["nystrom"][m])) for m in res["m_list"]]
    tp_med = [float(np.median(res["thinplate"][m])) for m in res["m_list"]]
    nonincreasing = all(ny_med[i + 1] <= ny_med[i] for i in range(len(ny_med) - 1))
    better_at_small_m = ny_med[0] <= tp_med[0]
    ok = nonincreasing and better_at_small_m
    line = report(
        4,
        "duffing open-loop forecast",
        ok,
        f"kernel-lift medians {['%.1f' % v for v in ny_med]}%, thin-plate at m=10: {tp_med[0]:.1f}% "
        f"(non-increasing: {nonincreasing}, kernel<=spline at m=10: {better_at_small_m})",
        time.time() - t0,
        "10 min",
    )
    assert ok, line


def test_criterion_5_operator_gap_rate(rate_fixture):
    t0 = time.time()
    m_list = (10, 20, 40, 80, 160)
    rows, norm_G = experiments.gap_sweep(rate_fixture, m_list, n_seeds=50, gamma=1e-6, delta=0.05)
    med = {m: float(np.median([r.empirical_gap for r in rows if r.m == m])) for m in m_list}
    slope = float(np.polyfit(np.log(m_list), np.log([med[m] for m in m_list]), 1)[0])
    nonvac = [r for r in rows if r.gap_bound < norm_G]
    covered = sum(1 for r in nonvac if r.empirical_gap <= r.gap_bound)
    coverage_ok = (covered / len(nonvac) >= 0.95) if nonvac else True
    # the paper states an upper rate, O(m^-1/2); a kernel with fast spectral
    # decay may converge faster, so only the upper edge is asserted
    ok = slope <= -0.25 and coverage_ok
    if nonvac:
        coverage = f"bound coverage {covered}/{len(nonvac)} in the non-vacuous regime"
    else:
        ratio = min(r.gap_bound for r in rows) / norm_G
        coverage = f"coverage vacuous (bound >= {ratio:.1e} x ||G|| at every m)"
    line = report(
        5,
        "operator-gap rate",
        ok,
        f"log-log slope of median gap = {slope:.2f} (need <= -0.25); {coverage} (||G||={norm_G:.1f})",
        time.time() - t0,
        "15 min",
    )
    assert ok, line


def test_criterion_6_riccati_objective_rates(rate_fixture):
    t0 = time.time()
    m_list = (10, 20, 40, 80, 160)
    rows = experiments.riccati_objective_sweep(rate_fixture, m_list, n_seeds=20, gamma=1e-6)
    ric_med = [float(np.median([r.riccati_gap for r in rows if r.m == m])) for m in m_list]
    strictly_decreasing = all(ric_med[i + 1] < ric_med[i] for i in range(len(ric_med) - 1))
    obj_gaps = np.array([r.objective_gap for r in rows])
    nonneg = bool(np.all(obj_gaps >= -1e-9))
    obj_med = [float(np.median([r.objective_gap for r in rows if r.m == m])) for m in m_list]
    positive = [max(v, 1e-300) for v in obj_med]
    obj_slope = float(np.polyfit(np.log(m_list), np.log(positive), 1)[0])
    with_precond = [r for r in rows if r.objective_precondition]
    bound_holds = all(r.objective_bound >= r.objective_gap for r in with_precond)
    ok = strictly_decreasing and nonneg and obj_slope <= -0.5 and bound_holds
    if with_precond:
        coverage = f"bound >= gap on {len(with_precond)} precondition-satisfying seeds: {bound_holds}"
    else:
        # sigma_min_P of a finite-rank P sits at round-off, so the Riccati
        # precondition sigma_min_P >= 1 fails on every row
        top = max(r.sigma_min_P for r in rows)
        why = f"sigma_min_P = {top:.1e} < 1 on every row" if top < 1.0 else "no row meets the precondition"
        coverage = f"coverage vacuous ({why})"
    line = report(
        6,
        "riccati/objective rates",
        ok,
        f"median |P-P~| per m: {['%.3g' % v for v in ric_med]} (strictly decreasing: {strictly_decreasing}); "
        f"objective gaps >= -1e-9: {nonneg}; objective slope {obj_slope:.2f} <= -0.5; {coverage}",
        time.time() - t0,
        "15 min",
    )
    assert ok, line


def test_criterion_7_dare_solver():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_p, worst_res, worst_rho = 0.0, 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n)) / math.sqrt(n)
        rho0 = max(np.max(np.abs(np.linalg.eigvals(A))), 0.1)
        A *= rng.uniform(0.3, 0.95) / rho0
        B = rng.normal(size=(n, 1))
        w = LqrWeights(np.eye(n), np.eye(1))
        sol = solve_dare(A, B, w)
        P_vi = w.Q_m.copy()
        for _ in range(10_000):
            BtP = B.T @ P_vi
            P_vi = A.T @ P_vi @ A - (BtP @ A).T @ np.linalg.solve(w.R + BtP @ B, BtP @ A) + w.Q_m
            P_vi = 0.5 * (P_vi + P_vi.T)
        worst_p = max(worst_p, float(np.linalg.norm(sol.P_m - P_vi, 2)))
        worst_res = max(worst_res, sol.residual)
        worst_rho = max(worst_rho, sol.rho_L)
    golden = solve_dare(np.array([[1.0]]), np.array([[1.0]]), LqrWeights(np.eye(1), np.eye(1)))
    golden_err = abs(golden.P_m[0, 0] - (1.0 + math.sqrt(5.0)) / 2.0)
    ok = worst_p <= 1e-6 and worst_res <= 1e-9 and worst_rho < 1.0 and golden_err <= 1e-12
    line = report(
        7,
        "riccati solver",
        ok,
        f"max |P - P_vi| = {worst_p:.2e} (<=1e-6), max residual {worst_res:.2e} (<=1e-9), "
        f"max rho(L) {worst_rho:.4f} (<1), golden-ratio error {golden_err:.1e} (<=1e-12)",
        time.time() - t0,
        "10 s",
    )
    assert ok, line


def test_criterion_8_degeneracy_and_invariants():
    t0 = time.time()
    checks = {}

    # exact-kernel degeneracy: full landmarks make the compressed operator
    # coincide with the uncompressed one
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(40, 1))
    U = rng.uniform(-1, 1, size=(40, 1))
    ds = Dataset(X, U, 0.6 * X + 0.25 * U)
    G = theory.build_exact_operator(ds, M52, 1e-3)
    G_ny = theory.build_nystrom_operator(ds, M52, 1e-3, LandmarkSet(X.copy(), ds.Y.copy(), seed=-1))
    gap = theory.operator_gap_norm(G, G_ny)
    checks["exact-kernel gap <= 1e-8"] = gap <= 1e-8

    # zero-input decoupling
    ds0 = Dataset(X, np.zeros((40, 1)), 0.6 * X)
    model0 = fit(ds0, NystromLift(M52, sample_landmarks(ds0, 15, seed=0)), gamma=1e-6)
    checks["B_m == 0 under zero controls"] = bool(np.all(model0.B_m == 0.0))

    # RK4 order factor in [24, 40]
    sysa, sysb = cubic_system(0.1), cubic_system(0.05)
    x0, u = np.array([0.8]), np.array([0.3])
    refs = []
    for dt in (0.1, 0.05):
        fine = cubic_system(dt / 512)
        x = x0.copy()
        for _ in range(512):
            x = rk4_step(fine, x, u)
        refs.append(x[0])
    e1 = abs(rk4_step(sysa, x0, u)[0] - refs[0])
    e2 = abs(rk4_step(sysb, x0, u)[0] - refs[1])
    factor = e1 / e2
    checks["rk4 halving factor in [24, 40]"] = 24.0 <= factor <= 40.0

    # metric identity
    T = rng.normal(size=(20, 2))
    checks["rmse of identical trajectories == 0"] = metric_rmse_pct(T, T) == 0.0

    # landmark-sampling determinism
    lm1 = sample_landmarks(ds, 7, LandmarkStrategy.IndependentUniform, seed=3)
    lm2 = sample_landmarks(ds, 7, LandmarkStrategy.IndependentUniform, seed=3)
    checks["landmark sampling deterministic"] = bool(
        np.array_equal(lm1.inputs, lm2.inputs) and np.array_equal(lm1.outputs, lm2.outputs)
    )

    ok = all(checks.values())
    detail = "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
    line = report(8, "degeneracy and invariants", ok, detail, time.time() - t0, "30 s")
    assert ok, line
