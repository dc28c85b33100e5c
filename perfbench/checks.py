"""Correctness checks computed apart from kooplift.

Each check returns a list of failure messages (empty when the check passes).
Nothing here imports kooplift: the references are closed forms, an
independent ODE integration, and properties the method must have.
"""

from __future__ import annotations

import math

import numpy as np

# the summed cost of the learned regulator exceeds the continuous-time optimum
# by the discretization and the surrogate's suboptimality: 0.6% at x0 = 0.5,
# 1.5% at x0 = 1.0, at most 1.6% over data seeds 1-9 at x0 = 0.9
CUBIC_COST_RTOL = 0.03
# an RK4 step at dt = 0.01 agrees with a tight solve_ivp within 1e-10 on these pairs
PAIR_ATOL = 1e-8
OBJECTIVE_GAP_RTOL = 1e-9
GAP_SLOPE_MAX = -0.25
OBJECTIVE_SLOPE_MAX = -0.5


def cubic_value(x: float) -> float:
    """Optimal cost-to-go of x' = -x^3 + u with running cost x^2 + u^2.

    The Hamilton-Jacobi-Bellman equation gives V'(x) = -2x^3 + 2x sqrt(1 + x^4),
    so V(x) = [x^2 sqrt(1 + x^4) + asinh(x^2)] / 2 - x^4 / 2.
    """
    s = x * x
    return 0.5 * (s * math.sqrt(1.0 + s * s) + math.asinh(s)) - 0.5 * s * s


def check_cubic_costs(costs, diverged: int, x0: float, dt: float) -> list[str]:
    """No seed diverged and the median summed cost is near V(x0) / dt."""
    errors = []
    if diverged:
        errors.append(f"{diverged} closed loops diverged")
    costs = np.asarray(costs, dtype=float)
    if not np.all(np.isfinite(costs)):
        errors.append("non-finite closed-loop cost")
        return errors
    reference = cubic_value(x0) / dt
    median = float(np.median(costs))
    if abs(median - reference) > CUBIC_COST_RTOL * reference:
        errors.append(f"median cost {median:.4f} is not within {CUBIC_COST_RTOL:.1%} of V(x0)/dt = {reference:.4f}")
    return errors


def duffing_rhs(x, u: float) -> np.ndarray:
    """x1' = x2, x2' = -0.5 x2 - x1 (4 x1^2 - 1) + 0.5 u (double-well Duffing oscillator)."""
    return np.array([x[1], -0.5 * x[1] + x[0] - 4.0 * x[0] ** 3 + 0.5 * u])


def check_pairs(rhs, dt: float, X, U, Y, atol: float = PAIR_ATOL) -> list[str]:
    """Each y is the state one step dt after x under the held input u."""
    from scipy.integrate import solve_ivp

    errors = []
    for x, u, y in zip(X, U, Y):
        sol = solve_ivp(lambda t, s: rhs(s, float(u[0])), (0.0, dt), x, method="DOP853", rtol=1e-12, atol=1e-13)
        err = float(np.max(np.abs(sol.y[:, -1] - y)))
        if not (err <= atol):
            errors.append(f"pair x={x.tolist()} u={u.tolist()}: y is {err:.3g} from the integrated state")
    return errors


def check_forecasts(nystrom: dict) -> list[str]:
    """Every Nystrom forecast is finite and m = 80 beats m = 10 in median RMSE."""
    errors = []
    for m, values in nystrom.items():
        if not all(math.isfinite(v) for v in values):
            errors.append(f"non-finite Nystrom forecast at m = {m}")
    if not errors and not float(np.median(nystrom[80])) < float(np.median(nystrom[10])):
        errors.append("median Nystrom RMSE at m = 80 is not below the one at m = 10")
    return errors


def loglog_slope(ms, values) -> float:
    """Least-squares slope of log(values) against log(ms)."""
    return float(np.polyfit(np.log(np.asarray(ms, dtype=float)), np.log(np.asarray(values, dtype=float)), 1)[0])


def check_rates(ms, operator_gaps, riccati_gaps, objective_gaps, objective_scale: float) -> list[str]:
    """Objective gaps are non-negative and the median gaps decay at the paper's rates.

    Each gap argument holds one list of per-seed values per entry of ``ms``.
    The objective gap is the cost of the compressed gain minus the optimal cost
    on the exact surrogate, so it cannot be negative beyond round-off relative
    to ``objective_scale``.
    """
    errors = []
    low = min(min(row) for row in objective_gaps)
    if not low >= -OBJECTIVE_GAP_RTOL * objective_scale:
        errors.append(f"objective gap {low:.3g} is negative beyond round-off")
    limits = [("operator", operator_gaps, GAP_SLOPE_MAX), ("riccati", riccati_gaps, GAP_SLOPE_MAX),
              ("objective", objective_gaps, OBJECTIVE_SLOPE_MAX)]
    for name, rows, limit in limits:
        medians = [float(np.median(row)) for row in rows]
        if not all(math.isfinite(v) and v > 0 for v in medians):
            errors.append(f"{name} gap medians are not positive and finite: {medians}")
            continue
        slope = loglog_slope(ms, medians)
        if not slope <= limit:
            errors.append(f"{name} gap slope {slope:.3f} is above {limit}")
    return errors
