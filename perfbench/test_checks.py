"""Each correctness check of the benchmark accepts a right input and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import numpy as np

import checks

DT = 0.01
X0 = 0.9


def test_cubic_value_closed_form():
    assert abs(checks.cubic_value(X0) / DT - 56.3375) < 1e-3
    # V solves the HJB equation of x' = -x^3 + u: x^2 + min_u [u^2 + V'(x)(-x^3 + u)] = 0
    for x in (0.3, 0.9, 1.4):
        h = 1e-6
        dv = (checks.cubic_value(x + h) - checks.cubic_value(x - h)) / (2 * h)
        assert abs(x * x - dv * dv / 4 - dv * x**3) < 1e-6


def test_cubic_costs_reject_five_percent_off():
    reference = checks.cubic_value(X0) / DT
    assert checks.check_cubic_costs([57.02, 57.03], 0, X0, DT) == []
    assert checks.check_cubic_costs([1.05 * reference] * 2, 0, X0, DT)
    assert checks.check_cubic_costs([0.95 * reference] * 2, 0, X0, DT)
    assert checks.check_cubic_costs([57.02, 57.03], 1, X0, DT)
    assert checks.check_cubic_costs([57.02, float("inf")], 0, X0, DT)


def _rk4_pairs(n=4):
    rng = np.random.default_rng(0)
    X, U, Y = rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 1)), []
    for x, u in zip(X, U):
        f = lambda s: checks.duffing_rhs(s, u[0])
        k1 = f(x)
        k2 = f(x + 0.5 * DT * k1)
        k3 = f(x + 0.5 * DT * k2)
        k4 = f(x + DT * k3)
        Y.append(x + DT / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return X, U, np.array(Y)


def test_pairs_reject_a_perturbed_pair():
    X, U, Y = _rk4_pairs()
    assert checks.check_pairs(checks.duffing_rhs, DT, X, U, Y) == []
    Y[2, 1] += 1e-6
    assert len(checks.check_pairs(checks.duffing_rhs, DT, X, U, Y)) == 1
    X, U, Y = _rk4_pairs()
    U[0, 0] += 1e-3
    assert len(checks.check_pairs(checks.duffing_rhs, DT, X, U, Y)) == 1


def test_forecasts():
    good = {10: [40.0, 20.0], 20: [11.0, 16.0], 40: [6.0, 9.0], 80: [5.0, 7.0]}
    assert checks.check_forecasts(good) == []
    assert checks.check_forecasts({**good, 80: [45.0, 50.0]})
    assert checks.check_forecasts({**good, 40: [6.0, float("inf")]})


MS = (10, 20, 40, 80, 160)


def _gaps(rate, scale):
    return [[scale * m**rate] for m in MS]


def test_rates_reject_a_negative_objective_gap():
    op, ric, obj = _gaps(-1.5, 2.0), _gaps(-1.5, 25.0), _gaps(-5.0, 1e-2)
    assert checks.check_rates(MS, op, ric, obj, objective_scale=56.3) == []
    obj[-1] = [-1e-6]
    assert checks.check_rates(MS, op, ric, obj, objective_scale=56.3)


def test_rates_reject_slow_decay():
    op, ric, obj = _gaps(-1.5, 2.0), _gaps(-1.5, 25.0), _gaps(-5.0, 1e-2)
    assert checks.check_rates(MS, _gaps(-0.2, 2.0), ric, obj, 56.3)
    assert checks.check_rates(MS, op, _gaps(-0.2, 25.0), obj, 56.3)
    assert checks.check_rates(MS, op, ric, _gaps(-0.4, 1e-2), 56.3)
    assert abs(checks.loglog_slope(MS, [m**-0.75 for m in MS]) + 0.75) < 1e-12
