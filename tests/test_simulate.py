import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kooplift import experiments, simulate
from kooplift.data import build_pairs, derived_rng
from kooplift.identify import ThinPlateLift, fit
from kooplift.lqr import solve_model_dare
from kooplift.numerics import one_blas_thread
from kooplift.simulate import (
    DIVERGENCE_NORM,
    CollectionProtocol,
    FixedInit,
    SquareWave,
    SystemSpec,
    UniformBall,
    UniformBox,
    UniformIID,
    ZeroInput,
    collect_training_data,
    cubic_system,
    duffing_system,
    metric_rmse_pct,
    metric_rmse_u_pct,
    rk4_step,
    rollout_closed_loop,
    rollout_closed_loops,
    rollout_open_loop,
    rollout_policy,
    true_optimal_control_cubic,
)


def test_rk4_zero_field():
    sys = SystemSpec("still", d=2, n_u=1, dt=0.1, rhs=lambda x, u: np.zeros(2))
    x = np.array([0.3, -0.7])
    np.testing.assert_array_equal(rk4_step(sys, x, [0.0]), x)


def test_rk4_exponential_decay():
    sys = SystemSpec("decay", d=1, n_u=1, dt=0.1, rhs=lambda x, u: -x)
    ratio = rk4_step(sys, [1.0], [0.0])[0]
    # classical RK4: the 4-term exponential series, 0.90483750 to 8 digits;
    # its gap to exp(-0.1) is the h^5/120 truncation, ~8.2e-8
    assert ratio == pytest.approx(0.90483750, abs=2e-8)
    assert abs(ratio - math.exp(-0.1)) <= 1e-7


def test_rk4_order():
    # halving dt shrinks the one-step error against a dense reference by ~2^5
    sys1 = cubic_system(dt=0.1)
    sys2 = cubic_system(dt=0.05)
    fine = cubic_system(dt=0.1 / 512)
    x0, u = np.array([0.8]), np.array([0.3])
    ref1 = x0.copy()
    for _ in range(512):
        ref1 = rk4_step(fine, ref1, u)
    fine2 = cubic_system(dt=0.05 / 512)
    ref2 = x0.copy()
    for _ in range(512):
        ref2 = rk4_step(fine2, ref2, u)
    e1 = abs(rk4_step(sys1, x0, u)[0] - ref1[0])
    e2 = abs(rk4_step(sys2, x0, u)[0] - ref2[0])
    assert 24.0 <= e1 / e2 <= 40.0


def test_duffing_equilibria():
    sys = duffing_system()
    for eq in ([0.5, 0.0], [-0.5, 0.0]):
        step = rk4_step(sys, eq, [0.0])
        np.testing.assert_allclose(step, eq, atol=1e-14)


def test_duffing_origin_unstable():
    sys = duffing_system()
    x = np.array([1e-3, 0.0])
    for _ in range(500):  # 5 s
        x = rk4_step(sys, x, [0.0])
    assert np.linalg.norm(x) >= 10 * 1e-3


def test_rk4_rejects_nonfinite():
    sys = cubic_system()
    with pytest.raises(ValueError):
        rk4_step(sys, [np.nan], [0.0])


def test_collect_zero_input_duffing_attracted():
    sys = duffing_system()
    protocol = CollectionProtocol(1, 5.0, ZeroInput(), FixedInit((0.4, 0.0)), seed=0)
    tr = collect_training_data(sys, protocol)[0]
    eq = np.array([0.5, 0.0])
    assert np.linalg.norm(tr.states[-1] - eq) < np.linalg.norm(tr.states[0] - eq)
    assert np.all(tr.controls == 0.0)


def test_collect_uniform_input_mean():
    sys = cubic_system()
    protocol = CollectionProtocol(1, 100.0, UniformIID(-1, 1), UniformBox(-0.1, 0.1), seed=1)
    tr = collect_training_data(sys, protocol)[0]
    assert len(tr.controls) == 10_000
    assert abs(float(np.mean(tr.controls))) <= 0.02


def test_collect_deterministic():
    sys = cubic_system()
    protocol = CollectionProtocol(3, 0.5, UniformIID(-1, 1), UniformBox(-1, 1), seed=7)
    a = collect_training_data(sys, protocol)
    b = collect_training_data(sys, protocol)
    for ta, tb in zip(a, b):
        np.testing.assert_array_equal(ta.states, tb.states)
        np.testing.assert_array_equal(ta.controls, tb.controls)


def test_collect_validation():
    sys = cubic_system()
    with pytest.raises(ValueError):
        collect_training_data(sys, CollectionProtocol(0, 1.0, ZeroInput(), UniformBox(), seed=0))
    with pytest.raises(ValueError):
        collect_training_data(sys, CollectionProtocol(1, 0.015, ZeroInput(), UniformBox(), seed=0))


def test_uniform_ball_stays_inside():
    rng = np.random.default_rng(0)
    law = UniformBall(1.0)
    pts = np.array([law.sample(rng, 2) for _ in range(200)])
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)


def test_square_wave_values():
    law = SquareWave(amplitude=2.0, frequency=3.33)
    U = law.draw(None, 2, 3, 0.01, 1)
    assert U.shape == (2, 3, 1)
    assert U[0, 1, 0] == pytest.approx(2.0 * np.sign(np.sin(2 * np.pi * 3.33 * 0.01)))
    np.testing.assert_array_equal(U[0], U[1])


def test_uniform_iid_validates_bounds():
    for lo, hi, field in ((np.nan, 1.0, "lo"), (-1.0, np.inf, "hi"), (1.0, -1.0, "lo")):
        with pytest.raises(ValueError, match=f"UniformIID.{field}"):
            UniformIID(lo, hi)
    assert UniformIID(0.5, 0.5).draw(np.random.default_rng(0), 1, 2, 0.1, 1).tolist() == [[[0.5], [0.5]]]


def test_square_wave_validates_parameters():
    with pytest.raises(ValueError, match="SquareWave.amplitude"):
        SquareWave(amplitude=np.nan)
    with pytest.raises(ValueError, match="SquareWave.frequency"):
        SquareWave(frequency=-np.inf)


def test_uniform_box_validates_bounds():
    for lo, hi, field in ((-np.inf, 1.0, "lo"), (0.0, np.nan, "hi"), (2.0, 1.0, "lo")):
        with pytest.raises(ValueError, match=f"UniformBox.{field}"):
            UniformBox(lo, hi)


def test_uniform_ball_validates_radius():
    for radius in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="UniformBall.radius"):
            UniformBall(radius)


@pytest.mark.parametrize("sys", [cubic_system(), duffing_system()], ids=["cubic", "duffing"])
@pytest.mark.parametrize("S", [1, 2, 5])
def test_batched_rhs_and_rk4_match_rows(sys, S):
    rng = np.random.default_rng(S)
    X = rng.uniform(-1.5, 1.5, size=(S, sys.d))
    U = rng.uniform(-1.0, 1.0, size=(S, sys.n_u))
    F = sys.rhs(X, U)
    assert F.shape == (S, sys.d)
    np.testing.assert_array_equal(F, np.array([sys.rhs(x, u) for x, u in zip(X, U)]))
    step = rk4_step(sys, X, U)
    assert step.shape == (S, sys.d)
    np.testing.assert_array_equal(step, np.array([rk4_step(sys, x, u) for x, u in zip(X, U)]))
    for row in range(S):
        bad = X.copy()
        bad[row, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(sys, bad, U)
        bad = U.copy()
        bad[row, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            rk4_step(sys, X, bad)


def test_rollout_policy_uncontrolled_cubic_decays():
    sys = cubic_system()
    res = rollout_policy(sys, lambda x: np.zeros(1), [0.9], 200)
    assert np.all(res.controls == 0.0)
    norms = np.abs(res.states[:, 0])
    assert norms[-1] < norms[0]
    assert not res.diverged


def _boom():
    # finite-time blow-up: x' = x^2 + 1 leaves the divergence ball within a few steps
    return SystemSpec("boom", d=1, n_u=1, dt=0.1, rhs=lambda x, u: x**2 + 1.0)


def _closed_loop_zero_gain(sys, x0, T, n_u=1):
    ds = build_pairs(collect_training_data(cubic_system(), CollectionProtocol(1, 0.2, UniformIID(), UniformBox())))
    model = fit(ds, ThinPlateLift(np.linspace(-1.0, 1.0, 5)[:, None]), gamma=1e-6)
    return rollout_closed_loop(sys, model, SimpleNamespace(K_m=np.zeros((n_u, model.r))), x0, T)


@pytest.mark.parametrize(
    "rollout",
    [
        pytest.param(lambda sys, x0, T: rollout_policy(sys, lambda x: np.zeros(1), x0, T), id="policy"),
        pytest.param(lambda sys, x0, T: rollout_open_loop(sys, x0, np.zeros((T, 1))), id="open_loop"),
        pytest.param(_closed_loop_zero_gain, id="closed_loop"),
    ],
)
def test_rollout_policy_divergence_flagged(rollout):
    res = rollout(_boom(), [5.0], 500)
    assert res.diverged
    assert res.diverged_step is not None
    assert len(res.states) == res.diverged_step + 1
    assert len(res.controls) == len(res.stage_costs) == res.diverged_step
    assert not np.abs(res.states[-1, 0]) <= DIVERGENCE_NORM
    assert np.all(np.abs(res.states[:-1, 0]) <= DIVERGENCE_NORM)


def assert_same_rollouts(stacked, singles):
    assert len(stacked) == len(singles)
    for a, b in zip(stacked, singles):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.controls, b.controls)
        np.testing.assert_array_equal(a.stage_costs, b.stage_costs)
        assert (len(a.controls), a.diverged, a.diverged_step) == (len(b.controls), b.diverged, b.diverged_step)


def _optimal(x):
    return np.array([true_optimal_control_cubic(x)])


def run_alone(sys, models, sols, policies, x0, T, **kw):
    """Each model's and each policy's rollout, each in a stack of its own."""
    return [rollout_closed_loop(sys, model, sol, x0, T, **kw) for model, sol in zip(models, sols)] + [
        rollout_policy(sys, policy, x0, T, **kw) for policy in policies
    ]


def run_both(sys, models, sols, x0, T, policies=(), **kw):
    """The closed loops and policies as one call, checked against each one's stack of one."""
    stacked = rollout_closed_loops(sys, models, sols, x0, T, policies=policies, **kw)
    assert_same_rollouts(stacked, run_alone(sys, models, sols, policies, x0, T, **kw))
    return stacked


@pytest.fixture(scope="module")
def cubic_regulators():
    sys, ds = experiments.cubic_training_data(seed=0)
    with one_blas_thread():  # the thread count the experiments fit and synthesize at
        models = [experiments.fit_nystrom(ds, 100, seed) for seed in range(5)]
        return sys, ds, models, [solve_model_dare(model, np.eye(1), np.eye(1)) for model in models]


def test_stacked_closed_loops_match_singles_cubic(cubic_regulators):
    sys, _, models, sols = cubic_regulators
    runs = run_both(sys, models, sols, [0.9], 10_000, Qprime=np.eye(1), R=np.eye(1), stop_norm=1e-6)
    steps = {len(res.controls) for res in runs}
    assert len(steps) > 1 and max(steps) < 10_000  # the rows stop at different steps
    runs = run_both(sys, models, sols, [0.9], 2_000, reference=[0.2], Qprime=2.0 * np.eye(1), stop_norm=1e-3)
    assert all(len(res.controls) < 2_000 and abs(res.states[-1, 0] - 0.2) < 1e-3 for res in runs)


def test_stacked_closed_loops_match_singles_duffing():
    sys, ds = experiments.duffing_training_data(seed=0)
    models = [experiments.fit_nystrom(ds, 20, seed) for seed in range(5)]
    sols = [solve_model_dare(model, np.eye(2), np.eye(1)) for model in models]
    runs = run_both(sys, models, sols, [-0.5, 0.0], 500)
    assert all(len(res.controls) == 500 for res in runs)
    run_both(sys, models, sols, [-0.5, 0.0], 300, reference=[0.1, -0.05], Qprime=np.diag([1.0, 0.5]))


def test_stacked_closed_loops_split_by_landmark_count(cubic_regulators):
    sys, ds, models, sols = cubic_regulators
    small = experiments.fit_nystrom(ds, 50, 7)
    mixed = [models[0], small, models[1]]  # the m = 100 group's rows are not adjacent in model order
    assert len({model.m for model in mixed}) == 2
    mixed_sols = [sols[0], solve_model_dare(small, np.eye(1), np.eye(1)), sols[1]]
    # with the optimal policy in the stack: under the stop rule, and without it
    runs = run_both(sys, mixed, mixed_sols, [0.9], 10_000, [_optimal], Qprime=np.eye(1), R=np.eye(1), stop_norm=1e-6)
    steps = [len(res.controls) for res in runs]
    assert len(set(steps)) > 1 and max(steps) < 10_000  # the rows stop at different steps
    runs = run_both(sys, mixed, mixed_sols, [0.9], 200, [_optimal])
    assert {len(res.controls) for res in runs} == {200}
    assert rollout_closed_loops(sys, [], [], [0.9], 10) == []
    with pytest.raises(ValueError, match="one Riccati solution per model"):
        rollout_closed_loops(sys, mixed, mixed_sols[:2], [0.9], 10)


def test_stacked_thin_plate_loops_end_rows_by_themselves():
    # x' = x^2 + u from 0.5: a zero gain and a constant push blow up, scaled regulator
    # gains and stabilizing policies stop at different steps
    sys = _boom_forced()
    ds = build_pairs(collect_training_data(cubic_system(), CollectionProtocol(4, 1.0, UniformIID(), UniformBox())))
    models = [fit(ds, ThinPlateLift(np.linspace(lo, lo + 2.0, 5)[:, None]), gamma=1e-6) for lo in (-1.0, -0.8)]
    gains = [solve_model_dare(model, np.eye(1), np.eye(1)).K_m for model in models]
    sols = [SimpleNamespace(K_m=scale * K) for scale in (0.0, 1.0, 3.0) for K in gains]
    policies = [lambda x: np.ones(1), lambda x: -x**2 - x, lambda x: -x**2 - 0.5 * x]
    runs = run_both(sys, models * 3, sols, [0.5], 500, policies, stop_norm=1e-3)
    assert [res.diverged for res in runs] == [True, True, False, False, False, False, True, False, False]
    steps = [len(res.controls) for res in runs]
    assert len(set(steps[2:6])) == 4
    # the pushed policy's row diverges first and ends by itself; every other row goes on
    assert steps[6] < min(steps[:6] + steps[7:]) and len(set(steps[6:])) == 3 and max(steps) < 500


def test_policy_stack_validates_shapes():
    with pytest.raises(ValueError, match=r"x0 has shape \(2,\).*\(1,\)"):
        rollout_policy(cubic_system(), _optimal, [0.5, 0.2], 5)
    with pytest.raises(ValueError, match=r"x0 has shape \(1,\).*\(2,\)"):
        rollout_policy(duffing_system(), lambda x: np.zeros(1), [0.5], 5)
    with pytest.raises(ValueError, match=r"x0 has shape \(1,\)"):
        rollout_closed_loops(duffing_system(), [], [], [0.5], 5)  # checked with no rows to step too
    with pytest.raises(ValueError, match=r"a gain has shape \(2, 5\), the cubic system takes 1 inputs"):
        _closed_loop_zero_gain(cubic_system(), [0.5], 5, n_u=2)


def test_policy_stack_validates_control_width():
    with pytest.raises(ValueError, match=r"policy 1 gives a control of shape \(2,\), the system takes \(1,\)"):
        rollout_closed_loops(cubic_system(), [], [], [0.5], 5, policies=[_optimal, lambda x: np.zeros(2)])
    with pytest.raises(ValueError, match=r"policy 0 gives a control of shape \(0,\)"):
        rollout_policy(duffing_system(), lambda x: np.zeros(0), [0.5, 0.0], 5)
    res = rollout_policy(cubic_system(), lambda x: -0.5 * float(x[0]), [0.5], 5)  # a scalar is one input's control
    assert res.controls.shape == (5, 1)


def test_open_loop_validates_controls_and_start():
    sys = duffing_system()
    with pytest.raises(ValueError, match=r"controls have shape \(5, 2\), the duffing system takes \(T, 1\)"):
        rollout_open_loop(sys, [0.1, 0.0], np.zeros((5, 2)))
    with pytest.raises(ValueError, match=r"controls have shape \(5, 1, 1\)"):
        rollout_open_loop(sys, [0.1, 0.0], np.zeros((5, 1, 1)))
    with pytest.raises(ValueError, match=r"x0 has shape \(3,\)"):
        rollout_open_loop(sys, [0.1, 0.0, 0.2], np.zeros(5))
    assert rollout_open_loop(sys, [0.1, 0.0], np.zeros(5)).controls.shape == (5, 1)


@pytest.fixture(scope="module")
def cubic_experiments_traced():
    """Both cubic experiments at three landmark seeds, each with the row counts
    of the RK4 stacks it ran."""
    integrate = simulate._integrate
    stacks = []

    def counted(sys, X0, *args, **kw):
        stacks.append(len(X0))
        return integrate(sys, X0, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_integrate", counted)
        cost = experiments.cubic_cost_experiment(n_seeds=3, exact=True)
        cost_stacks, stacks[:] = stacks[:], []
        rmse = experiments.cubic_rmse_experiment(n_seeds=3)
    return cost, cost_stacks, rmse, stacks


def test_cubic_experiments_run_one_rollout_stack(cubic_experiments_traced):
    _, cost_stacks, _, rmse_stacks = cubic_experiments_traced
    # collection steps the 20 training trajectories; then one stack holds every loop
    assert cost_stacks == [20, 3 + 1 + 1]  # Nystrom seeds, the exact model, the optimal policy
    assert rmse_stacks == [20, 3 + 1]


def test_cubic_experiments_match_rollouts_run_alone(cubic_regulators, cubic_experiments_traced):
    sys, ds, models, sols = cubic_regulators  # the experiments' models: data seed 0, m = 100, seeds 0..4
    cost, _, rmse, _ = cubic_experiments_traced
    with one_blas_thread():  # the exact fit's last bits depend on the thread count
        model_ex = experiments.fit_exact(ds)
        sol_ex = solve_model_dare(model_ex, np.eye(1), np.eye(1))
    kw = dict(Qprime=np.eye(1), R=np.eye(1), stop_norm=1e-6)
    *ny, ex, opt = run_alone(sys, models[:3] + [model_ex], sols[:3] + [sol_ex], [_optimal], [0.9], 10_000, **kw)
    assert cost.nystrom_costs == [res.total_cost for res in ny]
    assert (cost.exact_cost, cost.optimal_cost, cost.diverged) == (ex.total_cost, opt.total_cost, 0)
    *ny, opt = run_alone(sys, models[:3], sols[:3], [_optimal], [0.9], 200)
    assert rmse == [metric_rmse_u_pct(res.controls, opt.controls) for res in ny]


def test_collect_truncates_at_diverging_step():
    sys = _boom()
    tr = collect_training_data(sys, CollectionProtocol(1, 50.0, ZeroInput(), FixedInit((5.0,))))[0]
    # step by hand up to the first state outside the ball, which is dropped
    expected = [np.array([5.0])]
    while True:
        x = rk4_step(sys, expected[-1], [0.0])
        if not (np.all(np.isfinite(x)) and np.linalg.norm(x) <= DIVERGENCE_NORM):
            break
        expected.append(x)
    assert 2 <= len(expected) < 500
    np.testing.assert_array_equal(tr.states, np.array(expected))
    np.testing.assert_array_equal(tr.controls, np.zeros((len(expected) - 1, 1)))


def collect_one_step_at_a_time(sys, protocol):
    """Collection written out step by step: the oracle for the batched collection.

    Each trajectory starts from the next draw of the init stream and steps a
    (d,) state with ``rk4_step``, taking one input draw per step actually
    taken, so a trajectory that diverges at step s consumes s draws.
    """
    T = int(round(protocol.duration / sys.dt))
    law = protocol.input_law
    rng_init = derived_rng("init-conditions", protocol.seed)
    rng_u = derived_rng("training-inputs", protocol.seed)
    trajs = []
    for _ in range(protocol.n_traj):
        states = [protocol.init_law.sample(rng_init, sys.d)]
        controls = []
        for t in range(T):
            if isinstance(law, UniformIID):
                u = rng_u.uniform(law.lo, law.hi, size=sys.n_u)
            elif isinstance(law, SquareWave):
                u = np.full(sys.n_u, law.amplitude * np.sign(np.sin(2.0 * np.pi * law.frequency * (t * sys.dt))))
            else:
                u = np.zeros(sys.n_u)
            x = rk4_step(sys, states[-1], u)
            if not np.linalg.norm(x) <= DIVERGENCE_NORM:
                break
            states.append(x)
            controls.append(u)
        trajs.append((np.array(states), np.array(controls).reshape(-1, sys.n_u)))
    return trajs


def _boom_forced():
    # x' = x^2 + u blows up in finite time from starts near the top of [-1.5, 1]
    return SystemSpec("boom-forced", d=1, n_u=1, dt=0.1, rhs=lambda x, u: x**2 + u)


@pytest.mark.parametrize(
    "sys, protocol",
    [
        pytest.param(duffing_system(), CollectionProtocol(6, 1.0, ZeroInput(), UniformBall(1.0), seed=3), id="duffing-unforced"),
        pytest.param(duffing_system(), CollectionProtocol(6, 0.5, UniformIID(-1, 1), UniformBall(1.0), seed=4), id="duffing-forced"),
        pytest.param(cubic_system(), CollectionProtocol(5, 1.0, SquareWave(0.7, 2.0), UniformBox(-1, 1), seed=2), id="cubic-square"),
        pytest.param(_boom_forced(), CollectionProtocol(8, 3.0, UniformIID(-1, 1), UniformBox(-1.5, 1.0), seed=0), id="middle-diverges"),
    ],
)
def test_collect_matches_step_by_step_oracle(sys, protocol):
    got = collect_training_data(sys, protocol)
    want = collect_one_step_at_a_time(sys, protocol)
    assert len(got) == len(want) == protocol.n_traj
    for tr, (states, controls) in zip(got, want):
        np.testing.assert_array_equal(tr.states, states)
        np.testing.assert_array_equal(tr.controls, controls)
    if sys.name == "boom-forced":
        # trajectory 2 is truncated; the draws of every one after it shift
        lengths = [len(tr.states) for tr in got]
        assert lengths[0] == lengths[-1] == 31 and lengths[2] < 31


def test_collect_raises_when_first_step_diverges():
    protocol = CollectionProtocol(1, 1.0, ZeroInput(), FixedInit((1e4,)))
    with pytest.raises(RuntimeError, match="first step"):
        collect_training_data(_boom(), protocol)


def test_open_loop_rollout_matches_manual_stepping():
    sys = duffing_system()
    U = np.array([[0.3], [-0.2], [0.1]])
    res = rollout_open_loop(sys, [0.1, 0.0], U)
    x = np.array([0.1, 0.0])
    for k, u in enumerate(U):
        x = rk4_step(sys, x, u)
        np.testing.assert_array_equal(res.states[k + 1], x)


def test_metric_rmse_identical_is_zero():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert metric_rmse_pct(X, X) == 0.0


def test_metric_rmse_single_step_example():
    # truth (1,1), forecast (1,0): 100*sqrt(1/2)
    assert metric_rmse_pct([[1.0, 1.0]], [[1.0, 0.0]]) == pytest.approx(70.71067811865476)


def test_metric_rmse_scale_invariant():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 2))
    F = X + rng.normal(size=(10, 2)) * 0.1
    assert metric_rmse_pct(3.7 * X, 3.7 * F) == pytest.approx(metric_rmse_pct(X, F))


def test_metric_rmse_zero_denominator():
    with pytest.raises(ValueError):
        metric_rmse_pct(np.zeros((3, 1)), np.ones((3, 1)))


def test_metric_rmse_u():
    assert metric_rmse_u_pct([[1.0]], [[1.0]]) == 0.0
    assert metric_rmse_u_pct([[2.0]], [[1.0]]) == pytest.approx(100.0)
    u = np.array([[0.5], [-0.3]])
    assert metric_rmse_u_pct(-u, u) == pytest.approx(200.0)


def test_true_optimal_control_cubic():
    assert true_optimal_control_cubic(0.0) == 0.0
    assert true_optimal_control_cubic(1.0) == pytest.approx(1.0 - math.sqrt(2.0))
    for x in (0.3, 0.9, 1.7):
        assert true_optimal_control_cubic(-x) == pytest.approx(-true_optimal_control_cubic(x))


def test_true_optimal_control_cubic_takes_one_state():
    assert true_optimal_control_cubic(np.array([0.5])) == true_optimal_control_cubic(0.5)
    assert true_optimal_control_cubic(np.array([[0.9]])) == true_optimal_control_cubic(0.9)
    for x in (np.array([0.5, 0.9]), np.zeros(0), np.zeros((2, 1))):
        with pytest.raises(ValueError, match="one entry"):
            true_optimal_control_cubic(x)


def test_public_names_resolve():
    # every module's __all__ names what the module has, and the package
    # re-exports only names that its modules list in __all__
    import ast
    import importlib
    import pkgutil

    import kooplift

    stale = []
    for info in pkgutil.iter_modules(kooplift.__path__):
        module = importlib.import_module(f"kooplift.{info.name}")
        stale += [f"kooplift.{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    tree = ast.parse(Path(kooplift.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        public = importlib.import_module(f"kooplift.{node.module}").__all__
        stale += [f"kooplift: {node.module}.{alias.name}" for alias in node.names if alias.name not in public]
    assert not stale, f"exported names that are not public or not there: {stale}"
    assert {"rollout_policy", "rollout_open_loop", "FixedInit"} <= set(simulate.__all__)
