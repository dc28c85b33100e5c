"""Ground-truth systems, RK4 rollouts, data-collection protocols and metrics.

The benchmark zoo:

* cubic:    xdot = -x^3 + u                 (scalar; known optimal regulator
            u*(x) = x^3 - x sqrt(1 + x^4) for unit quadratic weights)
* duffing:  x1dot = x2
            x2dot = -0.5 x2 - x1 (4 x1^2 - 1) + 0.5 u
            (origin unstable, stable equilibria at (+-0.5, 0))

Continuous dynamics are discretized with classical RK4 under a zero-order hold
on the control.  States and controls travel in stacks: a system's ``rhs`` and
``rk4_step`` take S states as an (S, d) array and their controls as an (S, n_u)
array, and ``_integrate`` is the one RK4 loop, stepping a whole stack at once.
Collection steps every trajectory of a protocol together.  The rollouts of one
``rollout_closed_loops`` call, the closed loops of many models (one per landmark
seed, say) and any baseline policies, run as one stack: the models of one lift
shape form a group with one batched readout, each policy a group of one row,
and each row is bit for bit its own stack of one.  ``rollout_policy`` is that
call with one policy and no models; an open-loop rollout is a stack of one.
Rollouts never raise on divergence; they truncate and flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .data import Trajectory, derived_rng
from .identify import KoopmanModel, ReadoutStack, lift_shape, readout_stack
from .lqr import RiccatiSolution

FloatArray = NDArray[np.float64]

__all__ = [
    "SystemSpec",
    "cubic_system",
    "duffing_system",
    "InputLaw",
    "ZeroInput",
    "UniformIID",
    "SquareWave",
    "InitLaw",
    "UniformBox",
    "UniformBall",
    "FixedInit",
    "CollectionProtocol",
    "RolloutResult",
    "rk4_step",
    "collect_training_data",
    "rollout_closed_loop",
    "rollout_closed_loops",
    "rollout_policy",
    "rollout_open_loop",
    "metric_rmse_pct",
    "metric_rmse_u_pct",
    "true_optimal_control_cubic",
    "DIVERGENCE_NORM",
]

DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class SystemSpec:
    """Controlled continuous-time system discretized at a fixed step.

    ``rhs(x, u)`` is the vector field of a stack of states: x is (S, d), u is
    (S, n_u), and the result is (S, d), row s depending on row s alone.  A
    single state of shape (d,) with control (n_u,) gives (d,).
    """

    name: str
    d: int
    n_u: int
    dt: float
    rhs: Callable[[FloatArray, FloatArray], FloatArray]

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")


def cubic_system(dt: float = 0.01) -> SystemSpec:
    def rhs(x, u):
        return -x**3 + u

    return SystemSpec("cubic", d=1, n_u=1, dt=dt, rhs=rhs)


def duffing_system(dt: float = 0.01) -> SystemSpec:
    def rhs(x, u):
        x1, x2 = x.T  # the last axis: scalars for one state, columns for a stack
        return np.array([x2, -0.5 * x2 - x1 * (4.0 * x1 * x1 - 1.0) + 0.5 * u.T[0]]).T

    return SystemSpec("duffing", d=2, n_u=1, dt=dt, rhs=rhs)


def rk4_step(sys: SystemSpec, x, u) -> FloatArray:
    """Classical 4-stage Runge-Kutta update with the control held constant.

    x is one state (d,) or a stack (S, d), u its control (n_u,) or (S, n_u);
    the result has the shape of x.  Any non-finite entry raises.  A stack of
    one is stepped as the (d,) state it holds, with the same arithmetic: on
    one state numpy's cost per call, not the arithmetic, sets the time, and a
    (d,) state lets an ``rhs`` such as Duffing's work on scalars.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise ValueError("non-finite state or control")
    if x.ndim < 2:
        return _rk4_update(sys, x.ravel(), u.ravel())
    if len(x) == 1:
        return _rk4_update(sys, x[0], u.ravel())[None]
    return _rk4_update(sys, x, u)


def _rk4_update(sys: SystemSpec, x: FloatArray, u: FloatArray) -> FloatArray:
    dt = sys.dt
    k1 = sys.rhs(x, u)
    k2 = sys.rhs(x + 0.5 * dt * k1, u)
    k3 = sys.rhs(x + 0.5 * dt * k2, u)
    k4 = sys.rhs(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _row_norms(x) -> FloatArray:
    """Euclidean norm of each row of an (S, d) stack."""
    return np.sqrt((x * x).sum(axis=-1))


@dataclass
class _Run:
    """What ``_integrate`` returns for a stack of S rows.

    Row s ran ``steps[s]`` steps: its states are ``states[: steps[s] + 1, s]``
    and its controls ``controls[: steps[s], s]``; entries past those are unset.
    """

    states: FloatArray  # (T+1, S, d)
    controls: FloatArray  # (T, S, n_u)
    steps: NDArray[np.int64]  # (S,)
    diverged: NDArray[np.bool_]  # (S,)


def _integrate(sys: SystemSpec, X0, T_steps: int, control, stop=None) -> _Run:
    """The RK4 loop every trajectory runs: S rows stepped together, up to T_steps.

    ``control(t, x, rows)`` gives the (S', n_u) controls of the S' rows still
    running, whose states are x and whose indices into the stack are ``rows``
    (a slice while every row runs; the same object until a row ends).  A row ends on its own: a step whose state
    is non-finite or has norm above DIVERGENCE_NORM is kept, with non-finite
    entries set to inf, and flagged; with ``stop = (r, stop_norm)`` a row also
    ends once ||x - r|| falls below stop_norm.
    """
    X0 = np.asarray(X0, dtype=float)
    S = len(X0)
    states = np.empty((T_steps + 1, S, sys.d))
    controls = np.empty((T_steps, S, sys.n_u))
    states[0] = X0
    steps = np.full(S, T_steps)
    diverged = np.zeros(S, dtype=bool)
    rows = slice(None)
    x = X0
    for t in range(T_steps):
        u = control(t, x, rows)
        x_next = rk4_step(sys, x, u)
        controls[t, rows] = u
        states[t + 1, rows] = x_next
        # the norm of the whole stack bounds each row's: one reduction clears a step no row ends on
        if np.linalg.norm(x_next) <= DIVERGENCE_NORM and (
            stop is None or _row_norms(x_next - stop[0]).min() >= stop[1]
        ):
            x = x_next
            continue
        inside = _row_norms(x_next) <= DIVERGENCE_NORM  # false for inf and nan
        going = inside if stop is None else inside & (_row_norms(x_next - stop[0]) >= stop[1])
        out = ~inside
        idx = np.arange(S)[rows]
        steps[idx[~going]] = t + 1
        diverged[idx[out]] = True
        states[t + 1, idx[out]] = np.where(np.isfinite(x_next[out]), x_next[out], np.inf)
        rows, x = idx[going], x_next[going]
        if not rows.size:
            break
    return _Run(states, controls, steps, diverged)


# ---------------------------------------------------------------------------
# Data collection
# ---------------------------------------------------------------------------


def _require_finite(law, *fields: str) -> None:
    for name in fields:
        value = getattr(law, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(law).__name__}.{name} must be finite, got {value}")


def _require_bounds(law) -> None:
    _require_finite(law, "lo", "hi")
    if not law.lo <= law.hi:
        raise ValueError(f"{type(law).__name__}.lo must not exceed hi, got lo={law.lo}, hi={law.hi}")


# An input law's ``draw(rng, n_traj, T, dt, n_u)`` gives the (n_traj, T, n_u)
# controls of n_traj trajectories of T steps, control t held over [t dt, (t+1) dt);
# a random law draws them from rng in (trajectory, step, component) order.


@dataclass(frozen=True)
class ZeroInput:
    def draw(self, rng, n_traj: int, T: int, dt: float, n_u: int) -> FloatArray:
        return np.zeros((n_traj, T, n_u))


@dataclass(frozen=True)
class UniformIID:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        _require_bounds(self)

    def draw(self, rng, n_traj: int, T: int, dt: float, n_u: int) -> FloatArray:
        return rng.uniform(self.lo, self.hi, size=(n_traj, T, n_u))


@dataclass(frozen=True)
class SquareWave:
    amplitude: float = 1.0
    frequency: float = 3.33

    def __post_init__(self) -> None:
        _require_finite(self, "amplitude", "frequency")

    def draw(self, rng, n_traj: int, T: int, dt: float, n_u: int) -> FloatArray:
        t = np.arange(T) * dt
        wave = self.amplitude * np.sign(np.sin(2.0 * np.pi * self.frequency * t))
        return np.broadcast_to(wave[None, :, None], (n_traj, T, n_u)).copy()


InputLaw = ZeroInput | UniformIID | SquareWave


@dataclass(frozen=True)
class UniformBox:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        _require_bounds(self)

    def sample(self, rng, d: int) -> FloatArray:
        return rng.uniform(self.lo, self.hi, size=d)


@dataclass(frozen=True)
class UniformBall:
    radius: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, "radius")
        if not self.radius > 0:
            raise ValueError(f"UniformBall.radius must be positive, got {self.radius}")

    def sample(self, rng, d: int) -> FloatArray:
        # rejection sampling keeps the draw exactly uniform on the ball
        while True:
            x = rng.uniform(-1.0, 1.0, size=d)
            if np.dot(x, x) <= 1.0:
                return self.radius * x


@dataclass(frozen=True)
class FixedInit:
    point: tuple

    def sample(self, rng, d: int) -> FloatArray:
        x = np.asarray(self.point, dtype=float)
        if x.shape != (d,):
            raise ValueError(f"fixed init has dimension {x.shape}, expected ({d},)")
        return x.copy()


InitLaw = UniformBox | UniformBall | FixedInit


@dataclass(frozen=True)
class CollectionProtocol:
    n_traj: int
    duration: float  # seconds; must be an integer multiple of the system dt
    input_law: InputLaw
    init_law: InitLaw
    seed: int = 0


def collect_training_data(sys: SystemSpec, protocol: CollectionProtocol) -> list[Trajectory]:
    """Simulate the protocol's trajectories, deterministically in the seed.

    A trajectory that leaves the divergence ball is truncated at the offending
    step; truncation shows up as a shorter trajectory.

    Every start is drawn first, then all trajectories are stepped as one stack
    on a block of inputs drawn in (trajectory, step, component) order.  A
    trajectory that diverges at step s uses only s steps of its inputs, and the
    next trajectory's inputs start right after those, so the trajectories after
    it are stepped again on a block drawn from that point of the stream.
    """
    n = protocol.n_traj
    if n < 1:
        raise ValueError("protocol needs at least one trajectory")
    steps = protocol.duration / sys.dt
    T = int(round(steps))
    if abs(steps - T) > 1e-9 or T < 1:
        raise ValueError(f"duration {protocol.duration} is not a multiple of dt = {sys.dt}")
    law = protocol.input_law
    rng_init = derived_rng("init-conditions", protocol.seed)
    X0 = np.array([protocol.init_law.sample(rng_init, sys.d) for _ in range(n)], dtype=float)
    rng_u = derived_rng("training-inputs", protocol.seed)

    trajs = []
    while len(trajs) < n:
        first = len(trajs)
        stream = rng_u.bit_generator.state
        U = law.draw(rng_u, n - first, T, sys.dt, sys.n_u)
        run = _integrate(sys, X0[first:], T, lambda t, x, rows: U[rows, t])
        diverged = np.flatnonzero(run.diverged)
        last = diverged[0] if diverged.size else n - first - 1
        for k in range(last + 1):
            keep = run.steps[k] + 1 - int(run.diverged[k])  # the diverging step is dropped
            if keep < 2:
                raise RuntimeError(f"trajectory {first + k} diverged on its first step")
            states, controls = run.states[:keep, k], run.controls[: keep - 1, k]
            trajs.append(Trajectory(sys.dt, states.copy(), controls.copy(), traj_id=str(first + k)))
        if diverged.size:
            # replay the draws trajectories first..first+last used
            rng_u.bit_generator.state = stream
            law.draw(rng_u, last, T, sys.dt, sys.n_u)
            law.draw(rng_u, 1, run.steps[last], sys.dt, sys.n_u)
    return trajs


# ---------------------------------------------------------------------------
# Closed-loop rollouts
# ---------------------------------------------------------------------------


@dataclass
class RolloutResult:
    """States, controls and per-step stage costs of one rollout."""

    states: FloatArray  # (T+1, d)
    controls: FloatArray  # (T, n_u)
    stage_costs: FloatArray  # (T,)
    diverged: bool = False
    diverged_step: int | None = None

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.stage_costs))


def _rollouts(sys: SystemSpec, x0, S: int, T_steps: int, control, weights=None, stop_norm=None) -> list[RolloutResult]:
    """S rows started at the state x0 and stepped as one stack on ``_integrate``,
    one rollout per row: the one entry every rollout goes through.

    ``control`` is ``_integrate``'s.  With ``weights = (r, Q', R)`` each step
    records the stage cost (x - r)' Q' (x - r) + u' R u of the state it starts
    from, one array expression per row, and ``stop_norm`` ends a row once
    ||x - r|| falls below it; without, stage costs are zero.
    """
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape != (sys.d,):
        raise ValueError(f"x0 has shape {np.shape(x0)}, the {sys.name} system's state has shape ({sys.d},)")
    if S == 0:
        return []
    stop = None if stop_norm is None else (weights[0], stop_norm)
    run = _integrate(sys, np.tile(x, (S, 1)), T_steps, control, stop)
    results = []
    for s, n in enumerate(run.steps.tolist()):
        states, controls = run.states[: n + 1, s].copy(), run.controls[:n, s].copy()
        if weights is None:
            costs = np.zeros(n)
        else:
            r, Qprime, R = weights
            E = states[:n] - r
            costs = ((E @ Qprime) * E).sum(1) + ((controls @ R) * controls).sum(1)
        diverged = bool(run.diverged[s])
        results.append(RolloutResult(states, controls, costs, diverged, n if diverged else None))
    return results


def _stage_weights(sys: SystemSpec, reference, Qprime, R):
    """(r, Q', R) with the defaults: the origin and identity weights."""
    r = np.zeros(sys.d) if reference is None else np.asarray(reference, dtype=float).ravel()
    Qprime = np.eye(sys.d) if Qprime is None else np.atleast_2d(np.asarray(Qprime, dtype=float))
    R = np.eye(sys.n_u) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    return r, Qprime, R


# A group control ``control(x, rows)`` gives the (S', n_u) controls of the S'
# rows of its group still running: their states x and their indices ``rows``
# into the group, a slice while all of the stack runs and the same object
# until the stack's running set changes.


def _feedback(readout: ReadoutStack, r: FloatArray):
    """The group control u_s = K_s (z_s(x) - z_s(r)), row s of the readout stack.

    The stack of the rows still running is taken once each time that set changes.
    """
    shift = readout(np.tile(r, (len(readout.M), 1)))
    taken_rows, taken, taken_shift = None, readout, shift

    def control(x, rows):
        nonlocal taken_rows, taken, taken_shift
        if rows is not taken_rows:
            taken_rows, taken, taken_shift = rows, readout.take(rows), shift[rows]
        return taken(x) - taken_shift

    return control


def _policy(policy: Callable[[FloatArray], FloatArray], n_u: int, k: int):
    """The group control of one row under ``policy``, called on the row's (d,) state."""

    def control(x, rows):
        u = np.asarray(policy(x[0]), dtype=float)
        if u.size != n_u:
            raise ValueError(f"policy {k} gives a control of shape {u.shape}, the system takes ({n_u},)")
        return u.reshape(1, n_u)

    return control


def _grouped(groups, n_u: int):
    """``_integrate``'s control for a stack of row groups.

    ``groups`` lists (group control, size) pairs, each group taking the next
    ``size`` rows of the stack.  Each step calls every group that still has a
    running row on the states of those rows alone, so a row's control is the
    one its group gives in a stack of its own; the rows' split among the groups
    is taken once each time the running set changes.
    """
    bounds = np.cumsum([0] + [size for _, size in groups])
    whole = [(group, slice(a, b), slice(None)) for (group, _), a, b in zip(groups, bounds[:-1], bounds[1:])]
    taken_rows, taken = None, whole

    def control(t, x, rows):
        nonlocal taken_rows, taken
        if rows is not taken_rows:
            taken_rows, taken = rows, whole
            if not isinstance(rows, slice):  # rows ascend, so each group's running rows are one run of them
                cuts = np.searchsorted(rows, bounds)
                taken = [
                    (group, slice(lo, hi), rows[lo:hi] - a)
                    for (group, _), a, lo, hi in zip(groups, bounds, cuts[:-1], cuts[1:])
                    if hi > lo
                ]
        u = np.empty((len(x), n_u))
        for group, pos, local in taken:
            u[pos] = group(x[pos], local)
        return u

    return control


def rollout_closed_loops(
    sys: SystemSpec,
    models,
    sols,
    x0,
    T_steps: int,
    reference=None,
    Qprime=None,
    R=None,
    stop_norm: float | None = None,
    policies=(),
) -> list[RolloutResult]:
    """Run the true system from x0 under each model's lifted state-feedback law
    and under each baseline policy, all in one RK4 stack.

    The input of model s is u = K_s (z_s(x) - z_s(r)), with K_s the gain of
    ``sols[s]``: the gain acts on the embedding relative to the embedded
    reference (the origin by default), so the policy vanishes exactly at the
    reference and the closed loop can settle there.  The raw law u = K z(x)
    carries a small constant bias K z(r) that would otherwise park the loop at
    a cost-accumulating offset.  A policy in ``policies`` (a baseline or an
    oracle) maps one (d,) state to its (n_u,) control.  Stage costs use
    (x - r)' Q' (x - r) + u' R u.  ``stop_norm`` ends a rollout early once
    ||x - r|| falls below it (cost-truncation rule for effectively converged
    loops); divergence truncates and flags.  Regulation to a nonzero reference
    is experimental (no feedforward term is added).

    Returns the models' rollouts in order, then the policies'.  Every rollout
    is one row of a single ``_integrate`` stack: the models of one
    ``lift_shape`` form one group, each step one batched feature pass and one
    batched readout, and each policy is a group of one row, called on that
    row's state alone.  Every row ends by itself and is bit for bit its own
    stack of one.
    """
    if len(sols) != len(models):
        raise ValueError(f"need one Riccati solution per model, got {len(sols)} for {len(models)} models")
    for model, sol in zip(models, sols):
        if model.d != sys.d:
            raise ValueError(f"a model has state dimension {model.d}, the {sys.name} system {sys.d}")
        if np.atleast_2d(sol.K_m).shape[0] != sys.n_u:
            raise ValueError(f"a gain has shape {np.shape(sol.K_m)}, the {sys.name} system takes {sys.n_u} inputs")
    weights = _stage_weights(sys, reference, Qprime, R)
    shapes: dict = {}
    for i, model in enumerate(models):
        shapes.setdefault(lift_shape(model), []).append(i)
    groups = [
        (_feedback(readout_stack([models[i] for i in idx], [sols[i].K_m for i in idx]), weights[0]), len(idx))
        for idx in shapes.values()
    ]
    groups += [(_policy(policy, sys.n_u, k), 1) for k, policy in enumerate(policies)]
    S = len(models) + len(policies)
    runs = _rollouts(sys, x0, S, T_steps, _grouped(groups, sys.n_u), weights, stop_norm)
    order = [i for idx in shapes.values() for i in idx] + list(range(len(models), S))
    results: list = [None] * S
    for i, res in zip(order, runs):
        results[i] = res
    return results


def rollout_closed_loop(
    sys: SystemSpec,
    model: KoopmanModel,
    sol: RiccatiSolution,
    x0,
    T_steps: int,
    reference=None,
    Qprime=None,
    R=None,
    stop_norm: float | None = None,
) -> RolloutResult:
    """One model's closed loop: ``rollout_closed_loops``' stack of one."""
    return rollout_closed_loops(sys, [model], [sol], x0, T_steps, reference, Qprime, R, stop_norm)[0]


def rollout_policy(
    sys: SystemSpec,
    policy: Callable[[FloatArray], FloatArray],
    x0,
    T_steps: int,
    reference=None,
    Qprime=None,
    R=None,
    stop_norm: float | None = None,
) -> RolloutResult:
    """Rollout under an arbitrary state-feedback policy (baselines, oracles):
    ``rollout_closed_loops`` with no models and this one policy."""
    return rollout_closed_loops(sys, [], [], x0, T_steps, reference, Qprime, R, stop_norm, policies=[policy])[0]


def rollout_open_loop(sys: SystemSpec, x0, controls) -> RolloutResult:
    """Drive the true system with a prescribed (T, n_u) control sequence
    (a 1-D sequence is one input's)."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    if controls.ndim != 2 or controls.shape[1] != sys.n_u:
        raise ValueError(f"controls have shape {controls.shape}, the {sys.name} system takes (T, {sys.n_u})")
    return _rollouts(sys, x0, 1, len(controls), lambda t, x, rows: controls[t][None, :])[0]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric_rmse_pct(true_traj, forecast) -> float:
    """Normalized RMSE in percent: 100 sqrt(sum (xhat - x)^2 / sum x^2)."""
    X = np.atleast_2d(np.asarray(true_traj, dtype=float))
    F = np.atleast_2d(np.asarray(forecast, dtype=float))
    if X.shape != F.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {F.shape}")
    denom = float(np.sum(X * X))
    if denom == 0.0:
        raise ValueError("reference trajectory is identically zero")
    return 100.0 * math.sqrt(float(np.sum((F - X) ** 2)) / denom)


def metric_rmse_u_pct(u_seq, u_opt_seq) -> float:
    """Normalized RMSE in percent between two control sequences."""
    return metric_rmse_pct(u_opt_seq, u_seq)


def true_optimal_control_cubic(x) -> float:
    """Closed-form optimal regulator of the cubic benchmark for unit weights,
    at one state: a scalar or an array of one entry."""
    x = np.asarray(x, dtype=float)
    if x.size != 1:
        raise ValueError(f"the cubic benchmark's state has one entry, got shape {x.shape}")
    x = float(x.ravel()[0])
    return x**3 - x * math.sqrt(1.0 + x**4)
