"""Ground-truth systems, RK4 rollouts, data-collection protocols and metrics.

The benchmark zoo:

* cubic:    xdot = -x^3 + u                 (scalar; known optimal regulator
            u*(x) = x^3 - x sqrt(1 + x^4) for unit quadratic weights)
* duffing:  x1dot = x2
            x2dot = -0.5 x2 - x1 (4 x1^2 - 1) + 0.5 u
            (origin unstable, stable equilibria at (+-0.5, 0))

Continuous dynamics are discretized with classical RK4 under a zero-order hold
on the control.  Rollouts never raise on divergence; they truncate and flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .data import Trajectory, derived_rng
from .identify import KoopmanModel
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
    "CollectionProtocol",
    "RolloutResult",
    "rk4_step",
    "collect_training_data",
    "rollout_closed_loop",
    "metric_rmse_pct",
    "metric_rmse_u_pct",
    "metric_avg_running_cost",
    "true_optimal_control_cubic",
    "DIVERGENCE_NORM",
]

DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class SystemSpec:
    """Controlled continuous-time system discretized at a fixed step."""

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
        x1, x2 = x
        return np.array([x2, -0.5 * x2 - x1 * (4.0 * x1 * x1 - 1.0) + 0.5 * u[0]])

    return SystemSpec("duffing", d=2, n_u=1, dt=dt, rhs=rhs)


def custom_system(name: str, d: int, n_u: int, dt: float, rhs) -> SystemSpec:
    return SystemSpec(name, d=d, n_u=n_u, dt=dt, rhs=rhs)


def rk4_step(sys: SystemSpec, x, u) -> FloatArray:
    """Classical 4-stage Runge-Kutta update with the control held constant."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ValueError("non-finite state or control")
    dt = sys.dt
    k1 = sys.rhs(x, u)
    k2 = sys.rhs(x + 0.5 * dt * k1, u)
    k3 = sys.rhs(x + 0.5 * dt * k2, u)
    k4 = sys.rhs(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Data collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroInput:
    def sample(self, rng, t: float, n_u: int) -> FloatArray:
        return np.zeros(n_u)


@dataclass(frozen=True)
class UniformIID:
    lo: float = -1.0
    hi: float = 1.0

    def sample(self, rng, t: float, n_u: int) -> FloatArray:
        return rng.uniform(self.lo, self.hi, size=n_u)


@dataclass(frozen=True)
class SquareWave:
    amplitude: float = 1.0
    frequency: float = 3.33

    def sample(self, rng, t: float, n_u: int) -> FloatArray:
        val = self.amplitude * np.sign(np.sin(2.0 * np.pi * self.frequency * t))
        return np.full(n_u, val)


InputLaw = ZeroInput | UniformIID | SquareWave


@dataclass(frozen=True)
class UniformBox:
    lo: float = -1.0
    hi: float = 1.0

    def sample(self, rng, d: int) -> FloatArray:
        return rng.uniform(self.lo, self.hi, size=d)


@dataclass(frozen=True)
class UniformBall:
    radius: float = 1.0

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
    """
    if protocol.n_traj < 1:
        raise ValueError("protocol needs at least one trajectory")
    steps = protocol.duration / sys.dt
    T = int(round(steps))
    if abs(steps - T) > 1e-9 or T < 1:
        raise ValueError(f"duration {protocol.duration} is not a multiple of dt = {sys.dt}")
    rng_init = derived_rng("init-conditions", protocol.seed)
    rng_u = derived_rng("training-inputs", protocol.seed)

    def control(t, x):
        return np.asarray(protocol.input_law.sample(rng_u, t * sys.dt, sys.n_u), dtype=float)

    trajs = []
    for j in range(protocol.n_traj):
        x = np.asarray(protocol.init_law.sample(rng_init, sys.d), dtype=float)
        res = _rollout(sys, x, T, control)
        keep = len(res.states) - int(res.diverged)  # the diverging step is dropped
        if keep < 2:
            raise RuntimeError(f"trajectory {j} diverged on its first step")
        trajs.append(Trajectory(sys.dt, res.states[:keep], res.controls[: keep - 1], traj_id=str(j)))
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


def _rollout(sys: SystemSpec, x, T_steps: int, control, weights=None, stop_norm=None) -> RolloutResult:
    """The RK4 loop every trajectory runs: u_t = control(t, x_t), up to T_steps.

    A step whose state is non-finite or has norm above DIVERGENCE_NORM ends the
    run; it is kept, with non-finite entries set to inf, and flagged.  With
    ``weights = (r, Q', R)`` each step records the stage cost
    (x - r)' Q' (x - r) + u' R u of the state it starts from, and ``stop_norm``
    ends the run once ||x - r|| falls below it; without, stage costs are zero.
    """
    if weights is not None:
        r, Qprime, R = weights
    states = [x]
    controls = []
    costs = []
    diverged_step = None
    for t in range(T_steps):
        u = control(t, x)
        x_next = rk4_step(sys, x, u)
        controls.append(u)
        if weights is not None:
            e = x - r
            costs.append(float(e @ Qprime @ e + u @ R @ u))
        if not np.linalg.norm(x_next) <= DIVERGENCE_NORM:  # also true for inf and nan
            diverged_step = t + 1
            states.append(np.where(np.isfinite(x_next), x_next, np.inf))
            break
        states.append(x_next)
        x = x_next
        if stop_norm is not None and np.linalg.norm(x - r) < stop_norm:
            break
    return RolloutResult(
        states=np.array(states),
        controls=np.array(controls).reshape(len(controls), sys.n_u),
        stage_costs=np.array(costs) if weights is not None else np.zeros(len(controls)),
        diverged=diverged_step is not None,
        diverged_step=diverged_step,
    )


def _stage_weights(sys: SystemSpec, reference, Qprime, R):
    """(r, Q', R) with the defaults: the origin and identity weights."""
    r = np.zeros(sys.d) if reference is None else np.asarray(reference, dtype=float).ravel()
    Qprime = np.eye(sys.d) if Qprime is None else np.atleast_2d(np.asarray(Qprime, dtype=float))
    R = np.eye(sys.n_u) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    return r, Qprime, R


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
    """Run the true system under the lifted state-feedback law.

    The input is u = K (z(x) - z(r)): the gain acts on the embedding relative
    to the embedded reference (the origin by default), so the policy vanishes
    exactly at the reference and the closed loop can settle there.  The raw
    law u = K z(x) carries a small constant bias K z(r) that would otherwise
    park the loop at a cost-accumulating offset.  Stage costs use
    (x - r)' Q' (x - r) + u' R u.  ``stop_norm`` ends the rollout early once
    ||x - r|| falls below it (cost-truncation rule for effectively converged
    loops); divergence truncates and flags.  Regulation to a nonzero reference
    is experimental (no feedforward term is added).
    """
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != sys.d or model.d != sys.d:
        raise ValueError("state dimension mismatch between system, model and x0")
    r, Qprime, R = _stage_weights(sys, reference, Qprime, R)
    policy = model.linear_readout(sol.K_m)
    shift = policy(r)
    return _rollout(sys, x, T_steps, lambda t, x: policy(x) - shift, (r, Qprime, R), stop_norm)


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
    """Rollout under an arbitrary state-feedback policy (baselines, oracles)."""
    x = np.asarray(x0, dtype=float).ravel()
    weights = _stage_weights(sys, reference, Qprime, R)
    return _rollout(sys, x, T_steps, lambda t, x: np.asarray(policy(x), dtype=float).ravel(), weights, stop_norm)


def rollout_open_loop(sys: SystemSpec, x0, controls) -> RolloutResult:
    """Drive the true system with a prescribed control sequence."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    x = np.asarray(x0, dtype=float).ravel()
    return _rollout(sys, x, len(controls), lambda t, x: controls[t])


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


def metric_avg_running_cost(states, controls, reference, weight: float) -> float:
    """(1/T) sum_t [ weight ||x_t - r||^2 + ||u_t||^2 ] over aligned sequences."""
    X = np.atleast_2d(np.asarray(states, dtype=float))
    U = np.atleast_2d(np.asarray(controls, dtype=float))
    if len(X) != len(U):
        raise ValueError("states and controls must have equal length")
    if not weight > 0:
        raise ValueError(f"weight must be positive, got {weight}")
    r = np.asarray(reference, dtype=float).ravel()
    E = X - r[None, :]
    return float(np.mean(weight * np.sum(E * E, axis=1) + np.sum(U * U, axis=1)))


def true_optimal_control_cubic(x) -> float:
    """Closed-form optimal regulator of the cubic benchmark for unit weights."""
    x = float(np.asarray(x).ravel()[0])
    return x**3 - x * math.sqrt(1.0 + x**4)
