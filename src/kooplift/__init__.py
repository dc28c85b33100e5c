"""kooplift: kernel-lifted linear surrogates of controlled nonlinear systems.

The pipeline: collect trajectories of a nonlinear system, lift states through a
stationary kernel compressed onto m landmark points, fit linear surrogate
dynamics by regularized regression, synthesize an infinite-horizon LQR gain on
the surrogate, and feed the resulting state-feedback law back to the true
system.  The :mod:`kooplift.theory` module measures how the compression error
propagates to the fitted operator, the Riccati solution and the achieved
control objective, next to the matching closed-form rate bounds.
"""

from .data import (
    Dataset,
    LandmarkSet,
    LandmarkStrategy,
    Trajectory,
    build_pairs,
    cross_validate,
    load_trajectories,
    sample_landmarks,
    save_trajectories,
)
from .identify import (
    ForecastDivergence,
    KoopmanModel,
    NystromLift,
    ThinPlateLift,
    embed_state,
    fit,
    forecast,
    load_model,
    save_model,
)
from .kernels import KernelFamily, KernelSpec, gram, kernel_eval
from .lqr import LqrWeights, RiccatiSolution, build_weights, solve_dare, solve_model_dare
from .numerics import RankTolerance, spectral_radius, tau
from .simulate import (
    CollectionProtocol,
    RolloutResult,
    SystemSpec,
    collect_training_data,
    cubic_system,
    duffing_system,
    metric_rmse_pct,
    metric_rmse_u_pct,
    rk4_step,
    rollout_closed_loop,
    rollout_closed_loops,
    true_optimal_control_cubic,
)

__version__ = "0.1.0"
