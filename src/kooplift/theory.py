"""Finite-rank operator representations and empirical error-rate studies.

Every operator of interest here (the uncompressed regression operator G, its
landmark-compressed version, the Riccati operators of both) has range and
co-range inside the span of finitely many kernel features, so it is stored
exactly as

    D [l; u]  =  F_out @ out_weight @ core @ [ in_weight @ (l at in_anchors); u ]

with ``F_out`` the formal row of features at the output anchors.  Operator
norms then reduce to the largest singular value of the whitened factor

    C = [ (R_out @ out_weight) @ core_x @ (in_weight @ R_in') | (R_out @ out_weight) @ core_u ]

where R_out (r_out, q) and R_in (r_in, p) are thin square-root factors of the
anchor Grams (R'R = Gram on the kept range), so C is only r_out x (r_in + n_u).
A signed sum of operators stacks the anchors and adds each term on its own
columns of R_out and R_in; when every term reads its input at its own output
anchors, the two stacks are one and are whitened once.  Each weight multiplies
whitened columns first: the R @ weight factors are contractions, so
differences of nearly equal operators keep full relative precision instead of
being squared away.  The Riccati solutions and the closed loop are operators
of the same form.

The closed-form rate bounds evaluated here:

* gap bound:        (kappa/gamma + gamma^(-1/2)) * 4 kappa sqrt(3/m log(8m/5delta))
                    + 48 kappa^3 gamma^(-3/2) / m * log(8m/5delta)
* projection bound: 4 kappa sqrt(3/m log(8m/5delta))
* riccati bound:    6 eps tau^2/(1-zeta^2) (|A|+1)^2 (|P|+1)^2 (|B|+1) (|R^-1|+1)
* objective bound:  36 sigma_max(R) Gamma^9 g(eps)^2 kappa^2 tau^2/(1-zeta^2)

with Gamma = 1 + max(|A|, |B|, |P|, |K|), all norms operator norms on the
lifted space, and g(eps) the riccati bound regarded as a function of eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import Dataset, LandmarkSet
from .identify import KoopmanModel, NystromLift
from .kernels import KernelSpec, gram
from .lqr import LqrWeights, RiccatiSolution, solve_dare
from .numerics import RankTolerance, psd_pinv_sqrt, psd_sqrt, solve_psd, spectral_radius, tau

FloatArray = NDArray[np.float64]

__all__ = [
    "RkhsOperator",
    "build_exact_operator",
    "build_nystrom_operator",
    "operator_gap_norm",
    "operator_norm",
    "nystrom_gap_bound",
    "projection_bound",
    "projection_error",
    "transport_weights",
    "ExactModelNorms",
    "exact_model_norms",
    "riccati_gap",
    "RiccatiGapReport",
    "objective_gap",
    "ObjectiveGapReport",
    "BoundReport",
    "write_bound_reports",
    "BOUND_REPORT_FIELDS",
]


@dataclass
class RkhsOperator:
    """Finite-rank operator from (lifted state, control) pairs to lifted states."""

    kernel: KernelSpec
    out_anchors: FloatArray  # (q, d)
    core: FloatArray  # (q, p + n_u) if control block else (q, p)
    in_anchors: FloatArray | None = None  # (p, d); None means p = 0
    out_weight: FloatArray | None = None  # (q, q); None means identity
    in_weight: FloatArray | None = None  # (p, p); None means identity
    n_u: int = 0

    def __post_init__(self) -> None:
        self.out_anchors = np.atleast_2d(np.asarray(self.out_anchors, dtype=float))
        self.core = np.atleast_2d(np.asarray(self.core, dtype=float))
        if self.in_anchors is not None:
            self.in_anchors = np.atleast_2d(np.asarray(self.in_anchors, dtype=float))
        if not np.all(np.isfinite(self.core)):
            raise ValueError("core coefficients contain non-finite entries")
        p = 0 if self.in_anchors is None else len(self.in_anchors)
        if self.core.shape != (len(self.out_anchors), p + self.n_u):
            raise ValueError(
                f"core shape {self.core.shape} inconsistent with "
                f"{len(self.out_anchors)} out anchors, {p} in anchors, n_u = {self.n_u}"
            )

    @property
    def p(self) -> int:
        return 0 if self.in_anchors is None else len(self.in_anchors)

    @property
    def q(self) -> int:
        return len(self.out_anchors)

    def state_part(self) -> "RkhsOperator":
        """The operator restricted to the lifted-state input (control dropped)."""
        return RkhsOperator(
            kernel=self.kernel,
            out_anchors=self.out_anchors,
            core=self.core[:, : self.p],
            in_anchors=self.in_anchors,
            out_weight=self.out_weight,
            in_weight=self.in_weight,
            n_u=0,
        )

    def control_part(self) -> "RkhsOperator":
        """The operator restricted to the control input."""
        return RkhsOperator(
            kernel=self.kernel,
            out_anchors=self.out_anchors,
            core=self.core[:, self.p :],
            in_anchors=None,
            out_weight=self.out_weight,
            in_weight=None,
            n_u=self.n_u,
        )


def _check_compatible(A: RkhsOperator, B: RkhsOperator) -> None:
    if A.kernel != B.kernel:
        raise ValueError("operators use different kernels")
    if A.n_u != B.n_u:
        raise ValueError("operators have different control dimensions")


def _whitened_factor(ops: list[tuple[RkhsOperator, float]], tol: RankTolerance) -> FloatArray:
    """The factor C with ||D||_op = sigma_max(C).

    ``ops`` is a list of (operator, sign); D is the signed sum.  Output and
    input anchor sets are stacked; each operator's weights act on its own
    columns of the thin factors, and the shared control block is summed.
    """
    kernel, n_u = ops[0][0].kernel, ops[0][0].n_u
    R_out = psd_sqrt(gram(kernel, np.vstack([op.out_anchors for op, _ in ops])), tol)
    if all(op.in_anchors is op.out_anchors for op, _ in ops):
        R_in = R_out  # the same stack, so the same Gram
    else:
        in_blocks = [op.in_anchors for op, _ in ops if op.p]
        R_in = psd_sqrt(gram(kernel, np.vstack(in_blocks)), tol) if in_blocks else np.zeros((0, 0))
    r_in = len(R_in)
    C = np.zeros((len(R_out), r_in + n_u))
    q0 = p0 = 0
    for op, sign in ops:
        E_out = R_out[:, q0 : q0 + op.q]
        if op.out_weight is not None:
            E_out = E_out @ op.out_weight
        if op.p:
            E_in = R_in[:, p0 : p0 + op.p].T
            if op.in_weight is not None:
                E_in = op.in_weight @ E_in
            C[:, :r_in] += sign * ((E_out @ op.core[:, : op.p]) @ E_in)
        C[:, r_in:] += sign * (E_out @ op.core[:, op.p :])
        q0 += op.q
        p0 += op.p
    return C


def _sum_norm(ops: list[tuple[RkhsOperator, float]], tol: RankTolerance) -> float:
    """Operator norm of the signed sum of ``ops``."""
    C = _whitened_factor(ops, tol)
    return float(np.linalg.norm(C, 2)) if C.size else 0.0


def operator_gap_norm(A: RkhsOperator, B: RkhsOperator, tol: RankTolerance = RankTolerance()) -> float:
    """Operator norm of A - B over the lifted input space."""
    _check_compatible(A, B)
    return _sum_norm([(A, 1.0), (B, -1.0)], tol)


def operator_norm(A: RkhsOperator, tol: RankTolerance = RankTolerance()) -> float:
    return _sum_norm([(A, 1.0)], tol)


def _riccati_operator(model: KoopmanModel, P: FloatArray) -> RkhsOperator:
    """The quadratic form P on the model's lifted coordinates, F W P W F^*."""
    out = model.lifting.landmarks.outputs
    W = model.gram_out_pinv_sqrt
    return RkhsOperator(
        kernel=model.lifting.kernel,
        out_anchors=out,
        core=P,
        in_anchors=out,
        out_weight=W,
        in_weight=W,
    )


# ---------------------------------------------------------------------------
# Operator construction
# ---------------------------------------------------------------------------


def build_exact_operator(ds: Dataset, kernel: KernelSpec, gamma: float) -> RkhsOperator:
    """Uncompressed regularized regression operator on the full training set.

    Coefficients are (1/n) (SS* + gamma I)^(-1) [I | U] over output features at
    the one-step-ahead states, with SS* = (K_x + U U') / n.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = ds.n
    K_x = gram(kernel, ds.X)
    SSs = (K_x + ds.U @ ds.U.T) / n
    M = SSs + gamma * np.eye(n)
    rhs = np.hstack([np.eye(n), ds.U])
    sol, _ = solve_psd(M, rhs)
    return RkhsOperator(
        kernel=kernel,
        out_anchors=ds.Y.copy(),
        core=sol / n,
        in_anchors=ds.X.copy(),
        n_u=ds.n_u,
    )


def build_nystrom_operator(
    ds: Dataset,
    kernel: KernelSpec,
    gamma: float,
    landmarks: LandmarkSet,
    tol: RankTolerance = RankTolerance(),
) -> RkhsOperator:
    """Landmark-compressed regression operator, anchored on the landmarks.

    Stored in weighted form with out_weight = (K_out^+)^(1/2) and in_weight =
    (K_in^+)^(1/2), which keeps every stored factor bounded.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = ds.n
    lm_in, lm_out = landmarks.inputs, landmarks.outputs
    W_in = psd_pinv_sqrt(gram(kernel, lm_in), tol)
    W_out = psd_pinv_sqrt(gram(kernel, lm_out), tol)
    K_n_in = gram(kernel, ds.X, lm_in)  # (n, m_in)
    K_out_n = gram(kernel, lm_out, ds.Y)  # (m_out, n)
    T_in = K_n_in @ W_in  # (n, m_in), columns of norm <= kappa sqrt(n)
    H = (T_in @ T_in.T + ds.U @ ds.U.T) / n + gamma * np.eye(n)
    rhs = np.hstack([T_in, ds.U])
    sol, _ = solve_psd(H, rhs)
    core = (W_out @ K_out_n) @ sol / n
    return RkhsOperator(
        kernel=kernel,
        out_anchors=lm_out.copy(),
        core=core,
        in_anchors=lm_in.copy(),
        out_weight=W_out,
        in_weight=W_in,
        n_u=ds.n_u,
    )


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------


def _log_term(m: int, delta: float) -> float:
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.log(8.0 * m / (5.0 * delta))


def projection_bound(kappa: float, m: int, delta: float) -> float:
    """High-probability bound on the landmark projection error."""
    return 4.0 * kappa * math.sqrt(3.0 / m * _log_term(m, delta))


def nystrom_gap_bound(kappa: float, gamma: float, m: int, delta: float) -> float:
    """High-probability bound on the operator gap between the exact and
    landmark-compressed regression operators, as a function of the landmark
    count m and failure probability delta."""
    if not (kappa > 0 and gamma > 0):
        raise ValueError("kappa and gamma must be positive")
    first = (kappa / gamma + gamma**-0.5) * projection_bound(kappa, m, delta)
    second = 48.0 * kappa**3 / gamma**1.5 / m * _log_term(m, delta)
    return first + second


def projection_error(
    ds: Dataset,
    side: str,
    kernel: KernelSpec,
    landmarks: LandmarkSet,
    tol: RankTolerance = RankTolerance(),
) -> float:
    """||(I - Pi_m) S*|| for the chosen side: the largest residual feature
    component after projecting onto the landmark span.

    Equals sqrt(lambda_max((K_nn - K_nm K_m^+ K_mn) / n)).
    """
    if side == "input":
        pts, lm = ds.X, landmarks.inputs
    elif side == "output":
        pts, lm = ds.Y, landmarks.outputs
    else:
        raise ValueError(f"side must be 'input' or 'output', got {side!r}")
    n = len(pts)
    W = psd_pinv_sqrt(gram(kernel, lm), tol)
    K_nm = gram(kernel, pts, lm)
    T = K_nm @ W
    S = gram(kernel, pts) - T @ T.T
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return math.sqrt(max(float(w[-1]), 0.0) / n)


# ---------------------------------------------------------------------------
# Riccati and objective gaps
# ---------------------------------------------------------------------------


def transport_weights(exact_model: KoopmanModel, Q_exact: FloatArray, ny_model: KoopmanModel) -> FloatArray:
    """Express the exact surrogate's state weight in the compressed coordinates.

    Both quadratic forms then realize the same weighting operator on the lifted
    space: Q_ny = T' Q_exact T with T = W_exact K(out_exact, out_ny) W_ny.
    """
    if not isinstance(exact_model.lifting, NystromLift) or not isinstance(ny_model.lifting, NystromLift):
        raise TypeError("weight transport requires kernel lifts on both sides")
    kernel = exact_model.lifting.kernel
    cross = gram(kernel, exact_model.lifting.landmarks.outputs, ny_model.lifting.landmarks.outputs)
    T = exact_model.gram_out_pinv_sqrt @ cross @ ny_model.gram_out_pinv_sqrt
    Q = T.T @ Q_exact @ T
    return 0.5 * (Q + Q.T)


@dataclass(frozen=True)
class ExactModelNorms:
    """Operator norms of the exact surrogate's pieces on the lifted space."""

    A: float
    B: float
    P: float
    K: float
    L: float
    sigma_min_P: float
    rho_L: float
    zeta: float
    tau: float
    tau_truncated: bool

    @property
    def Gamma(self) -> float:
        return 1.0 + max(self.A, self.B, self.P, self.K)


def exact_model_norms(
    G_exact: RkhsOperator,
    exact_model: KoopmanModel,
    exact_sol: RiccatiSolution,
    tol: RankTolerance = RankTolerance(),
) -> ExactModelNorms:
    """Bundle the norms entering the rate formulas, computed once per fixture."""
    A = G_exact.state_part()
    norm_A = operator_norm(A, tol)
    norm_B = operator_norm(G_exact.control_part(), tol)
    norm_P = operator_norm(_riccati_operator(exact_model, exact_sol.P_m), tol)
    out = exact_model.lifting.landmarks.outputs
    G_out = gram(G_exact.kernel, out)
    KW = exact_sol.K_m @ exact_model.gram_out_pinv_sqrt
    norm_K = math.sqrt(max(float(np.max(np.linalg.eigvalsh(KW @ G_out @ KW.T))), 0.0))
    # closed loop A + B K: the gain reads the state at the model's output
    # landmarks and feeds G's control block
    gain = RkhsOperator(
        kernel=G_exact.kernel,
        out_anchors=G_exact.out_anchors,
        core=G_exact.core[:, G_exact.p :] @ KW,
        in_anchors=out,
        out_weight=G_exact.out_weight,
    )
    norm_L = _sum_norm([(A, 1.0), (gain, 1.0)], tol)
    # transient growth and sigma_min are taken on the synthesized subsystem:
    # the basis spans an A-invariant subspace, so this block is exactly the
    # closed loop the gain was designed for
    V = exact_sol.basis if exact_sol.basis is not None else exact_model.range_basis()
    L_red = V.T @ exact_sol.L_m @ V
    P_red = V.T @ exact_sol.P_m @ V
    sigma_min_P = float(np.min(np.linalg.eigvalsh(0.5 * (P_red + P_red.T))))
    rho = exact_sol.rho_L
    zeta = 0.5 * (rho + 1.0)
    t = tau(L_red, zeta)
    return ExactModelNorms(
        A=norm_A,
        B=norm_B,
        P=norm_P,
        K=norm_K,
        L=norm_L,
        sigma_min_P=sigma_min_P,
        rho_L=rho,
        zeta=zeta,
        tau=t.value,
        tau_truncated=t.truncated,
    )


def riccati_gap_bound(epsilon: float, norms: ExactModelNorms, norm_R_inv: float) -> float:
    """Perturbation bound on the Riccati-solution gap for a given operator gap."""
    return (
        6.0
        * epsilon
        * norms.tau**2
        / (1.0 - norms.zeta**2)
        * (norms.A + 1.0) ** 2
        * (norms.P + 1.0) ** 2
        * (norms.B + 1.0)
        * (norm_R_inv + 1.0)
    )


def riccati_gap_precondition(epsilon: float, norms: ExactModelNorms, norm_R_inv: float) -> bool:
    """Smallness condition under which the Riccati perturbation bound applies."""
    cap = min(
        norms.B,
        (1.0 / 12.0)
        / ((norms.L + 1.0) ** 2 + (norms.P + 1.0))
        * (1.0 - norms.zeta**2) ** 2
        / norms.tau**4
        * (norms.A + 1.0) ** -2
        * (norms.P + 1.0) ** -2
        * (norms.B + 1.0) ** -3
        * (norm_R_inv + 1.0) ** -2,
    )
    return epsilon < cap and norms.sigma_min_P >= 1.0


@dataclass(frozen=True)
class RiccatiGapReport:
    gap: float
    bound: float
    epsilon: float
    zeta: float
    tau: float
    sigma_min_P: float
    precondition_ok: bool


def riccati_gap(
    exact_model: KoopmanModel,
    exact_sol: RiccatiSolution,
    ny_model: KoopmanModel,
    ny_sol: RiccatiSolution,
    norms: ExactModelNorms,
    R,
    epsilon: float,
    tol: RankTolerance = RankTolerance(),
) -> RiccatiGapReport:
    """Operator-norm gap between the two Riccati solutions on the lifted space,
    with the matching perturbation bound evaluated at the measured operator gap.

    Both models must lift with the same kernel (``ValueError`` otherwise).
    """
    gap = operator_gap_norm(
        _riccati_operator(exact_model, exact_sol.P_m), _riccati_operator(ny_model, ny_sol.P_m), tol
    )
    R = np.atleast_2d(np.asarray(R, dtype=float))
    norm_R_inv = 1.0 / float(np.min(np.linalg.eigvalsh(R)))
    return RiccatiGapReport(
        gap=gap,
        bound=riccati_gap_bound(epsilon, norms, norm_R_inv),
        epsilon=epsilon,
        zeta=norms.zeta,
        tau=norms.tau,
        sigma_min_P=norms.sigma_min_P,
        precondition_ok=riccati_gap_precondition(epsilon, norms, norm_R_inv),
    )


@dataclass(frozen=True)
class ObjectiveGapReport:
    J: float
    J_hat: float
    gap: float
    bound: float
    g_eps: float
    Gamma: float
    precondition_ok: bool
    stabilizes: bool


def objective_gap(
    exact_model: KoopmanModel,
    exact_sol: RiccatiSolution,
    ny_model: KoopmanModel,
    ny_sol: RiccatiSolution,
    norms: ExactModelNorms,
    Q_exact: FloatArray,
    R,
    x0,
    g_eps: float,
    riccati_precondition_ok: bool = True,
) -> ObjectiveGapReport:
    """Certainty-equivalence cost of the compressed gain on the exact surrogate.

    Both costs are infinite-horizon costs of the exact surrogate from the
    embedding z0 of ``x0``: once under its own optimal gain and once under the
    compressed model's gain mapped into the exact coordinates.  Each is
    z0' X z0, with X the closed loop's Lyapunov sum sum_t L^t' (Q + K' R K) L^t
    from the Riccati core (``solve_dare`` with a zero input matrix), which
    raises RuntimeError if the sum does not converge.  A non-contractive mapped
    gain is reported with an infinite gap rather than an exception.
    """
    kernel = exact_model.lifting.kernel
    R = np.atleast_2d(np.asarray(R, dtype=float))
    # costs on the synthesized (invariant) subspace of the exact surrogate, the
    # system both gains were designed against
    V = exact_sol.basis if exact_sol.basis is not None else exact_model.range_basis()
    A_r = V.T @ exact_model.A_m @ V
    B_r = V.T @ exact_model.B_m
    Q_r = V.T @ Q_exact @ V
    z0 = V.T @ exact_model.embed_states(np.atleast_2d(np.asarray(x0, dtype=float)))[:, 0]
    K_r = exact_sol.K_m @ V
    # compressed gain read through the exact coordinates
    cross = gram(kernel, ny_model.lifting.landmarks.outputs, exact_model.lifting.landmarks.outputs)
    T = ny_model.gram_out_pinv_sqrt @ cross @ exact_model.gram_out_pinv_sqrt  # (m_ny, n)
    K_hat = (ny_sol.K_m @ T) @ V  # (n_u, r)
    L_opt = A_r + B_r @ K_r
    L_hat = A_r + B_r @ K_hat
    rho_hat = spectral_radius(L_hat)
    sigma_max_R = float(np.max(np.linalg.eigvalsh(R)))
    Gamma = norms.Gamma
    bound = (
        36.0
        * sigma_max_R
        * Gamma**9
        * g_eps**2
        * kernel.variance
        * norms.tau**2
        / (1.0 - norms.zeta**2)
    )
    threshold = (1.0 - norms.zeta) / (6.0 * norms.B * norms.tau * Gamma**2)
    sigma_min_R = float(np.min(np.linalg.eigvalsh(R)))
    precondition_ok = bool(
        riccati_precondition_ok and g_eps <= threshold and sigma_min_R >= 1.0
    )
    if not rho_hat < 1.0:
        return ObjectiveGapReport(
            J=math.nan,
            J_hat=math.inf,
            gap=math.inf,
            bound=bound,
            g_eps=g_eps,
            Gamma=Gamma,
            precondition_ok=precondition_ok,
            stabilizes=False,
        )
    no_input = np.zeros_like(B_r)
    X = solve_dare(L_opt, no_input, LqrWeights(Q_r + K_r.T @ R @ K_r, R), max_iter=2_000_000).P_m
    X_hat = solve_dare(L_hat, no_input, LqrWeights(Q_r + K_hat.T @ R @ K_hat, R), max_iter=2_000_000).P_m
    J = float(z0 @ X @ z0)
    J_hat = float(z0 @ X_hat @ z0)
    return ObjectiveGapReport(
        J=J,
        J_hat=J_hat,
        gap=J_hat - J,
        bound=bound,
        g_eps=g_eps,
        Gamma=Gamma,
        precondition_ok=precondition_ok,
        stabilizes=True,
    )


# ---------------------------------------------------------------------------
# Study reports
# ---------------------------------------------------------------------------

BOUND_REPORT_FIELDS = [
    "m",
    "seed",
    "gamma",
    "delta",
    "kappa",
    "empirical_gap",
    "gap_bound",
    "proj_in",
    "proj_out",
    "riccati_gap",
    "riccati_bound",
    "riccati_precondition",
    "objective_gap",
    "objective_bound",
    "objective_precondition",
    "Gamma",
    "tau",
    "zeta",
    "sigma_min_P",
    "norm_G",
]


@dataclass
class BoundReport:
    """One sweep row: measured gaps next to the evaluated bound formulas."""

    m: int
    seed: int
    gamma: float
    delta: float
    kappa: float
    empirical_gap: float
    gap_bound: float
    proj_in: float
    proj_out: float
    riccati_gap: float = math.nan
    riccati_bound: float = math.nan
    riccati_precondition: bool = False
    objective_gap: float = math.nan
    objective_bound: float = math.nan
    objective_precondition: bool = False
    Gamma: float = math.nan
    tau: float = math.nan
    zeta: float = math.nan
    sigma_min_P: float = math.nan
    norm_G: float = math.nan

    def __post_init__(self) -> None:
        for name in ("empirical_gap", "gap_bound", "proj_in", "proj_out"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def write_bound_reports(path, rows: list[BoundReport]) -> None:
    import csv
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUND_REPORT_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    row.m,
                    row.seed,
                    *(
                        format(getattr(row, f), ".17g")
                        if isinstance(getattr(row, f), float)
                        else getattr(row, f)
                        for f in BOUND_REPORT_FIELDS[2:]
                    ),
                ]
            )
