"""Finite-rank operator representations and empirical error-rate studies.

Every operator of interest here (the uncompressed regression operator G, its
landmark-compressed version, and the Riccati solutions and closed loop of the
models) has range and co-range inside the span of finitely many kernel
features.  The regression operators are stored exactly as

    D [l; u]  =  F_out @ out_weight @ core @ [ in_weight @ (l at in_anchors); u ]

with ``F_out`` the formal row of features at the output anchors.  The weights
may be thin: the compressed operator takes its model's embedding factors,
out_weight = E_out (q x r_out) and in_weight = E_in' (r_in x p), around the
r-sized core S_r' of the fit, so no landmark-sized square matrix is formed.
Operator norms then reduce to the largest singular value of the whitened
factor

    C = [ (R_out @ out_weight) @ core_x @ (in_weight @ R_in') | (R_out @ out_weight) @ core_u ]

where R_out (r, q) and R_in (r, p) are columns of a thin square-root factor
of the anchors' Gram (R'R = Gram on the kept range), so C is only
r x (r + n_u), and the gap of two operators is sigma_max(C_A - C_B) with both
factors read from the same bases.  Each weight multiplies whitened columns
first: the R @ weight factors are contractions, so differences of nearly equal
operators keep full relative precision instead of being squared away.  The
Riccati solution P_r of a model (r x r, in its coordinates) is an operator of
the same form, the core P_r read at the model's output landmarks with
out_weight E_out and in_weight E_out', and the closed loop A + B K of the
exact surrogate is G's state block plus the feedback operator with core G_u K
and in_weight E_out' there.  So ||P||, ||A + B K|| and the Riccati gap are
read from whitened factors like every other norm; only the gain, whose range
is the controls, is read as the matrix K (R_out E_out)'.  The weight transport
from one model's coordinates to another's is E_a' K(out_a, out_b) E_b,
r_a x r_b, the map ``identify`` also forms between a lift's input and output
landmarks.

Every factor is read from an ``AnchorBasis``: one thin square-root factor of
the Gram of a point set's distinct rows, from which any anchor set among those
rows takes its columns.  The basis never forms that Gram: it rotates the rows'
pivoted Cholesky factor L (``kernels.gram_factor``, kernel columns only) onto
the eigenvectors of the small L'L kept at its cutoff, and the same L serves the
exact surrogate's fit (``identify.fit_factored``), so a rate sweep factors its
data once.  Each norm's ``tol`` slot takes a basis or a ``RankTolerance``;
given a tolerance, the norm builds a basis over its own anchors (for a gap,
one over both operators' output anchors and one over their input anchors).
Every anchor of a rate sweep (G's X and Y, the exact surrogate's landmarks,
each drawn landmark set) is a row of X or Y, so a sweep builds one basis over
[X; Y] and every operator gap, Riccati gap, projection error and exact-model
norm of the sweep, the closed loop A + BK included, reads its columns.
Projection errors are then sigma_max((I - Pi_m) R_pts) / sqrt(n), an r x n
product.

The uncompressed operator G is built by its own dual n x n solve
(``build_exact_operator``): it is the estimator the bounds are stated for and
the independent side of every gap.  The compressed operator is not built
again: ``build_nystrom_operator`` reads it from the regression
``identify.fit`` solved, so each rate-sweep row fits once and its operator
gap, Riccati gap and objective gap all belong to that one fitted model.

Measurement and bound evaluation are kept apart.  ``operator_gap_norm``,
``projection_error``, ``riccati_gap`` and ``objective_gap`` measure gaps (the
objective gap through the cost-difference identity, against the exact side
that ``objective_reference`` takes once per sweep);
the functions below evaluate the closed-form rate bounds from the measured
operator gap eps and the exact surrogate's ``ExactModelNorms``:

* gap bound:        (kappa/gamma + gamma^(-1/2)) * 4 kappa sqrt(3/m log(8m/5delta))
                    + 48 kappa^3 gamma^(-3/2) / m * log(8m/5delta)
* projection bound: 4 kappa sqrt(3/m log(8m/5delta))
* riccati bound:    6 eps tau^2/(1-zeta^2) (|A|+1)^2 (|P|+1)^2 (|B|+1) (|R^-1|+1)
  applies when eps < min(|B|, (1-zeta^2)^2 / (12 ((|L|+1)^2 + |P|+1) tau^4
  (|A|+1)^2 (|P|+1)^2 (|B|+1)^3 (|R^-1|+1)^2)) and sigma_min(P) >= 1
* objective bound:  36 sigma_max(R) Gamma^9 g(eps)^2 kappa^2 tau^2/(1-zeta^2)
  applies when the riccati bound does, g(eps) <= (1-zeta) / (6 |B| tau Gamma^2)
  and sigma_min(R) >= 1

with Gamma = 1 + max(|A|, |B|, |P|, |K|), all norms operator norms on the
lifted space, kappa^2 = k(x, x) the kernel variance, and g(eps) the riccati
bound regarded as a function of eps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import Dataset, LandmarkSet, fmt17
from .identify import KoopmanModel, NystromLift, _transport
from .kernels import KernelSpec, gram, gram_factor
from .lqr import LqrWeights, RiccatiSolution, _dare_defect, _greedy_gain, solve_dare
from .numerics import RankTolerance, psd_pinv_sqrt_factor, solve_psd, spectral_radius, tau

FloatArray = NDArray[np.float64]

__all__ = [
    "AnchorBasis",
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
    "riccati_gap_bound",
    "riccati_gap_precondition",
    "objective_gap",
    "ObjectiveGapReport",
    "objective_reference",
    "ObjectiveReference",
    "objective_gap_bound",
    "objective_gap_precondition",
    "BoundReport",
    "write_bound_reports",
    "BOUND_REPORT_FIELDS",
]


@dataclass
class RkhsOperator:
    """Finite-rank operator from (lifted state, control) pairs to lifted states.

    The weights may be thin: ``out_weight`` is (q, a) and ``in_weight`` (b, p),
    so the core is (a, b + n_u); a weight of None is the identity (a = q,
    b = p).  An operator that ignores the state has a zero state block.
    """

    kernel: KernelSpec
    out_anchors: FloatArray  # (q, d)
    core: FloatArray  # (a, b + n_u)
    in_anchors: FloatArray  # (p, d)
    out_weight: FloatArray | None = None  # (q, a); None means identity
    in_weight: FloatArray | None = None  # (b, p); None means identity
    n_u: int = 0

    def __post_init__(self) -> None:
        self.out_anchors = np.atleast_2d(np.asarray(self.out_anchors, dtype=float))
        self.core = np.atleast_2d(np.asarray(self.core, dtype=float))
        self.in_anchors = np.atleast_2d(np.asarray(self.in_anchors, dtype=float))
        if not np.all(np.isfinite(self.core)):
            raise ValueError("core coefficients contain non-finite entries")
        a = self.q if self.out_weight is None else self.out_weight.shape[1]
        if self.core.shape != (a, self.b + self.n_u):
            raise ValueError(
                f"core shape {self.core.shape} inconsistent with {a} output and {self.b} input "
                f"coordinates, n_u = {self.n_u}"
            )

    @property
    def p(self) -> int:
        return len(self.in_anchors)

    @property
    def q(self) -> int:
        return len(self.out_anchors)

    @property
    def b(self) -> int:
        """Width of the core's state block."""
        return self.p if self.in_weight is None else self.in_weight.shape[0]


def _check_compatible(A: RkhsOperator, B: RkhsOperator) -> None:
    if A.kernel != B.kernel:
        raise ValueError("operators use different kernels")
    if A.n_u != B.n_u:
        raise ValueError("operators have different control dimensions")


def _factor_norm(C: FloatArray) -> float:
    return float(np.linalg.norm(C, 2)) if C.size else 0.0


class AnchorBasis:
    """One thin square-root factor of the Gram of a point set's distinct rows.

    ``R`` (r, N) satisfies R'R = K(rows, rows) on the kept range, so the column
    of a row is the coordinate vector of its feature in one orthonormal basis
    of their span.  Every anchor set drawn from the points reads its factor as
    columns of ``R`` (``columns``) instead of whitening a Gram of its own.
    ``R`` is read from the rows' pivoted Cholesky factor L (``factor``, N x r_L,
    from ``kernels.gram_factor``): with V the eigenvectors of L'L kept at
    ``tol``, R = (L V)'.  The eigenvalues of L'L are the nonzero ones of L L',
    which matches the Gram to the factor's residual, so R is the Gram's
    square-root factor sqrt(Lambda_r) V_r' up to a rotation of its rows, and
    every norm read from it is invariant under that rotation.  Rows are matched
    by their exact bytes; the basis is read-only once built.
    """

    def __init__(self, kernel: KernelSpec, points, tol: RankTolerance) -> None:
        self.kernel = kernel
        self.factor = gram_factor(kernel, points)
        L = self.factor.L
        V = psd_pinv_sqrt_factor(L.T @ L, tol)[1]["basis"]
        self.R = V.T @ L.T

    @property
    def rank(self) -> int:
        return len(self.R)

    def columns(self, points) -> FloatArray:
        """The factor's columns at ``points``, each of which must be a row of the basis.

        Raises ValueError naming the first point that is not.
        """
        return self.R[:, self.factor.index(points)]


def _anchor_basis(tol: AnchorBasis | RankTolerance, kernel: KernelSpec, blocks) -> AnchorBasis:
    """``tol`` itself if it is a basis (built with ``kernel``), else a basis
    over the stacked ``blocks`` at that cutoff."""
    if isinstance(tol, AnchorBasis):
        if tol.kernel != kernel:
            raise ValueError("the anchor basis was built with a different kernel")
        return tol
    return AnchorBasis(kernel, np.vstack(blocks), tol)


def _bases(ops: list[RkhsOperator], tol: AnchorBasis | RankTolerance) -> tuple[AnchorBasis, AnchorBasis]:
    """The output and input bases the norms of ``ops`` read their anchors from.

    Given a tolerance, the stacked output anchors and the stacked input
    anchors are each whitened on their own, once if every operator reads its
    input at its own output anchors.
    """
    kernel = ops[0].kernel
    out_basis = _anchor_basis(tol, kernel, [op.out_anchors for op in ops])
    if all(op.in_anchors is op.out_anchors for op in ops):
        return out_basis, out_basis
    return out_basis, _anchor_basis(tol, kernel, [op.in_anchors for op in ops])


def _whitened(op: RkhsOperator, out_basis: AnchorBasis, in_basis: AnchorBasis) -> FloatArray:
    """The factor C = [(R_out W_out) core_x (W_in R_in') | (R_out W_out) core_u]
    with ||op||_op = sigma_max(C), its anchors read as basis columns (once, for
    an operator that reads its input at its output anchors in one basis)."""
    R_out = out_basis.columns(op.out_anchors)
    same = in_basis is out_basis and op.in_anchors is op.out_anchors
    W_out = R_out if op.out_weight is None else R_out @ op.out_weight
    W_in = (R_out if same else in_basis.columns(op.in_anchors)).T
    if op.in_weight is not None:
        W_in = op.in_weight @ W_in
    return np.hstack([(W_out @ op.core[:, : op.b]) @ W_in, W_out @ op.core[:, op.b :]])


def operator_gap_norm(
    A: RkhsOperator, B: RkhsOperator, tol: AnchorBasis | RankTolerance = RankTolerance()
) -> float:
    """Operator norm of A - B over the lifted input space."""
    _check_compatible(A, B)
    out_basis, in_basis = _bases([A, B], tol)
    return _factor_norm(_whitened(A, out_basis, in_basis) - _whitened(B, out_basis, in_basis))


def operator_norm(A: RkhsOperator, tol: AnchorBasis | RankTolerance = RankTolerance()) -> float:
    return _factor_norm(_whitened(A, *_bases([A], tol)))


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


def build_nystrom_operator(model: KoopmanModel) -> RkhsOperator:
    """The landmark-compressed regression operator of a fitted kernel-lift model.

    A view of the regression ``identify.fit`` solved, anchored on the model's
    landmarks: with its ridge solution S_r = [S_x; S_u] over the features
    [K(X, lm_in) E_in | U] and E_in, E_out the thin factors of the landmark
    Grams, the core is S_r', in_weight is E_in' and out_weight is E_out, so the
    state block reads E_out S_x' E_in' at the input landmarks.  Every stored
    factor is thin and bounded, and nothing is solved here.  Raises TypeError
    for a thin-plate model and ValueError for a model loaded from JSON, which
    carries no regression coefficients.
    """
    if not isinstance(model.lifting, NystromLift):
        raise TypeError("the compressed operator needs a kernel-lift model")
    if model._coef is None:
        raise ValueError("model carries no regression coefficients (models loaded from JSON do not)")
    return RkhsOperator(
        kernel=model.lifting.kernel,
        out_anchors=model.lifting.landmarks.outputs,
        core=model._coef.T,
        in_anchors=model.lifting.landmarks.inputs,
        out_weight=model.out_factor,
        in_weight=model._in_factor.T,
        n_u=model.n_u,
    )


def _riccati_form(model: KoopmanModel, P: FloatArray) -> RkhsOperator:
    """The quadratic form P on the model's lifted coordinates, F E_out P E_out' F^*:
    the core P read at the model's output landmarks through E_out on both sides."""
    out, E = model.lifting.landmarks.outputs, model.out_factor
    return RkhsOperator(model.lifting.kernel, out, P, out, out_weight=E, in_weight=E.T)


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
    tol: AnchorBasis | RankTolerance = RankTolerance(),
) -> float:
    """||(I - Pi_m) S*|| for the chosen side: the largest residual feature
    component after projecting onto the landmark span.

    Equals sigma_max((I - Pi_m) R_pts) / sqrt(n) with R_pts the basis columns
    of the side's points and Pi_m the projector onto the range of the
    landmark columns R_m.  That range is cut by the default rank policy on
    K_m = R_m'R_m: its whitened columns R_m E, E'K_m E = I, are orthonormal.
    """
    if side == "input":
        pts, lm = ds.X, landmarks.inputs
    elif side == "output":
        pts, lm = ds.Y, landmarks.outputs
    else:
        raise ValueError(f"side must be 'input' or 'output', got {side!r}")
    basis = _anchor_basis(tol, kernel, [pts, lm])
    R_pts, R_m = basis.columns(pts), basis.columns(lm)
    Q = R_m @ psd_pinv_sqrt_factor(R_m.T @ R_m)[0]
    return _factor_norm(R_pts - Q @ (Q.T @ R_pts)) / math.sqrt(len(pts))


# ---------------------------------------------------------------------------
# Riccati and objective gaps
# ---------------------------------------------------------------------------


def transport_weights(exact_model: KoopmanModel, Q_exact: FloatArray, ny_model: KoopmanModel):
    """Express the exact surrogate's state weight in the compressed coordinates.

    Returns (Q_ny, T) with T = E_exact' K(out_exact, out_ny) E_ny the map from
    compressed to exact lifted coordinates, so both quadratic forms realize the
    same weighting operator on the lifted space: Q_ny = T' Q_exact T.  The
    compressed gain reads the exact coordinates through T' (``objective_gap``).
    """
    if not isinstance(exact_model.lifting, NystromLift) or not isinstance(ny_model.lifting, NystromLift):
        raise TypeError("weight transport requires kernel lifts on both sides")
    outs = [model.lifting.landmarks.outputs for model in (exact_model, ny_model)]
    T = _transport(exact_model.lifting.kernel, outs[0], exact_model.out_factor, outs[1], ny_model.out_factor)
    Q = T.T @ Q_exact @ T
    return 0.5 * (Q + Q.T), T


@dataclass(frozen=True)
class ExactModelNorms:
    """Operator norms of the exact surrogate's pieces on the lifted space."""

    G: float
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
    tol: AnchorBasis | RankTolerance = RankTolerance(),
) -> ExactModelNorms:
    """Bundle the norms entering the rate formulas, computed once per fixture.

    The exact model's output landmarks must be G's output anchors, as they are
    for a model fitted on the full paired training set (``ValueError``
    otherwise): G, its blocks A and B, P, K and the closed loop then all read
    the basis columns of G's output anchors Y and input anchors X.
    ``exact_sol`` is the model's ``solve_model_dare`` solution, whose
    ``basis`` spans the synthesized subspace.  Raises TypeError for a
    thin-plate model.
    """
    if not isinstance(exact_model.lifting, NystromLift):
        raise TypeError("the exact model's norms need a kernel-lift model")
    out = exact_model.lifting.landmarks.outputs
    if not np.array_equal(out, G_exact.out_anchors):
        raise ValueError("the exact model's output landmarks must be the exact operator's output anchors")
    basis = _anchor_basis(tol, G_exact.kernel, [out, G_exact.in_anchors])
    C = _whitened(G_exact, basis, basis)
    r_x = basis.rank
    # closed loop A + B K: the gain reads the state at the model's output
    # landmarks and feeds G's control block, the operator F G_u K E_out' F^*
    E = exact_model.out_factor
    feedback = RkhsOperator(G_exact.kernel, out, G_exact.core[:, G_exact.b :] @ exact_sol.K_m, out, in_weight=E.T)
    # transient growth and sigma_min are taken on the synthesized subsystem:
    # its basis spans an A_r-invariant subspace, so this block is exactly the
    # closed loop the gain was designed for
    V = exact_sol.basis
    L_red = V.T @ exact_sol.L_m @ V
    P_red = V.T @ exact_sol.P_m @ V
    sigma_min_P = float(np.min(np.linalg.eigvalsh(0.5 * (P_red + P_red.T))))
    rho = exact_sol.rho_L
    zeta = 0.5 * (rho + 1.0)
    t = tau(L_red, zeta)
    return ExactModelNorms(
        G=_factor_norm(C),
        A=_factor_norm(C[:, :r_x]),
        B=_factor_norm(C[:, r_x:]),
        P=_factor_norm(_whitened(_riccati_form(exact_model, exact_sol.P_m), basis, basis)),
        K=_factor_norm(exact_sol.K_m @ (basis.columns(out) @ E).T),
        L=_factor_norm(C[:, :r_x] + _whitened(feedback, basis, basis)),
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


def objective_gap_bound(g_eps: float, norms: ExactModelNorms, sigma_max_R: float, variance: float) -> float:
    """Bound on the objective gap for a Riccati-solution gap of at most g_eps."""
    return (
        36.0
        * sigma_max_R
        * norms.Gamma**9
        * g_eps**2
        * variance
        * norms.tau**2
        / (1.0 - norms.zeta**2)
    )


def objective_gap_precondition(g_eps: float, norms: ExactModelNorms, sigma_min_R: float) -> bool:
    """Smallness condition of the objective bound, on top of the Riccati
    precondition under which g_eps bounds the Riccati-solution gap."""
    threshold = (1.0 - norms.zeta) / (6.0 * norms.B * norms.tau * norms.Gamma**2)
    return g_eps <= threshold and sigma_min_R >= 1.0


def riccati_gap(
    exact_model: KoopmanModel,
    exact_sol: RiccatiSolution,
    ny_model: KoopmanModel,
    ny_sol: RiccatiSolution,
    tol: AnchorBasis | RankTolerance = RankTolerance(),
) -> float:
    """Operator-norm gap between the two Riccati solutions on the lifted space.

    Each solution P_m is its model's Riccati form F E_out P_m E_out' F^*, and
    the gap is their ``operator_gap_norm``.  Both models must lift with the
    same kernel (``ValueError`` otherwise), and a thin-plate model raises
    TypeError.
    """
    if not isinstance(exact_model.lifting, NystromLift) or not isinstance(ny_model.lifting, NystromLift):
        raise TypeError("the Riccati gap requires kernel lifts on both sides")
    forms = _riccati_form(exact_model, exact_sol.P_m), _riccati_form(ny_model, ny_sol.P_m)
    return operator_gap_norm(*forms, tol)


@dataclass(frozen=True)
class ObjectiveGapReport:
    """The exact regulator's cost J, the mapped gain's cost J_hat and their gap.

    J belongs to the exact side alone, so it is reported whether or not the
    mapped gain stabilizes; a gain that does not has J_hat = gap = inf.
    """

    J: float
    J_hat: float
    gap: float
    stabilizes: bool


@dataclass(frozen=True)
class ObjectiveReference:
    """The exact surrogate's side of every objective gap, taken once per sweep.

    On the synthesized subspace with orthonormal basis V: the reduced system
    (A, B), the greedy gain K = -M^(-1) B'PA of the exact regulator's Riccati
    iterate P with M = R + B'PB, the weight D = Q + A'PA - A'PB M^(-1) B'PA - P
    (the DARE residual with its sign flipped), the start z0, and along the loop
    A + BK the cost J = z0' X(Q + K'RK) z0 and cost_D = z0' X(D) z0.
    """

    basis: FloatArray
    A: FloatArray
    B: FloatArray
    K: FloatArray
    M: FloatArray
    D: FloatArray
    z0: FloatArray
    J: float
    cost_D: float


def _trajectory_gramian(L: FloatArray, z0: FloatArray) -> FloatArray:
    """Y = sum_t L^t z0 z0' L^t', so that z0' X(W) z0 = <W, Y> for every weight W.

    X(W) = sum_t L^t' W L^t is the Lyapunov sum of a stage weight; Y is the same
    sum in its dual form, from the Riccati core with a zero input matrix on the
    unit weight z0 z0' / |z0|^2.  Its stopping rule is then relative to the
    trajectory itself, whatever the size or sign of the weights read from it.
    Raises RuntimeError if the sum does not settle.
    """
    s = float(z0 @ z0)
    weights = LqrWeights(np.outer(z0, z0) / s, np.eye(1))
    return s * solve_dare(L.T, np.zeros((len(L), 1)), weights).P_m


def objective_reference(
    exact_model: KoopmanModel, exact_sol: RiccatiSolution, Q_exact: FloatArray, R, x0
) -> ObjectiveReference:
    """The exact surrogate's regulator and its cost from the embedding of ``x0``.

    Costs are taken on the synthesized (invariant) subspace of the exact
    surrogate, the system both gains are designed against: the span of the
    ``basis`` of ``exact_sol``, the model's ``solve_model_dare`` solution.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    V = exact_sol.basis
    A = V.T @ exact_model.A_r @ V
    B = V.T @ exact_model.B_r
    Q = V.T @ Q_exact @ V
    P = V.T @ exact_sol.P_m @ V
    P = 0.5 * (P + P.T)
    K, M, _ = _greedy_gain(P, A, B, R)
    D = -_dare_defect(P, A, B, LqrWeights(Q, R))[0]
    z0 = V.T @ exact_model.embed_states(np.atleast_2d(np.asarray(x0, dtype=float)))[:, 0]
    Y = _trajectory_gramian(A + B @ K, z0)
    return ObjectiveReference(
        basis=V, A=A, B=B, K=K, M=M, D=D, z0=z0,
        J=float(np.sum((Q + K.T @ R @ K) * Y)),
        cost_D=float(np.sum(D * Y)),
    )


def objective_gap(ref: ObjectiveReference, ny_sol: RiccatiSolution, T: FloatArray) -> ObjectiveGapReport:
    """Certainty-equivalence cost of the compressed gain on the exact surrogate.

    The compressed gain reads the exact coordinates through the transport T of
    ``transport_weights``: K_hat = K_ny T' V.  Its excess cost over the exact
    regulator's from z0 is the cost-difference identity (Fazel, Ge, Kakade &
    Mesbahi, ICML 2018)

        J_hat - J = z0' [X_hat(D + dK' M dK) - X(D)] z0,   dK = K_hat - K,

    with X_hat the Lyapunov sums along A + B K_hat; it holds for any symmetric
    P, converged or not.  Its terms are of the size of the gap, so the gap is
    resolved to the precision of its own sums rather than as the difference of
    two costs of about J.  Each sum is read from the trajectory Gramian of its
    loop.  A non-contractive mapped gain is reported with an infinite gap
    rather than an exception, next to the reference's J.
    """
    K_hat = (ny_sol.K_m @ T.T) @ ref.basis
    L_hat = ref.A + ref.B @ K_hat
    if not spectral_radius(L_hat) < 1.0:
        return ObjectiveGapReport(J=ref.J, J_hat=math.inf, gap=math.inf, stabilizes=False)
    Y_hat = _trajectory_gramian(L_hat, ref.z0)
    dK = K_hat - ref.K
    excess = float(np.sum(ref.M * (dK @ Y_hat @ dK.T)))
    gap = float(np.sum(ref.D * Y_hat)) - ref.cost_D + excess
    return ObjectiveGapReport(J=ref.J, J_hat=ref.J + gap, gap=gap, stabilizes=True)


# ---------------------------------------------------------------------------
# Study reports
# ---------------------------------------------------------------------------

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
    tau_truncated: bool = False
    zeta: float = math.nan
    sigma_min_P: float = math.nan
    norm_G: float = math.nan
    basis_rank: int = 0  # rank of the sweep's anchor basis

    def __post_init__(self) -> None:
        for name in ("empirical_gap", "gap_bound", "proj_in", "proj_out"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


BOUND_REPORT_FIELDS = [f.name for f in dataclasses.fields(BoundReport)]


def write_bound_reports(path, rows: list[BoundReport]) -> None:
    """One CSV row per report: floats with 17 significant digits, ints and
    booleans as Python prints them."""
    import csv
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUND_REPORT_FIELDS)
        for row in rows:
            values = (getattr(row, f) for f in BOUND_REPORT_FIELDS)
            writer.writerow([fmt17(v) if isinstance(v, float) else v for v in values])
