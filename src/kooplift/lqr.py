"""Discrete-time infinite-horizon LQR on the lifted surrogate.

The Riccati equation is approached through its value iteration

    P_{k+1} = A' P_k A - A' P_k B (R + B' P_k B)^(-1) B' P_k A + Q,   P_0 = Q,

which converges for stabilizable/detectable systems.  The iterates are not
computed step by step but by segment doubling (the structure-preserving
doubling of Chu, Fan & Lin, LAA 2005, and Anderson, IJC 1978): a segment of k
stages is the map X -> H + A' X (I + G X)^(-1) A, held as the triple
(A_k, G_k, H_k), whose value at X = 0 is P_{k-1}.  The one-stage segment is
(A, B R^(-1) B', Q), and a segment composed with itself doubles its stages
with a single linear solve, so the core reaches P_k, k = 2^j - 1, in j
doublings.  It returns the first such iterate that meets the stopping rule,
or the one at the guard ``MAX_ITERATIONS`` = 2^21 - 1.  Gains follow the
convention u = K z with K = -(R + B' P B)^(-1) B' P A.

``solve_model_dare`` is the entry point used by the pipeline: it synthesizes
on the model's own coordinates, the r-dimensional retained range of its lift,
so every matrix here is r x r whatever the landmark count.  It first deflates
the lift's marginal modes, which make the textbook infinite-horizon problem
ill-posed, and then iterates to the stopping rule; see its docstring.
``solve_dare``, the strict textbook solver, raises on such modes instead.
Both share one core, ``_riccati_core``.  The core also serves fixed-gain
costs: with B = 0 the iteration is P_{k+1} = A' P_k A + Q, whose iterates are
the Lyapunov sums sum_{t<=k} A^t' Q A^t, and doubling them is Smith's method.
Given the closed loop A + B K in place of A and the stage weight Q + K' R K in
place of Q, the limit P gives the infinite-horizon cost z0' P z0 of the fixed
gain K from z0; ``theory.objective_reference`` and ``theory.objective_gap``
run the same sums in their dual form, along (A + B K)' with the weight z0 z0'.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .identify import KoopmanModel
from .numerics import solve_psd, spectral_radius

FloatArray = NDArray[np.float64]

# relative tolerance of the Riccati stopping rule (see RiccatiSolution)
RICCATI_TOL = 1e-12
# solve_model_dare deflates the modes with | |eig(A_r)| - 1 | < MARGINAL_BAND
MARGINAL_BAND = 1e-4
# iteration guard, a doubled iterate 2^j - 1: solve_model_dare records reaching
# it as converged=False, solve_dare raises
MAX_ITERATIONS = 2**21 - 1

__all__ = [
    "LqrWeights",
    "RiccatiSolution",
    "build_weights",
    "solve_dare",
    "solve_model_dare",
]


@dataclass(frozen=True)
class LqrWeights:
    """State weight in the model's lifted coordinates and control weight."""

    Q_m: FloatArray
    R: FloatArray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q_m, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        Q = 0.5 * (Q + Q.T)
        object.__setattr__(self, "Q_m", Q)
        object.__setattr__(self, "R", 0.5 * (R + R.T))
        wq = np.linalg.eigvalsh(Q)
        if wq.size and wq[0] < -1e-10 * max(1.0, wq[-1]):
            raise ValueError(f"Q_m is not PSD: lambda_min = {wq[0]:.3e}")
        wr = np.linalg.eigvalsh(self.R)
        if wr[0] <= 0:
            raise ValueError(f"R is not positive definite: lambda_min = {wr[0]:.3e}")


@dataclass(frozen=True)
class RiccatiSolution:
    """DARE solution with gain, closed loop and solver diagnostics.

    ``iterations`` is the N of the returned value iterate P_N (P_0 = Q), always
    a doubled iterate 2^j - 1.  The stopping rule
    ||P_{k+1} - P_k||_2 <= RICCATI_TOL * (1 + ||P_k||_2), with the module
    constant ``RICCATI_TOL`` = 1e-12, is checked at each k = 2^j - 1; the first
    that meets it is returned with ``converged=True`` and N = k.  Otherwise N
    is the guard ``MAX_ITERATIONS`` and ``converged`` is False.
    ``delta_history`` holds the checked one-step deltas ||P_{k+1} - P_k||_2 in
    order, log2(N + 1) + 1 of them; each is the DARE residual of its iterate,
    and ``residual`` is the last.

    ``deflated`` counts lifted modes excluded from synthesis because they sit
    within ``MARGINAL_BAND`` of the unit circle; the gain does not read them,
    ``rho_L`` refers to the synthesized subsystem and ``rho_L_full`` to the
    whole loop, in which the feedback through B can move them.
    ``jitter_applied`` records whether any PSD solve of the synthesis (the
    input weight, each checked residual, the gain) fell back to jitter.

    ``basis`` holds orthonormal columns spanning the subspace synthesized on:
    for ``solve_model_dare`` the Schur basis of the kept modes, I_r when no
    mode was deflated; for ``solve_dare`` the identity.  For a model, P_m, K_m
    and L_m are in its lifted coordinates (r x r, n_u x r and r x r).
    """

    P_m: FloatArray
    K_m: FloatArray
    L_m: FloatArray
    residual: float
    rho_L: float
    iterations: int
    basis: FloatArray = field(repr=False)
    delta_history: tuple = field(default=(), repr=False)
    deflated: int = 0
    rho_L_full: float | None = None
    converged: bool = True
    jitter_applied: bool = False


def build_weights(model: KoopmanModel, Qprime, R) -> LqrWeights:
    """Pull a state-space weight back through the reconstruction: Q_m = C_r' Q' C_r."""
    Qprime = np.atleast_2d(np.asarray(Qprime, dtype=float))
    if Qprime.shape != (model.d, model.d):
        raise ValueError(f"Qprime must be ({model.d}, {model.d}), got {Qprime.shape}")
    Q_m = model.C_r.T @ Qprime @ model.C_r
    return LqrWeights(Q_m=Q_m, R=np.atleast_2d(np.asarray(R, dtype=float)))


def _double(seg):
    """The segment of ``seg``'s stages run twice: seg(seg(X)).

    With seg = (A, G, H) the product is
    (A W A, G + A W G A', H + A' H W A) with W = (I + G H)^(-1), which exists
    because G and H are PSD.
    """
    A, G, H = seg
    n = A.shape[0]
    W = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A, G]))
    WA, WG = W[:, :n], W[:, n:]
    G2 = G + A @ WG @ A.T
    H2 = H + A.T @ H @ WA
    return A @ WA, 0.5 * (G2 + G2.T), 0.5 * (H2 + H2.T)


def _riccati_core(A, B, weights: LqrWeights) -> RiccatiSolution:
    """Doubled value iterate P_k, k = 2^j - 1, with its gain and closed loop.

    Doubles the one-stage segment until the stopping rule holds at P_k or k
    reaches ``MAX_ITERATIONS``.  Raises RuntimeError on the first segment that
    is not finite.
    """
    Q, R = weights.Q_m, weights.R
    R_inv_Bt, jitter = solve_psd(R, B.T)
    G = B @ R_inv_Bt
    seg = (A, 0.5 * (G + G.T), Q)
    deltas: list[float] = []
    jitters = [jitter]

    def meets_rule(P) -> bool:
        defect, jitter = _dare_defect(P, A, B, weights)
        deltas.append(float(np.linalg.norm(defect, 2)))
        jitters.append(jitter)
        return deltas[-1] <= RICCATI_TOL * (1.0 + float(np.linalg.norm(P, 2)))

    stages = 1
    while not (converged := meets_rule(seg[2])) and 2 * stages <= MAX_ITERATIONS + 1:
        with np.errstate(over="ignore", invalid="ignore"):
            seg = _double(seg)
        if not all(np.all(np.isfinite(M)) for M in seg):
            raise RuntimeError(
                f"Riccati iterate is not finite beyond iteration {stages - 1} (guard {MAX_ITERATIONS})"
            )
        stages *= 2
    P = seg[2]
    K, _, jitter = _greedy_gain(P, A, B, R)
    jitters.append(jitter)
    L = A + B @ K
    return RiccatiSolution(
        P_m=P,
        K_m=K,
        L_m=L,
        residual=deltas[-1],
        rho_L=spectral_radius(L),
        iterations=stages - 1,
        basis=np.eye(len(A)),
        delta_history=tuple(deltas),
        converged=converged,
        jitter_applied=any(jitters),
    )


def solve_dare(A, B, weights: LqrWeights) -> RiccatiSolution:
    """Riccati value iterate from P_0 = Q, to the stopping rule.

    Converged when ||P_{k+1} - P_k||_2 <= RICCATI_TOL * (1 + ||P_k||_2) at the
    returned P_k (see ``RiccatiSolution``).  Raises RuntimeError when the
    guard ``MAX_ITERATIONS`` is reached first, on an iterate that overflows,
    or when the resulting closed loop is not contractive.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0] or weights.Q_m.shape != A.shape:
        raise ValueError("inconsistent shapes in solve_dare")
    sol = _riccati_core(A, B, weights)
    if not sol.converged:
        raise RuntimeError(f"Riccati iteration did not converge in {sol.iterations} iterations")
    if not sol.rho_L < 1.0:
        raise RuntimeError(f"closed loop is not contractive: rho(A + BK) = {sol.rho_L:.6g}")
    return sol


def _greedy_gain(P, A, B, R) -> tuple[FloatArray, FloatArray, bool]:
    """The gain K = -M^(-1) B'PA of the value iterate P with M = R + B'PB, and
    the jitter flag of its solve: (K, M, jitter)."""
    BtP = B.T @ P
    M = R + BtP @ B
    gain_part, jitter = solve_psd(M, BtP @ A)
    return -gain_part, M, jitter


def _dare_defect(P, A, B, weights: LqrWeights) -> tuple[FloatArray, bool]:
    """F(P, A, B) = P - A'[P - PB(R+B'PB)^(-1)B'P]A - Q, the DARE residual
    matrix, with the jitter flag of its solve.

    Its negative, D = Q + A'PA - A'PB (R+B'PB)^(-1) B'PA - P, is the weight of
    the cost-difference identity in ``theory.objective_reference``.
    """
    BtP = B.T @ P
    inner_part, jitter = solve_psd(weights.R + BtP @ B, BtP)
    return P - A.T @ (P - BtP.T @ inner_part) @ A - weights.Q_m, jitter


def _deflate_marginal_modes(A: FloatArray):
    """Orthonormal basis of the invariant subspace of the modes outside the band
    | |eig| - 1 | < MARGINAL_BAND.

    Returns (U1, T11) from an ordered real Schur form, or (I, A) when no mode
    falls in the band.
    """
    import scipy.linalg

    T, Z, sdim = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: abs(np.hypot(re, im) - 1.0) >= MARGINAL_BAND
    )
    if sdim == A.shape[0]:
        return np.eye(sdim), A
    return Z[:, :sdim], T[:sdim, :sdim]


def solve_model_dare(
    model: KoopmanModel,
    Qprime=None,
    R=None,
    weights: LqrWeights | None = None,
) -> RiccatiSolution:
    """LQR synthesis for a fitted surrogate, with its marginal lifted modes deflated.

    Weights are either given directly or built as C_r' Q' C_r from ``Qprime``
    and ``R``.  The iteration runs on (A_r, B_r), the model's own coordinates.

    Kernel lifts of these systems carry numerically marginal modes (constants
    are an eigenfunction of the step map at eigenvalue 1) with negligible
    control authority; the value iteration stalls on them.  Modes with
    | |eig(A_r)| - 1 | < ``MARGINAL_BAND`` are split off by an ordered real
    Schur form, and the iteration runs on the invariant subspace of the rest to
    its stopping rule.  A mode outside the band, unstable or not, is
    synthesized.  The solution's ``basis`` is the Schur basis U1 of the kept
    modes, P_m = U1 P_s U1' and K_m = K_s U1'; with no mode in the band U1 is
    I_r and the iteration runs on (A_r, B_r) itself, to the same bits.
    Reaching ``MAX_ITERATIONS`` returns that iterate with ``converged=False``;
    an iterate that overflows raises RuntimeError.
    """
    if weights is None:
        if Qprime is None or R is None:
            raise ValueError("provide either weights or both Qprime and R")
        weights = build_weights(model, Qprime, R)
    A, B = model.A_r, model.B_r
    U1, T11 = _deflate_marginal_modes(A)
    Q_s = U1.T @ weights.Q_m @ U1
    red = _riccati_core(T11, U1.T @ B, LqrWeights(Q_s, weights.R))
    P = U1 @ red.P_m @ U1.T
    K = red.K_m @ U1.T
    L = A + B @ K
    return replace(
        red,
        P_m=0.5 * (P + P.T),
        K_m=K,
        L_m=L,
        deflated=A.shape[0] - U1.shape[1],
        # the whole loop's spectrum: K feeds back into the deflated modes
        # through B, so they need not stay where they were
        rho_L_full=spectral_radius(L),
        basis=U1,
    )
