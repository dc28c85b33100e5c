"""Discrete-time infinite-horizon LQR on the lifted surrogate.

The Riccati equation is approached through its value iteration

    P_{k+1} = A' P_k A - A' P_k B (R + B' P_k B)^(-1) B' P_k A + Q,   P_0 = Q,

which converges for stabilizable/detectable systems.  The iterate P_N is not
computed step by step but by segment doubling (the structure-preserving
doubling of Chu, Fan & Lin, LAA 2005, and Anderson, IJC 1978): a segment of k
stages is the map X -> H + A' X (I + G X)^(-1) A, held as the triple
(A_k, G_k, H_k), whose value at X = 0 is P_{k-1}.  The one-stage segment is
(A, B R^(-1) B', Q), and two segments compose into one with a single linear
solve, so the binary decomposition of N + 1 stages gives the same P_N in
O(log N) products.  Gains follow the convention u = K z with
K = -(R + B' P B)^(-1) B' P A.

``solve_model_dare`` is the entry point used by the pipeline: it synthesizes
on the numerically retained range of the model's lift (same solution, much
cheaper when the landmark set is the whole training set) and stays usable on
lifts whose marginal modes make the textbook infinite-horizon problem
ill-posed; see its docstring.  ``solve_dare`` and ``solve_model_dare`` share
one core, ``_riccati_core``.  The core also serves fixed-gain costs: with
B = 0 the iteration is P_{k+1} = A' P_k A + Q, whose iterates are the Lyapunov
sums sum_{t<=k} A^t' Q A^t, and doubling them is Smith's method.  Given the
closed loop A + B K in place of A and the stage weight Q + K' R K in place of
Q, the limit P gives the infinite-horizon cost z0' P z0 of the fixed gain K
from z0 (used by ``theory.objective_gap``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .identify import KoopmanModel
from .numerics import solve_psd, spectral_radius

FloatArray = NDArray[np.float64]

__all__ = [
    "LqrWeights",
    "RiccatiSolution",
    "build_weights",
    "solve_dare",
    "dare_residual",
    "solve_model_dare",
]


@dataclass(frozen=True)
class LqrWeights:
    """State weight in lifted coordinates and control weight."""

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

    ``iterations`` is the N of the returned value iterate P_N (P_0 = Q).  The
    stopping rule ||P_{k+1} - P_k||_2 <= tol * (1 + ||P_k||_2) is checked at
    the doubled iterates k = 2^j - 1; the first that meets it is returned with
    ``converged=True`` and N = k.  Otherwise N is the horizon cap and
    ``converged`` is the rule at k = N.  ``delta_history`` holds the checked
    one-step deltas ||P_{k+1} - P_k||_2 in order, at most about log2(N) + 2;
    each is the DARE residual of its iterate, and ``residual`` is the last.

    ``deflated`` counts lifted modes excluded from synthesis because they sit
    numerically on the unit circle with negligible control authority; the gain
    leaves them untouched and ``rho_L`` refers to the synthesized subsystem.
    """

    P_m: FloatArray
    K_m: FloatArray
    L_m: FloatArray
    residual: float
    rho_L: float
    iterations: int
    delta_history: tuple = field(default=(), repr=False)
    deflated: int = 0
    rho_L_full: float | None = None
    converged: bool = True
    # orthonormal columns spanning the synthesized subspace, when synthesis ran
    # on a restriction of the lifted coordinates
    basis: FloatArray | None = field(default=None, repr=False)


def build_weights(model: KoopmanModel, Qprime, R) -> LqrWeights:
    """Pull a state-space weight back through the reconstruction: Q_m = C' Q' C."""
    Qprime = np.atleast_2d(np.asarray(Qprime, dtype=float))
    if Qprime.shape != (model.d, model.d):
        raise ValueError(f"Qprime must be ({model.d}, {model.d}), got {Qprime.shape}")
    Q_m = model.C.T @ Qprime @ model.C
    return LqrWeights(Q_m=Q_m, R=np.atleast_2d(np.asarray(R, dtype=float)))


def _compose(early, late):
    """Segment of ``early``'s stages followed by ``late``'s: early(late(X)).

    With early = (A1, G1, H1) and late = (A2, G2, H2) the product is
    (A2 W A1, G2 + A2 W G1 A2', H1 + A1' H2 W A1) with W = (I + G1 H2)^(-1),
    which exists because G1 and H2 are PSD.
    """
    A1, G1, H1 = early
    A2, G2, H2 = late
    n = A1.shape[0]
    W = np.linalg.solve(np.eye(n) + G1 @ H2, np.hstack([A1, G1]))
    WA, WG = W[:, :n], W[:, n:]
    G = G2 + A2 @ WG @ A2.T
    H = H1 + A1.T @ H2 @ WA
    return A2 @ WA, 0.5 * (G + G.T), 0.5 * (H + H.T)


def _riccati_core(A, B, weights: LqrWeights, tol: float, horizon: int) -> RiccatiSolution:
    """Value iterate P_N by segment doubling, with its gain and closed loop.

    Doubles the one-stage segment, checking the stopping rule at each doubled
    iterate P_k, k = 2^j - 1 <= horizon, and otherwise composes the binary
    decomposition of horizon + 1 stages from the doubled segments.  Raises
    RuntimeError on the first segment that is not finite.
    """
    Q, R = weights.Q_m, weights.R
    G = B @ solve_psd(R, B.T)[0]
    seg = (A, 0.5 * (G + G.T), Q)
    powers = []  # powers[j] spans 2^j stages
    deltas: list[float] = []

    def meets_rule(P) -> bool:
        deltas.append(dare_residual(P, A, B, weights))
        return deltas[-1] <= tol * (1.0 + float(np.linalg.norm(P, 2)))

    def extend(early, late, reached: int):
        with np.errstate(over="ignore", invalid="ignore"):
            out = _compose(early, late)
        if not all(np.all(np.isfinite(M)) for M in out):
            raise RuntimeError(
                f"Riccati iterate is not finite beyond iteration {reached} (horizon {horizon})"
            )
        return out

    stages = 1
    while True:
        powers.append(seg)
        converged = meets_rule(seg[2])
        if converged or 2 * stages > horizon + 1:
            break
        seg = extend(seg, seg, stages - 1)
        stages *= 2
    if not converged and stages <= horizon:
        rest = horizon + 1 - stages
        for j, piece in enumerate(powers):
            if rest >> j & 1:
                seg = extend(seg, piece, stages - 1)
                stages += 1 << j
        converged = meets_rule(seg[2])
    P = seg[2]
    BtP = B.T @ P
    gain_part, _ = solve_psd(R + BtP @ B, BtP @ A)
    K = -gain_part
    L = A + B @ K
    return RiccatiSolution(
        P_m=P,
        K_m=K,
        L_m=L,
        residual=deltas[-1],
        rho_L=spectral_radius(L),
        iterations=stages - 1,
        delta_history=tuple(deltas),
        converged=converged,
    )


def solve_dare(
    A,
    B,
    weights: LqrWeights,
    tol: float = 1e-12,
    max_iter: int = 1_000_000,
) -> RiccatiSolution:
    """Riccati value iterate from P_0 = Q, capped at ``max_iter`` steps.

    Converged when ||P_{k+1} - P_k||_2 <= tol * (1 + ||P_k||_2) at the
    returned P_k (see ``RiccatiSolution``).  Raises RuntimeError on
    non-convergence, on an iterate that overflows, or when the resulting
    closed loop is not contractive.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0] or weights.Q_m.shape != A.shape:
        raise ValueError("inconsistent shapes in solve_dare")
    sol = _riccati_core(A, B, weights, tol, max_iter)
    if not sol.converged:
        raise RuntimeError(f"Riccati iteration did not converge in {max_iter} iterations")
    if not sol.rho_L < 1.0:
        raise RuntimeError(f"closed loop is not contractive: rho(A + BK) = {sol.rho_L:.6g}")
    return sol


def dare_residual(P, A, B, weights: LqrWeights) -> float:
    """||F(P, A, B)||_2 with F(P,A,B) = P - A'[P - PB(R+B'PB)^(-1)B'P]A - Q."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    BtP = B.T @ P
    inner_part, _ = solve_psd(weights.R + BtP @ B, BtP)
    F = P - A.T @ (P - BtP.T @ inner_part) @ A - weights.Q_m
    return float(np.linalg.norm(F, 2))


def _deflate_marginal_modes(A: FloatArray, rho_cap: float):
    """Orthonormal basis of the invariant subspace of modes with |eig| < rho_cap.

    Returns (U1, T11) from an ordered real Schur form, or None when every mode
    is strictly inside the cap.
    """
    import scipy.linalg

    T, Z, sdim = scipy.linalg.schur(
        A, output="real", sort=lambda re, im: (re * re + im * im) < rho_cap * rho_cap
    )
    if sdim == A.shape[0]:
        return None
    return Z[:, :sdim], T[:sdim, :sdim]


def solve_model_dare(
    model: KoopmanModel,
    Qprime=None,
    R=None,
    weights: LqrWeights | None = None,
    tol: float = 1e-12,
    horizon: int = 10_000,
    rho_cap: float | None = None,
) -> RiccatiSolution:
    """LQR synthesis for a fitted surrogate, robust to marginal lifted modes.

    Weights are either given directly or built as C' Q' C from ``Qprime`` and
    ``R``.  The iteration runs on the retained range of the lift (with V the
    orthonormal range basis, A_m = V A_r V', B_m = V B_r and Q_m = V Q_r V'
    hold for fitted models up to round-off).

    Kernel lifts of these systems carry numerically marginal modes (constants
    are an eigenfunction of the step map at eigenvalue 1) with negligible
    control authority; the exact Riccati solution is dominated by them and the
    fixed-point iteration stalls on them.  Two complementary treatments:

    * ``horizon`` caps the iteration count.  The capped iterate is the
      finite-horizon cost-to-go, whose gain acts on everything the iteration
      has resolved while leaving un-inflated marginal directions alone;
      ``converged=False`` records the cap.  An iterate that overflows before
      the cap raises RuntimeError.
    * ``rho_cap`` (optional) deflates modes with |eig(A)| >= rho_cap from the
      synthesis outright via an ordered Schur form, which yields a strictly
      contractive synthesized loop.  Only appropriate when no genuine
      controllable mode lies above the cap.
    """
    if weights is None:
        if Qprime is None or R is None:
            raise ValueError("provide either weights or both Qprime and R")
        weights = build_weights(model, Qprime, R)
    V = model.range_basis()
    A_r = V.T @ model.A_m @ V
    B_r = V.T @ model.B_m
    Q_r = 0.5 * (V.T @ weights.Q_m @ V + (V.T @ weights.Q_m @ V).T)
    deflation = _deflate_marginal_modes(A_r, rho_cap) if rho_cap is not None else None
    if deflation is not None:
        U1, T11 = deflation
        basis = V @ U1
        A_s, B_s = T11, U1.T @ B_r
        Q_s = 0.5 * (U1.T @ Q_r @ U1 + (U1.T @ Q_r @ U1).T)
        deflated = A_r.shape[0] - U1.shape[1]
    else:
        basis = V
        A_s, B_s, Q_s = A_r, B_r, Q_r
        deflated = 0
    red = _riccati_core(A_s, B_s, LqrWeights(Q_s, weights.R), tol, horizon)
    P = basis @ red.P_m @ basis.T
    K = red.K_m @ basis.T
    L = model.A_m + model.B_m @ K
    if deflated:
        # the full loop's nonzero spectrum lives on the retained range
        rho_full = spectral_radius(A_r + B_r @ (K @ V))
    else:
        rho_full = red.rho_L
    return RiccatiSolution(
        P_m=0.5 * (P + P.T),
        K_m=K,
        L_m=L,
        residual=red.residual,
        rho_L=red.rho_L,
        iterations=red.iterations,
        delta_history=red.delta_history,
        deflated=deflated,
        rho_L_full=rho_full,
        converged=red.converged,
        basis=basis,
    )
