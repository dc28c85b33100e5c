"""Fit finite-dimensional linear surrogates of controlled nonlinear dynamics.

Two lifts are supported:

* ``NystromLift`` -- kernel features compressed onto m landmark points.  The
  lifted coordinate of a state x is z = E_out' k_out(x), with k_out(x) the
  kernel vector against the output landmarks and E_out = V_r Lambda_r^(-1/2)
  (m x r) the thin inverse square-root factor of their Gram K_out (one column
  per eigenvalue above the rank cutoff, so E_out' K_out E_out = I_r).

* ``ThinPlateLift`` -- explicit thin-plate-spline features against fixed
  centers (E_out = I, r = m).  This is the baseline the landmark lift is
  benchmarked against.

A model lives on its retained range: the surrogate z' = A_r z + B_r u and the
reconstruction x ~= C_r z are r x r, r x n_u and d x r, and no m x m matrix is
formed.  Both lifts are fitted by the same two ridge regressions.  With feature
block F = [Phi(X) | U] (n x k) and lifted training outputs Psi(Y) (n x r_out),

    (F'F + gamma n I) S_r = F'Psi,   A_r = S_x' T,   B_r = S_u',   (Psi'Psi + lam n I) C_r' = Psi'Y

and every n-long sum is read from one set of cross products, G'G for
G = [Phi(X) | U | Psi(Y) | Y], so only k x k and r_out x r_out systems are
factorized and no n x m array of the solution or of the lifted outputs is
built.  The lifts differ in three things only:

    feature block Phi(X)     K(X, landmarks_in) E_in      thin_plate(X, centers)
    output features Psi(Y)   K(Y, landmarks_out) E_out    thin_plate(Y, centers)
    transport T              E_in' K_in_out E_out         I

where E_in is the thin factor of the input-landmark Gram K_in and K_in_out the
cross-Gram of the input and output landmarks.  Shared landmarks (input and
output points equal) take E_in = E_out, Psi = Phi and T = I_r, so neither the
cross-Gram nor the product with it is formed, and each landmark Gram is built
and decomposed once.  Each row of F has norm at most sqrt(kappa^2 + |u|^2),
since E_in' k_in(x) is the projection of the feature of x onto the landmark
span, so F'F + gamma n I is conditioned by 1 + (kappa^2 + max |u|^2) / gamma
at worst, and the regression is the compressed estimator
Pi_out Z*S P (P C P + gamma)^(-1) of the rate theory (the parametrization of
Rudi, Camoriano & Rosasco, "Less is more: Nystrom computational
regularization", NeurIPS 2015).  The model keeps S_r and the input factor,
from which :func:`kooplift.theory.build_nystrom_operator` reads the fitted
operator.  With landmarks equal to the full training set the Nystrom surrogate
coincides with the uncompressed kernel estimator on the retained input range;
that degeneracy is exercised by the test-suite through the operator
representations in :mod:`kooplift.theory`.

Both feature matrices are read from the data's distinct states
D = [X; the rows of Y that are not X's next row]: within a trajectory
y_i = x_{i+1}, so D has n + n_traj rows where X and Y together have 2n.  Rows
:n of K(D, P) (or thin_plate(D, P)) are the inputs' features and rows iy
(D[iy] = Y) the outputs'.  No n x m array of them is built: the products are
summed over blocks of pairs, and a block of pairs i0..i1-1 evaluates the rows
of its states D[i0:i1 + 1] against each point set P, with its inputs' features
those of all but the last and its outputs' those of all but the first; the
pairs that end a trajectory take theirs from the end states D[n:], evaluated
once up front.  Every block holds ``_BLOCK_PAIRS`` pairs (1 024; the last
block the rest), whatever the fit.  A block's last state is the next block's
first (the last block's is D[n]), so it is evaluated twice: one extra row per
block, 69 of the 70 200 rows of a Duffing sweep.  One set of rows serves both
sides when the input and output points agree (shared landmarks, thin-plate
centers), and a fit holds a block of rows, one block of G and the sums,
O(block m + k^2) memory whatever n.  ``fit_nested`` fits several lifts whose points are row
prefixes of the largest lift's (the landmark draws of one seed, centers sliced
``[:m]``) from the leading columns of the same rows, so a sweep evaluates the
data's rows once, and ``fit`` is its call on one lift:

    blocks of G'G            Nystrom lift                 thin-plate lift
    product set              one per lift                 one at the largest m
    F'F, F'Psi, Psi'Psi      Phi, Psi at r_in, r_out      leading m of each block
    Psi'Y                    Psi at r_out                 leading m rows

A Nystrom sweep keeps one product set per lift because E_in changes with m:
reading a smaller fit from the largest one's raw kernel products squares the
landmark Gram's condition number.  A thin-plate fit at m is the leading
sub-blocks of the largest fit's products.  Every row a block evaluates is the
one K(D, P) or thin_plate(D, P) would hold, and its leading columns the row
against the leading points (the tests check the rows bit for bit on the cubic
and the Duffing data, d = 1 and 2, and every Nystrom lift of a sweep of each
against ``fit``; the ``kernels`` module docstring lists the shapes where it
holds).  So ``fit`` and every lift of a Nystrom sweep sum the same products
over the same blocks in the same order: each Nystrom lift of a sweep is bit
for bit ``fit`` on it alone.  A thin-plate fit read from the largest fit's
sub-blocks agrees with ``fit`` on its centers alone to the round-off of the
wider products it is read from: measured within 1.5e-10 relative on the cubic
data (m = 10 to 100) and 1.7e-10 on the Duffing data (m = 10 to 80).

Against the dense formulas in the coordinates of the m x m weight
W = (K_out^+)^(1/2) = E_out V_r' (F'F, F'Z and Z'Z each taken over F and
Z = Psi W built whole), read basis-free as E_out A_r E_out' = W A_m W and
C_r E_out' = C W, the tests hold kernel lifts to 2e-7 relative (measured within
5.4e-8: the dense transport E_in' K W equals V_r' only to eps cond(K_out)) and
thin-plate lifts to 5e-9, whose unwhitened equations reach condition number
1e7 (measured within 1.5e-9, where both orders sit 0.6e-9 to 1.4e-9 from a
40-digit solve).

The fit whose landmarks are the whole training set (the exact surrogate) is
read from one pivoted Cholesky factor L of the Gram of the data's states by
``fit_factored``: a block's features are its rows of L (held whole, so read
as views through the same blocks) times the kept eigenvectors of the small
L'L blocks, the cross products and ridges are the ones above, and no n x n
Gram is formed.  The tests hold it to 1e-5 relative of ``fit`` on the
same landmarks, whose rank decisions at condition numbers near 1e10 resolve
the kept range to about that (measured within 3.4e-6).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .data import Dataset, LandmarkSet
from .kernels import (
    FACTOR_CUTOFF,
    FeatureStack,
    GramFactor,
    KernelFamily,
    KernelSpec,
    gram,
    gram_stack,
    thin_plate_matrix,
    thin_plate_stack,
)
from .numerics import psd_pinv_sqrt_factor, solve_psd

FloatArray = NDArray[np.float64]

__all__ = [
    "NystromLift",
    "ThinPlateLift",
    "LiftingSpec",
    "KoopmanModel",
    "ReadoutStack",
    "readout_stack",
    "lift_shape",
    "ForecastDivergence",
    "fit",
    "fit_nested",
    "fit_factored",
    "embed_state",
    "forecast",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class NystromLift:
    kernel: KernelSpec
    landmarks: LandmarkSet


@dataclass(frozen=True)
class ThinPlateLift:
    centers: FloatArray

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if len(centers) < 1:
            raise ValueError("thin-plate lift needs at least one center")
        object.__setattr__(self, "centers", centers)


LiftingSpec = Union[NystromLift, ThinPlateLift]


class ForecastDivergence(RuntimeError):
    """Open-loop forecast left the finite range; carries the failing step."""

    def __init__(self, step: int):
        super().__init__(f"forecast diverged at step {step}")
        self.step = step


@dataclass
class KoopmanModel:
    """Finite surrogate z' = A_r z + B_r u with state reconstruction x ~= C_r z,
    on the lifted coordinates z(x) = E_out' k_out(x) of the m features k_out(x)
    and the thin embedding factor ``out_factor`` E_out (m, r)."""

    lifting: LiftingSpec
    A_r: FloatArray
    B_r: FloatArray
    C_r: FloatArray
    gamma: float
    lam: float
    out_factor: FloatArray
    # the regression behind A_r and B_r, not serialized (loaded models carry
    # None): the ridge solution S_r over the features [Phi(X) | U] and, for
    # kernel lifts, the thin input factor E_in
    _coef: FloatArray | None = field(default=None, repr=False, compare=False)
    _in_factor: FloatArray | None = field(default=None, repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one memory layout whether fitted or loaded, so products with a loaded
        # model take the fitted model's BLAS paths and reproduce it bit for bit
        for name in ("A_r", "B_r", "C_r", "out_factor"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=float))

    @property
    def m(self) -> int:
        """The lift's feature count."""
        return self.out_factor.shape[0]

    @property
    def r(self) -> int:
        """The rank the model keeps: the size of its lifted coordinates."""
        return self.A_r.shape[0]

    @property
    def n_u(self) -> int:
        return self.B_r.shape[1]

    @property
    def d(self) -> int:
        return self.C_r.shape[0]

    def embed_states(self, X) -> FloatArray:
        """Lifted coordinates of many states, returned as columns (r, N)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if isinstance(self.lifting, NystromLift):
            k_out = gram(self.lifting.kernel, self.lifting.landmarks.outputs, X)
            return self.out_factor.T @ k_out
        return thin_plate_matrix(X, self.lifting.centers).T


@dataclass(frozen=True)
class ReadoutStack:
    """x_s -> M_s z_s(x_s) for S models of one lift shape, stepped together.

    ``M`` is the (S, n_u, m) stack of the readouts times each model's embedding
    factor, taken once, so evaluating the stack on X (S, d) is one batched
    feature pass and one batched product, linear in m per row.  Row s is bit for
    bit (M_s E_s') k_s(x_s), the product and feature column of a single model.
    """

    features: FeatureStack
    M: FloatArray

    def __call__(self, X) -> FloatArray:
        return np.matmul(self.M, self.features(X)[:, :, None])[:, :, 0]

    def take(self, rows) -> ReadoutStack:
        """The stack of the models ``rows`` (an index array or slice)."""
        return ReadoutStack(self.features.take(rows), self.M[rows])


def lift_shape(model: KoopmanModel) -> tuple:
    """What models must share to form one ``ReadoutStack``: lift kind, kernel,
    feature count and state dimension."""
    return type(model.lifting), getattr(model.lifting, "kernel", None), model.m, model.d


def readout_stack(models, Ms) -> ReadoutStack:
    """The readouts x -> M_s z_s(x) of models of one ``lift_shape``, as one stack
    (M_s of shape (n_u, r_s))."""
    if not models or len(Ms) != len(models):
        raise ValueError(f"need one readout per model, got {len(Ms)} for {len(models)} models")
    if len({lift_shape(model) for model in models}) != 1:
        raise ValueError("models of one readout stack must share one lift_shape")
    Ms = [np.atleast_2d(np.asarray(M, dtype=float)) for M in Ms]
    if isinstance(models[0].lifting, NystromLift):
        features = gram_stack(models[0].lifting.kernel, [model.lifting.landmarks.outputs for model in models])
        Ms = [M @ model.out_factor.T for M, model in zip(Ms, models)]
    else:
        features = thin_plate_stack([model.lifting.centers for model in models])
    return ReadoutStack(features, np.stack(Ms))


def embed_state(model: KoopmanModel, x) -> FloatArray:
    """Lifted coordinate vector of a single state."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != model.d:
        raise ValueError(f"state has dimension {x.shape[0]}, model expects {model.d}")
    return model.embed_states(x[None, :])[:, 0]


def forecast(model: KoopmanModel, x0, controls) -> FloatArray:
    """Open-loop forecast: embed once, iterate linearly, reconstruct via C.

    Returns the reconstructed states for steps 1..T as a (T, d) array.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    T = len(controls)
    out = np.empty((T, model.d))
    z = embed_state(model, x0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            z = model.A_r @ z + model.B_r @ controls[t]
            if not np.all(np.isfinite(z)):
                raise ForecastDivergence(t + 1)
            out[t] = model.C_r @ z
    return out


def _dedup_rows(P: FloatArray) -> FloatArray:
    """Drop exact duplicate rows, keeping first occurrences in order."""
    _, first = np.unique(P, axis=0, return_index=True)
    if len(first) == len(P):
        return P
    return P[np.sort(first)]


def _state_rows(X: FloatArray, Y: FloatArray) -> tuple[FloatArray, NDArray[np.intp]]:
    """The data's distinct states D = [X; the rows of Y that are not X's next
    row], and the index iy with D[iy] = Y bytewise.

    Within a trajectory y_i is x_{i+1}, so ``build_pairs`` data give n + n_traj
    rows.  A row counts as shared only when its bytes match, so data without
    shared rows (a shuffled subset) give 2n rows and are never misread.
    """
    n = len(X)
    same_bits = np.ascontiguousarray(Y[:-1]).view(np.int64) == np.ascontiguousarray(X[1:]).view(np.int64)
    shared = np.zeros(n, dtype=bool)
    shared[:-1] = same_bits.all(axis=1)
    iy = np.arange(1, n + 1)
    iy[~shared] = n + np.arange(n - np.count_nonzero(shared))
    return np.vstack([X, Y[~shared]]), iy


# pairs per block of [Phi_x | U | Psi_y | Y] in ``_cross_products``, whatever
# the fit's width: every fit sums its products over the same blocks, so each
# lift of a nested sweep sums in the order ``fit`` on it alone does.  The size
# sets every fit's last bits
_BLOCK_PAIRS = 1024


def _state_row_blocks(pairwise, D: FloatArray, point_sets: tuple):
    """rows(a, b) for ``_cross_products``: pairwise(D[a:b], P) for each point set P.

    Each read is evaluated on its own, so a state on the boundary of two reads
    is evaluated in both.  A lone row is evaluated as a block of two copies of
    itself: numpy takes a one-row product as a matrix-vector product, whose
    sums round otherwise than the rows of a matrix product (see the
    ``kernels`` module docstring for the shapes whose rows agree).
    """

    def rows(a: int, b: int) -> tuple:
        if b - a == 1:
            return tuple(pairwise(D[[a, a]], P)[:1] for P in point_sets)
        return tuple(pairwise(D[a:b], P) for P in point_sets)

    return rows


def _cross_products(ds: Dataset, iy: NDArray[np.intp], rows, fits: list) -> list[FloatArray]:
    """G'G for G = [Phi_x | U | Psi_y | Y] of each of ``fits``, the one set of
    n-long sums of a fit, from one read of the rows of the data's distinct states.

    ``rows(a, b)`` gives the raw rows of the states D[a:b], one array per point
    set (kernel or thin-plate rows, or the rows of a held factor).  A fit is a
    pair (inputs, outputs) of sides (j, cols, E): a side's features of D[a:b]
    are rows(a, b)[j][:, :cols] E (E None for no factor), Phi_x those of the
    rows :n and Psi_y those of the rows iy, and ``outputs`` None means the two
    sides share their features.  G is summed over blocks of ``_BLOCK_PAIRS``
    pairs and never built whole, and every fit reads each block's rows.
    Within a trajectory pair i's output is D[i + 1], so a block of pairs reads
    the rows D[i0:i1 + 1], its inputs' features are those of all but the last
    and its outputs' those of all but the first (one feature product for both
    sides when they are shared); the pairs that end a trajectory take theirs
    from the states after X, D[n:], read once up front.
    """
    n, n_u, d = ds.n, ds.n_u, ds.d

    def features(side, R, part=slice(None)):
        j, cols, E = side
        F = R[j][part, :cols]
        return F if E is None else F @ E

    ends = np.flatnonzero(iy >= n)  # iy[ends] = n, n + 1, ...
    end_rows = rows(n, n + len(ends))
    psi_ends = [features(inputs if outputs is None else outputs, end_rows) for inputs, outputs in fits]
    r_ins = [inputs[1] if inputs[2] is None else inputs[2].shape[1] for inputs, _ in fits]
    ks = [r_in + n_u + ends_out.shape[1] + d for r_in, ends_out in zip(r_ins, psi_ends)]
    Gs = [np.zeros((k, k)) for k in ks]
    buffer = np.empty(min(_BLOCK_PAIRS, n) * max(ks))
    for i0 in range(0, n, _BLOCK_PAIRS):
        i1 = min(i0 + _BLOCK_PAIRS, n)
        R = rows(i0, i1 + 1)
        j0, j1 = np.searchsorted(ends, (i0, i1))
        for (inputs, outputs), r_in, ends_out, k, G in zip(fits, r_ins, psi_ends, ks, Gs):
            y0, y1 = r_in + n_u, k - d
            B = buffer[: (i1 - i0) * k].reshape(i1 - i0, k)
            if outputs is None:
                Z = features(inputs, R)
                B[:, :r_in], B[:, y0:y1] = Z[:-1], Z[1:]
            else:
                B[:, :r_in], B[:, y0:y1] = features(inputs, R, slice(-1)), features(outputs, R, slice(1, None))
            B[ends[j0:j1] - i0, y0:y1] = ends_out[j0:j1]
            B[:, r_in:y0], B[:, y1:] = ds.U[i0:i1], ds.Y[i0:i1]
            G += B.T @ B
        R = Z = None  # the next block's read holds neither this block's rows nor its features
    return Gs


def _solve_ridges(G: FloatArray, widths: tuple, r_in: int, r_out: int, gamma_n: float, lam_n: float):
    """The fit's two ridges, read from the products G of [Phi_x | U | Psi_y | Y].

    ``widths`` are the block widths (R_in, n_u, R_out) of G and the fit reads
    the leading r_in and r_out columns of Phi_x and Psi_y; with F = [Phi_x | U]
        (F'F + gamma n I) S_r = F'Psi_y,   (Psi_y'Psi_y + lam n I) C_r' = Psi_y'Y.
    Returns (S_r, C_r', jitter_applied).
    """
    R_in, n_u, R_out = widths
    f = np.r_[:r_in, R_in : R_in + n_u]
    p = np.arange(R_in + n_u, R_in + n_u + r_out)
    y = np.arange(R_in + n_u + R_out, len(G))
    FtF = G[np.ix_(f, f)]
    FtF += gamma_n * np.eye(len(f))
    S, jitter = solve_psd(FtF, G[np.ix_(f, p)])
    PtP = G[np.ix_(p, p)]
    PtP += lam_n * np.eye(r_out)
    Ct, c_jitter = solve_psd(PtP, G[np.ix_(p, y)])
    return S, Ct, bool(jitter or c_jitter)


def _same_rows(P: FloatArray, Q: FloatArray) -> bool:
    return P.shape == Q.shape and P.tobytes() == Q.tobytes()


def _nested_points(point_sets: list) -> FloatArray:
    """The largest of the point sets, each of which must be a row prefix of it."""
    P = max(point_sets, key=len)
    if any(P[: len(Q)].tobytes() != Q.tobytes() for Q in point_sets):
        raise ValueError("nested fits need every lift's points to be a row prefix of the largest lift's points")
    return P


def fit(
    ds: Dataset,
    lifting: LiftingSpec,
    gamma: float,
    lam: float | None = None,
) -> KoopmanModel:
    """Fit the surrogate dynamics and the state-reconstruction map.

    ``lam`` is the reconstruction ridge weight and defaults to ``gamma``.
    Exact duplicate landmarks/centers are dropped before Gram assembly.
    """
    return fit_nested(ds, [lifting], gamma, lam)[0]


def fit_nested(
    ds: Dataset,
    lifts,
    gamma: float,
    lam: float | None = None,
) -> list[KoopmanModel]:
    """Fit several lifts whose points are nested, evaluating the data's rows once.

    The lifts share one kind and, for kernel lifts, one kernel; after duplicate
    rows are dropped, each lift's points (input and output landmarks, or
    centers) must be a row prefix of the largest lift's, which landmark draws
    of one seed and center pools sliced ``[:m]`` are.  The rows of the data's
    distinct states against the largest point sets are evaluated a block at a
    time, and each fit reads each block's leading columns: a kernel fit sums
    its own cross products from them, and thin-plate fits read the leading
    sub-blocks of the largest fit's.  A thin-plate model agrees with ``fit`` on
    its lift alone to the tolerance the module docstring states, and a kernel
    model is bit for bit the one ``fit`` returns on its lift.  Raises
    ``ValueError`` for lifts that are not nested or that mix kinds or kernels.
    """
    lam = _ridge_weights(gamma, lam)
    lifts = list(lifts)
    if not lifts:
        raise ValueError("fit_nested needs at least one lift")
    kind = type(lifts[0])
    if any(type(lifting) is not kind for lifting in lifts):
        raise ValueError("nested fits need lifts of one kind")
    if kind is NystromLift:
        spec = lifts[0].kernel
        if any(lifting.kernel != spec for lifting in lifts):
            raise ValueError("nested fits need lifts of one kernel")
        if any(lifting.landmarks.inputs.shape[1] != ds.d for lifting in lifts):
            raise ValueError("landmark dimension does not match dataset")
        ins = [_dedup_rows(lifting.landmarks.inputs) for lifting in lifts]
        outs = [_dedup_rows(lifting.landmarks.outputs) for lifting in lifts]
        pairwise = functools.partial(gram, spec)
    elif kind is ThinPlateLift:
        if any(lifting.centers.shape[1] != ds.d for lifting in lifts):
            raise ValueError("center dimension does not match dataset")
        ins = outs = [_dedup_rows(lifting.centers) for lifting in lifts]
        pairwise = thin_plate_matrix
    else:
        raise TypeError(f"unknown lifting {kind.__name__}")
    P_in, P_out = _nested_points(ins), _nested_points(outs)
    D, iy = _state_rows(ds.X, ds.Y)
    # rows :n of pairwise(D, P) are X's features, rows iy Y's; j_in and j_out
    # index the rows against P_in and P_out, one set when the two agree
    point_sets = (P_out,) if _same_rows(P_in, P_out) else (P_in, P_out)
    j_in, j_out = 0, len(point_sets) - 1
    rows = _state_row_blocks(pairwise, D, point_sets)
    if kind is ThinPlateLift:
        # one product set at the largest m: every smaller fit is its leading sub-blocks
        M = len(P_out)
        (G,) = _cross_products(ds, iy, rows, [((j_in, M, None), None)])
        diagnostics = [{"m_in": len(lm), "m_out": len(lm)} for lm in ins]
        return [
            _ridge_model(ThinPlateLift(lm), G, (M, ds.n_u, M), None, np.eye(len(lm)), None, diag, gamma, lam, ds.n)
            for lm, diag in zip(ins, diagnostics)
        ]
    parts = [
        _nystrom_parts(lifting, lm_in, lm_out, _same_rows(lm_in, lm_out))
        for lifting, lm_in, lm_out in zip(lifts, ins, outs)
    ]
    # Psi_y = K(Y, lm_out) E_out; shared landmarks (transport None) take Psi = Phi
    fits = [
        ((j_in, len(lm_in), E_in), None if transport is None else (j_out, len(lm_out), E_out))
        for (_, E_out, E_in, transport, _), lm_in, lm_out in zip(parts, ins, outs)
    ]
    models = []
    for G, (lifting, E_out, E_in, transport, diagnostics) in zip(_cross_products(ds, iy, rows, fits), parts):
        widths = (E_in.shape[1], ds.n_u, E_out.shape[1])
        models.append(_ridge_model(lifting, G, widths, E_in, E_out, transport, diagnostics, gamma, lam, ds.n))
    return models


def _ridge_weights(gamma: float, lam: float | None) -> float:
    """The reconstruction ridge weight (``gamma`` when None), once both are checked positive."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    lam = gamma if lam is None else lam
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return lam


def _ridge_model(lifting, G, widths, E_in, E_out, transport, diagnostics: dict, gamma: float, lam: float, n: int):
    """The model of a fit from its products G, its thin factors (E_in None for
    a thin-plate lift, whose input and output centers agree) and its transport
    (None for I_r)."""
    r_out = E_out.shape[1]
    r_in = r_out if E_in is None else E_in.shape[1]
    sol, Ct, diagnostics["jitter_applied"] = _solve_ridges(G, widths, r_in, r_out, gamma * n, lam * n)
    return KoopmanModel(
        lifting=lifting,
        A_r=sol[:r_in].T if transport is None else sol[:r_in].T @ transport,
        B_r=sol[r_in:].T,
        C_r=Ct.T,
        gamma=gamma,
        lam=lam,
        out_factor=E_out,
        diagnostics=diagnostics,
        _coef=sol,
        _in_factor=E_in,
    )


def fit_factored(ds: Dataset, factor: GramFactor, gamma: float, lam: float | None = None) -> KoopmanModel:
    """The kernel fit with the whole paired training set as its landmarks, read
    from a factor of the Gram of the data's states instead of their Grams.

    ``factor`` (``kernels.gram_factor``) must hold every row of X and Y.  With
    L, L_X and L_Y its rows at the distinct states D, at X and at Y, the Grams
    K(X, X) = L_X L_X' and K(Y, Y) = L_Y L_Y' share their nonzero spectrum with
    the small matrices L_X'L_X and L_Y'L_Y, whose eigenvectors kept by the
    fit's rank policy, V_in and V_out with eigenvalues w_in and w_out, give

        E_in = L_X V_in / w_in,   E_out = L_Y V_out / w_out,
        Phi(D) = L V_in,          Psi(D) = L V_out,          T = V_in' V_out,

    so the cross products and ridges are those of ``fit`` on
    NystromLift(kernel, LandmarkSet(X, Y)) and no N x N array is formed.  The
    model keeps the same deduplicated landmarks as that fit and agrees with it
    to the precision of their rank decisions (the module docstring states the
    tolerance); its diagnostics add the factor's rank, cutoff and residual
    (``factor_*``) to the fit's.
    """
    lam = _ridge_weights(gamma, lam)
    D, iy = _state_rows(ds.X, ds.Y)
    L = factor.rows(D)
    lm_in, lm_out = _dedup_rows(ds.X), _dedup_rows(ds.Y)
    sides = []
    for lm in (lm_in, lm_out):
        L_lm = factor.rows(lm)
        _, info = psd_pinv_sqrt_factor(L_lm.T @ L_lm)
        sides.append((info["basis"], L_lm @ (info["basis"] / info["values"]), info))
    (V_in, E_in, info_in), (V_out, E_out, info_out) = sides
    # the factor's rows are held, so a block of them is a view
    (G,) = _cross_products(ds, iy, lambda a, b: (L[a:b],), [((0, factor.rank, V_in), (0, factor.rank, V_out))])
    diagnostics = _rank_diagnostics(len(lm_in), len(lm_out), info_in, info_out)
    diagnostics.update(factor_rank=factor.rank, factor_cutoff=FACTOR_CUTOFF, factor_residual=factor.residual)
    # seed -1: the landmarks are the data themselves, not a draw
    lifting = NystromLift(factor.kernel, LandmarkSet(lm_in, lm_out, seed=-1))
    widths = (V_in.shape[1], ds.n_u, V_out.shape[1])
    return _ridge_model(lifting, G, widths, E_in, E_out, V_in.T @ V_out, diagnostics, gamma, lam, ds.n)


def _rank_diagnostics(m_in: int, m_out: int, info_in: dict, info_out: dict) -> dict:
    """The landmark Grams' sizes and rank decisions, from their ``psd_pinv_sqrt_factor`` infos:
    of the m eigenvalues of an m x m Gram, m - rank are clipped."""
    return {
        "m_in": m_in,
        "m_out": m_out,
        "rank_gram_out": info_out["rank"],
        "clipped_gram_out": m_out - info_out["rank"],
        "cond_gram_out": info_out["cond"],
        "rank_gram_in": info_in["rank"],
        "clipped_gram_in": m_in - info_in["rank"],
        "cond_gram_in": info_in["cond"],
    }


def _transport(kernel: KernelSpec, points_a, E_a: FloatArray, points_b, E_b: FloatArray) -> FloatArray:
    """E_a' K(points_a, points_b) E_b, the map from the lifted coordinates of
    the features at ``points_b`` (thin factor E_b) to those at ``points_a``: a
    kernel fit's transport, and ``theory.transport_weights``'s between two models."""
    return (E_a.T @ gram(kernel, points_a, points_b)) @ E_b


def _nystrom_parts(lifting: NystromLift, lm_in: FloatArray, lm_out: FloatArray, shared: bool):
    """What a kernel fit takes from its deduplicated landmarks alone: the lift
    that keeps them, the thin factors E_out and E_in, the transport
    E_in' K(lm_in, lm_out) E_out (None for ``shared`` landmarks, whose input and
    output points are equal: there it is I_r) and the Grams' rank diagnostics.
    Each landmark Gram is built and decomposed once, and shared landmarks take
    E_in = E_out."""
    spec = lifting.kernel
    E_out, info = psd_pinv_sqrt_factor(gram(spec, lm_out))
    if shared:
        E_in, info_in, transport = E_out, info, None
    else:
        E_in, info_in = psd_pinv_sqrt_factor(gram(spec, lm_in))
        transport = _transport(spec, lm_in, E_in, lm_out, E_out)
    diagnostics = _rank_diagnostics(len(lm_in), len(lm_out), info_in, info)
    lifting = NystromLift(spec, LandmarkSet(lm_in, lm_out, seed=lifting.landmarks.seed))
    return lifting, E_out, E_in, transport, diagnostics


# ---------------------------------------------------------------------------
# Serialization: one JSON document, lossless at double precision
# ---------------------------------------------------------------------------


# version of the model JSON layout written by ``model_to_dict``: 2 stores the
# range form (A_r, B_r, C_r, out_factor); 1 stored m x m matrices
MODEL_SCHEMA_VERSION = 2
# largest entry of E_out' K_out E_out - I_r that a loaded out_factor may show.
# Its round-off grows as eps cond(K_out), which the rank cutoff caps at 1e10:
# fitted factors measured up to 5.7e-6 (rate fixture, m = 80) and 3.9e-6
# (cubic data, m = 100), while a factor scaled by 1 + 1e-4 already shows 2e-4
WHITENING_TOL = 1e-4


def _arr(a: FloatArray) -> list:
    return np.asarray(a, dtype=float).tolist()


def model_to_dict(model: KoopmanModel) -> dict:
    if isinstance(model.lifting, NystromLift):
        lift = {
            "variant": "nystrom",
            "kernel": {
                "family": model.lifting.kernel.family.value,
                "lengthscale": model.lifting.kernel.lengthscale,
                "variance": model.lifting.kernel.variance,
            },
            "landmarks_in": _arr(model.lifting.landmarks.inputs),
            "landmarks_out": _arr(model.lifting.landmarks.outputs),
            "landmark_seed": model.lifting.landmarks.seed,
        }
    else:
        lift = {"variant": "thinplate", "centers": _arr(model.lifting.centers)}
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "lifting": lift,
        "A_r": _arr(model.A_r),
        "B_r": _arr(model.B_r),
        "C_r": _arr(model.C_r),
        "gamma": model.gamma,
        "lambda": model.lam,
        "out_factor": _arr(model.out_factor),
        "diagnostics": {
            k: (v if not isinstance(v, np.generic) else v.item())
            for k, v in model.diagnostics.items()
        },
    }


def _json_field(doc: dict, key: str, path: str = ""):
    """doc[key]; a missing key raises ValueError naming it by its dotted path."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"model has no {path + key!r}")
    return doc[key]


def _json_number(doc: dict, key: str, path: str = "") -> float:
    """doc[key] as a float; anything but a JSON number raises ValueError naming the key."""
    value = _json_field(doc, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"model {path + key} must be a number, got {value!r}")
    return float(value)


def _json_array(doc: dict, key: str, shape: tuple, path: str = "") -> FloatArray:
    """doc[key] as a finite float array of ``shape`` (None matches any size)."""
    a = np.array(_json_field(doc, key, path), dtype=float)
    if a.ndim != len(shape) or any(s is not None and s != k for s, k in zip(shape, a.shape)):
        raise ValueError(f"model {path + key} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"model {path + key} has non-finite entries")
    return a


def model_from_dict(doc: dict) -> KoopmanModel:
    """Rebuild a model, checking shapes, finiteness and the stored embedding factor.

    The stored ``out_factor`` E_out (m, r) is the lift's rank decision, so a
    loaded model synthesizes the fitted gain bit for bit; it is checked, not
    recomputed: every entry of E_out' K_out E_out - I_r must lie within
    ``WHITENING_TOL`` (for a thin-plate lift E_out must be the m x m identity).  A
    document without ``schema_version`` or with another version is refused, and
    a missing or mistyped key raises ValueError naming it.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"model schema_version is {version!r}, expected {MODEL_SCHEMA_VERSION}")
    E_out = _json_array(doc, "out_factor", (None, None))
    m, r = E_out.shape
    A_r = _json_array(doc, "A_r", (r, r))
    B_r = _json_array(doc, "B_r", (r, None))
    C_r = _json_array(doc, "C_r", (None, r))
    d = C_r.shape[0]
    gamma, lam = _json_number(doc, "gamma"), _json_number(doc, "lambda")
    if not all(math.isfinite(v) and v > 0 for v in (gamma, lam)):
        raise ValueError(f"model gamma and lambda must be finite and positive, got {gamma}, {lam}")
    lift_doc = _json_field(doc, "lifting")
    variant = _json_field(lift_doc, "variant", "lifting.")
    if variant == "nystrom":
        kernel_doc = _json_field(lift_doc, "kernel", "lifting.")
        spec = KernelSpec(
            family=KernelFamily(_json_field(kernel_doc, "family", "lifting.kernel.")),
            lengthscale=_json_number(kernel_doc, "lengthscale", "lifting.kernel."),
            variance=_json_number(kernel_doc, "variance", "lifting.kernel."),
        )
        lm_out = _json_array(lift_doc, "landmarks_out", (m, d), "lifting.")
        lm_in = _json_array(lift_doc, "landmarks_in", (None, d), "lifting.")
        seed = lift_doc.get("landmark_seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"model lifting.landmark_seed must be an integer, got {seed!r}")
        lifting: LiftingSpec = NystromLift(spec, LandmarkSet(lm_in, lm_out, seed=seed))
        defect = E_out.T @ gram(spec, lm_out) @ E_out - np.eye(r)
    elif variant == "thinplate":
        lifting = ThinPlateLift(_json_array(lift_doc, "centers", (m, d), "lifting."))
        if r != m:
            raise ValueError(f"model out_factor has shape {E_out.shape}, expected ({m}, {m}) for a thin-plate lift")
        defect = E_out - np.eye(m)
    else:
        raise ValueError(f"unknown lifting variant {variant!r}")
    if defect.size and np.max(np.abs(defect)) > WHITENING_TOL:
        raise ValueError(
            f"model out_factor does not whiten the landmark features: max |E'KE - I| = {np.max(np.abs(defect)):.2e}"
        )
    return KoopmanModel(
        lifting=lifting,
        A_r=A_r,
        B_r=B_r,
        C_r=C_r,
        gamma=gamma,
        lam=lam,
        out_factor=E_out,
        diagnostics=dict(doc.get("diagnostics", {})),
    )


def save_model(path, model: KoopmanModel) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_dict(model)))


def load_model(path) -> KoopmanModel:
    return model_from_dict(json.loads(Path(path).read_text()))
