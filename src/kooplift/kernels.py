"""Stationary kernels and Gram-matrix assembly.

All downstream operators (lifted dynamics, landmark projections, operator-norm
computations) are built from pairwise kernel evaluations, so this module is the
single place where kernel profiles are defined:

    RBF       k(r) = variance * exp(-r^2 / (2 l^2))
    Matern52  k(r) = variance * (1 + sqrt(5) r/l + 5 r^2/(3 l^2)) exp(-sqrt(5) r/l)
    Matern32  k(r) = variance * (1 + sqrt(3) r/l) exp(-sqrt(3) r/l)

with r the Euclidean distance.  Every profile is bounded by ``variance`` and
attains it at r = 0, so sqrt(variance) plays the role of the feature-map bound
used by the error-rate formulas in :mod:`kooplift.theory`.

Thin-plate-spline features (r^2 log r against a fixed set of centers) are kept
here too; they are the finite-dimensional baseline lift that the landmark
compression is compared against.

Gram and thin-plate matrices come from one pass, ``_pairwise``.  It takes the
whole product X Y^T in one BLAS call, then walks the result in blocks of whole
rows of about 80 000 entries, so each block's temporaries stay in cache while
it runs, in place, the same steps in the same order as the whole-array formula
    sq = (||x||^2 + ||y||^2) - 2 X Y^T,   r = sqrt(max(sq, 0)),   profile(r).
Elementwise steps are independent of where a block starts, so the result is
bit for bit that of the whole-array formula.  The product itself is not split
here: OpenBLAS picks its kernels from the whole shape, and whether the rows of
X[a:b] Y^T are those of X Y^T depends on it.  Seen with OpenBLAS 0.3.31
(Haswell kernels, one and two threads) for m = len(Y) points in d dimensions:

* d = 1: every block agrees (each entry is one rounded product).
* d = 2: blocks of two or more rows agree for every m below 196, and above it
  for m = 0, 1, 2 or 3 mod 8; for other m the last four columns differ (the
  rate study's 160 x 500 landmark cross-Gram is such a shape).  At d = 4 and 8
  they agree for m up to 192 and for multiples of 8, except m = 1 at d = 8
  (one point: a matrix-vector product, as below).
* A single row (b = a + 1) differs at d >= 2 in most rows: numpy takes it as a
  matrix-vector product, whose sums round otherwise.

:mod:`kooplift.identify` reads the data's rows in blocks of two or more rows,
and the tests check the fits' shapes: the cubic data (d = 1, 4 020 x 100) and
the Duffing data (d = 2, 70 200 x 80).

A ``FeatureStack`` runs the same steps for S points at once, each against its
own point set: the per-step feature map of S feedback laws stepped together.

``gram_factor`` factors the Gram of many points without forming it: a
pivoted Cholesky factor built one kernel column at a time, which the exact
side of the rate theory reads in place of the data's N x N Grams.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "kernel_eval",
    "gram",
    "thin_plate_matrix",
    "FeatureStack",
    "gram_stack",
    "thin_plate_stack",
    "FACTOR_CUTOFF",
    "GramFactor",
    "gram_factor",
]


class KernelFamily(enum.Enum):
    RBF = "rbf"
    Matern52 = "matern52"
    Matern32 = "matern32"


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel: family, lengthscale and output variance.

    ``kappa = sqrt(variance)`` bounds the lifted feature norm, since
    k(x, x) = variance for every x.
    """

    family: KernelFamily = KernelFamily.Matern52
    lengthscale: float = 1.0
    variance: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lengthscale > 0 and math.isfinite(self.lengthscale)):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def kappa(self) -> float:
        """Uniform bound on the feature norm, sqrt(k(x, x))."""
        return math.sqrt(self.variance)


def _kernel_profile(spec: KernelSpec):
    """variance * profile(r / lengthscale), evaluated in place on a block.

    The returned function reads the distances from R and writes the kernel
    values to O, using R and T as scratch; each step is the whole-array
    formula's, in its order.
    """
    family, scale, variance = spec.family, spec.lengthscale, spec.variance
    if family not in (KernelFamily.RBF, KernelFamily.Matern52, KernelFamily.Matern32):
        raise ValueError(f"unknown kernel family {family!r}")

    def profile(R: FloatArray, T: FloatArray, O: FloatArray) -> None:
        R /= scale
        if family is KernelFamily.RBF:  # exp(-0.5 * r * r)
            np.multiply(R, -0.5, out=T)
            T *= R
            np.exp(T, out=T)
            np.multiply(T, variance, out=O)
            return
        if family is KernelFamily.Matern52:  # (1 + s + s * s / 3) exp(-s), s = sqrt(5) r
            R *= math.sqrt(5.0)
            np.multiply(R, R, out=O)
            O /= 3.0
            np.negative(R, out=T)
            np.exp(T, out=T)
            R += 1.0
            R += O
        else:  # (1 + s) exp(-s), s = sqrt(3) r
            R *= math.sqrt(3.0)
            np.negative(R, out=T)
            np.exp(T, out=T)
            R += 1.0
        R *= T
        np.multiply(R, variance, out=O)

    return profile


def _thin_plate_profile(R: FloatArray, T: FloatArray, O: FloatArray) -> None:
    """r^2 log r, and 0 at r = 0, in place on a block (same contract as above)."""
    zero = ~(R > 0.0)  # r = 0, or the nan of norms that overflow: 0 either way
    np.multiply(R, R, out=O)
    R[zero] = 1.0  # keeps log(0) out
    np.log(R, out=T)
    O *= T
    O[zero] = 0.0


# entries per block: a block and its two scratch arrays (1.9 MB) stay in cache
_BLOCK_ENTRIES = 80_000


def _sq_norms(X: FloatArray) -> FloatArray:
    return (X * X).sum(axis=1)


def _pairwise(X: FloatArray, xx: FloatArray, Y: FloatArray, yy: FloatArray, profile) -> FloatArray:
    """profile(||x_i - y_j||) for validated points, with xx, yy their squared norms.

    ||x - y||^2 = ||x||^2 + ||y||^2 - 2 <x, y>, clipped at 0 against round-off.
    """
    out = X @ Y.T
    rows = max(1, _BLOCK_ENTRIES // len(Y))
    for i in range(0, len(X), rows):
        _profile_block(out[i : i + rows], xx[i : i + rows, None] + yy[None, :], profile)
    return out


def _profile_block(O: FloatArray, R: FloatArray, profile) -> None:
    """O <- profile(sqrt(max(R - 2 O, 0))) in place, with O a block of inner
    products <x, y> and R the sums ||x||^2 + ||y||^2 of the same pairs."""
    O *= 2.0
    T = np.empty_like(R)
    R -= O
    np.maximum(R, 0.0, out=R)
    np.sqrt(R, out=R)
    profile(R, T, O)


def _as_points(X, name: str) -> FloatArray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (n, d) array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite entries")
    return X


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for a single pair of state vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input point")
    R, T, O = np.full((1, 1), np.linalg.norm(x - y)), np.empty((1, 1)), np.empty((1, 1))
    _kernel_profile(spec)(R, T, O)
    return float(O[0, 0])


def gram(spec: KernelSpec, X, Y=None) -> FloatArray:
    """Gram matrix of kernel evaluations between two point lists.

    When ``Y is None`` (or is the same array object as ``X``) the result is
    symmetrized exactly via (M + M.T) / 2 so that symmetric eigensolvers see a
    bit-exact symmetric input.
    """
    X = _as_points(X, "X")
    same = Y is None or Y is X
    Yp = X if same else _as_points(Y, "Y")
    if X.shape[1] != Yp.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Yp.shape[1]}")
    xx = _sq_norms(X)
    K = _pairwise(X, xx, Yp, xx if same else _sq_norms(Yp), _kernel_profile(spec))
    if same:
        K = 0.5 * (K + K.T)
    return K


def thin_plate_matrix(X, centers) -> FloatArray:
    """Stacked thin-plate features for many points, shape (len(X), len(centers))."""
    X = _as_points(X, "X")
    C = _as_points(centers, "centers")
    if X.shape[1] != C.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {C.shape[1]}")
    return _pairwise(X, _sq_norms(X), C, _sq_norms(C), _thin_plate_profile)


@dataclass(frozen=True)
class FeatureStack:
    """Features of S points, point s against its own set of m points.

    ``points`` is the (S, m, d) stack of point sets and ``sq_norms`` (S, m)
    their squared norms, both taken once; ``profile`` is a kernel's or the
    thin-plate profile.  Calling the stack on X (S, d) returns the (S, m)
    features, row s bit for bit ``gram(spec, points[s], X[s:s + 1])[:, 0]``
    (from ``gram_stack``) or ``thin_plate_matrix(X[s:s + 1], points[s])[0]``
    (from ``thin_plate_stack``): one batched product gives every <p, x>, whose
    per-row BLAS call is the one those matrices make, and the distance and
    profile steps then run in place on the whole (S, m) block.
    """

    points: FloatArray
    sq_norms: FloatArray
    profile: object = field(repr=False)

    def __call__(self, X) -> FloatArray:
        X = np.asarray(X, dtype=float)
        S, _, d = self.points.shape
        if X.shape != (S, d):
            raise ValueError(f"expected {S} points of dimension {d}, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("x contains non-finite entries")
        O = np.matmul(self.points, X[:, :, None])[:, :, 0]
        _profile_block(O, self.sq_norms + _sq_norms(X)[:, None], self.profile)
        return O

    def take(self, rows) -> FeatureStack:
        """The stack of the point sets ``rows`` (an index array or slice)."""
        return FeatureStack(self.points[rows], self.sq_norms[rows], self.profile)


def _point_stack(P) -> FloatArray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or 0 in P.shape:
        raise ValueError(f"a point stack must be a nonempty (S, m, d) array, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError("point stack contains non-finite entries")
    return P


def gram_stack(spec: KernelSpec, landmarks) -> FeatureStack:
    """Kernel features of S points against S landmark sets (S, m, d), validated here."""
    L = _point_stack(landmarks)
    return FeatureStack(L, (L * L).sum(axis=2), _kernel_profile(spec))


def thin_plate_stack(centers) -> FeatureStack:
    """Thin-plate features of S points against S center sets (S, m, d), validated here."""
    C = _point_stack(centers)
    return FeatureStack(C, (C * C).sum(axis=2), _thin_plate_profile)


# largest residual diagonal at which ``gram_factor`` stops, as a fraction of
# the kernel variance
FACTOR_CUTOFF = 1e-14
# rows by which the factor's buffer grows: the rank is not known in advance,
# and growing in small steps keeps the buffer near it.  ``ndarray.resize``
# reallocates the buffer, so old and new copies are not held side by side
_FACTOR_CHUNK = 64


@dataclass(frozen=True)
class GramFactor:
    """Pivoted incomplete Cholesky factor of the Gram of a point set's distinct rows.

    ``L`` (N, r) holds one row per distinct row of the points, in order of
    first occurrence, and K(rows, rows) - L L' is PSD with largest diagonal
    entry ``residual`` < ``FACTOR_CUTOFF`` * variance, so (up to round-off) every
    entry of L L' lies within ``residual`` of the Gram and its spectral norm
    within N times that.
    Rows are matched by their exact bytes.
    """

    kernel: KernelSpec
    L: FloatArray
    residual: float
    _index: dict = field(repr=False)

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def index(self, points) -> NDArray[np.intp]:
        """The row of ``L`` of each of ``points``, each of which must be a
        factored row; raises ValueError naming the first point that is not."""
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
        idx = [self._index.get(row.tobytes()) for row in pts]
        if None in idx:
            raise ValueError(f"point {pts[idx.index(None)].tolist()} is not a row of the factored points")
        return np.array(idx, dtype=np.intp)

    def rows(self, points) -> FloatArray:
        """The rows of ``L`` at ``points``: a view of L when they are a run of
        consecutive factored rows, else a copy."""
        idx = self.index(points)
        if len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
            return self.L[idx[0] : idx[0] + len(idx)]
        return self.L[idx]


def gram_factor(spec: KernelSpec, points) -> GramFactor:
    """Factor the Gram of the distinct rows of ``points`` by greedy diagonal pivoting.

    Each step takes the row with the largest residual diagonal as the pivot,
    evaluates the kernel column at it and subtracts the factor so far
    (Fine & Scheinberg, JMLR 2001); it stops once every residual diagonal lies
    below ``FACTOR_CUTOFF`` * variance, which bounds the trace of the residual
    (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012).  Only kernel
    columns are evaluated: the work is O(N r^2) and the memory the N x r factor,
    and the N x N Gram is never formed.
    """
    pts = np.ascontiguousarray(_as_points(points, "points"))
    index: dict[bytes, int] = {}
    first = []
    for i, row in enumerate(pts):
        key = row.tobytes()
        if key not in index:
            index[key] = len(first)
            first.append(i)
    X = pts[first] if len(first) < len(pts) else pts
    N = len(X)
    xx = _sq_norms(X)
    profile = _kernel_profile(spec)
    d = np.full(N, spec.variance)  # the residual diagonal: k(x, x) = variance
    stop = FACTOR_CUTOFF * spec.variance
    Lt = np.empty((min(N, _FACTOR_CHUNK), N))  # the factor's columns, as rows
    r = 0
    while r < N:
        p = int(np.argmax(d))
        if d[p] < stop:
            break
        if r == len(Lt):
            Lt.resize((min(N, r + _FACTOR_CHUNK), N), refcheck=False)
        col = _pairwise(X, xx, X[p : p + 1], xx[p : p + 1], profile)[:, 0]
        col -= Lt[:r, p] @ Lt[:r]
        col /= math.sqrt(d[p])
        Lt[r] = col
        d -= col * col
        d[p] = 0.0
        r += 1
    Lt.resize((r, N), refcheck=False)
    return GramFactor(spec, Lt.T, max(float(d.max()), 0.0), index)
