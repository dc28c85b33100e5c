"""Dense linear-algebra utilities with explicit tolerance policies, and the
OpenBLAS thread policy.

Everything here operates on plain ndarrays.  The rank policy is shared across
the package: an eigenvalue of a PSD matrix counts as zero when it falls below
``rel_cutoff`` times the largest eigenvalue.  Landmark Gram matrices are
routinely rank-deficient at double precision, so the cutoff is load-bearing,
not cosmetic.

Thread policy: every scenario call and CLI command runs inside
``one_blas_thread``, which sets each OpenBLAS runtime that numpy and scipy
ship to one thread and restores the prior counts on exit.  The program's BLAS
calls are small and interleaved with interpreter work, so a second thread
spins beside the interpreter and slows the small LAPACK calls: on 2 cores one
thread was faster on every scenario measured.  The thread count also moves
the last bits of some results, so under the policy a scenario's output does
not depend on the environment.  A build without a bundled OpenBLAS is left as
it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "RankTolerance",
    "blas_threads",
    "one_blas_thread",
    "psd_pinv_sqrt",
    "psd_pinv_sqrt_factor",
    "psd_sqrt",
    "spectral_radius",
    "tau",
    "TauResult",
    "solve_psd",
]

DEFAULT_REL_CUTOFF = 1e-10
# solve_psd's fallback jitter, as a fraction of trace(M)
JITTER_SCALE = 1e-12


@dataclass(frozen=True)
class RankTolerance:
    """Relative eigenvalue cutoff, as a fraction of the largest eigenvalue."""

    rel_cutoff: float = DEFAULT_REL_CUTOFF

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_cutoff < 1.0):
            raise ValueError(f"rel_cutoff must lie in (0, 1), got {self.rel_cutoff}")


def _check_finite_square(M: FloatArray, name: str) -> FloatArray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _clipped_eigh(M: FloatArray, tol: RankTolerance):
    """Eigendecomposition of a symmetrized matrix with the rank policy applied.

    Returns (eigvals, eigvecs, kept) where ``kept`` flags eigenvalues above the
    cutoff.  Eigenvalues below -cutoff violate the PSD precondition.
    """
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    wmax = float(w[-1]) if w.size else 0.0
    if wmax <= 0.0:
        # at most round-off away from the zero matrix
        if w.size and w[0] < -tol.rel_cutoff * max(1.0, abs(wmax)):
            raise ValueError(f"matrix is not PSD: lambda_min = {w[0]:.3e}")
        return w, V, np.zeros_like(w, dtype=bool)
    cutoff = tol.rel_cutoff * wmax
    if w[0] < -cutoff:
        raise ValueError(
            f"matrix is not PSD up to tolerance: lambda_min = {w[0]:.3e}, cutoff = {cutoff:.3e}"
        )
    return w, V, w > cutoff


def psd_pinv_sqrt(M, tol: RankTolerance = RankTolerance()) -> FloatArray:
    """Pseudo-inverse square root of a symmetric PSD matrix.

    Eigenvalues above the relative cutoff map to lambda^(-1/2), the rest to 0;
    eigenvectors are preserved and the result is symmetric.  The all-zero
    matrix maps to the zero matrix.
    """
    M = _check_finite_square(M, "M")
    w, V, kept = _clipped_eigh(M, tol)
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[kept] = 1.0 / np.sqrt(w[kept])
    R = (V * inv_sqrt[None, :]) @ V.T
    return 0.5 * (R + R.T)


def psd_pinv_sqrt_factor(M, tol: RankTolerance = RankTolerance()):
    """Thin inverse square-root factor E = V_r Lambda_r^(-1/2) of a symmetric PSD matrix.

    One column per eigenvalue above the relative cutoff, so E has shape (N, r),
    E' M E = I_r and E V_r' is the pseudo-inverse square root.  Returns
    (E, info), ``info`` holding the kept eigenvectors V_r (``basis``) and
    eigenvalues Lambda_r (``values``), the rank, the number of clipped
    eigenvalues and the condition number of the kept block, as the fits report
    them; the N x N square root itself is never formed.
    """
    M = _check_finite_square(M, "M")
    w, V, kept = _clipped_eigh(M, tol)
    rank = int(np.count_nonzero(kept))
    info = {
        "basis": V[:, kept],
        "values": w[kept],
        "rank": rank,
        "clipped": int(w.size - rank),
        "cond": float(w[-1] / w[kept][0]) if rank else math.inf,
    }
    return V[:, kept] / np.sqrt(w[kept]), info


def psd_sqrt(M, tol: RankTolerance = RankTolerance()) -> FloatArray:
    """Thin square-root factor R = sqrt(Lambda_r) V_r' of a symmetric PSD matrix.

    One row per eigenvalue above the relative cutoff, so R has shape (r, N)
    and R'R = M on the kept range.  The all-zero matrix gives 0 rows.
    """
    M = _check_finite_square(M, "M")
    w, V, kept = _clipped_eigh(M, tol)
    return np.sqrt(w[kept])[:, None] * V[:, kept].T


def spectral_radius(L) -> float:
    """Largest eigenvalue magnitude, from the full complex spectrum."""
    L = _check_finite_square(L, "L")
    if L.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(L))))


def _spectral_norm(M: FloatArray) -> float:
    return float(np.linalg.norm(M, 2))


class TauResult(NamedTuple):
    """sup_k ||L^k|| zeta^(-k) together with whether the scan hit its cap."""

    value: float
    truncated: bool


def tau(L, zeta: float | None = None) -> TauResult:
    """Transient-growth constant sup over k of ||L^k||_2 * zeta^(-k).

    Requires rho(L) <= zeta < 1.  The scan stops at the first k >= 1 with
    ||L^k|| <= zeta^k: by submultiplicativity every later ratio is dominated by
    one already seen.  Otherwise it stops, truncated, at k = 10 ceil(1 / (1 - zeta)).
    When ``zeta`` is omitted it defaults to the midpoint (rho(L) + 1) / 2.
    """
    L = _check_finite_square(L, "L")
    rho = spectral_radius(L)
    if zeta is None:
        zeta = 0.5 * (rho + 1.0)
    if zeta >= 1.0:
        raise ValueError(f"zeta must be < 1, got {zeta}")
    if rho > zeta + 1e-12:
        raise ValueError(f"need rho(L) <= zeta, got rho = {rho:.6g} > zeta = {zeta:.6g}")
    k_max = 10 * math.ceil(1.0 / (1.0 - zeta))
    best = 1.0  # k = 0 term: ||I|| = 1
    P = np.eye(L.shape[0])
    zk = 1.0
    for k in range(1, k_max + 1):
        P = P @ L
        zk *= zeta
        nk = _spectral_norm(P)
        best = max(best, nk / zk)
        if nk <= zk:
            return TauResult(best, False)
    return TauResult(best, True)


def solve_psd(M, rhs):
    """Solve M x = rhs for symmetric PSD M via Cholesky.

    On factorization failure a jitter of ``JITTER_SCALE * trace(M)`` is added
    to the diagonal and the solve retried.  Returns (x, jitter_applied).
    """
    import scipy.linalg

    M = _check_finite_square(M, "M")
    rhs = np.asarray(rhs, dtype=float)
    M = 0.5 * (M + M.T)
    try:
        c, low = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
        return scipy.linalg.cho_solve((c, low), rhs, check_finite=False), False
    except np.linalg.LinAlgError:
        pass
    except scipy.linalg.LinAlgError:  # pragma: no cover - alias of the above in practice
        pass
    jitter = JITTER_SCALE * max(float(np.trace(M)), np.finfo(float).tiny)
    Mj = M + jitter * np.eye(M.shape[0])
    c, low = scipy.linalg.cho_factor(Mj, lower=True, check_finite=False)
    return scipy.linalg.cho_solve((c, low), rhs, check_finite=False), True


# (get, set) thread-count symbols of an OpenBLAS build: numpy's 64-bit-integer
# scipy-openblas, scipy's, and a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_runtimes() -> dict:
    """The OpenBLAS runtimes bundled with numpy and scipy, as package name -> (get, set).

    Imports ``scipy.linalg`` first, so scipy's runtime is the one loaded.  A
    package with no bundled OpenBLAS (an MKL or system build, say) is left out.
    """
    import scipy.linalg  # loads scipy's OpenBLAS

    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_SYMBOLS:
                get, set_threads = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_threads is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    found[pkg.__name__] = (get, set_threads)
                    break
    return found


def blas_threads() -> dict:
    """Current thread count of each OpenBLAS runtime found, by package; {} if none."""
    return {name: int(get()) for name, (get, _) in _openblas_runtimes().items()}


@contextlib.contextmanager
def one_blas_thread():
    """Run the block (or, as a decorator, each call) on one OpenBLAS thread.

    Sets every runtime of ``blas_threads`` to 1 and restores the prior counts
    on exit, also when the block raises.
    """
    runtimes = _openblas_runtimes()
    prior = blas_threads()
    for _, set_threads in runtimes.values():
        set_threads(1)
    try:
        yield
    finally:
        for name, (_, set_threads) in runtimes.items():
            set_threads(prior[name])
