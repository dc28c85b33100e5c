"""Fit finite-dimensional linear surrogates of controlled nonlinear dynamics.

Two lifts are supported:

* ``NystromLift`` -- kernel features compressed onto m landmark points.  The
  lifted coordinate of a state x is z = (K_out^+)^(1/2) k_out(x) with K_out the
  output-landmark Gram and k_out(x) the kernel vector against those landmarks.
  The surrogate transition [A_m | B_m] is the regularized least-squares
  estimator expressed in those coordinates; only (m + n_u)-sized systems are
  ever factorized, regardless of the number of training pairs.

* ``ThinPlateLift`` -- explicit thin-plate-spline features against fixed
  centers, fitted by plain ridge regression in feature space.  This is the
  baseline the landmark lift is benchmarked against.

With landmarks equal to the full training set the Nystrom surrogate coincides
with the uncompressed kernel estimator; that degeneracy is exercised by the
test-suite through the operator representations in :mod:`kooplift.theory`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .data import Dataset, LandmarkSet
from .kernels import KernelFamily, KernelSpec, gram, thin_plate_matrix
from .numerics import RankTolerance, psd_pinv_sqrt, solve_psd

FloatArray = NDArray[np.float64]

__all__ = [
    "NystromLift",
    "ThinPlateLift",
    "LiftingSpec",
    "KoopmanModel",
    "ForecastDivergence",
    "fit",
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
    """Finite surrogate z' = A_m z + B_m u with state reconstruction x ~= C z."""

    lifting: LiftingSpec
    A_m: FloatArray
    B_m: FloatArray
    C: FloatArray
    gamma: float
    lam: float
    gram_out_pinv_sqrt: FloatArray
    # orthonormal basis (m, r) of the lift's retained range, from the same
    # decision as the embedding weight (see ``_lift_range``); not serialized
    _range: FloatArray = field(repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.A_m.shape[0]

    @property
    def n_u(self) -> int:
        return self.B_m.shape[1]

    @property
    def d(self) -> int:
        return self.C.shape[0]

    def embed_states(self, X) -> FloatArray:
        """Lifted coordinates of many states, returned as columns (m, N)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if isinstance(self.lifting, NystromLift):
            k_out = gram(self.lifting.kernel, self.lifting.landmarks.outputs, X)
            return self.gram_out_pinv_sqrt @ k_out
        return thin_plate_matrix(X, self.lifting.centers).T

    def linear_readout(self, M):
        """x -> M z(x) with the (M @ embedding-weight) product taken once.

        Keeps per-step feedback evaluation linear in m instead of quadratic,
        which matters when the landmark set is the whole training set.
        """
        M = np.atleast_2d(np.asarray(M, dtype=float))
        if isinstance(self.lifting, NystromLift):
            MW = M @ self.gram_out_pinv_sqrt
            lm = self.lifting.landmarks.outputs
            spec = self.lifting.kernel

            def readout(x):
                return MW @ gram(spec, lm, np.atleast_2d(np.asarray(x, dtype=float)))[:, 0]

        else:
            centers = self.lifting.centers

            def readout(x):
                return M @ thin_plate_matrix(np.atleast_2d(np.asarray(x, dtype=float)), centers)[0]

        return readout

    def range_basis(self) -> FloatArray:
        """Orthonormal basis (m, r) of the numerically retained lift range."""
        return self._range


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
            z = model.A_m @ z + model.B_m @ controls[t]
            if not np.all(np.isfinite(z)):
                raise ForecastDivergence(t + 1)
            out[t] = model.C @ z
    return out


def _dedup_rows(P: FloatArray) -> FloatArray:
    """Drop exact duplicate rows, keeping first occurrences in order."""
    _, first = np.unique(P, axis=0, return_index=True)
    if len(first) == len(P):
        return P
    return P[np.sort(first)]


def _lift_range(spec: KernelSpec, lm_out: FloatArray):
    """Embedding weight W = (K_out^+)^(1/2) and the range basis it keeps.

    The lift's one rank decision: fitted and loaded models both take W and the
    kept eigenvectors (m, r) of the output-landmark Gram from this clipped
    eigendecomposition, so Riccati synthesis sees the same range either way.
    """
    W, info = psd_pinv_sqrt(gram(spec, lm_out), return_info=True)
    return W, info["basis"], info


def _fit_nystrom(ds: Dataset, lifting: NystromLift, gamma: float, lam: float):
    spec = lifting.kernel
    lm_in = _dedup_rows(lifting.landmarks.inputs)
    lm_out = _dedup_rows(lifting.landmarks.outputs)
    m_in, m_out = len(lm_in), len(lm_out)
    n, n_u = ds.n, ds.n_u
    U = ds.U

    W, V, info = _lift_range(spec, lm_out)
    K_out_n = gram(spec, lm_out, ds.Y)  # (m_out, n)
    K_n_in = gram(spec, ds.X, lm_in)  # (n, m_in)
    K_in = gram(spec, lm_in)
    K_in_out = gram(spec, lm_in, lm_out)

    # regularized blocked normal equations; only (m_in + n_u)-sized factorizations
    F = np.hstack([K_n_in, U])
    M = F.T @ F
    M[:m_in, :m_in] += gamma * n * K_in
    M[m_in:, m_in:] += gamma * n * np.eye(n_u)
    rhs = np.zeros((m_in + n_u, m_out + n_u))
    rhs[:m_in, :m_out] = K_in_out @ W
    rhs[m_in:, m_out:] = np.eye(n_u)
    sol, jitter = solve_psd(M, rhs)
    del M

    Z = W @ K_out_n  # lifted training outputs, columns z_{i+1}
    AB = Z @ (F @ sol)
    del F, sol, K_n_in, K_out_n
    A_m, B_m = AB[:, :m_out], AB[:, m_out:]

    # ridge reconstruction on the lifted training outputs
    G = Z @ Z.T + lam * n * np.eye(m_out)
    Ct, c_jitter = solve_psd(G, Z @ ds.Y)
    C = Ct.T

    if m_in <= 1200:
        ew = np.linalg.eigvalsh(K_in)
        cutoff = RankTolerance().rel_cutoff * max(ew[-1], 0.0)
        kept = ew[ew > cutoff]
        cond_in = float(ew[-1] / kept[0]) if len(kept) else np.inf
    else:
        cond_in = None
    diagnostics = {
        "m_in": m_in,
        "m_out": m_out,
        "rank_gram_out": info["rank"],
        "clipped_gram_out": info["clipped"],
        "cond_gram_out": info["cond"],
        "cond_gram_in": cond_in,
        "jitter_applied": bool(jitter or c_jitter),
    }
    lifting_dedup = NystromLift(spec, LandmarkSet(lm_in, lm_out, seed=lifting.landmarks.seed))
    model = KoopmanModel(
        lifting=lifting_dedup,
        A_m=A_m,
        B_m=B_m,
        C=C,
        gamma=gamma,
        lam=lam,
        gram_out_pinv_sqrt=W,
        _range=V,
        diagnostics=diagnostics,
    )
    return model


def _fit_thinplate(ds: Dataset, lifting: ThinPlateLift, gamma: float, lam: float):
    centers = _dedup_rows(lifting.centers)
    m = len(centers)
    n, n_u = ds.n, ds.n_u
    Phi_in = thin_plate_matrix(ds.X, centers).T  # (m, n)
    Phi_out = thin_plate_matrix(ds.Y, centers).T
    P = np.vstack([Phi_in, ds.U.T])  # (m + n_u, n)
    M = P @ P.T + gamma * n * np.eye(m + n_u)
    ABt, jitter = solve_psd(M, P @ Phi_out.T)
    AB = ABt.T
    A_m, B_m = AB[:, :m], AB[:, m:]
    G = Phi_out @ Phi_out.T + lam * n * np.eye(m)
    Ct, c_jitter = solve_psd(G, Phi_out @ ds.Y)
    diagnostics = {
        "m_in": m,
        "m_out": m,
        "jitter_applied": bool(jitter or c_jitter),
    }
    return KoopmanModel(
        lifting=ThinPlateLift(centers),
        A_m=A_m,
        B_m=B_m,
        C=Ct.T,
        gamma=gamma,
        lam=lam,
        gram_out_pinv_sqrt=np.eye(m),
        _range=np.eye(m),
        diagnostics=diagnostics,
    )


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
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    lam = gamma if lam is None else lam
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if isinstance(lifting, NystromLift):
        if lifting.landmarks.inputs.shape[1] != ds.d:
            raise ValueError("landmark dimension does not match dataset")
        return _fit_nystrom(ds, lifting, gamma, lam)
    if isinstance(lifting, ThinPlateLift):
        if lifting.centers.shape[1] != ds.d:
            raise ValueError("center dimension does not match dataset")
        return _fit_thinplate(ds, lifting, gamma, lam)
    raise TypeError(f"unknown lifting {type(lifting).__name__}")


# ---------------------------------------------------------------------------
# Serialization: one JSON document, lossless at double precision
# ---------------------------------------------------------------------------


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
        "lifting": lift,
        "A_m": _arr(model.A_m),
        "B_m": _arr(model.B_m),
        "C": _arr(model.C),
        "gamma": model.gamma,
        "lambda": model.lam,
        "gram_out_pinv_sqrt": _arr(model.gram_out_pinv_sqrt),
        "diagnostics": {
            k: (v if not isinstance(v, np.generic) else v.item())
            for k, v in model.diagnostics.items()
        },
    }


def _json_array(doc: dict, key: str, shape: tuple) -> FloatArray:
    """doc[key] as a finite float array of ``shape`` (None matches any size)."""
    a = np.array(doc[key], dtype=float)
    if a.ndim != len(shape) or any(s is not None and s != k for s, k in zip(shape, a.shape)):
        raise ValueError(f"model {key} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"model {key} has non-finite entries")
    return a


def model_from_dict(doc: dict) -> KoopmanModel:
    """Rebuild a model, checking shapes, finiteness and the stored embedding weight.

    The range basis is rebuilt from the landmarks through the same rank decision
    as the fit, so a loaded model synthesizes the same gain as the fitted one.
    """
    m = len(doc["A_m"])
    A_m = _json_array(doc, "A_m", (m, m))
    B_m = _json_array(doc, "B_m", (m, None))
    C = _json_array(doc, "C", (None, m))
    d = C.shape[0]
    W = _json_array(doc, "gram_out_pinv_sqrt", (m, m))
    gamma, lam = float(doc["gamma"]), float(doc["lambda"])
    if not all(math.isfinite(v) and v > 0 for v in (gamma, lam)):
        raise ValueError(f"model gamma and lambda must be finite and positive, got {gamma}, {lam}")
    lift_doc = doc["lifting"]
    if lift_doc["variant"] == "nystrom":
        spec = KernelSpec(
            family=KernelFamily(lift_doc["kernel"]["family"]),
            lengthscale=lift_doc["kernel"]["lengthscale"],
            variance=lift_doc["kernel"]["variance"],
        )
        lm_out = _json_array(lift_doc, "landmarks_out", (m, d))
        lm_in = _json_array(lift_doc, "landmarks_in", (None, d))
        lifting: LiftingSpec = NystromLift(
            spec, LandmarkSet(lm_in, lm_out, seed=lift_doc.get("landmark_seed", 0))
        )
        W_built, V, _ = _lift_range(spec, lm_out)
    elif lift_doc["variant"] == "thinplate":
        lifting = ThinPlateLift(_json_array(lift_doc, "centers", (m, d)))
        W_built = V = np.eye(m)
    else:
        raise ValueError(f"unknown lifting variant {lift_doc['variant']!r}")
    if np.linalg.norm(W - W_built) > 1e-8 * np.linalg.norm(W_built):
        raise ValueError("model gram_out_pinv_sqrt does not match the one rebuilt from the landmarks")
    return KoopmanModel(
        lifting=lifting,
        A_m=A_m,
        B_m=B_m,
        C=C,
        gamma=gamma,
        lam=lam,
        gram_out_pinv_sqrt=W,
        _range=V,
        diagnostics=dict(doc.get("diagnostics", {})),
    )


def save_model(path, model: KoopmanModel) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_dict(model)))


def load_model(path) -> KoopmanModel:
    return model_from_dict(json.loads(Path(path).read_text()))
