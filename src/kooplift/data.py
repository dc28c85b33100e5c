"""Trajectory ingestion, regression pairs, landmark sampling, cross-validation.

CSV schema (one or more trajectories per file):

    traj_id,t,x_1..x_d,u_1..u_{n_u}

Rows are grouped by ``traj_id`` and ordered by the time column (seconds).
Control columns on a row hold the input applied *at* that state; the final row
of each trajectory leaves them empty.  Floats are written with 17 significant
digits so a write/read cycle is lossless.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

__all__ = [
    "Trajectory",
    "Dataset",
    "LandmarkSet",
    "LandmarkStrategy",
    "derived_rng",
    "load_trajectories",
    "save_trajectories",
    "build_pairs",
    "sample_landmarks",
    "cross_validate",
    "fit_fold",
]


def derived_rng(purpose: str, seed: int) -> np.random.Generator:
    """One independent RNG stream per (purpose, seed) pair.

    The purpose string is hashed into the seed sequence so that e.g. landmark
    draws and excitation noise never share a stream even for equal seeds.
    """
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(tag,)))


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states with the controls applied between them."""

    dt: float
    states: FloatArray  # (T+1, d)
    controls: FloatArray  # (T, n_u)
    traj_id: str = "0"

    def __post_init__(self) -> None:
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        controls = np.asarray(self.controls, dtype=float)
        if controls.ndim == 1:
            controls = controls[:, None]
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if len(controls) != len(states) - 1:
            raise ValueError(
                f"need len(controls) == len(states) - 1, got {len(controls)} vs {len(states)}"
            )
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(controls))):
            raise ValueError("trajectory contains non-finite values")

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def n_u(self) -> int:
        return self.controls.shape[1]


@dataclass(frozen=True)
class Dataset:
    """One-step regression triples (x_i, u_i, x_{i+1}) as column-aligned arrays."""

    X: FloatArray  # (n, d) inputs
    U: FloatArray  # (n, n_u) controls
    Y: FloatArray  # (n, d) one-step-ahead outputs

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)
        if not (len(X) == len(U) == len(Y)):
            raise ValueError("X, U, Y must have equal length")
        if len(X) < 1:
            raise ValueError("dataset needs at least one pair")
        if X.shape[1] != Y.shape[1]:
            raise ValueError("input and output state dimensions differ")

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_u(self) -> int:
        return self.U.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx].copy(), self.U[idx].copy(), self.Y[idx].copy())


class LandmarkStrategy(Enum):
    # separate uniform draws for the input and output sides
    IndependentUniform = "independent-uniform"
    # input landmarks drawn uniformly, output landmark = the input's successor
    PairedOneStepAhead = "paired-one-step-ahead"
    # one uniform draw from the output states, used for both sides; keeps the
    # input and output feature spans identical, which the closed-loop
    # benchmarks rely on
    SharedUniform = "shared-uniform"


@dataclass(frozen=True)
class LandmarkSet:
    """Input- and output-side compression points drawn from a dataset."""

    inputs: FloatArray  # (m, d)
    outputs: FloatArray  # (m, d)
    seed: int = 0

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        if len(inputs) < 1 or len(outputs) < 1:
            raise ValueError("landmark sets must be nonempty")

    @property
    def m(self) -> int:
        return len(self.outputs)


def build_pairs(trajs: Sequence[Trajectory]) -> Dataset:
    """Concatenate within-trajectory consecutive pairs, never across boundaries."""
    if not trajs:
        raise ValueError("no trajectories given")
    Xs, Us, Ys = [], [], []
    d, n_u = trajs[0].d, trajs[0].n_u
    for tr in trajs:
        if len(tr.states) < 2:
            raise ValueError(f"trajectory {tr.traj_id!r} has fewer than 2 states")
        if tr.d != d or tr.n_u != n_u:
            raise ValueError("trajectories disagree on dimensions")
        Xs.append(tr.states[:-1])
        Us.append(tr.controls)
        Ys.append(tr.states[1:])
    return Dataset(np.vstack(Xs), np.vstack(Us), np.vstack(Ys))


def sample_landmarks(
    ds: Dataset,
    m: int,
    strategy: LandmarkStrategy = LandmarkStrategy.IndependentUniform,
    seed: int = 0,
) -> LandmarkSet:
    """Draw m landmarks uniformly without replacement, deterministically in seed.

    Draws are permutation prefixes, so for a fixed seed the landmark sets are
    nested across increasing m.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > ds.n:
        raise ValueError(f"m = {m} exceeds dataset size n = {ds.n}")
    rng = derived_rng("landmarks", seed)
    if strategy is LandmarkStrategy.IndependentUniform:
        idx_in = rng.permutation(ds.n)[:m]
        idx_out = rng.permutation(ds.n)[:m]
        return LandmarkSet(ds.X[idx_in].copy(), ds.Y[idx_out].copy(), seed=seed)
    if strategy is LandmarkStrategy.PairedOneStepAhead:
        idx = rng.permutation(ds.n)[:m]
        return LandmarkSet(ds.X[idx].copy(), ds.Y[idx].copy(), seed=seed)
    if strategy is LandmarkStrategy.SharedUniform:
        idx = rng.permutation(ds.n)[:m]
        pts = ds.Y[idx].copy()
        return LandmarkSet(pts, pts.copy(), seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# CSV schema
# ---------------------------------------------------------------------------


def fmt17(x: float) -> str:
    """``x`` with 17 significant digits: every output file's float format,
    which round-trips a double losslessly."""
    return format(float(x), ".17g")


def save_trajectories(path, trajs: Sequence[Trajectory]) -> None:
    """Write trajectories to one CSV file in the package schema."""
    if not trajs:
        raise ValueError("no trajectories to save")
    d, n_u = trajs[0].d, trajs[0].n_u
    header = (
        ["traj_id", "t"]
        + [f"x_{i + 1}" for i in range(d)]
        + [f"u_{i + 1}" for i in range(n_u)]
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tr in trajs:
            if tr.d != d or tr.n_u != n_u:
                raise ValueError("trajectories disagree on dimensions")
            T = len(tr.controls)
            for k, x in enumerate(tr.states):
                row = [tr.traj_id, fmt17(k * tr.dt)] + [fmt17(v) for v in x]
                row += [fmt17(v) for v in tr.controls[k]] if k < T else [""] * n_u
                writer.writerow(row)


def _parse_header(header: list[str], path) -> tuple[int, int]:
    if len(header) < 3 or header[0] != "traj_id" or header[1] != "t":
        raise ValueError(f"{path}: malformed header {header!r}")
    d = sum(1 for h in header if h.startswith("x_"))
    n_u = sum(1 for h in header if h.startswith("u_"))
    expected = ["traj_id", "t"] + [f"x_{i + 1}" for i in range(d)] + [f"u_{i + 1}" for i in range(n_u)]
    if header != expected or d < 1:
        raise ValueError(f"{path}: malformed header {header!r}")
    return d, n_u


def load_trajectories(path) -> list[Trajectory]:
    """Load trajectories from a schema-conformant CSV file."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d, n_u = _parse_header(header, path)
        ncols = 2 + d + n_u
        groups: dict[str, list[tuple[float, list[str]]]] = {}
        order: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise ValueError(f"{path}:{lineno}: expected {ncols} fields, got {len(row)}")
            tid = row[0]
            if tid == "":
                raise ValueError(f"{path}:{lineno}: missing traj_id")
            try:
                t = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad time value {row[1]!r}") from None
            if tid not in groups:
                groups[tid] = []
                order.append(tid)
            groups[tid].append((t, row[2:]))
    trajs = []
    for tid in order:
        rows = sorted(groups[tid], key=lambda item: item[0])
        times = np.array([t for t, _ in rows])
        if len(rows) < 2:
            raise ValueError(f"{path}: trajectory {tid!r} has fewer than 2 rows")
        dts = np.diff(times)
        dt = float(np.median(dts))
        if dt <= 0 or not np.allclose(dts, dt, rtol=1e-6, atol=1e-12):
            raise ValueError(f"{path}: trajectory {tid!r} is not uniformly sampled")
        states, controls = [], []
        for k, (_, fields) in enumerate(rows):
            try:
                states.append([float(v) for v in fields[:d]])
            except ValueError:
                raise ValueError(f"{path}: trajectory {tid!r} row {k}: bad state value") from None
            ufields = fields[d:]
            last = k == len(rows) - 1
            if last:
                if any(v != "" for v in ufields):
                    raise ValueError(f"{path}: trajectory {tid!r}: final row must have empty controls")
            else:
                if any(v == "" for v in ufields):
                    raise ValueError(f"{path}: trajectory {tid!r} row {k}: missing control value")
                try:
                    controls.append([float(v) for v in ufields])
                except ValueError:
                    raise ValueError(f"{path}: trajectory {tid!r} row {k}: bad control value") from None
        trajs.append(
            Trajectory(
                dt=dt,
                states=np.array(states),
                controls=np.array(controls).reshape(len(rows) - 1, n_u),
                traj_id=tid,
            )
        )
    return trajs


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def _fold_slices(n: int, folds: int) -> list[np.ndarray]:
    """Contiguous fold index blocks; temporal correlation stays within a fold."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if folds > n:
        raise ValueError(f"{folds} folds but only {n} pairs")
    edges = np.linspace(0, n, folds + 1).astype(int)
    return [np.arange(edges[i], edges[i + 1]) for i in range(folds)]


def fit_fold(
    ds: Dataset,
    fold: int,
    folds: int,
    lengthscale: float,
    gamma: float,
    m: int,
    seed: int,
    kernel_family=None,
):
    """Fit one cross-validation fold: a model trained on everything but the fold.

    The model is a pure function of the training rows; held-out targets are
    never touched here.
    """
    from .identify import NystromLift, fit
    from .kernels import KernelFamily, KernelSpec

    family = KernelFamily.Matern52 if kernel_family is None else kernel_family
    blocks = _fold_slices(ds.n, folds)
    train_idx = np.concatenate([blocks[i] for i in range(folds) if i != fold])
    train = ds.subset(train_idx)
    m_eff = min(m, train.n)
    landmarks = sample_landmarks(train, m_eff, LandmarkStrategy.IndependentUniform, seed=seed)
    spec = KernelSpec(family=family, lengthscale=lengthscale, variance=1.0)
    model = fit(train, NystromLift(spec, landmarks), gamma=gamma, lam=gamma)
    return model, blocks[fold]


def cross_validate(
    ds: Dataset,
    grid: Sequence[tuple[float, float]],
    folds: int = 5,
    m: int = 50,
    seed: int = 0,
    kernel_family=None,
):
    """Grid search over (lengthscale, gamma) with contiguous-block K-fold CV.

    The score of a cell is the mean squared one-step prediction error of the
    reconstructed state on held-out pairs, averaged over folds.  Ties are broken
    toward larger gamma, then larger lengthscale.  Returns (best_cell, scores).
    """
    if not grid:
        raise ValueError("empty grid")
    blocks = _fold_slices(ds.n, folds)
    scores: dict[tuple[float, float], float] = {}
    for lengthscale, gamma in grid:
        fold_scores = []
        for fold in range(folds):
            model, hold_idx = fit_fold(ds, fold, folds, lengthscale, gamma, m, seed, kernel_family)
            hold = ds.subset(hold_idx)
            Z = model.embed_states(hold.X)
            Znext = model.A_r @ Z + model.B_r @ hold.U.T
            pred = (model.C_r @ Znext).T
            fold_scores.append(float(np.mean(np.sum((pred - hold.Y) ** 2, axis=1))))
        scores[(lengthscale, gamma)] = float(np.mean(fold_scores))
    best = min(scores, key=lambda cell: (scores[cell], -cell[1], -cell[0]))
    return best, scores
