"""Batch command line: collect | fit | control | forecast | study-bounds | bench.

Configuration is a single flat JSON document with dotted keys, e.g.

    {"system.name": "cubic", "collect.n_traj": 20, "collect.duration": 2.0,
     "collect.input": "uniform", "seed": 0}

Command-line ``--override KEY=VALUE`` entries replace config keys (values are
parsed as JSON when possible, else taken as strings), and ``--seed`` replaces
the ``seed`` key.  Every command is a pure function of (config, input files):
reruns produce byte-identical outputs.  All floating-point output is printed
with 17 significant digits so files round-trip losslessly.  Every command runs
on one OpenBLAS thread (``numerics.one_blas_thread``), whatever the library
default, and ``bench`` records the counts it ran at as ``blas_threads``.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, theory
from .data import (
    LandmarkStrategy,
    Trajectory,
    build_pairs,
    cross_validate,
    derived_rng,
    fmt17,
    load_trajectories,
    sample_landmarks,
    save_trajectories,
)
from .identify import NystromLift, ThinPlateLift, fit, forecast, load_model, save_model
from .kernels import KernelFamily, KernelSpec
from .lqr import solve_model_dare
from .numerics import blas_threads, one_blas_thread
from .simulate import (
    CollectionProtocol,
    SquareWave,
    UniformBall,
    UniformBox,
    UniformIID,
    ZeroInput,
    cubic_system,
    duffing_system,
    metric_rmse_pct,
    rollout_closed_loop,
    rollout_open_loop,
)

__all__ = ["main"]


def _json17(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (lossless round-trip)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json17(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(f"{pad}  {_json17(v, indent + 2).lstrip()}" for v in obj)
        return f"{pad}[\n{items}\n{pad}]" if len(obj) else f"{pad}[]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            return pad + json.dumps(str(v))
        return pad + fmt17(v)
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json17(obj) + "\n")


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(json.loads(Path(args.config).read_text()))
    for ov in args.override or []:
        if "=" not in ov:
            raise ValueError(f"override must look like KEY=VALUE, got {ov!r}")
        key, raw = ov.split("=", 1)
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _required(cfg: dict, key: str):
    """cfg[key]; a missing key raises ValueError naming it."""
    if key not in cfg:
        raise ValueError(f"config key {key!r} is required")
    return cfg[key]


def _system(cfg: dict):
    name = cfg.get("system.name", "cubic")
    dt = float(cfg.get("system.dt", 0.01))
    if name == "cubic":
        return cubic_system(dt)
    if name == "duffing":
        return duffing_system(dt)
    raise ValueError(f"unknown system {name!r}")


def _input_law(cfg: dict, prefix: str):
    kind = cfg.get(f"{prefix}.input", "uniform")
    if kind == "zero":
        return ZeroInput()
    if kind == "uniform":
        return UniformIID(float(cfg.get(f"{prefix}.input.lo", -1.0)), float(cfg.get(f"{prefix}.input.hi", 1.0)))
    if kind == "square":
        return SquareWave(
            amplitude=float(cfg.get(f"{prefix}.input.amplitude", 1.0)),
            frequency=float(cfg.get(f"{prefix}.input.frequency", 3.33)),
        )
    raise ValueError(f"unknown input law {kind!r}")


def _init_law(cfg: dict):
    kind = cfg.get("collect.init", "box")
    if kind == "box":
        return UniformBox(float(cfg.get("collect.init.lo", -1.0)), float(cfg.get("collect.init.hi", 1.0)))
    if kind == "ball":
        return UniformBall(float(cfg.get("collect.init.radius", 1.0)))
    raise ValueError(f"unknown init law {kind!r}")


def _kernel(cfg: dict) -> KernelSpec:
    return KernelSpec(
        family=KernelFamily(cfg.get("kernel.family", "matern52")),
        lengthscale=float(cfg.get("kernel.lengthscale", 1.0)),
        variance=float(cfg.get("kernel.variance", 1.0)),
    )


def _load_dataset(cfg: dict):
    path = Path(_required(cfg, "data.path"))
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
    elif path.exists():
        files = [path]
    else:
        # a pattern may have wildcards in any component, e.g. runs/*/traj_*.csv
        files = sorted(Path(p) for p in glob.glob(str(path)))
    if not files:
        raise FileNotFoundError(f"no trajectory files under {path}")
    trajs: list[Trajectory] = []
    for i, f in enumerate(files):
        for tr in load_trajectories(f):
            # re-tag to keep ids unique across files
            trajs.append(Trajectory(tr.dt, tr.states, tr.controls, traj_id=f"{i}:{tr.traj_id}"))
    return trajs


def cmd_collect(cfg: dict, out: Path) -> int:
    sys_ = _system(cfg)
    protocol = CollectionProtocol(
        n_traj=int(cfg.get("collect.n_traj", 20)),
        duration=float(cfg.get("collect.duration", 2.0)),
        input_law=_input_law(cfg, "collect"),
        init_law=_init_law(cfg),
        seed=int(cfg.get("seed", 0)),
    )
    trajs = experiments.collect_training_data(sys_, protocol)
    out.mkdir(parents=True, exist_ok=True)
    for tr in trajs:
        save_trajectories(out / f"traj_{int(tr.traj_id):03d}.csv", [tr])
    print(f"wrote {len(trajs)} trajectory files to {out}")
    return 0


def cmd_fit(cfg: dict, out: Path) -> int:
    trajs = _load_dataset(cfg)
    ds = build_pairs(trajs)
    gamma = float(cfg.get("fit.gamma", 1e-6))
    lam = float(cfg.get("fit.lambda", gamma))
    seed = int(cfg.get("seed", 0))
    kernel = _kernel(cfg)
    report: dict = {"n_pairs": ds.n, "d": ds.d, "n_u": ds.n_u, "seed": seed}
    if cfg.get("fit.cv", False):
        lengthscales = [float(v) for v in cfg.get("fit.cv.lengthscales", [kernel.lengthscale])]
        gammas = [float(v) for v in cfg.get("fit.cv.gammas", [gamma])]
        grid = [(l, g) for l in lengthscales for g in gammas]
        best, scores = cross_validate(
            ds,
            grid,
            folds=int(cfg.get("fit.cv.folds", 5)),
            m=int(cfg.get("fit.m", 50)),
            seed=seed,
            kernel_family=kernel.family,
        )
        kernel = KernelSpec(kernel.family, best[0], kernel.variance)
        gamma = lam = best[1]
        report["cv"] = {
            "best_lengthscale": best[0],
            "best_gamma": best[1],
            "scores": {f"l={l},g={g}": s for (l, g), s in scores.items()},
        }
    lifting_kind = cfg.get("fit.lifting", "nystrom")
    m = int(cfg.get("fit.m", 50))
    if lifting_kind == "nystrom":
        strategy = LandmarkStrategy(cfg.get("fit.strategy", "independent-uniform"))
        landmarks = sample_landmarks(ds, m, strategy, seed=seed)
        lifting = NystromLift(kernel, landmarks)
    elif lifting_kind == "thinplate":
        pool = sample_landmarks(ds, m, LandmarkStrategy.IndependentUniform, seed=seed)
        lifting = ThinPlateLift(pool.outputs)
    else:
        raise ValueError(f"unknown lifting {lifting_kind!r}")
    model = fit(ds, lifting, gamma=gamma, lam=lam)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.json", model)
    report.update(
        {
            "gamma": gamma,
            "lambda": lam,
            "m": m,
            "lifting": lifting_kind,
            "kernel.family": kernel.family.value,
            "kernel.lengthscale": kernel.lengthscale,
            "diagnostics": model.diagnostics,
        }
    )
    _write_json(out / "fit_report.json", report)
    print(f"wrote {out / 'model.json'}")
    return 0


def cmd_control(cfg: dict, out: Path) -> int:
    sys_ = _system(cfg)
    model = load_model(_required(cfg, "model.path"))
    qscale = float(cfg.get("lqr.qprime", 1.0))
    rscale = float(cfg.get("lqr.r", 1.0))
    Qprime = qscale * np.eye(sys_.d)
    R = rscale * np.eye(sys_.n_u)
    sol = solve_model_dare(model, Qprime, R)
    x0 = np.array(cfg.get("control.x0", [0.0] * sys_.d), dtype=float)
    ref = cfg.get("control.reference")
    reference = None if ref is None else np.array(ref, dtype=float)
    steps = int(cfg.get("control.steps", 10_000))
    stop_norm = cfg.get("control.stop_norm", 1e-6)
    stop_norm = None if stop_norm is None else float(stop_norm)
    res = rollout_closed_loop(
        sys_, model, sol, x0, steps, reference=reference, Qprime=Qprime, R=R, stop_norm=stop_norm
    )
    out.mkdir(parents=True, exist_ok=True)
    save_trajectories(
        out / "rollout.csv",
        [Trajectory(sys_.dt, res.states, res.controls, traj_id="rollout")],
    )
    metrics = {
        "total_cost": res.total_cost,
        "steps": len(res.controls),
        "diverged": res.diverged,
        "diverged_step": res.diverged_step,
        "rho_closed_loop": sol.rho_L,
        "dare_residual": sol.residual,
        "dare_iterations": sol.iterations,
        "converged": sol.converged,
        "deflated": sol.deflated,
        "jitter_applied": sol.jitter_applied,
        "rho_L_full": sol.rho_L_full,
        "final_state": list(res.states[-1]),
        "avg_running_cost": res.total_cost / len(res.controls) if len(res.controls) else 0.0,
    }
    _write_json(out / "metrics.json", metrics)
    print(f"cost={fmt17(res.total_cost)} diverged={res.diverged}")
    return 0


def cmd_forecast(cfg: dict, out: Path) -> int:
    sys_ = _system(cfg)
    model = load_model(_required(cfg, "model.path"))
    steps = int(cfg.get("forecast.steps", 200))
    law = _input_law(cfg, "forecast")
    U = law.draw(derived_rng("forecast-input", int(cfg.get("seed", 0))), 1, steps, sys_.dt, sys_.n_u)[0]
    x0 = np.array(cfg.get("forecast.x0", [0.0] * sys_.d), dtype=float)
    truth = rollout_open_loop(sys_, x0, U)
    pred = forecast(model, x0, U[: len(truth.controls)])
    out.mkdir(parents=True, exist_ok=True)
    save_trajectories(out / "truth.csv", [Trajectory(sys_.dt, truth.states, truth.controls, "truth")])
    save_trajectories(
        out / "forecast.csv",
        [Trajectory(sys_.dt, np.vstack([x0[None, :], pred]), truth.controls, "forecast")],
    )
    metrics = {
        "rmse_pct": metric_rmse_pct(truth.states[1:], pred),
        "steps": len(pred),
        "diverged": truth.diverged,
    }
    _write_json(out / "metrics.json", metrics)
    print(f"rmse_pct={fmt17(metrics['rmse_pct'])}")
    return 0


def cmd_study_bounds(cfg: dict, out: Path) -> int:
    n = int(cfg.get("bounds.n", 500))
    m_list = [int(v) for v in cfg.get("bounds.m_list", [10, 20, 40, 80, 160])]
    seeds = int(cfg.get("bounds.seeds", 50))
    gamma = float(cfg.get("fit.gamma", 1e-6))
    delta = float(cfg.get("bounds.delta", 0.05))
    _, ds = experiments.fixture_dataset(n=n, seed=int(cfg.get("seed", 7)))
    if cfg.get("bounds.riccati", False):
        rows = experiments.riccati_objective_sweep(ds, m_list, n_seeds=seeds, gamma=gamma, delta=delta)
    else:
        rows, _ = experiments.gap_sweep(ds, m_list, n_seeds=seeds, gamma=gamma, delta=delta)
    out.mkdir(parents=True, exist_ok=True)
    theory.write_bound_reports(out / "bounds.csv", rows)
    print(f"wrote {len(rows)} rows to {out / 'bounds.csv'}")
    return 0


def cmd_bench(cfg: dict, out: Path) -> int:
    scenario = cfg.get("bench.scenario", "cubic-costs")
    seeds = int(cfg.get("bench.seeds", 50))
    out.mkdir(parents=True, exist_ok=True)
    if scenario == "cubic-costs":
        res = experiments.cubic_cost_experiment(n_seeds=seeds, m=int(cfg.get("fit.m", 100)))
        doc = {
            "median_cost": res.median_cost,
            "exact_cost": res.exact_cost,
            "optimal_cost": res.optimal_cost,
            "diverged": res.diverged,
            "costs": res.nystrom_costs,
        }
    elif scenario == "cubic-rmse":
        vals = experiments.cubic_rmse_experiment(n_seeds=seeds, m=int(cfg.get("fit.m", 100)))
        doc = {"median_rmse_u_pct": float(np.median(vals)), "rmse_u_pct": vals}
    elif scenario == "duffing-stabilize":
        res = experiments.duffing_stabilization_experiment(n_seeds=seeds, m=int(cfg.get("fit.m", 20)))
        doc = {
            "success_rate": res.success_rate,
            "diverged": res.diverged,
            "min_norms": res.min_norms,
        }
    elif scenario == "duffing-forecast":
        res = experiments.duffing_forecast_experiment(
            m_list=tuple(int(v) for v in cfg.get("bench.m_list", [10, 20, 40, 80])),
            n_seeds=seeds,
        )
        doc = {
            "m_list": res["m_list"],
            "nystrom_median": {str(m): float(np.median(res["nystrom"][m])) for m in res["m_list"]},
            "thinplate_median": {str(m): float(np.median(res["thinplate"][m])) for m in res["m_list"]},
            "nystrom_diverged": res["nystrom_diverged"],
            "thinplate_diverged": res["thinplate_diverged"],
        }
    else:
        raise ValueError(f"unknown bench scenario {scenario!r}")
    doc["blas_threads"] = blas_threads()
    _write_json(out / f"bench_{scenario}.json", doc)
    print(f"wrote {out / f'bench_{scenario}.json'}")
    return 0


COMMANDS = {
    "collect": cmd_collect,
    "fit": cmd_fit,
    "control": cmd_control,
    "forecast": cmd_forecast,
    "study-bounds": cmd_study_bounds,
    "bench": cmd_bench,
}


@one_blas_thread()
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kooplift", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a flat JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--override", action="append", metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_load_config(args), Path(args.out))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
