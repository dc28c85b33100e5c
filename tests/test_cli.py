import json
from pathlib import Path

import numpy as np
import pytest

from kooplift.cli import main
from kooplift.data import load_trajectories
from kooplift.identify import embed_state, load_model
from kooplift.numerics import blas_threads


def write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def collected(tmp_path):
    cfg = write_config(
        tmp_path / "collect.json",
        {
            "system.name": "cubic",
            "system.dt": 0.01,
            "collect.n_traj": 3,
            "collect.duration": 0.2,
            "collect.input": "uniform",
            "collect.init": "box",
            "seed": 0,
        },
    )
    out = tmp_path / "data"
    assert main(["collect", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


def test_collect_writes_per_trajectory_files(collected, tmp_path):
    _, out = collected
    files = sorted(out.glob("traj_*.csv"))
    assert len(files) == 3
    # 20 steps -> 21 state rows per trajectory, plus the header line
    for f in files:
        assert len(f.read_text().splitlines()) == 22
    trajs = load_trajectories(files[0])
    assert trajs[0].states.shape == (21, 1)


def test_collect_rerun_is_byte_identical(collected, tmp_path):
    cfg, out = collected
    out2 = tmp_path / "data2"
    assert main(["collect", "--config", cfg, "--out", str(out2)]) == 0
    for f in sorted(out.glob("*.csv")):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


def test_collect_zero_trajectories_errors(tmp_path):
    cfg = write_config(tmp_path / "bad.json", {"collect.n_traj": 0, "collect.duration": 0.1})
    assert main(["collect", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_fit_control_forecast_pipeline(collected, tmp_path):
    cfg_path, data_dir = collected
    fit_cfg = write_config(
        tmp_path / "fit.json",
        {
            "data.path": str(data_dir),
            "fit.m": 12,
            "fit.gamma": 1e-6,
            "fit.lifting": "nystrom",
            "fit.strategy": "shared-uniform",
            "seed": 1,
        },
    )
    fit_out = tmp_path / "fit"
    assert main(["fit", "--config", fit_cfg, "--out", str(fit_out)]) == 0
    model_path = fit_out / "model.json"
    report = json.loads((fit_out / "fit_report.json").read_text())
    assert report["gamma"] == 1e-6 and report["m"] == 12
    assert "cond_gram_out" in report["diagnostics"]
    model = load_model(model_path)
    np.testing.assert_array_equal(
        embed_state(model, [0.4]), embed_state(load_model(model_path), [0.4])
    )

    ctl_cfg = write_config(
        tmp_path / "ctl.json",
        {
            "system.name": "cubic",
            "model.path": str(model_path),
            "control.x0": [0.9],
            "control.steps": 300,
            "control.stop_norm": 1e-6,
        },
    )
    ctl_out = tmp_path / "ctl"
    assert main(["control", "--config", ctl_cfg, "--out", str(ctl_out)]) == 0
    metrics = json.loads((ctl_out / "metrics.json").read_text())
    assert metrics["total_cost"] > 0
    assert (ctl_out / "rollout.csv").exists()

    fc_cfg = write_config(
        tmp_path / "fc.json",
        {
            "system.name": "cubic",
            "model.path": str(model_path),
            "forecast.x0": [0.5],
            "forecast.steps": 50,
            "forecast.input": "square",
        },
    )
    fc_out = tmp_path / "fc"
    assert main(["forecast", "--config", fc_cfg, "--out", str(fc_out)]) == 0
    metrics = json.loads((fc_out / "metrics.json").read_text())
    assert np.isfinite(metrics["rmse_pct"])
    assert (fc_out / "truth.csv").exists() and (fc_out / "forecast.csv").exists()


def test_fit_with_cross_validation(collected, tmp_path):
    _, data_dir = collected
    cfg = write_config(
        tmp_path / "cv.json",
        {
            "data.path": str(data_dir),
            "fit.m": 10,
            "fit.cv": True,
            "fit.cv.lengthscales": [0.5, 1.0],
            "fit.cv.gammas": [1e-6, 1e-2],
            "fit.cv.folds": 3,
            "seed": 2,
        },
    )
    out = tmp_path / "cv_out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert "cv" in report
    assert report["cv"]["best_gamma"] in (1e-6, 1e-2)
    assert len(report["cv"]["scores"]) == 4


def test_study_bounds_rows_ordered(tmp_path):
    cfg = write_config(
        tmp_path / "b.json",
        {"bounds.n": 100, "bounds.m_list": [5, 10], "bounds.seeds": 2, "fit.gamma": 1e-4},
    )
    out = tmp_path / "bounds"
    assert main(["study-bounds", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "gap_bound" in header and "empirical_gap" in header
    ms = [int(line.split(",")[0]) for line in lines[1:]]
    assert ms == sorted(ms)
    assert len(lines) == 1 + 2 * 2
    # every row records the rank of the sweep's one anchor basis (200 rows of
    # X and Y, at most 200 distinct)
    ranks = {int(line.split(",")[header.index("basis_rank")]) for line in lines[1:]}
    assert len(ranks) == 1 and 0 < ranks.pop() <= 200


def test_bench_smoke(tmp_path):
    cfg = write_config(
        tmp_path / "bench.json",
        {"bench.scenario": "cubic-rmse", "bench.seeds": 2, "fit.m": 20},
    )
    out = tmp_path / "bench"
    before = blas_threads()
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "bench_cubic-rmse.json").read_text())
    assert "median_rmse_u_pct" in doc and len(doc["rmse_u_pct"]) == 2
    # the command ran on one thread of every OpenBLAS runtime, and put the counts back
    assert doc["blas_threads"] == dict.fromkeys(before, 1)
    assert blas_threads() == before


def test_override_and_seed_flags(tmp_path):
    cfg = write_config(tmp_path / "o.json", {"collect.n_traj": 1, "collect.duration": 0.1})
    out = tmp_path / "o1"
    rc = main(
        [
            "collect",
            "--config",
            cfg,
            "--out",
            str(out),
            "--override",
            "collect.n_traj=2",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    assert len(list(out.glob("traj_*.csv"))) == 2


def test_unknown_system_errors(tmp_path):
    cfg = write_config(tmp_path / "u.json", {"system.name": "pendulum"})
    assert main(["collect", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(("command", "key"), [("fit", "data.path"), ("control", "model.path"), ("forecast", "model.path")])
def test_missing_input_path_is_named(tmp_path, capsys, command, key):
    cfg = write_config(tmp_path / "c.json", {})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert f"config key '{key}' is required" in capsys.readouterr().err


def test_json17_round_trip(tmp_path):
    from kooplift.cli import _json17

    doc = {"a": 0.1 + 0.2, "b": [1e-300, 3.141592653589793], "c": {"d": True, "e": None}}
    text = _json17(doc)
    back = json.loads(text)
    assert back["a"] == doc["a"]
    assert back["b"][0] == doc["b"][0] and back["b"][1] == doc["b"][1]


def test_fit_expands_glob_across_collect_runs(collected, tmp_path):
    cfg, _ = collected
    for name, seed in (("a", 0), ("b", 1)):
        out = tmp_path / "runs" / name
        assert main(["collect", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
    fit_cfg = write_config(
        tmp_path / "fit.json",
        {"data.path": str(tmp_path / "runs" / "*" / "traj_*.csv"), "fit.m": 12, "seed": 1},
    )
    out = tmp_path / "fit"
    assert main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0
    # 2 runs x 3 trajectories x 20 pairs
    assert json.loads((out / "fit_report.json").read_text())["n_pairs"] == 120


@pytest.fixture()
def readme_cubic_fit(tmp_path):
    """The README's cubic example: collect, then fit 100 landmarks at gamma = 1e-6."""
    cfg = write_config(
        tmp_path / "cubic.json",
        {
            "system.name": "cubic",
            "collect.n_traj": 20,
            "collect.duration": 2.0,
            "collect.input": "uniform",
            "collect.init": "box",
            "seed": 0,
        },
    )
    data, fit_out = tmp_path / "data", tmp_path / "fit"
    assert main(["collect", "--config", cfg, "--out", str(data)]) == 0
    overrides = ["--override", f"data.path={data}", "--override", "fit.m=100", "--override", "fit.gamma=1e-6"]
    assert main(["fit", "--config", cfg, "--out", str(fit_out), *overrides]) == 0
    return cfg, fit_out


def test_fit_reports_both_rank_decisions_for_readme_example(readme_cubic_fit):
    _, fit_out = readme_cubic_fit
    diagnostics = json.loads((fit_out / "fit_report.json").read_text())["diagnostics"]
    for side in ("in", "out"):
        assert diagnostics[f"rank_gram_{side}"] + diagnostics[f"clipped_gram_{side}"] == diagnostics[f"m_{side}"]
        assert diagnostics[f"cond_gram_{side}"] >= 1.0
    # the whitened regression's normal equations factorize without jitter
    assert diagnostics["jitter_applied"] is False


def test_control_reports_converged_synthesis_for_readme_example(readme_cubic_fit, tmp_path):
    # the lift's constant mode is deflated and the rest converges (4 095 iterations)
    cfg, fit_out = readme_cubic_fit
    run = tmp_path / "run"
    overrides = ["--override", f"model.path={fit_out / 'model.json'}", "--override", "control.x0=[0.9]"]
    assert main(["control", "--config", cfg, "--out", str(run), *overrides]) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    assert metrics["converged"] is True
    assert metrics["deflated"] == 1
    assert metrics["rho_closed_loop"] < 1.0
    assert metrics["rho_L_full"] >= metrics["rho_closed_loop"]
    assert metrics["jitter_applied"] is False



def run_commands(root: Path, commands) -> dict:
    """Run each (command, overrides) into root / command; every file written, by path under root."""
    for command, overrides in commands:
        argv = [command, "--out", str(root / command)]
        for ov in overrides:
            argv += ["--override", ov]
        assert main(argv) == 0
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_control_average_cost_is_the_rollouts_cost_per_step(readme_cubic_fit, tmp_path):
    # both read the rollout's stage costs under Q' and R, so lqr.r weighs the average too
    _, fit_out = readme_cubic_fit
    overrides = [f"model.path={fit_out / 'model.json'}", "control.x0=[0.9]", "lqr.r=4", "lqr.qprime=2"]
    files = run_commands(tmp_path / "run", [("control", overrides)])
    metrics = json.loads(files[Path("control/metrics.json")])
    assert metrics["steps"] > 0
    expected = metrics["total_cost"] / metrics["steps"]
    assert metrics["avg_running_cost"] == pytest.approx(expected, rel=1e-15, abs=0.0)
    files = run_commands(tmp_path / "empty", [("control", [*overrides, "control.steps=0"])])
    metrics = json.loads(files[Path("control/metrics.json")])
    assert metrics["steps"] == 0 and metrics["avg_running_cost"] == 0.0


def test_forecast_input_stream_follows_the_seed_only_for_the_uniform_law(collected, tmp_path):
    _, data_dir = collected
    fit_out = tmp_path / "fit"
    assert main(["fit", "--out", str(fit_out), "--override", f"data.path={data_dir}", "--override", "fit.m=12"]) == 0

    def truth(law: str, seed: int) -> bytes:
        overrides = [f"model.path={fit_out / 'model.json'}", "forecast.x0=[0.5]", "forecast.steps=50"]
        overrides += [f"forecast.input={law}", f"seed={seed}"]
        files = run_commands(tmp_path / f"{law}_{seed}", [("forecast", overrides)])
        return files[Path("forecast/truth.csv")]

    assert truth("uniform", 0) != truth("uniform", 3)
    for law in ("square", "zero"):
        assert truth(law, 0) == truth(law, 3)


def test_every_command_rerun_is_byte_identical(collected, tmp_path):
    _, data_dir = collected

    def commands(root: Path):
        model = root / "fit" / "model.json"
        return [
            ("fit", [f"data.path={data_dir}", "fit.m=12"]),
            ("control", [f"model.path={model}", "control.x0=[0.9]", "control.steps=50"]),
            ("forecast", [f"model.path={model}", "forecast.x0=[0.5]", "forecast.steps=50"]),
            ("study-bounds", ["bounds.seeds=1", "bounds.m_list=[10,20]"]),
        ]

    first = run_commands(tmp_path / "a", commands(tmp_path / "a"))
    second = run_commands(tmp_path / "b", commands(tmp_path / "b"))
    # model and report, rollout and metrics, truth, forecast and metrics, bounds
    assert len(first) == 8 and first.keys() == second.keys()
    differ = [str(path) for path in first if first[path] != second[path]]
    assert not differ, f"files that differ between two runs: {differ}"
