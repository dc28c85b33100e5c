"""The benchmark calls kooplift by name: its layer tracer (perfbench/tracing.py)
wraps functions, so a rename here would silently drop a layer from a traced
run, and its workloads (perfbench/worker.py) call the scenario functions with
keywords, so a removed parameter would fail every operation.  Both files are
parsed, not imported: these tests only read perfbench/."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKER = PERFBENCH / "worker.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function) of every entry of the tracer's TIMED and COUNTED lists."""
    names = []
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED") for t in node.targets
        ):
            names += [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return names


def test_traced_functions_resolve_in_kooplift():
    names = traced_names()
    assert ("simulate", "rk4_step") in names and len(names) > 1  # both lists were read
    missing = [
        f"kooplift.{mod}.{fn}"
        for mod, fn in names
        if not callable(getattr(importlib.import_module(f"kooplift.{mod}"), fn, None))
    ]
    assert not missing, f"perfbench/tracing.py names functions kooplift no longer has: {missing}"


def experiment_calls(source: str) -> list[tuple[str, list[str]]]:
    """(function, keywords) of every call ``<...>.experiments.<function>(...)``
    in ``source``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name == "experiments":
                calls.append((node.func.attr, [kw.arg for kw in node.keywords]))
    return calls


def test_worker_calls_match_experiment_signatures():
    from kooplift import experiments

    calls = experiment_calls(WORKER.read_text())
    called = {fn for fn, _ in calls}
    assert {"cubic_cost_experiment", "duffing_forecast_experiment", "riccati_objective_sweep"} <= called
    # inspect.signature follows __wrapped__ through one_blas_thread
    unknown = [
        f"{fn}({kw}=)"
        for fn, keywords in calls
        for kw in keywords
        if kw not in inspect.signature(getattr(experiments, fn)).parameters
    ]
    assert not unknown, f"perfbench/worker.py passes keywords kooplift.experiments no longer takes: {unknown}"
