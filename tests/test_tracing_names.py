"""The benchmark's layer tracer (perfbench/tracing.py) wraps kooplift functions
by name, so a rename here would silently drop a layer from a traced run.  The
tracer's source is parsed, not imported: this test only reads perfbench/."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
