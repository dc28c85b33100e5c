"""Layer spans recorded from outside the program.

The tracer replaces public kooplift functions by timing wrappers in every
loaded kooplift module that binds them, so calls made through ``from .x import
y`` names are seen as well as calls made through the module attribute.  Spans
nest per thread; a span's self time is its duration minus the durations of the
spans it directly contains.  Only aggregates are kept (calls, self time and
work counts per layer), because the hot layers are called tens of thousands of
times per operation.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _rollout_steps(res) -> dict:
    return {"steps": len(res.controls)}


def _gram_entries(K) -> dict:
    return {"entries": int(K.size)}


def _solve_psd_jitter(out) -> dict:
    return {"jitter": int(bool(out[1]))}


def _dare_counts(sol) -> dict:
    return {
        "iterations": int(sol.iterations),
        "capped": int(not sol.converged),
        "deflated": int(sol.deflated),
    }


# (module, function, work counts read from the return value); a span is
# reported as <module>.<function>
TIMED = [
    ("simulate", "collect_training_data", None),
    ("simulate", "rollout_closed_loop", _rollout_steps),
    ("simulate", "rollout_open_loop", None),
    ("simulate", "rollout_policy", None),
    ("data", "build_pairs", None),
    ("data", "sample_landmarks", None),
    ("kernels", "gram", _gram_entries),
    ("kernels", "thin_plate_matrix", None),
    ("numerics", "solve_psd", _solve_psd_jitter),
    ("numerics", "psd_pinv_sqrt", None),
    ("numerics", "psd_sqrt", None),
    ("identify", "fit", None),
    ("identify", "forecast", None),
    ("lqr", "solve_model_dare", _dare_counts),
    ("theory", "build_exact_operator", None),
    ("theory", "build_nystrom_operator", None),
    ("theory", "operator_gap_norm", None),
    ("theory", "operator_norm", None),
    ("theory", "projection_error", None),
    ("theory", "exact_model_norms", None),
    ("theory", "transport_weights", None),
    ("theory", "riccati_gap", None),
    ("theory", "objective_gap", None),
]
# called per RK4 step: counted, not timed, so its time stays in the caller
COUNTED = [("simulate", "rk4_step")]

ROOT = "experiments"

# per-layer metrics reported by a traced run, with their units
PER_LAYER = (
    [
        ("simulate.collect_training_data.self_s", "s"),
        ("simulate.rk4_step.calls", "count"),
        ("simulate.rollout_closed_loop.self_s", "s"),
        ("simulate.rollout_closed_loop.steps", "count"),
        ("simulate.rollout_open_loop.self_s", "s"),
        ("simulate.rollout_policy.self_s", "s"),
        ("data.build_pairs.self_s", "s"),
        ("data.sample_landmarks.self_s", "s"),
        ("kernels.gram.self_s", "s"),
        ("kernels.gram.entries", "count"),
        ("kernels.thin_plate_matrix.self_s", "s"),
        ("numerics.solve_psd.self_s", "s"),
        ("numerics.solve_psd.calls", "count"),
        ("numerics.solve_psd.jitter", "count"),
        ("numerics.psd_pinv_sqrt.self_s", "s"),
        ("numerics.psd_sqrt.self_s", "s"),
        ("identify.fit.self_s", "s"),
        ("identify.fit.calls", "count"),
        ("identify.forecast.self_s", "s"),
        ("lqr.solve_model_dare.self_s", "s"),
        ("lqr.solve_model_dare.calls", "count"),
        ("lqr.solve_model_dare.iterations", "count"),
        ("lqr.solve_model_dare.capped", "count"),
        ("lqr.solve_model_dare.deflated", "count"),
    ]
    + [(f"theory.{name}.self_s", "s") for mod, name, _ in TIMED if mod == "theory"]
    + [("experiments.self_s", "s"), ("experiments.wall_s", "s")]
)


class Tracer:
    """Aggregated spans of one operation at a time; see ``take``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: dict[str, float] = defaultdict(float)

    def timed(self, name: str, fn, counts=None):
        """Wrap fn so each call is a span called ``name``."""
        calls_key, self_key, wall_key = f"{name}.calls", f"{name}.self_s", f"{name}.wall_s"
        local, lock, totals = self._local, self._lock, self._totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with lock:
                    totals[calls_key] += 1
                    totals[self_key] += dt - children[0]
                    totals[wall_key] += dt
            if counts is not None:
                with lock:
                    for key, v in counts(out).items():
                        totals[f"{name}.{key}"] += v
            return out

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so its calls are counted and its time stays in the caller's span."""
        key, lock, totals = f"{name}.calls", self._lock, self._totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                totals[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function of TIMED and COUNTED wherever kooplift binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kooplift" or n.startswith("kooplift.")]
        plan = [(mod, fn, functools.partial(self.timed, counts=counts)) for mod, fn, counts in TIMED]
        plan += [(mod, fn, self.counted) for mod, fn in COUNTED]
        for mod, fn, make in plan:
            original = getattr(sys.modules[f"kooplift.{mod}"], fn)
            wrapper = make(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def take(self) -> dict[str, float]:
        """Return the per-layer metrics gathered since the last call, and reset them."""
        with self._lock:
            totals = dict(self._totals)
            self._totals.clear()
        return {name: totals.get(name, 0.0) for name, _unit in PER_LAYER}
