"""One workload process: set up, then repeat the workload's operation.

Run by ``run.py``, which times this process from its start to the ``ready``
line (the set-up time) and reads the JSON record it prints last.  The
operation is the same scenario call every time: each call is bit-identical,
so every run attempts whole rounds of the same work.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
# the workload seed picks x0, the start of the cubic regulator and of the rate
# study's objective, from this interval
X0_RANGE = (0.5, 1.0)


def start_state(seed: int) -> float:
    return random.Random(seed).uniform(*X0_RANGE)


class CubicRegulate:
    """cubic_cost_experiment without the uncompressed model: n = 4000, m = 100.

    The training data are the scenario's own (data seed 0) whatever the
    workload seed, which picks x0: the cost of a synthesis grows with the
    retained rank of the lift, and that rank ranges 35-48 across data seeds 0-19.
    """

    seeds = 2
    seeds_per_op = seeds

    def setup(self, seed: int):
        from kooplift import experiments

        self.experiments = experiments
        self.x0 = start_state(seed)
        # the data a first call needs; the call collects them again itself
        self.system, _ = experiments.cubic_training_data(seed=0)

    def call(self):
        return self.experiments.cubic_cost_experiment(
            n_seeds=self.seeds, x0=self.x0, data_seed=0, exact=False, workers=1
        )

    def check(self, res) -> list[str]:
        return checks.check_cubic_costs(res.nystrom_costs, res.diverged, self.x0, self.system.dt)

    def quality(self, res) -> dict:
        return {
            "x0": self.x0,
            "median_cost": res.median_cost,
            "discretized_optimal_cost": res.optimal_cost,
            "closed_form_cost": checks.cubic_value(self.x0) / self.system.dt,
        }


class DuffingForecast:
    """duffing_forecast_experiment at m = 10, 20, 40, 80 on n = 70 000 pairs."""

    seeds = 2
    seeds_per_op = seeds
    sampled_pairs = 16

    def setup(self, seed: int):
        import numpy as np
        from kooplift import experiments

        self.experiments = experiments
        self.data_seed = seed
        self.system, ds = experiments.duffing_training_data(seed=seed)
        idx = np.random.default_rng(seed).choice(ds.n, self.sampled_pairs, replace=False)
        self.pairs = (ds.X[idx], ds.U[idx], ds.Y[idx])

    def call(self):
        return self.experiments.duffing_forecast_experiment(
            m_list=(10, 20, 40, 80), n_seeds=self.seeds, data_seed=self.data_seed, workers=1
        )

    def check(self, res) -> list[str]:
        # the call collects the same data again from the same seed
        errors = checks.check_pairs(checks.duffing_rhs, self.system.dt, *self.pairs)
        return errors + checks.check_forecasts(res["nystrom"])

    def quality(self, res) -> dict:
        import numpy as np

        return {
            f"{kind}_median_rmse_pct": {str(m): float(np.median(res[kind][m])) for m in res["m_list"]}
            for kind in ("nystrom", "thinplate")
        }


class RateStudy:
    """riccati_objective_sweep at m = 10 ... 160 on fixture_dataset(n = 500, seed = 7).

    The fixture is the one the acceptance criteria and ``study-bounds`` use,
    whatever the workload seed, which picks the objective's x0: the sweep's
    Riccati iterations depend strongly on the data (8 853 on fixture seed 0
    against 27 870 on seed 5), so runs on other fixtures would do other work.
    """

    seeds = 1
    m_list = (10, 20, 40, 80, 160)
    seeds_per_op = seeds * len(m_list)  # one per (m, seed) evaluation
    fixture_seed = 7

    def setup(self, seed: int):
        from kooplift import experiments

        self.experiments = experiments
        self.x0 = start_state(seed)
        self.system, self.ds = experiments.fixture_dataset(n=500, seed=self.fixture_seed)

    def call(self):
        return self.experiments.riccati_objective_sweep(
            self.ds, m_list=self.m_list, n_seeds=self.seeds, x0=self.x0, workers=1
        )

    def _gaps(self, rows, field: str) -> list[list[float]]:
        return [[getattr(r, field) for r in rows if r.m == m] for m in self.m_list]

    def check(self, rows) -> list[str]:
        return checks.check_rates(
            self.m_list,
            self._gaps(rows, "empirical_gap"),
            self._gaps(rows, "riccati_gap"),
            self._gaps(rows, "objective_gap"),
            # the exact surrogate's optimal objective approximates the true optimum
            objective_scale=checks.cubic_value(self.x0) / self.system.dt,
        )

    def quality(self, rows) -> dict:
        import numpy as np

        out = {"x0": self.x0}
        for field in ("empirical_gap", "riccati_gap", "objective_gap"):
            medians = [float(np.median(v)) for v in self._gaps(rows, field)]
            out[f"{field}_medians"] = medians
            out[f"{field}_slope"] = checks.loglog_slope(self.m_list, medians)
        return out


WORKLOADS = {"cubic-regulate": CubicRegulate, "duffing-forecast": DuffingForecast, "rate-study": RateStudy}


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    found[pkg.__name__] = int(fn())
                    break
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import kooplift

    if Path(kooplift.__file__).resolve().parent != SRC / "kooplift":
        print(f"kooplift was imported from {kooplift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    call = workload.call
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.timed(tracing.ROOT, call)
    ops = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record = {"seeds": workload.seeds_per_op, "raised": False}
        try:
            result = call()
            record["wall_s"] = time.perf_counter() - t0
            record["errors"] = workload.check(result)
            record["quality"] = workload.quality(result)
        except Exception:  # a failing operation is counted, and the run goes on
            record.setdefault("wall_s", time.perf_counter() - t0)
            record["errors"] = [traceback.format_exc()]
            record["raised"] = True
        if tracer is not None:
            record["layers"] = tracer.take()
        ops.append(record)
        elapsed = time.perf_counter() - start
        # start another operation only if it is expected to end within the run
        if elapsed + elapsed / len(ops) > args.seconds:
            break

    import numpy
    import scipy

    print(json.dumps({
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "workers": 1,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": {
                pkg.__name__: pkg.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
                for pkg in (numpy, scipy)
            },
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
