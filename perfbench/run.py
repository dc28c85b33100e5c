"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kooplift checkout.  The workload runs in a fresh
process (``worker.py``) that imports kooplift from ``src/``, builds the
workload's data, repeats the workload's operation for about S seconds and
checks every result.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate, traced run.  The full record of the run goes
to ``perfbench/out/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cubic-regulate", "duffing-forecast", "rate-study")
# OpenBLAS threads per workload: one where the program's sizes were measured,
# the library default (one per core) where the thread policy should show
BLAS_THREADS = {"cubic-regulate": "1", "duffing-forecast": "1", "rate-study": None}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 3  # fresh processes timed from start to the first operation
RUN_LIMIT_S = 170.0  # a run is stopped once it takes this long


class Worker:
    """A worker process, started now and killed at ``deadline``; ``ready_s`` is its set-up time."""

    def __init__(self, args, setup_only: bool, deadline: float):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        if BLAS_THREADS[args.workload] is not None:
            env.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS[args.workload]))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.watchdog = threading.Timer(max(deadline - t0, 0.0), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self.ready_s = None
        if self.proc.stdout.readline().strip() == "ready":
            self.ready_s = time.perf_counter() - t0

    def finish(self) -> str:
        out, _ = self.proc.communicate()
        self.watchdog.cancel()
        if self.proc.returncode != 0 or self.ready_s is None:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(args, setup_only=True, deadline=deadline)
            probe.finish()
            samples.append(probe.ready_s)
    worker = Worker(args, setup_only=False, deadline=deadline)
    record = json.loads(worker.finish().strip().splitlines()[-1])
    samples.append(worker.ready_s)
    record["setup_s"] = samples

    ops = record["ops"]
    failed = sum(1 for op in ops if op["errors"])
    if args.trace:
        import tracing

        metrics = {
            name: {"value": statistics.median(op["layers"][name] for op in ops), "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "seeds_per_s": {"value": sum(op["seeds"] for op in ops) / sum(op["wall_s"] for op in ops), "unit": "1/s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    errors = [error for op in ops for error in op["errors"]]
    if errors:
        print(f"{failed} of {len(ops)} operations failed; the first: {errors[0]}", file=sys.stderr)
    # an operation that raised produced no output to be wrong
    wrong = sum(1 for op in ops if op["errors"] and not op["raised"])
    return {"correct": wrong == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "kooplift" / "__init__.py").is_file():
        print(f"no kooplift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        result = run(args)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
