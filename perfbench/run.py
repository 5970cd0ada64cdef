"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fs_sync --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads and their input shapes are
in ``perfbench/workloads.json``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` with tracing off; ``--trace 1`` repeats
part of the work with per-layer wrappers installed and reports the
per-layer metrics.  Every run checks every output against
``perfbench/references.json``; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero,
printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Import the benchmark as a package, not its modules from the script's
# own directory, where they could shadow other top-level names; the
# program's Perfetto writer comes from the checkout's src/.
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.common import (  # noqa: E402
    SETUP_PROBES, WORK_DIR, gate_renditions, load_json, load_shapes,
)
from perfbench.stats import median  # noqa: E402

#: Seconds a single worker process may take before the run is abandoned.
WORKER_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def worker(args, timeout: float = WORKER_TIMEOUT) -> dict:
    """Run a ``perfbench.sims`` worker in a fresh process; parse its JSON."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.sims", *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in out:
        out["setup_s"] = out["ready"] - spawned
    return out


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict:
    refs = load_json("references.json")[name]
    if trace:
        path = os.path.join(WORK_DIR, f"{name}-seed{seed}.trace.json")
        out = worker(["trace", name, seed, seconds, path])
        metrics = out["per_layer"]
    else:
        setups = [worker(["setup", name, seed, seconds])["setup_s"]
                  for _ in range(SETUP_PROBES - 1)]
        out = worker(["run", name, seed, seconds])
        setups.append(out["setup_s"])
        # CPU time, not wall time: see perfbench/sims.py.
        walls = {flexible: [r["cpu_s"] for r in out["renditions"]
                            if r["flexible"] is flexible]
                 for flexible in (False, True)}
        metrics = {
            "setup_s": median(setups),
            "fixed_wall_s": median(walls[False]),
            "flexible_wall_s": median(walls[True]),
            "peak_rss_mib": out["peak_rss_mib"],
        }
    failures = gate_renditions(out["renditions"], refs)
    return {"attempted": len(out["renditions"]), "failures": failures,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shapes = load_shapes()
    if args.workload not in shapes:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(shapes)}")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        if shapes[args.workload]["kind"] == "serve":
            from perfbench.serve import run_serve

            report = run_serve(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        else:
            report = run_sim(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in report["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))[
        "per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": report["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    failed = len(report["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
