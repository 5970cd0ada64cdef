"""The simulation workloads' worker: one fresh process per invocation.

Run as ``python3 -m perfbench.sims MODE WORKLOAD SEED SECONDS [TRACE_PATH]``
from the checkout root.  Modes:

* ``setup`` — import the program, generate the first input and configure
  the :class:`~repro.api.Session`, print the monotonic clock, exit;
* ``run`` — the same set-up, then paired fixed/flexible renditions of
  successive inputs, as many pairs as ``pair_seconds`` fit in
  ``SECONDS``, in whole passes over the seed pool (a fixed amount of
  work, so every commit is measured on the same renditions);
* ``trace`` — an untraced pass over a quarter of that work, then the
  same renditions again with :mod:`perfbench.layers` installed; writes
  the coarse spans to ``TRACE_PATH`` as a Perfetto trace;
* ``record`` — run every input of the seed pool once and print its
  reference summary (``SEED`` and ``SECONDS`` are ignored).

Every mode prints one JSON object as its last stdout line.  The timing
of a rendition covers ``Session.run`` — assembly, execution and
``summarize`` — and nothing the benchmark does to check it.  Each
rendition records its wall time and the process's CPU time: the
simulation neither sleeps nor waits on I/O, so the two differ only by
the time the host took the CPU away (steal on a shared virtual machine),
which the CPU time leaves out.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.common import input_sequence, load_shapes  # noqa: E402


class SimWorkload:
    def __init__(self, name: str) -> None:
        # The program's public entry points; importing fails without src/.
        import repro.workload
        from repro.api import Session
        from repro.cluster import configs
        from repro.metrics.trace import trace_digest
        from repro.runtime.nanos import RuntimeConfig

        self.shape = load_shapes()[name]
        self.workloads = repro.workload
        self.trace_digest = trace_digest
        cluster = getattr(configs, self.shape["cluster"])()
        self.session = Session(cluster=cluster).with_runtime(
            RuntimeConfig(async_mode=self.shape["async_mode"]))

    def spec(self, input_seed: int):
        # Looked up per call, so a traced pass sees the wrapped generator.
        return self.workloads.fs_workload(self.shape["num_jobs"],
                                          seed=input_seed)

    def pair_count(self, seconds: float) -> int:
        """Inputs that ``pair_seconds`` each fit in ``seconds``.

        Rounded to whole passes over the seed pool once there is room
        for one, so that no input is measured more often than another.
        """
        count = max(1, round(seconds / self.shape["pair_seconds"]))
        pool = len(self.shape["seed_pool"])
        return pool * round(count / pool) if count >= pool else count

    def rendition(self, spec, input_seed: int, flexible: bool) -> dict:
        session = self.session.with_seed(input_seed)
        gc.collect()
        cpu = time.process_time()
        start = time.perf_counter()
        result = session.run(spec, flexible=flexible)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        summary = result.summary
        return {
            "input_seed": input_seed,
            "flexible": flexible,
            "wall_s": wall,
            "cpu_s": cpu,
            "start": start,
            "summary": {
                "num_jobs": summary.num_jobs,
                "makespan": summary.makespan,
                "avg_wait_time": summary.avg_wait_time,
                "resize_count": summary.resize_count,
                "trace_digest": self.trace_digest(result.trace),
            },
        }

    def pairs(self, seeds) -> list:
        """Fixed then flexible rendition of each input in turn."""
        records = []
        for input_seed in seeds:
            spec = self.spec(input_seed)
            for flexible in (False, True):
                records.append(self.rendition(spec, input_seed, flexible))
        return records


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "record":
        workload = SimWorkload(name)
        refs = {}
        for input_seed in workload.shape["seed_pool"]:
            spec = workload.spec(input_seed)
            refs[str(input_seed)] = {
                ("flexible" if flexible else "fixed"):
                    workload.rendition(spec, input_seed, flexible)["summary"]
                for flexible in (False, True)
            }
        print(json.dumps(refs, sort_keys=True))
        return 0

    workload = SimWorkload(name)
    share = 0.25 if mode == "trace" else 1.0
    seeds = input_sequence(workload.shape["seed_pool"], seed,
                           workload.pair_count(seconds * share))
    workload.spec(seeds[0])  # set-up ends once the first input exists
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0
    if mode == "run":
        records = workload.pairs(seeds)
        print(json.dumps({
            "ready": ready,
            "renditions": records,
            "peak_rss_mib": _peak_rss_mib(),
        }))
        return 0
    if mode != "trace":
        raise SystemExit(f"unknown mode {mode!r}")
    return _trace(workload, seeds, argv[4])


def _trace(workload: SimWorkload, seeds, trace_path: str) -> int:
    from perfbench.layers import Tracer, layer_metrics
    from perfbench.common import export_spans

    untraced = workload.pairs(seeds)

    tracer = Tracer()
    tracer.install()
    try:
        traced, generate_s = [], 0.0
        for input_seed in seeds:
            start = time.perf_counter()
            spec = workload.spec(input_seed)
            generate_s += time.perf_counter() - start
            for flexible in (False, True):
                traced.append(workload.rendition(spec, input_seed, flexible))
    finally:
        tracer.uninstall()

    # The traced wall is the time spent inside the program: generating
    # inputs and running renditions, not checking their outputs.
    untraced_wall = sum(r["wall_s"] for r in untraced)
    rendition_wall = sum(r["wall_s"] for r in traced)
    traced_wall = rendition_wall + generate_s
    first, last = traced[0], traced[-1]
    spans = [{"name": "workload.run", "start": first["start"],
              "end": last["start"] + last["wall_s"], "id": "run",
              "parent": None}]
    spans += [
        {"name": "rendition." + ("flexible" if r["flexible"] else "fixed"),
         "start": r["start"], "end": r["start"] + r["wall_s"],
         "id": f"r{i}", "parent": "run", "input_seed": r["input_seed"]}
        for i, r in enumerate(traced)
    ]
    export_spans(trace_path, spans, request_id=f"seed{seeds[0]}")
    metrics = layer_metrics(tracer.snapshot(), traced_wall, untraced_wall,
                            rendition_wall / untraced_wall)
    print(json.dumps({"renditions": untraced + traced, "per_layer": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
