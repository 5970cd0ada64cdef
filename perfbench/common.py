"""Shared pieces: workload shapes, input selection, the correctness gate."""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Traces, layer tallies and server logs of a run (inside the checkout).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Relative tolerance for float fields of a recorded summary.
FLOAT_RTOL = 1e-9

#: Fresh processes (or servers) whose set-up times give ``setup_s``'s median.
SETUP_PROBES = 7


def load_json(name: str) -> dict:
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_shapes() -> dict:
    """Per-workload input shapes (``workloads.json``)."""
    return load_json("workloads.json")["workloads"]


def input_sequence(pool: Sequence[int], seed: int, count: int) -> List[int]:
    """The ``count`` input seeds of a run: the pool, permuted by ``seed``.

    Every input has a recorded reference, so the gate checks each
    rendition exactly.  A timed run covers the pool a whole number of
    times, so runs with different seeds measure the same inputs in a
    different order; the per-input cost varies by several percent, and a
    run drawing its own subset of inputs would report that variation as
    run-to-run spread.
    """
    order = list(pool)
    random.Random(seed).shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def summary_mismatches(got: dict, want: Optional[dict]) -> List[str]:
    """Fields of a rendition summary that differ from the reference."""
    if want is None:
        return ["no recorded reference"]
    bad = []
    for key, expected in want.items():
        actual = got.get(key)
        if isinstance(expected, float) and isinstance(actual, (int, float)):
            if not math.isclose(actual, expected, rel_tol=FLOAT_RTOL,
                                abs_tol=FLOAT_RTOL):
                bad.append(f"{key}: {actual!r} != {expected!r}")
        elif actual != expected:
            bad.append(f"{key}: {actual!r} != {expected!r}")
    return bad


def gate_renditions(renditions: Sequence[dict], refs: Dict[str, dict]) -> List[str]:
    """One message per rendition whose summary misses its reference."""
    failures = []
    for r in renditions:
        kind = "flexible" if r["flexible"] else "fixed"
        want = refs.get(str(r["input_seed"]), {}).get(kind)
        bad = summary_mismatches(r["summary"], want)
        if bad:
            failures.append(f"seed {r['input_seed']} {kind}: " + "; ".join(bad))
    return failures


def export_spans(path: str, spans: Sequence[dict], request_id: str) -> dict:
    """Write coarse wall-clock spans through the program's Perfetto writer.

    Each span dict carries ``name``, ``start``/``end`` (perf-counter
    seconds), its own ``id`` and its ``parent`` id, and optionally a
    ``track`` and the ``rid`` it shares with the other spans of its
    request (``request_id`` by default).  The file is validated after
    writing.
    """
    from repro.obs.perfetto import export_perfetto, validate_trace_file
    from repro.obs.spans import CLOCK_WALL, Span

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    out = []
    for span in spans:
        attrs = {k: v for k, v in span.items()
                 if k not in ("name", "start", "end", "track")}
        attrs.setdefault("rid", request_id)
        out.append(Span(span["name"], span["start"], span["end"],
                        clock=CLOCK_WALL, track=span.get("track", "benchmark"),
                        attrs=attrs))
    export_perfetto(path, spans=out)
    return validate_trace_file(path)
