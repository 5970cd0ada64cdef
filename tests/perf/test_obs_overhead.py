"""Telemetry overhead pin: spans must stay out of the scheduler's way.

Replays the 20k-job bench trace with telemetry off and on and pins the
wall-clock ratio at ≤ 5%.  The scheduler records one ``sched.pass``
span per pass through :meth:`~repro.obs.spans.Telemetry.record_pass` —
this test is what keeps that call site honest.

The two replays run side by side: both advance through the same
simulated-time slices in alternating order, with the cyclic GC parked,
and each replay's wall clock is the sum over its slices.  Host noise
(a neighbour stealing the CPU, frequency changes) then lands on both
arms alike instead of on whichever replay happened to be running, which
whole-replay comparisons could not rule out on a shared 2-core box.
The pin is the median ratio over a few such side-by-side rounds.
"""

from __future__ import annotations

import gc
import statistics

from repro.obs.spans import Telemetry, TelemetryConfig
from repro.sweep.bench import SchedReplay
from repro.workload.generator import sched_trace

SIZE = 20_000
SEED = 2017
#: Simulated-time slices the replays alternate over (~1 ms of work
#: each): finer slices leave host noise less time to favour one arm.
SLICES = 2000
#: Side-by-side rounds; the pin reads their median ratio.
ROUNDS = 3
#: The acceptance ceiling: telemetry may cost at most 5% wall clock.
MAX_OVERHEAD_RATIO = 1.05


def _side_by_side(trace):
    """One round: the off and on replays' stats rows and on/off ratio."""
    horizon = max(job.arrival for job in trace)
    off = SchedReplay(trace)
    on = SchedReplay(trace, telemetry=Telemetry(TelemetryConfig(
        correlation_id=f"overhead-{SIZE}"
    )))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for k in range(1, SLICES + 1):
            until = horizon * k / SLICES if k < SLICES else None
            # The telemetry arm goes first in the first slice, so any
            # first-run cost is charged to it, not to the baseline.
            for replay in (on, off) if k % 2 else (off, on):
                replay.advance(until)
    finally:
        if enabled:
            gc.enable()
    return off.result(), on.result(), on.wall_s / off.wall_s


def test_span_overhead_within_five_percent():
    trace = sched_trace(SIZE, seed=SEED)
    rounds = [_side_by_side(trace) for _ in range(ROUNDS)]
    base, instrumented, _ = rounds[0]
    # Telemetry must not change what the scheduler does...
    assert instrumented["passes"] == base["passes"]
    assert instrumented["comparisons"] == base["comparisons"]
    assert instrumented["jobs_started"] == base["jobs_started"] == SIZE
    # ...and every pass must have produced exactly one span, none shed.
    spans = instrumented["spans_recorded"]
    assert spans == instrumented["passes"]
    assert instrumented["spans_dropped"] == 0
    ratios = [ratio for _, _, ratio in rounds]
    ratio = statistics.median(ratios)
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"telemetry costs {(ratio - 1) * 100:.1f}% wall clock on the "
        f"{SIZE}-job replay (median of {ROUNDS} side-by-side rounds: "
        f"{', '.join(f'{r:.3f}' for r in ratios)}; {spans} spans; budget "
        f"{(MAX_OVERHEAD_RATIO - 1) * 100:.0f}%)"
    )
