"""Order statistics used by every workload's report."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a latency report may name, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than that many samples above
    it, i.e. the sample is too small to report a latency distribution.
    """
    best = None
    for pct in LADDER:
        if count * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            best = pct
    return best


def samples_for(pct: float) -> int:
    """The smallest sample count for which ``pct`` may be reported."""
    return math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9)
