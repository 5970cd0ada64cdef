"""Process-wide metrics registry with Prometheus text exposition.

The registry is the "numbers" half of :mod:`repro.obs` (spans are the
"intervals" half).  It holds named *families* of counters, gauges and
:class:`LatencyHistogram`\\ s; a family with label names fans out into
one child metric per label-value combination, exactly like a Prometheus
client.  Everything is plain Python — no dependencies — and the whole
surface is built for the repo's two consumption paths:

* ``GET /metrics`` on ``repro serve`` renders :meth:`MetricsRegistry.
  render_prometheus` (the standard ``text/plain; version=0.0.4``
  exposition, parseable back with :func:`parse_prometheus`);
* tests and benches take :meth:`MetricsRegistry.snapshot` before/after
  an operation and assert on :meth:`MetricsRegistry.diff`.

Hot paths (the scheduler inner loop) never talk to the registry per
operation; they keep their plain-int tallies (``SchedStats``,
``EventCounter``, store hit/miss counts) and *publish* them through the
``publish_*`` bridges below — either once per run or lazily from a
collector callback at scrape time.

:class:`LatencyHistogram` lives here: the registry is its primary
consumer and ``repro.obs`` must not import from ``repro.metrics``.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Default bucket geometry: 0.1 ms doubling up to ~104 s (21 finite
#: buckets + overflow), which spans everything from an in-memory status
#: lookup to a full workload simulation behind one request.
DEFAULT_FIRST_BOUND = 0.0001
DEFAULT_BUCKETS = 21
DEFAULT_GROWTH = 2.0


class LatencyHistogram:
    """Streaming histogram over non-negative durations in seconds.

    A Prometheus-style histogram with geometric bucket bounds:
    observations are O(1) to record, the memory footprint is a few
    dozen integers no matter how many requests are observed, and
    quantiles (p50/p99) are estimated by linear interpolation inside
    the bucket that crosses the requested rank, clamped to the observed
    ``[min, max]`` range so an estimate can never leave the data.  The
    estimation error is bounded by the bucket ratio (×2 by default) —
    the right trade for service telemetry, where retaining every sample
    is exactly what a server absorbing heavy traffic cannot afford.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        first_bound: float = DEFAULT_FIRST_BOUND,
        buckets: int = DEFAULT_BUCKETS,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if first_bound <= 0 or buckets < 1 or growth <= 1:
            raise ValueError(
                "histogram needs first_bound > 0, buckets >= 1, growth > 1"
            )
        bounds: List[float] = []
        bound = first_bound
        for _ in range(buckets):
            bounds.append(bound)
            bound *= growth
        #: Upper bounds of the finite buckets; the implicit last bucket
        #: is (bounds[-1], +inf).
        self.bounds = tuple(bounds)
        self.counts = [0] * (buckets + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        """Record one duration (negative values clamp to zero)."""
        value = 0.0 if seconds < 0 else float(seconds)
        index = 0
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            index = len(self.bounds)  # overflow bucket
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile in seconds (0 for an empty histogram).

        Interpolates linearly inside the crossing bucket and clamps the
        estimate to the observed ``[min, max]`` — raw interpolation can
        otherwise report values below the smallest or above the largest
        observation (a single sample mid-bucket, a one-bucket geometry,
        q at the extremes).  The overflow bucket reports the observed
        maximum (no upper bound to interpolate toward).
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # count > 0 implies min/max are set.
        if q == 0:
            return self.min  # type: ignore[return-value]
        if q == 1:
            return self.max  # type: ignore[return-value]
        rank = q * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if index >= len(self.bounds):
                    return self.max  # type: ignore[return-value]
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index > 0 else 0.0
                fraction = (rank - seen) / count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)  # type: ignore
            seen += count
        return self.max  # type: ignore[return-value]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fan another histogram's tallies into this one (same geometry).

        Returns ``self`` so worker tallies can be folded in a chain.
        Merging an empty histogram is a no-op; merging *into* an empty
        one copies the other side's extrema.
        """
        if not isinstance(other, LatencyHistogram):
            raise ValueError(
                f"can only merge another LatencyHistogram, got "
                f"{type(other).__name__}"
            )
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        # Read the other side first: merging a histogram into itself
        # must double every tally, not loop over a list it is mutating.
        other_counts = list(other.counts)
        other_count, other_total = other.count, other.total
        other_min, other_max = other.min, other.max
        for index, count in enumerate(other_counts):
            self.counts[index] += count
        self.count += other_count
        self.total += other_total
        if other_min is not None:
            self.min = other_min if self.min is None else min(self.min, other_min)
        if other_max is not None:
            self.max = other_max if self.max is None else max(self.max, other_max)
        return self

    def as_dict(self) -> Dict[str, object]:
        """JSON form: summary quantiles in ms + the raw bucket counts.

        The ``*_s`` fields carry the exact internal state (seconds), so
        :meth:`from_dict` round-trips losslessly; the ``*_ms`` fields
        are display conveniences kept for existing consumers.
        """
        return {
            "count": self.count,
            "sum_s": self.total,
            "min_s": self.min,
            "max_s": self.max,
            "mean_ms": 1000.0 * self.mean,
            "min_ms": 0.0 if self.min is None else 1000.0 * self.min,
            "max_ms": 0.0 if self.max is None else 1000.0 * self.max,
            "p50_ms": 1000.0 * self.quantile(0.50),
            "p99_ms": 1000.0 * self.quantile(0.99),
            "bucket_bounds_s": list(self.bounds),
            "bucket_bounds_ms": [1000.0 * b for b in self.bounds],
            "bucket_counts": list(self.counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`as_dict` output (lossless).

        Accepts older payloads that only carried ``bucket_bounds_ms``
        (reconstructed with a /1000 scale, which may cost one ulp).
        """
        bounds = data.get("bucket_bounds_s")
        if bounds is None:
            bounds = [float(b) / 1000.0 for b in data["bucket_bounds_ms"]]
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b <= 0 or (i and b <= bounds[i - 1]) for i, b in enumerate(bounds)
        ):
            raise ValueError(f"bucket bounds must be positive increasing: {bounds}")
        counts = [int(c) for c in data["bucket_counts"]]
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"expected {len(bounds) + 1} bucket counts, got {len(counts)}"
            )
        count = int(data["count"])
        if count != sum(counts) or any(c < 0 for c in counts):
            raise ValueError("bucket counts do not sum to 'count'")
        hist = cls.__new__(cls)
        hist.bounds = bounds
        hist.counts = counts
        hist.count = count
        hist.total = float(data["sum_s"])
        min_s = data.get("min_s", data.get("min_ms"))
        max_s = data.get("max_s", data.get("max_ms"))
        if "min_s" not in data and min_s is not None:
            min_s, max_s = float(min_s) / 1000.0, float(max_s) / 1000.0
        if count == 0:
            min_s = max_s = None
        hist.min = None if min_s is None else float(min_s)
        hist.max = None if max_s is None else float(max_s)
        return hist


def observe_all(histogram: LatencyHistogram, values: Sequence[float]) -> None:
    """Record a batch of durations (loadgen convenience)."""
    for value in values:
        histogram.observe(value)


# -- scalar metrics -----------------------------------------------------------

class Counter:
    """A monotonically increasing tally.

    :meth:`set` exists for the publish/collector path, where a plain-int
    hot-path tally is mirrored into the registry wholesale at scrape
    time; interactive code should only :meth:`inc`.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class Gauge:
    """A value that can go both ways (queue depth, uptime, RSS)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class MetricFamily:
    """One named metric with zero or more label dimensions.

    ``family.labels(route="GET /health")`` returns (creating on first
    use) the child metric for that label combination; the convenience
    mutators (``inc``/``set``/``observe``) route through ``labels``
    so unlabeled families read naturally: ``family.inc()``.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_factory", "_lock")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...], factory: Callable) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], object] = {}
        self._factory = factory
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    def observe(self, seconds: float, **labels: object) -> None:
        self.labels(**labels).observe(seconds)

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        return iter(sorted(self._children.items()))


# -- the registry -------------------------------------------------------------

class MetricsRegistry:
    """A named collection of metric families plus scrape-time collectors.

    Families are get-or-create: asking twice for the same name returns
    the same family (and raises if the kind or label names disagree),
    so independent modules can share a metric without coordination.
    Collectors are callables invoked with the registry right before a
    snapshot or render — the bridge for values that live elsewhere
    (store hit counts, queue depths) and are only mirrored on demand.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -- family construction -------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                labels: Sequence[str], factory: Callable) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, labels, factory)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != labels:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {list(family.label_names)}; cannot re-register as "
                f"{kind} with labels {list(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        first_bound: float = DEFAULT_FIRST_BOUND,
        buckets: int = DEFAULT_BUCKETS,
        growth: float = DEFAULT_GROWTH,
    ) -> MetricFamily:
        def factory() -> LatencyHistogram:
            return LatencyHistogram(first_bound, buckets, growth)

        return self._family(name, "histogram", help, labels, factory)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- collectors ----------------------------------------------------------
    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector (a failing collector is counted, not fatal)."""
        with self._lock:
            collectors = list(self._collectors)
        errors = self.counter(
            "repro_collector_errors_total",
            "Scrape-time collector callbacks that raised.",
        )
        for collector in collectors:
            try:
                collector(self)
            except Exception:  # noqa: BLE001 - a scrape must never 500
                errors.inc()

    # -- snapshot / diff -----------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels}`` → value map (after running collectors).

        Histograms contribute their ``_count`` and ``_sum`` series —
        the scalar views a diff can subtract meaningfully.
        """
        self.collect()
        flat: Dict[str, float] = {}
        for family in self.families():
            for values, child in family.samples():
                key = _sample_name(family.name, family.label_names, values)
                if family.kind == "histogram":
                    flat[_suffix(key, "_count")] = float(child.count)
                    flat[_suffix(key, "_sum")] = float(child.total)
                else:
                    flat[key] = float(child.value)
        return flat

    @staticmethod
    def diff(before: Mapping[str, float],
             after: Mapping[str, float]) -> Dict[str, float]:
        """Non-zero deltas between two :meth:`snapshot` maps."""
        out: Dict[str, float] = {}
        for key, value in after.items():
            delta = value - before.get(key, 0.0)
            if delta:
                out[key] = delta
        return out

    # -- Prometheus text exposition ------------------------------------------
    def render_prometheus(self) -> str:
        """The standard ``text/plain; version=0.0.4`` exposition.

        Families with no children still emit their ``# HELP``/``# TYPE``
        header, so a scraper can assert a metric *exists* (e.g. the
        observer-error counter) before anything has incremented it.
        """
        self.collect()
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.samples():
                pairs = list(zip(family.label_names, values))
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.counts):
                        cumulative += count
                        lines.append(_sample_line(
                            family.name + "_bucket",
                            pairs + [("le", _format_value(bound))],
                            cumulative,
                        ))
                    lines.append(_sample_line(
                        family.name + "_bucket", pairs + [("le", "+Inf")],
                        child.count,
                    ))
                    lines.append(_sample_line(
                        family.name + "_sum", pairs, child.total))
                    lines.append(_sample_line(
                        family.name + "_count", pairs, child.count))
                else:
                    lines.append(_sample_line(family.name, pairs, child.value))
        return "\n".join(lines) + "\n"


def _suffix(sample_name: str, suffix: str) -> str:
    if "{" in sample_name:
        base, rest = sample_name.split("{", 1)
        return f"{base}{suffix}{{{rest}"
    return sample_name + suffix


def _sample_name(name: str, label_names: Sequence[str],
                 values: Sequence[str]) -> str:
    if not label_names:
        return name
    inner = ",".join(
        f'{label}="{_escape_label(value)}"'
        for label, value in zip(label_names, values)
    )
    return f"{name}{{{inner}}}"


def _sample_line(name: str, pairs: Sequence[Tuple[str, str]],
                 value: float) -> str:
    if pairs:
        inner = ",".join(
            f'{label}="{_escape_label(text)}"' for label, text in pairs
        )
        name = f"{name}{{{inner}}}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


# -- a tiny exposition parser (CI smoke + tests; no new deps) ----------------

def parse_prometheus(text: str) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Parse a text exposition into ``(samples, types)``.

    ``samples`` maps ``name{labels}`` (exactly as rendered) to the
    float value; ``types`` maps family name to its ``# TYPE``.  Raises
    :class:`ValueError` on any malformed non-comment line, which is the
    point: the CI smoke asserts the server's exposition *parses*.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        name, space, value_text = line.rpartition(" ")
        if not space or not name:
            raise ValueError(f"line {lineno}: no value in {raw!r}")
        if name.count("{") != name.count("}") or (
            "{" in name and not name.endswith("}")
        ):
            raise ValueError(f"line {lineno}: malformed labels in {raw!r}")
        bare = name.split("{", 1)[0]
        if not bare or not all(
            c.isalnum() or c in "_:" for c in bare
        ) or bare[0].isdigit():
            raise ValueError(f"line {lineno}: bad metric name in {raw!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {value_text!r}"
            ) from exc
        samples[name] = value
    return samples, types


# -- the process default registry --------------------------------------------

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (serve renders it next to its own)."""
    return _DEFAULT


# -- publish bridges ----------------------------------------------------------
#
# Hot-path tallies stay plain ints; these helpers mirror a finished
# run's snapshot into a registry as labeled counter increments, so
# repeated runs in one process accumulate operator-visible totals.

def publish_sched_stats(registry: MetricsRegistry,
                        snapshot: Mapping[str, float]) -> None:
    """Fold one run's ``SchedStats.snapshot()`` into the registry."""
    ops = registry.counter(
        "repro_sched_ops_total",
        "Scheduler hot-path operation tallies, accumulated per run.",
        labels=("op",),
    )
    for op in ("fifo_passes", "backfill_passes", "key_evals",
               "running_end_evals", "heap_pushes", "heap_pops",
               "queue_rebuilds", "jobs_examined", "jobs_started"):
        value = snapshot.get(op)
        if value:
            ops.inc(value, op=op)


def publish_event_counts(registry: MetricsRegistry,
                         counts: Mapping[str, int]) -> None:
    """Fold an ``EventCounter.as_dict()`` into the registry."""
    events = registry.counter(
        "repro_session_events_total",
        "Simulation trace events observed by sessions, by hook.",
        labels=("hook",),
    )
    for hook, value in counts.items():
        if value:
            events.inc(value, hook=hook)


def publish_store_stats(registry: MetricsRegistry,
                        before: Mapping[str, int],
                        after: Mapping[str, int]) -> None:
    """Fold a store's hit/miss/put delta (two ``store.stats()`` calls)."""
    lookups = registry.counter(
        "repro_store_lookups_total",
        "Result-store lookups by outcome.",
        labels=("result",),
    )
    puts = registry.counter(
        "repro_store_puts_total", "Result-store records written.",
    )
    for key, label in (("hits", "hit"), ("misses", "miss")):
        delta = after.get(key, 0) - before.get(key, 0)
        if delta > 0:
            lookups.inc(delta, result=label)
    delta = after.get("puts", 0) - before.get("puts", 0)
    if delta > 0:
        puts.inc(delta)
