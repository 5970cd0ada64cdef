"""Lightweight spans over two clocks: simulation time and wall time.

A :class:`Span` is a named interval with free-form attributes; a
:class:`Telemetry` recorder is a bounded buffer of them plus the
correlation id that ties one recorder's output to the serve job, sweep
cell or session that produced it.  Two clocks coexist deliberately:

* ``sim`` spans carry *simulated* timestamps (seconds of virtual time,
  e.g. a runtime reconfiguration window from quiesce to redistribution
  done) — recorded by engine-side code that already knows both ends of
  the interval, so there is no context-manager bookkeeping on the hot
  path;
* ``wall`` spans carry Unix-epoch timestamps (a serve request, a sweep
  worker run) and are usually recorded with the :meth:`Telemetry.wall_
  span` context manager.

The Perfetto exporter keeps the two clocks on separate process tracks,
so both timelines stay internally coherent.

The buffer is bounded (:attr:`TelemetryConfig.max_spans`); once full,
further spans increment :attr:`Telemetry.dropped` instead of silently
vanishing or growing without limit — million-job benches can run with
telemetry on and report exactly how much they shed.

Correlation: a :class:`TelemetryConfig` is a frozen, picklable value
that travels on ``Session``/``SessionSpec``.  A parent (serve job,
sweep runner) mints an id, derives per-cell child ids with
:meth:`TelemetryConfig.child`, and process-pool workers build their own
recorder from the shipped config — worker spans come back tagged with
the parent's trace lineage.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

CLOCK_SIM = "sim"
CLOCK_WALL = "wall"

#: Default span-buffer bound.  Roughly 2.5 spans/job on the scheduler
#: bench, so 100k holds a 20k-job replay with real headroom while
#: keeping the worst case tens of MB, not unbounded.
DEFAULT_MAX_SPANS = 100_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable telemetry settings carried by Session/SessionSpec."""

    correlation_id: Optional[str] = None
    max_spans: int = DEFAULT_MAX_SPANS

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans}")

    def child(self, suffix: object) -> "TelemetryConfig":
        """The same config scoped one level down (``parent/suffix``)."""
        base = self.correlation_id
        cid = str(suffix) if base is None else f"{base}/{suffix}"
        return replace(self, correlation_id=cid)


class Span:
    """One named interval (or instant, when ``end`` is None)."""

    __slots__ = ("name", "start", "end", "clock", "track", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float],
        clock: str = CLOCK_SIM,
        track: str = "main",
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.start = float(start)
        self.end = None if end is None else float(end)
        self.clock = clock
        self.track = track
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    @property
    def instant(self) -> bool:
        return self.end is None

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "clock": self.clock,
            "track": self.track,
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            end=None if data.get("end") is None else float(data["end"]),  # type: ignore[arg-type]
            clock=str(data.get("clock", CLOCK_SIM)),
            track=str(data.get("track", "main")),
            attrs=dict(data.get("attrs", {})),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f"@{self.start:g}" if self.instant else \
            f"[{self.start:g}, {self.end:g}]"
        return f"Span({self.name!r} {span} {self.clock}/{self.track})"


class Telemetry:
    """A bounded span recorder with an explicit drop counter.

    Scheduler passes, by far the most frequent spans, are recorded into
    parallel columns by :meth:`record_pass` and become :class:`Span`
    objects only when :attr:`spans` is read; that list holds every span
    in recording order.
    """

    __slots__ = ("config", "_spans", "dropped", "_pass_slot", "_pass_at",
                 "_pass_kind", "_pass_examined", "_pass_started",
                 "_pass_wall_us")

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self._spans: List[Span] = []
        self.dropped = 0
        #: Pass columns: where in ``_spans`` each pass belongs (the span
        #: count when it was recorded), then its sim time, kind, jobs
        #: examined and started, and wall-clock microseconds.
        self._pass_slot: List[int] = []
        self._pass_at: List[float] = []
        self._pass_kind: List[str] = []
        self._pass_examined: List[int] = []
        self._pass_started: List[int] = []
        self._pass_wall_us: List[float] = []

    @property
    def correlation_id(self) -> Optional[str]:
        return self.config.correlation_id

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in recording order."""
        if self._pass_slot:
            self._merge_passes()
        return self._spans

    def _merge_passes(self) -> None:
        """Turn the pass columns into ``sched.pass`` spans, in order."""
        columns = (self._pass_slot, self._pass_at, self._pass_kind,
                   self._pass_examined, self._pass_started,
                   self._pass_wall_us)
        spans = self._spans
        merged: List[Span] = []
        taken = 0
        for slot, at, kind, examined, started, wall_us in zip(*columns):
            merged.extend(spans[taken:slot])
            taken = slot
            merged.append(Span(
                "sched.pass", at, at, CLOCK_SIM, "scheduler",
                {"kind": kind, "examined": examined, "started": started,
                 "wall_us": wall_us},
            ))
        merged.extend(spans[taken:])
        self._spans = merged
        for column in columns:
            column.clear()

    # -- recording -----------------------------------------------------------
    def record(
        self,
        name: str,
        start: float,
        end: Optional[float],
        clock: str = CLOCK_SIM,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record one finished interval (both ends already known)."""
        if len(self._spans) + len(self._pass_slot) >= self.config.max_spans:
            self.dropped += 1
            return
        self._spans.append(Span(name, start, end, clock, track, attrs or None))

    def record_pass(self, at: float, kind: str, examined: int, started: int,
                    wall_us: float) -> None:
        """Record one scheduler pass as a ``sched.pass`` span.

        The scheduler's per-pass entry point: it appends to the pass
        columns instead of building a :class:`Span` and its attrs dict.
        """
        slot = len(self._spans)
        if slot + len(self._pass_slot) >= self.config.max_spans:
            self.dropped += 1
            return
        self._pass_slot.append(slot)
        self._pass_at.append(at)
        self._pass_kind.append(kind)
        self._pass_examined.append(examined)
        self._pass_started.append(started)
        self._pass_wall_us.append(wall_us)

    def instant(
        self,
        name: str,
        at: float,
        clock: str = CLOCK_SIM,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record a point event (rendered as a Perfetto instant)."""
        self.record(name, at, None, clock, track, **attrs)

    @contextmanager
    def wall_span(self, name: str, track: str = "wall",
                  **attrs: object) -> Iterator[None]:
        """Time a wall-clock block (serve requests, sweep workers)."""
        start = time.time()
        try:
            yield
        finally:
            self.record(name, start, time.time(), CLOCK_WALL, track, **attrs)

    # -- (de)serialization ---------------------------------------------------
    def as_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready span list, each tagged with the correlation id."""
        cid = self.correlation_id
        out = []
        for span in self.spans:
            data = span.as_dict()
            if cid is not None:
                data["cid"] = cid
            out.append(data)
        return out

    def extend_from_dicts(
        self, payload: Iterable[Mapping[str, object]]
    ) -> None:
        """Fold spans shipped back from a worker into this recorder."""
        for data in payload:
            if len(self._spans) + len(self._pass_slot) >= self.config.max_spans:
                self.dropped += 1
                continue
            span = Span.from_dict(data)
            if "cid" in data:
                span.attrs.setdefault("cid", data["cid"])
            self._spans.append(span)

    def counts_by_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out
