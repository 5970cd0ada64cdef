"""Measurement layer: traces, timelines and paper-metric summaries."""

from repro.metrics.report import (
    format_csv,
    format_evolution,
    format_table,
    sparkline,
)
from repro.metrics.stream import (
    StreamingTraceWriter,
    read_trace_lines,
    stream_digest,
)
from repro.metrics.summary import WorkloadSummary, gain_percent, summarize
from repro.metrics.timeline import (
    StepSeries,
    allocated_nodes_series,
    completed_jobs_series,
    running_jobs_series,
    step_series,
)
from repro.metrics.trace import (
    EventKind,
    Trace,
    TraceEvent,
    canonical_line,
    canonical_lines,
    text_digest,
    trace_digest,
)

__all__ = [
    "EventKind",
    "StepSeries",
    "StreamingTraceWriter",
    "Trace",
    "TraceEvent",
    "WorkloadSummary",
    "allocated_nodes_series",
    "canonical_line",
    "canonical_lines",
    "completed_jobs_series",
    "format_csv",
    "format_evolution",
    "format_table",
    "gain_percent",
    "read_trace_lines",
    "running_jobs_series",
    "stream_digest",
    "sparkline",
    "step_series",
    "summarize",
    "text_digest",
    "trace_digest",
]
