"""Observability for the sharing pipeline: tracing, metrics, export, analysis.

* :mod:`repro.obs.tracer` — deterministic span tracer over the sim clock;
* :mod:`repro.obs.registry` — unified counters/gauges/histograms;
* :mod:`repro.obs.export` — trace JSONL in the WAL envelope encoding;
* :mod:`repro.obs.analysis` — per-stage self-time and critical paths.
"""

from repro._exports import lazy_exports
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_key,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("TRACE_OPERATION", "TRACE_TABLE", "read_trace_jsonl",
               "trace_entries", "write_trace_jsonl"),
    "analysis": ("PIPELINE_STAGES", "TraceAnalyzer"),
})

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_key",
    "TRACE_OPERATION",
    "TRACE_TABLE",
    "read_trace_jsonl",
    "trace_entries",
    "write_trace_jsonl",
    "PIPELINE_STAGES",
    "TraceAnalyzer",
]
