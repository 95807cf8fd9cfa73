"""repro.observability — span tracing, trace storage, and crash forensics.

Layered on the flat request IDs from ``repro.gateway.tracing``:

- :mod:`~repro.observability.spans` — the ``Span`` tree and the ambient
  recorder contextvars (a thread hop runs in a copy of the caller's
  context, so they cross it with no helper of their own);
- :mod:`~repro.observability.collector` — the bounded per-process
  ``TraceCollector`` ring that ``GET /v1/trace/{id}`` serves from;
- :mod:`~repro.observability.render` — the ``repro trace`` waterfall;
- :mod:`~repro.observability.flight` — the SIGUSR1/crash flight recorder.
"""

from .collector import TraceCollector
from .flight import FlightRecorder
from .render import render_waterfall
from .spans import (
    Span,
    SpanRecorder,
    current_recorder,
    current_span_id,
    recording_scope,
    span,
)

__all__ = [
    "Span",
    "SpanRecorder",
    "span",
    "recording_scope",
    "current_recorder",
    "current_span_id",
    "TraceCollector",
    "FlightRecorder",
    "render_waterfall",
]
