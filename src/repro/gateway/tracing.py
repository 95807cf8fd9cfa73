"""Request tracing: one ID that follows a request through every layer.

A gateway request gets a **trace ID** at the edge (minted here, or taken
from the client's ``X-Request-ID`` header), and that ID rides the request
everywhere its work goes:

- the gateway stamps it on the HTTP response (header and body envelope) and
  on its access log line;
- :meth:`repro.service.scheduler.SearchService.submit` captures the ambient
  ID and re-establishes it inside the worker-pool thread that executes the
  engine call;
- the shard executor (:mod:`repro.service.executor`) copies it into each
  shard frame's metadata dict (``meta["trace_id"]``);
- ``repro-worker`` scopes shard execution with it and logs it, so one
  ``grep trace=<id>`` across gateway and worker logs reconstructs exactly
  which hosts computed which shards of which user request.

The ambient ID is a :class:`contextvars.ContextVar`.  Context does **not**
flow into ``threading.Thread`` targets automatically, so thread hops
(service pool, executor lanes) capture the ID explicitly with
:func:`current_trace_id` and re-enter it with :func:`trace_scope` — the
same pattern :mod:`repro.resilience` uses for deadlines.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "TRACE_HEADER",
    "MAX_TRACE_ID_LENGTH",
    "new_trace_id",
    "sanitize_trace_id",
    "current_trace_id",
    "trace_scope",
]

#: HTTP header the gateway reads a caller-supplied trace ID from (and
#: always writes the effective ID back on).
TRACE_HEADER = "X-Request-ID"

#: Longest accepted caller-supplied trace ID — anything longer is replaced
#: by a fresh one rather than let a client pump arbitrary bytes into every
#: log line and shard frame downstream.
MAX_TRACE_ID_LENGTH = 128

_trace_id: ContextVar[str | None] = ContextVar("repro_trace_id", default=None)


def new_trace_id() -> str:
    """A fresh 32-hex-character trace ID."""
    return uuid.uuid4().hex


def sanitize_trace_id(value) -> str:
    """A safe trace ID from a caller-supplied *value*.

    Accepts printable ASCII without whitespace (IDs are logged and become
    header values); anything else — or nothing — gets a fresh ID.
    """
    if (
        isinstance(value, str)
        and 0 < len(value) <= MAX_TRACE_ID_LENGTH
        and all(33 <= ord(ch) <= 126 for ch in value)
    ):
        return value
    return new_trace_id()


def current_trace_id() -> str | None:
    """The ambient trace ID, or ``None`` outside any traced request."""
    return _trace_id.get()


@contextmanager
def trace_scope(trace_id: str | None):
    """Establish *trace_id* as the ambient ID for the ``with`` body.

    ``None`` is allowed and clears the scope (useful when re-entering a
    captured-but-absent ID on a worker thread).
    """
    token = _trace_id.set(trace_id)
    try:
        yield trace_id
    finally:
        _trace_id.reset(token)
