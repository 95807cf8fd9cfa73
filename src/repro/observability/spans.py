"""Span-based tracing primitives — stdlib only.

A Dapper-style span tree rides alongside the flat ``X-Request-ID`` from
``repro.gateway.tracing``: every stage a request crosses (gateway parse,
admission, queue wait, cache probe, shard dispatch, wire round-trip,
worker compute, merge) opens a :class:`Span` naming itself, and the spans
link into one tree through parent IDs.

An ambient :class:`SpanRecorder` plus the currently-open span live in
contextvars (:func:`recording_scope`, :func:`span`), beside the trace ID
and the request deadline.  A thread hop runs in a copy of the caller's
context (``contextvars.copy_context().run``: the service's pool job and
the remote executor's lane threads), so spans opened on the far side
parent under the span that was open at the hop with no per-variable
plumbing.  A context cannot cross a process: the worker rebuilds its
recorder and parent from the shard meta with :func:`recording_scope`.

When no recorder is ambient, :func:`span` degrades to a shared no-op
context manager: untraced requests pay one contextvar read and nothing
else, which is what keeps tracing-off overhead unmeasurable.

Spans serialize to plain dicts (:meth:`Span.to_dict`) so worker-side
spans can ship back in a shard reply's ``meta["spans"]`` without the wire
layer learning any new types.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecorder",
    "span",
    "recording_scope",
    "current_recorder",
    "current_span_id",
    "new_span_id",
]

#: The ambient recorder — set for the whole life of a traced request.
_recorder: ContextVar["SpanRecorder | None"] = ContextVar(
    "repro_span_recorder", default=None
)
#: The innermost open span's ID — the parent for the next ``span()``.
_parent: ContextVar[str | None] = ContextVar("repro_span_parent", default=None)

_HOST = f"{socket.gethostname()}:{os.getpid()}"


def new_span_id() -> str:
    """A fresh 16-hex-char span ID (64 random bits — plenty per trace).

    ``os.urandom`` directly: span IDs are minted on the request hot path
    (several per traced request), and this is ~4x cheaper than a
    ``uuid4`` while carrying the same entropy per hex char.
    """
    return os.urandom(8).hex()


@dataclass(slots=True)
class Span:
    """One timed stage of a request.

    ``start_s`` is wall-clock (``time.time``) for display and cross-host
    alignment; ``duration_s`` is measured with ``perf_counter`` so it is
    immune to clock steps.  ``status`` is ``"ok"`` or ``"error"``.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_span_id)
    parent_id: str | None = None
    start_s: float = 0.0
    duration_s: float = 0.0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)
    host: str = _HOST

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
            "host": self.host,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=str(data.get("name", "?")),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")) or new_span_id(),
            parent_id=data.get("parent_id"),
            start_s=float(data.get("start_s", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            status=str(data.get("status", "ok")),
            attrs=dict(data.get("attrs") or {}),
            host=str(data.get("host", "?")),
        )


class SpanRecorder:
    """Collects finished spans for one trace; safe across lane threads."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    # append/extend on a list are atomic under the GIL, so the hot-path
    # writers skip the lock; drain/snapshot take it only to pair with the
    # buffer swap below.
    def add(self, finished: Span) -> None:
        self._spans.append(finished)

    def extend(self, spans: list[Span]) -> None:
        self._spans.extend(spans)

    def drain(self) -> list[Span]:
        """All spans recorded so far, clearing the buffer."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _OpenSpan:
    """Context manager for one live span; ``.attrs`` is writable inside."""

    __slots__ = ("_recorder", "span", "_t0", "_token")

    def __init__(self, recorder: SpanRecorder, name: str, attrs: dict):
        self._recorder = recorder
        self.span = Span(
            name=name,
            trace_id=recorder.trace_id,
            parent_id=_parent.get(),
            start_s=time.time(),
            attrs=attrs,
        )
        self._t0 = 0.0
        self._token = None

    def __enter__(self) -> Span:
        self._token = _parent.set(self.span.span_id)
        self._t0 = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault("error", exc_type.__name__)
        _parent.reset(self._token)
        self._recorder.add(self.span)
        return None


class _NoopSpan:
    """Shared do-nothing span for the untraced fast path."""

    __slots__ = ()
    attrs: dict = {}

    def __enter__(self):
        return _NOOP_TARGET

    def __exit__(self, exc_type, exc, tb):
        return None


class _NoopTarget:
    """What ``with span(...) as s`` binds when tracing is off.

    Accepts attribute writes into a throwaway dict so call sites never
    branch on whether tracing is live.
    """

    __slots__ = ()

    @property
    def attrs(self) -> dict:
        return {}

    status = "ok"
    span_id = None

    def __setattr__(self, name, value):
        # ``att.status = "error"`` etc. must be as free as the attrs dict
        # writes above: swallowed, never raised.
        pass


_NOOP = _NoopSpan()
_NOOP_TARGET = _NoopTarget()


def span(name: str, **attrs):
    """Open a span named *name* under the current parent.

    No-op (one contextvar read, zero allocation beyond kwargs) when no
    recorder is ambient.
    """
    recorder = _recorder.get()
    if recorder is None:
        return _NOOP
    return _OpenSpan(recorder, name, attrs)


@contextlib.contextmanager
def recording_scope(recorder: SpanRecorder | None,
                    parent_id: str | None = None):
    """Install *recorder* as the ambient span sink for this context, with
    *parent_id* as the parent of the next :func:`span` (``None``: a root).

    The worker passes the dialer's attempt-span ID from the shard meta, so
    its compute span parents across the process seam.
    """
    rec_token = _recorder.set(recorder)
    par_token = _parent.set(parent_id)
    try:
        yield recorder
    finally:
        _parent.reset(par_token)
        _recorder.reset(rec_token)


def current_recorder() -> SpanRecorder | None:
    return _recorder.get()


def current_span_id() -> str | None:
    return _parent.get()
