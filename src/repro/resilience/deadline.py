"""Request deadlines that propagate across threads and the wire.

PR 3 enforced deadlines only at the :class:`SearchService` admission edge:
the *client* got a timeout, but the shards kept computing on workers whose
results nobody would wait for.  A :class:`Deadline` fixes the other half —
it is created once per request and then:

- becomes the ambient deadline of the engine's pool job via
  :func:`deadline_scope` (a context-manager around the job) and is read
  back by the shard planner and the executors through
  :func:`current_deadline`, with no request/engine API churn.  Like the
  trace ID and the span context it is a contextvar, and a thread hop runs
  in a copy of the caller's context, so it needs no hop code of its own;
- bounds executor dispatch: remaining budget becomes the per-shard reply
  timeout (instead of a fixed constant), and dispatch stops with
  :class:`DeadlineExceeded` the moment the budget is gone;
- crosses the wire as **remaining seconds** (monotonic clocks do not
  transfer between hosts), carried in the shard frame's meta;
  the worker rebuilds a local deadline from it and skips shards that
  arrive already expired.

:class:`DeadlineExceeded` subclasses :class:`TimeoutError`, so every layer
that already maps timeouts to a client-visible ``("timeout", ...)`` reply
handles it with no new plumbing.
"""

from __future__ import annotations

import contextlib
import contextvars
import time

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "current_deadline",
    "deadline_scope",
]


class DeadlineExceeded(TimeoutError):
    """The request's budget ran out before its shards finished."""


class Deadline:
    """An absolute point on the local monotonic clock.

    Immutable once created; all arithmetic is against the injected *clock*
    so tests can drive expiry without sleeping.
    """

    __slots__ = ("_at", "_clock")

    def __init__(self, at: float, *, clock=time.monotonic):
        self._at = float(at)
        self._clock = clock

    @classmethod
    def after(cls, seconds: float | None, *, clock=time.monotonic):
        """A deadline *seconds* from now; ``None`` -> no deadline."""
        if seconds is None:
            return None
        return cls(clock() + float(seconds), clock=clock)

    def remaining(self) -> float:
        """Seconds left; negative once expired (never clamped — callers
        that need a timeout value clamp with :meth:`budget`)."""
        return self._at - self._clock()

    def budget(self, floor: float = 0.0) -> float:
        """Remaining seconds clamped below at *floor* (a usable timeout)."""
        return max(floor, self.remaining())

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def raise_if_expired(self, what: str = "request") -> None:
        if self.expired:
            raise DeadlineExceeded(
                f"{what} deadline exceeded "
                f"({-self.remaining():.3f}s past the budget)"
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


_CURRENT: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_resilience_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline governing the current execution context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Make *deadline* the :func:`current_deadline` within the block.

    The service wraps each engine job in one of these inside the pool
    job, which runs in a copy of the submitting context; the worker wraps
    each shard in one rebuilt from the shipped budget.  ``None`` is
    accepted and simply clears any inherited deadline.
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
