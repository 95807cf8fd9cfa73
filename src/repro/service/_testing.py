"""Picklable shard functions for executor/worker fault-path tests.

The wire protocol ships shard functions by reference (module + qualname),
so test doubles must live in an importable module — test files collected by
pytest's importlib mode are not.  These helpers are tiny, deterministic,
and used only by the test suite and docs examples.

Worker-side *faults* are :class:`repro.resilience.FaultPlan` specs handed to
the worker (``chaos=`` or ``--chaos-plan``), which keeps fault injection
deterministic and seeded instead of baked into shard code.  The doubles below
model shard *behaviour* (payloads, deterministic failures, slowness), which
the plan cannot.
"""

from __future__ import annotations

import time

__all__ = [
    "echo_shard",
    "double_shard",
    "raise_shard",
    "slow_shard",
    "deadline_probe_shard",
    "trace_probe_shard",
]


def echo_shard(task, rng):
    """Return the task unchanged (transport round-trip checks)."""
    return task


def double_shard(task, rng):
    """Return ``task * 2`` (order/requeue checks with distinct results)."""
    return task * 2


def raise_shard(task, rng):
    """Always raise — a deterministic shard failure (must not be retried)."""
    raise ValueError(f"injected shard failure for task {task!r}")


def slow_shard(task, rng):
    """Sleep ``task`` seconds, then return it (timeout checks)."""
    time.sleep(float(task))
    return task


def deadline_probe_shard(task, rng):
    """Return ``(task, had_deadline, remaining_s)`` — propagation checks.

    A worker executing a shard whose meta carries ``deadline_s`` rebuilds
    the request deadline and scopes the compute with it, so this shard
    observes a finite, positive remaining budget; a dispatch without a
    deadline observes ``None``.
    """
    from repro.resilience import current_deadline

    deadline = current_deadline()
    if deadline is None:
        return (task, False, None)
    return (task, True, deadline.remaining())


def trace_probe_shard(task, rng):
    """Return ``(task, ambient_trace_id)`` — tracing propagation checks.

    A worker executing a shard whose meta carries ``trace_id``
    scopes the compute with it, so this shard observes the same ID the
    gateway minted; an untraced dispatch observes ``None``.
    """
    from repro.gateway.tracing import current_trace_id

    return (task, current_trace_id())
