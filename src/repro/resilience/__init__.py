"""Fault-handling building blocks shared by the service and cluster layers.

The serving stack built in the service/cluster packages (remote shard
dispatch, cache peering, gossip membership) needs the same three behaviours
wherever it touches the network, plus a way to *test* them:

- :mod:`repro.resilience.retry` — exponential backoff with decorrelated
  jitter (:class:`RetryPolicy`) under a per-request :class:`RetryBudget`,
  for failures that are plausibly transient (refused dials, reset
  connections, timeouts).  Deterministic failures — a shard function that
  raises — are never retried.
- :mod:`repro.resilience.breaker` — per-endpoint circuit breakers
  (:class:`CircuitBreaker`, keyed in a :class:`BreakerRegistry`) so a dead
  or flapping worker/peer is quarantined after a run of consecutive
  failures and probed back in through half-open trials instead of charging
  every request a connect timeout.
- :mod:`repro.resilience.deadline` — propagatable request deadlines
  (:class:`Deadline`, set with :func:`deadline_scope` and read with
  :func:`current_deadline`; it crosses thread hops in the caller's copied
  context and the wire as remaining seconds), so
  workers skip shards nobody will wait for and executors convert remaining
  budget into per-shard timeouts.
- :mod:`repro.resilience.chaos` — a seeded, deterministic fault-injection
  harness (:class:`FaultPlan` / :class:`FaultSpec`) that the worker,
  executor, peering, and gossip layers consult at named sites, so the
  fault paths above are drivable from tests and ``repro-worker
  --chaos-plan`` without ad-hoc hooks.

Everything here is dependency-free (stdlib only) and imports nothing from
the engine/service layers, so any layer may use it without cycles.  The
package-wide invariant the consumers must preserve: fault handling may
change *where and when* a shard runs, never *what it computes* — any
schedule that runs every shard exactly once yields a bit-identical report.
"""

from repro.resilience.breaker import BreakerRegistry, CircuitBreaker
from repro.resilience.chaos import FaultPlan, FaultSpec
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.retry import RetryBudget, RetryPolicy

__all__ = [
    "BreakerRegistry",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "RetryBudget",
    "RetryPolicy",
    "current_deadline",
    "deadline_scope",
]
