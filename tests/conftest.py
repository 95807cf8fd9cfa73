"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic generator; reseed per test for reproducibility."""
    return np.random.default_rng(20050612)


class ShardCall(NamedTuple):
    """One call of the :func:`fake_shard` double."""

    task: object
    #: The remaining budget of the deadline the shard ran under, or None.
    deadline_s: float | None
    #: The ambient trace ID the shard ran under, or None.
    trace_id: str | None


@pytest.fixture
def fake_shard(monkeypatch):
    """Replace the one shard function with a double that returns its task
    doubled, and return the list of its :class:`ShardCall` records.

    ``LocalExecutor`` and ``WorkerServer`` read
    ``repro.engine.plan.run_shard`` each time a shard runs, so the double
    reaches every shard run in this process: local runs, a remote run's
    local fallback and in-process workers.  A worker started as its own
    process runs real program shards.
    """
    from repro.engine import plan
    from repro.gateway.tracing import current_trace_id
    from repro.resilience import current_deadline

    calls: list[ShardCall] = []

    def run_shard(task):
        deadline = current_deadline()
        calls.append(ShardCall(
            task, None if deadline is None else deadline.remaining(),
            current_trace_id(),
        ))
        return task * 2

    monkeypatch.setattr(plan, "run_shard", run_shard)
    return calls


def random_state(n_items: int, rng: np.random.Generator, complex_: bool = False) -> np.ndarray:
    """A Haar-ish random unit vector (real by default)."""
    vec = rng.standard_normal(n_items)
    if complex_:
        vec = vec + 1j * rng.standard_normal(n_items)
    return vec / np.linalg.norm(vec)


def assert_states_close(a, b, atol: float = 1e-10, up_to_global_phase: bool = False):
    """Elementwise state comparison, optionally modulo a global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    if up_to_global_phase:
        overlap = np.vdot(a, b)
        if abs(overlap) > 1e-14:
            b = b * (overlap / abs(overlap)).conjugate()
    np.testing.assert_allclose(a, b, atol=atol, rtol=0.0)
