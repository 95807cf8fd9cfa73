"""Tracing under faults (``pytest -m chaos``).

The trace must tell the truth when things go wrong: retried dispatch
attempts show up as sibling ``shard.attempt`` spans under one trace ID,
and breaker-quarantined workers leave a ``shard.breaker_open`` marker.
"""

import socket

import pytest

from repro.gateway.tracing import trace_scope
from repro.observability.spans import SpanRecorder, recording_scope
from repro.resilience import BreakerRegistry, FaultPlan, FaultSpec, RetryPolicy
from repro.service.executor import RemoteExecutor, WorkerUnavailable
from repro.service.worker import WorkerServer

pytestmark = [pytest.mark.chaos, pytest.mark.usefixtures("fake_shard")]


def _traced_run(executor, tasks, trace_id="trace-chaos"):
    recorder = SpanRecorder(trace_id)
    with trace_scope(trace_id), recording_scope(recorder):
        results = executor.run_shards(tasks)
    return results, recorder.drain()


class TestRetriesAreSiblingsInTheTrace:
    def test_refused_dials_leave_error_attempts_plus_a_success(self):
        refuse_plan = FaultPlan(
            [FaultSpec(site="executor.connect", kind="refuse", count=2)],
            seed=5,
        )
        with WorkerServer() as w:
            ex = RemoteExecutor(
                [w.address], chaos=refuse_plan,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01,
                                  max_delay=0.05),
            )
            results, spans = _traced_run(ex, [1, 2, 3])
        assert results == [2, 4, 6]
        assert refuse_plan.fired("executor.connect") == 2

        assert all(s.trace_id == "trace-chaos" for s in spans)
        attempts = [s for s in spans if s.name == "shard.attempt"]
        failed = [s for s in attempts if s.status == "error"]
        assert len(failed) == 2
        for s in failed:
            assert s.attrs["outcome"].startswith("transport-failure:")
            assert "backoff_s" in s.attrs
        # The retried shard's attempts are distinct sibling spans under
        # one dispatch parent, distinguished by the attempt counter.
        (dispatch,) = [s for s in spans if s.name == "dispatch"]
        retried_shard = failed[0].attrs["shard"]
        shard_attempts = sorted(
            (s.attrs["attempt"] for s in attempts
             if s.attrs["shard"] == retried_shard),
        )
        assert len(shard_attempts) >= 2
        assert len(set(shard_attempts)) == len(shard_attempts)
        assert all(s.parent_id == dispatch.span_id for s in attempts)
        # Every successful attempt carries the wire leg and the worker's
        # own compute span, stitched across the wire.
        assert any(s.name == "wire.roundtrip" for s in spans)
        computes = [s for s in spans if s.name == "worker.compute"]
        assert len(computes) == 3
        attempt_ids = {s.span_id for s in attempts}
        assert all(c.parent_id in attempt_ids for c in computes)

    def test_worker_crash_mid_shard_is_an_error_attempt(self):
        crash_plan = FaultPlan.worker_crash(1, seed=11)
        with WorkerServer(chaos=crash_plan) as dying, \
                WorkerServer() as survivor:
            ex = RemoteExecutor(
                [dying.address, survivor.address],
                retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                  max_delay=0.05),
            )
            results, spans = _traced_run(ex, [5, 6])
        assert results == [10, 12]
        assert crash_plan.fired("worker.shard") == 1
        failed = [s for s in spans
                  if s.name == "shard.attempt" and s.status == "error"]
        assert len(failed) >= 1
        done = [s for s in spans if s.name == "shard.attempt"
                and s.attrs.get("outcome") == "result"]
        assert len(done) == 2


class TestBreakerOpenShowsInTheTrace:
    def test_quarantined_lane_leaves_a_breaker_span(self):
        breakers = BreakerRegistry(failure_threshold=1, reset_timeout=60.0)
        with WorkerServer() as healthy:
            # A dead endpoint whose breaker we trip before the run.
            probe = socket.create_server(("127.0.0.1", 0))
            dead_address = probe.getsockname()[:2]
            probe.close()
            dead_endpoint = f"{dead_address[0]}:{dead_address[1]}"
            breakers.get(dead_endpoint).record_failure()
            assert breakers.state(dead_endpoint) == "open"

            ex = RemoteExecutor(
                [dead_address, healthy.address], breakers=breakers,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  max_delay=0.02),
            )
            results, spans = _traced_run(ex, [1, 2])
        assert results == [2, 4]
        rejected = [s for s in spans if s.name == "shard.breaker_open"]
        assert len(rejected) == 1
        assert rejected[0].attrs["endpoint"] == dead_endpoint
        # The rejection is a child of the same dispatch as the attempts
        # that did the work — one tree tells the whole story.
        (dispatch,) = [s for s in spans if s.name == "dispatch"]
        assert rejected[0].parent_id == dispatch.span_id
        assert rejected[0].trace_id == "trace-chaos"
        assert ex.last_run["breaker_skips"] == [dead_endpoint]

    def test_fleet_with_every_breaker_open_still_leaves_its_spans(self):
        breakers = BreakerRegistry(failure_threshold=1, reset_timeout=60.0)
        probes = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
        dead = [f"127.0.0.1:{p.getsockname()[1]}" for p in probes]
        for p in probes:
            p.close()
        for endpoint in dead:
            breakers.get(endpoint).record_failure()

        ex = RemoteExecutor(dead, breakers=breakers, fallback_local=True)
        results, spans = _traced_run(ex, [1, 2])
        assert results == [2, 4]
        (dispatch,) = [s for s in spans if s.name == "dispatch"
                       and s.attrs["executor"] == "remote"]
        (fallback,) = [s for s in spans if s.name == "dispatch"
                       and s.attrs["executor"] == "local"]
        rejected = [s for s in spans if s.name == "shard.breaker_open"]
        assert [s.attrs["endpoint"] for s in rejected] == dead
        assert all(s.parent_id == dispatch.span_id for s in rejected)
        # The leftover shards ran through the local executor, inside the
        # remote dispatch that gave them up.
        assert fallback.attrs == {"executor": "local", "shards": 2}
        assert fallback.parent_id == dispatch.span_id
        assert ex.last_run["breaker_skips"] == dead
        assert ex.last_run["local_fallback_shards"] == 2

        strict = RemoteExecutor(dead, breakers=breakers)
        with pytest.raises(WorkerUnavailable):
            _traced_run(strict, [1, 2])
        assert strict.last_run["breaker_skips"] == dead
