"""Request tracing: ID hygiene, thread-hop capture, and the wire leg.

The load-bearing test boots a loopback ``WorkerServer`` and checks the
trace ID survives the full path — contextvar -> executor lane thread ->
shard meta -> worker-side scope — so one ID really does correlate
a request with its shards in worker logs.
"""

import pytest

from repro.gateway.tracing import (
    MAX_TRACE_ID_LENGTH,
    current_trace_id,
    new_trace_id,
    sanitize_trace_id,
    trace_scope,
)
from repro.service._testing import trace_probe_shard
from repro.service.executor import RemoteExecutor
from repro.service.worker import WorkerServer

pytestmark = pytest.mark.gateway


class TestTraceIds:
    def test_new_ids_are_unique_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32
        int(a, 16)  # raises if not hex

    def test_sanitize_keeps_clean_caller_ids(self):
        assert sanitize_trace_id("req-123/abc") == "req-123/abc"

    @pytest.mark.parametrize("bad", [
        None, "", "has space", "tab\there", "newline\n", 42,
        "x" * (MAX_TRACE_ID_LENGTH + 1), "café",
    ])
    def test_sanitize_replaces_unsafe_ids(self, bad):
        fresh = sanitize_trace_id(bad)
        assert fresh != bad
        assert len(fresh) == 32

    def test_scope_sets_and_restores(self):
        assert current_trace_id() is None
        with trace_scope("outer"):
            assert current_trace_id() == "outer"
            with trace_scope("inner"):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None


class TestTraceOnWire:
    def test_trace_id_reaches_worker_shards(self):
        with WorkerServer() as worker:
            executor = RemoteExecutor([worker.address], timeout=30.0)
            with trace_scope("trace-wire-1"):
                results = executor.run_shards(
                    trace_probe_shard, list(range(4))
                )
            assert results == [(i, "trace-wire-1") for i in range(4)]
            # The worker recorded the ID too (the log-correlation side).
            assert "trace-wire-1" in worker.seen_trace_ids

    def test_untraced_dispatch_ships_no_trace(self):
        with WorkerServer() as worker:
            executor = RemoteExecutor([worker.address], timeout=30.0)
            results = executor.run_shards(trace_probe_shard, [0, 1])
            assert results == [(0, None), (1, None)]
            assert len(worker.seen_trace_ids) == 0

    def test_shard_message_meta_carries_trace_id(self):
        message = RemoteExecutor._shard_message(
            trace_probe_shard, "task", None, None, "tid-7"
        )
        assert message[4] == {"trace_id": "tid-7"}
