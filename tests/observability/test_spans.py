"""Span primitives: no-op fast path, nesting, thread hops, wire dicts."""

import contextvars
import threading

from repro.observability.spans import (
    Span,
    SpanRecorder,
    current_recorder,
    current_span_id,
    new_span_id,
    recording_scope,
    span,
)


class TestNoopFastPath:
    def test_span_without_recorder_is_shared_noop(self):
        assert current_recorder() is None
        first = span("anything", key="value")
        second = span("other")
        # The untraced path allocates nothing per call: one shared object.
        assert first is second

    def test_noop_target_absorbs_writes(self):
        # Call sites write attrs/status unconditionally; with tracing off
        # those writes must vanish, not raise.
        with span("untraced") as target:
            target.attrs["outcome"] = "ok"
            target.status = "error"
            target.anything_else = 1
        assert target.span_id is None
        assert target.status == "ok"  # class attr untouched by the write
        assert target.attrs == {}


class TestRecordingAndNesting:
    def test_parenting_and_order(self):
        recorder = SpanRecorder("tid-1")
        with recording_scope(recorder):
            with span("root") as root:
                assert current_span_id() == root.span_id
                with span("child", k=1) as child:
                    pass
                with span("sibling") as sibling:
                    pass
        spans = {s.name: s for s in recorder.drain()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["sibling"].parent_id == spans["root"].span_id
        assert spans["root"].parent_id is None
        assert spans["child"].attrs == {"k": 1}
        assert all(s.trace_id == "tid-1" for s in spans.values())

    def test_exception_marks_error_status(self):
        recorder = SpanRecorder("tid-2")
        try:
            with recording_scope(recorder), span("failing"):
                raise ValueError("boom")
        except ValueError:
            pass
        (failing,) = recorder.drain()
        assert failing.status == "error"
        assert failing.attrs["error"] == "ValueError"
        assert failing.duration_s >= 0.0

    def test_post_exit_mutation_lands_in_recorded_span(self):
        # The executor classifies replies *after* the attempt span closes;
        # the recorder holds the same object, so late writes must land.
        recorder = SpanRecorder("tid-3")
        with recording_scope(recorder):
            with span("attempt") as att:
                pass
            att.attrs["outcome"] = "result"
            att.status = "error"
        (recorded,) = recorder.drain()
        assert recorded.attrs["outcome"] == "result"
        assert recorded.status == "error"

    def test_scope_restores_previous_state(self):
        recorder = SpanRecorder("tid-4")
        with recording_scope(recorder):
            with span("outer"):
                inner_parent = current_span_id()
            assert current_span_id() is None
            assert inner_parent is not None
        assert current_recorder() is None


class TestThreadHop:
    def test_capture_and_reenter_across_a_thread(self):
        # contextvars do not flow into Thread targets by themselves — the
        # hop starts its work in a copy of the caller's context, as the
        # executor's lanes and the service's pool job do.
        recorder = SpanRecorder("tid-5")
        with recording_scope(recorder):
            with span("dispatch") as dispatch:

                def lane():
                    with span("shard.attempt"):
                        pass

                thread = threading.Thread(
                    target=contextvars.copy_context().run, args=(lane,)
                )
                thread.start()
                thread.join()
        spans = {s.name: s for s in recorder.drain()}
        assert spans["shard.attempt"].parent_id == dispatch.span_id

    def test_recorder_is_thread_safe(self):
        recorder = SpanRecorder("tid-6")

        def worker(i):
            with recording_scope(recorder):
                for _ in range(50):
                    with span(f"w{i}"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(recorder) == 200


class TestWireDicts:
    def test_round_trip(self):
        original = Span(name="s", trace_id="t", parent_id="p",
                        start_s=12.5, duration_s=0.25, status="error",
                        attrs={"shard": 3}, host="h:1")
        restored = Span.from_dict(original.to_dict())
        assert restored == original

    def test_from_dict_ignores_unknown_keys_and_fills_defaults(self):
        # Compatible growth: a newer peer may add keys; older readers must
        # take what they know and default the rest.
        restored = Span.from_dict({"name": "x", "trace_id": "t",
                                   "future_key": object()})
        assert restored.name == "x"
        assert restored.status == "ok"
        assert restored.attrs == {}
        assert restored.span_id  # minted, never empty

    def test_span_ids_are_unique_hex(self):
        ids = {new_span_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 for i in ids)
