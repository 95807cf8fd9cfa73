"""Planner routing for the engine tier: `wants`/`engine` resolution, the
auto-routing opt-in, forced-tier errors, cache-fingerprint structure, the
gateway's engine-aware bounds, and the end-to-end path a huge-N
probability request takes (schema -> service -> analytic tier -> reply
envelope) without ever touching a statevector."""

import asyncio
import json

import numpy as np
import pytest

from repro.analytic import (
    AnalyticUnsupported,
    register_builtin_models,
    unregister_model,
)
from repro.engine import SearchEngine, SearchRequest, route
from repro.engine.request import ENGINE_VALUES, WANTS_VALUES

pytestmark = pytest.mark.analytic

ENGINE = SearchEngine()


def _request(**kw):
    kw.setdefault("n_items", 64)
    kw.setdefault("n_blocks", 8)
    kw.setdefault("method", "grk")
    return SearchRequest(**kw)


class TestRequestFields:
    def test_wants_and_engine_default_and_validate(self):
        request = _request()
        assert request.wants == "report"
        assert request.engine == "auto"
        with pytest.raises(ValueError, match="wants"):
            _request(wants="vibes")
        with pytest.raises(ValueError, match="engine"):
            _request(engine="warp")

    def test_values_are_exported(self):
        assert "probability" in WANTS_VALUES
        assert set(ENGINE_VALUES) == {"auto", "analytic", "simulate"}

    def test_fields_round_trip(self):
        request = _request(wants="probability", engine="analytic")
        fields = request.to_fields()
        assert fields["wants"] == "probability"
        assert fields["engine"] == "analytic"


class TestTierResolution:
    def test_default_request_simulates(self):
        assert route(_request()).tier == "simulate"

    def test_probability_auto_routes_analytic(self):
        request = _request(wants="probability")
        assert route(request).tier == "analytic"

    def test_explicit_simulate_always_simulates(self):
        request = _request(wants="probability", engine="simulate")
        assert route(request).tier == "simulate"

    def test_trace_needs_the_statevector(self):
        auto = _request(wants="probability", trace=True)
        assert route(auto).tier == "simulate"
        with pytest.raises(AnalyticUnsupported, match="trace"):
            route(_request(engine="analytic", trace=True))

    def test_amplitudes_and_samples_need_the_statevector(self):
        for wants in ("amplitudes", "samples"):
            assert route(_request(wants=wants)).tier == "simulate"
            with pytest.raises(AnalyticUnsupported, match="statevector"):
                route(_request(wants=wants, engine="analytic"))

    def test_unmodelled_method_auto_falls_through_forced_raises(self):
        unregister_model("grover-full")
        try:
            request = _request(n_blocks=1, method="grover-full",
                               wants="probability")
            assert route(request).tier == "simulate"
            with pytest.raises(AnalyticUnsupported, match="no analytic model"):
                route(request.replace(engine="analytic"))
        finally:
            register_builtin_models(replace=True)

    def test_failed_check_auto_falls_through(self):
        # An option the model has no closed form for: auto quietly
        # simulates, forced analytic explains.
        request = _request(wants="probability",
                           options={"mystery_knob": 1})
        assert route(request).tier == "simulate"
        with pytest.raises(AnalyticUnsupported, match="mystery_knob"):
            route(request.replace(engine="analytic"))


class TestEngineRouting:
    def test_auto_probability_returns_analytic_report(self):
        report = ENGINE.search(_request(wants="probability", target=5))
        assert report.backend == "analytic"
        assert report.schedule["engine"] == "analytic"
        assert report.schedule["regime"] == "exact"

    def test_default_request_still_simulates(self):
        report = ENGINE.search(_request(target=5))
        assert report.backend != "analytic"
        assert "engine" not in report.schedule

    def test_forced_analytic_small_n_equals_auto(self):
        forced = ENGINE.search(_request(engine="analytic", target=5))
        auto = ENGINE.search(_request(wants="probability", target=5))
        assert forced.success_probability == auto.success_probability
        assert forced.queries == auto.queries

    def test_huge_n_routes_without_allocating_state(self):
        n = 1 << 40
        report = ENGINE.search(
            _request(n_items=n, n_blocks=1 << 10, wants="probability",
                     target=12345)
        )
        assert report.backend == "analytic"
        assert report.n_items == n
        assert report.success_probability > 0.999
        assert report.block_guess == 12345 // (n >> 10)

    def test_batch_routes_and_respects_all_targets_bound(self):
        n = 1 << 40
        request = _request(n_items=n, n_blocks=16, wants="probability")
        report = ENGINE.search_batch(request, targets=[0, 5, n - 1])
        assert report.execution == {"engine": "analytic", "n_shards": 0}
        assert report.n_rows == 3
        with pytest.raises(AnalyticUnsupported, match="explicit targets"):
            ENGINE.search_batch(request, None)

    def test_analytic_eval_span_is_recorded(self):
        from repro.observability.spans import SpanRecorder, recording_scope

        recorder = SpanRecorder(trace_id="t-analytic")
        with recording_scope(recorder):
            ENGINE.search(_request(n_items=1 << 30, n_blocks=8,
                                   wants="probability", target=7))
        spans = {s.name: s for s in recorder.snapshot()}
        assert "analytic.eval" in spans
        attrs = spans["analytic.eval"].attrs
        assert attrs["method"] == "grk"
        assert attrs["regime"] == "exact"
        assert attrs["answer_kind"] == "exact"
        assert attrs["n_items"] == 1 << 30

        recorder = SpanRecorder(trace_id="t-analytic-batch")
        with recording_scope(recorder):
            ENGINE.search_batch(_request(wants="probability"),
                                targets=[0, 9, 63])
        [batch] = [s for s in recorder.snapshot() if s.name == "analytic.eval"]
        assert {key: batch.attrs[key] for key in
                ("method", "rows", "regime", "n_items")} == {
            "method": "grk", "rows": 3, "regime": "exact", "n_items": 64}

    def test_batch_refusal_auto_falls_through_forced_raises(self):
        # A model may refuse at evaluation time (a phase solve that does
        # not converge); a batch then behaves as a single call does.
        import dataclasses

        from repro.analytic import get_model, register_model

        def refuse(request, targets):
            raise AnalyticUnsupported("no closed form for this batch")

        register_model(dataclasses.replace(get_model("grk"),
                                           evaluate_batch=refuse),
                       replace=True)
        try:
            auto = ENGINE.search_batch(_request(wants="probability"),
                                       targets=[0, 9])
            assert auto.backend != "analytic"
            assert auto.n_rows == 2
            with pytest.raises(AnalyticUnsupported, match="no closed form"):
                ENGINE.search_batch(_request(engine="analytic"),
                                    targets=[0, 9])
        finally:
            register_builtin_models(replace=True)


class TestCacheFingerprint:
    def test_tier_is_structural(self):
        from repro.service.cache import request_fingerprint

        analytic = request_fingerprint(_request(wants="probability", target=5))
        simulated = request_fingerprint(_request(wants="probability",
                                                 engine="simulate", target=5))
        assert analytic != simulated

    def test_forced_and_auto_share_the_analytic_entry(self):
        from repro.service.cache import request_fingerprint

        auto = request_fingerprint(_request(wants="probability", target=5))
        forced = request_fingerprint(_request(engine="analytic",
                                              wants="probability", target=5))
        assert auto == forced

    def test_execution_policy_normalises_away_on_the_analytic_tier(self):
        from repro.kernels import ExecutionPolicy
        from repro.service.cache import request_fingerprint

        base = _request(wants="probability", target=5)
        narrow = base.replace(policy=ExecutionPolicy(dtype="complex64"))
        assert request_fingerprint(base) == request_fingerprint(narrow)


class TestGatewaySchema:
    def test_huge_n_probability_request_is_admitted(self):
        from repro.gateway.schema import decode_submit

        decoded = decode_submit({
            "n_items": 1 << 40, "n_blocks": 16,
            "wants": "probability", "target": 12345,
        })
        assert decoded.request.engine == "auto"
        assert route(decoded.request).tier == "analytic"

    def test_simulation_bound_400_names_the_escape_hatch(self):
        from repro.gateway.schema import SchemaError, decode_submit

        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 1 << 40, "n_blocks": 16})
        [entry] = [e for e in err.value.errors if e["field"] == "n_items"]
        assert '"engine": "analytic"' in entry["message"]

    def test_analytic_bound_is_two_to_the_sixty_three(self):
        from repro.gateway.schema import SchemaError, decode_submit

        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 1 << 70, "n_blocks": 2,
                           "engine": "analytic", "wants": "probability"})
        [entry] = [e for e in err.value.errors if e["field"] == "n_items"]
        assert "analytic-tier bound" in entry["message"]

    def test_forced_analytic_without_model_is_a_field_error(self):
        from repro.gateway.schema import SchemaError, decode_submit

        unregister_model("classical")
        try:
            with pytest.raises(SchemaError) as err:
                decode_submit({"n_items": 64, "n_blocks": 8,
                               "method": "classical", "engine": "analytic"})
            fields = {e["field"] for e in err.value.errors}
            assert "engine" in fields
        finally:
            register_builtin_models(replace=True)

    def test_bad_wants_and_engine_values_rejected(self):
        from repro.gateway.schema import SchemaError, decode_submit

        with pytest.raises(SchemaError) as err:
            decode_submit({"n_items": 64, "n_blocks": 8,
                           "wants": "vibes", "engine": "warp"})
        fields = {e["field"] for e in err.value.errors}
        assert {"wants", "engine"} <= fields

    def test_methods_reply_carries_the_analytic_column(self):
        from repro.gateway.schema import encode_methods

        rows = {m["name"]: m for m in encode_methods()["methods"]}
        assert rows["grk"]["analytic"]["regime"] == "exact"
        assert rows["grk"]["analytic"]["max_n_items"] == 1 << 63
        json.dumps(rows)  # the whole table must serialise


class TestServiceEndToEnd:
    """decode -> SearchService -> analytic tier -> reply envelope, at an N
    no simulator could represent — the acceptance path, minus the socket
    (tests/gateway/test_http.py drives the same request over live HTTP)."""

    def test_submit_analytic_and_cache_hit(self):
        from repro.gateway.schema import decode_submit, encode_report
        from repro.service.scheduler import SearchService

        payload = {
            "n_items": 1 << 40, "n_blocks": 16,
            "wants": "probability", "target": 12345, "seed": 1,
        }

        async def main():
            decoded = decode_submit(payload)
            async with SearchService(max_workers=1) as service:
                first = await service.submit(decoded.request)
                second = await service.submit(decoded.request)
                return first, second, service.stats.cache_hits

        first, second, cache_hits = asyncio.run(main())
        assert first.backend == "analytic"
        assert first.schedule["engine"] == "analytic"
        assert cache_hits == 1
        assert second is first  # served from the TTL cache

        body = encode_report(first)
        assert body["kind"] == "search"
        assert body["n_items"] == 1 << 40
        assert body["schedule"]["engine"] == "analytic"
        assert body["success_probability"] > 0.999
        json.dumps(body)  # strict-JSON clean at 2**40

    def test_simulate_and_analytic_do_not_share_cache_entries(self):
        from repro.service.scheduler import SearchService

        async def main():
            async with SearchService(max_workers=1) as service:
                ana = await service.submit(
                    _request(wants="probability", target=5))
                sim = await service.submit(
                    _request(wants="probability", engine="simulate",
                             target=5))
                return ana, sim, service.stats.cache_hits

        ana, sim, cache_hits = asyncio.run(main())
        assert cache_hits == 0
        assert ana.backend == "analytic"
        assert sim.backend != "analytic"
        # Same physics from both tiers — the cross-validation contract,
        # re-checked through the serving stack.
        assert ana.success_probability == pytest.approx(
            sim.success_probability, abs=1e-9
        )
