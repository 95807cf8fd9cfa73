"""The one routing decision: :func:`repro.engine.route`.

The engine runs the route, the service's result cache keys on it and the
gateway bounds the size of every request it says will simulate, so each
of them reads one decision: the method, the backend, the execution policy
on a backend that holds no state, and the engine tier with its checked
analytic model."""

import asyncio
import dataclasses

import pytest

from repro.analytic import (
    AnalyticUnsupported,
    available_models,
    get_model,
    register_builtin_models,
    register_model,
)
from repro.engine import ExecutionPolicy, SearchEngine, SearchRequest, route


def _request(**kw):
    kw.setdefault("n_items", 64)
    kw.setdefault("n_blocks", 4)
    return SearchRequest(**kw)


class TestRoute:
    def test_default_request_simulates_on_the_default_backend(self):
        spec, backend, tier, request, model = route(_request())
        assert (spec.name, backend, tier, model) == (
            "grk", "kernels", "simulate", None)
        assert request == _request()

    def test_analytic_route_carries_the_checked_model(self):
        routed = route(_request(wants="probability"))
        assert routed.tier == "analytic"
        assert routed.model is get_model("grk")

    def test_forced_simulate_never_checks_a_model(self):
        routed = route(_request(wants="probability", engine="simulate"))
        assert (routed.tier, routed.model) == ("simulate", None)

    def test_unmodelled_option_simulates_under_auto_and_raises_forced(self):
        request = _request(wants="probability", options={"foo": 1})
        assert route(request).tier == "simulate"
        with pytest.raises(AnalyticUnsupported, match="foo"):
            route(request.replace(engine="analytic"))

    def test_policy_normalises_away_on_a_backend_without_state(self):
        narrow = ExecutionPolicy(dtype="complex64")
        classical = route(_request(method="classical", policy=narrow))
        assert classical.request.policy == ExecutionPolicy()
        assert route(_request(policy=narrow)).request.policy == narrow

    @pytest.mark.parametrize("fields, match", [
        ({"method": "nope"}, "unknown method"),
        ({"backend": "warp"}, "does not support backend"),
        ({"n_blocks": 1}, "needs a block structure"),
        ({"method": "classical", "trace": True}, "does not support tracing"),
    ])
    def test_refusals_are_value_errors(self, fields, match):
        with pytest.raises(ValueError, match=match):
            route(_request(**fields))


@pytest.fixture
def checks():
    """Every registered model's check, counted."""
    counted = []

    def counting(check):
        def wrapper(request):
            counted.append(request.method)
            return check(request)
        return wrapper

    for method in available_models():
        model = get_model(method)
        register_model(dataclasses.replace(model, check=counting(model.check)),
                       replace=True)
    try:
        yield counted
    finally:
        register_builtin_models(replace=True)


class TestOneCheckPerDecision:
    @pytest.mark.parametrize("method", ["grk", "grover-full", "classical"])
    def test_an_analytic_call_checks_its_model_once(self, checks, method):
        engine = SearchEngine()
        request = _request(n_items=1 << 20, method=method, target=3,
                           wants="probability")
        assert engine.search(request).backend == "analytic"
        assert len(checks) == 1
        assert engine.search_batch(request, targets=[1, 2]).backend == "analytic"
        assert len(checks) == 2
        forced = request.replace(wants="report", engine="analytic")
        assert engine.search(forced).backend == "analytic"
        assert len(checks) == 3

    def test_a_service_submit_checks_twice(self, checks):
        # Once for the cache key, once for the run.
        from repro.service.scheduler import SearchService

        async def main():
            async with SearchService(max_workers=1) as service:
                return await service.submit(
                    _request(n_items=1 << 20, target=3, wants="probability"))

        assert asyncio.run(main()).backend == "analytic"
        assert len(checks) == 2


class TestAllTargetsBatchBeyondTheListingBound:
    @pytest.mark.parametrize("engine", ["auto", "analytic"])
    def test_refused_on_both_tiers_without_listing_a_target(
            self, monkeypatch, engine):
        # Neither tier can answer without listing all 2**30 targets (8
        # GiB), so "auto" does not fall through to the simulate tier.
        import repro.analytic.engine
        import repro.engine.engine

        listed = []

        def no_listing(targets, n_items):
            listed.append((targets, n_items))
            raise MemoryError(f"listed every target of n_items={n_items}")

        for module in (repro.engine.engine, repro.analytic.engine):
            monkeypatch.setattr(module, "batch_targets", no_listing)
        request = _request(n_items=1 << 30, wants="probability", engine=engine)
        with pytest.raises(AnalyticUnsupported, match="explicit targets"):
            SearchEngine().search_batch(request)
        assert listed == []
