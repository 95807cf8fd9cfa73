"""Live loopback gateway: routes, error mapping, tenancy, and bit-parity.

Every test boots a real ``GatewayServer`` on an ephemeral port and talks
to it over HTTP with ``urllib`` (run in a thread so the server's event
loop keeps spinning).  The parity test is the acceptance pin: a
``POST /v1/search`` body must encode to the byte-identical report the
engine produces directly.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import SearchEngine, SearchRequest
from repro.gateway.http import GatewayServer
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.schema import SCHEMA_VERSION, encode_report
from repro.gateway.tenancy import Tenant, TenantTable
from repro.service.scheduler import SearchService

pytestmark = pytest.mark.gateway


def run(coro):
    return asyncio.run(coro)


def _fetch(url, *, method="GET", body=None, headers=None):
    """Blocking HTTP call; returns (status, headers-dict, body-bytes)."""
    request = urllib.request.Request(url, data=body, method=method)
    request.add_header("Content-Type", "application/json")
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


async def fetch(url, **kwargs):
    return await asyncio.to_thread(_fetch, url, **kwargs)


class gateway_stack:
    """Async context manager: SearchService + GatewayServer on loopback."""

    def __init__(self, **gateway_kwargs):
        self._kwargs = gateway_kwargs

    async def __aenter__(self):
        self.service = SearchService(max_workers=2)
        await self.service.__aenter__()
        self.gateway = GatewayServer(self.service, port=0, **self._kwargs)
        await self.gateway.start()
        host, port = self.gateway.address
        self.base = f"http://{host}:{port}"
        return self

    async def __aexit__(self, *exc):
        await self.gateway.stop()
        await self.service.__aexit__(*exc)


SEARCH_BODY = {
    "schema_version": SCHEMA_VERSION,
    "n_items": 256,
    "n_blocks": 16,
    "target": 37,
    "seed": 7,
}


class TestRoutes:
    def test_healthz_and_draining(self):
        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(stack.base + "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                stack.service.drain()
                status, _, body = await fetch(stack.base + "/healthz")
                assert status == 503
                assert json.loads(body)["status"] == "draining"

        run(main())

    def test_methods_lists_registry(self):
        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(stack.base + "/v1/methods")
                assert status == 200
                doc = json.loads(body)
                assert doc["schema_version"] == SCHEMA_VERSION
                names = {m["name"] for m in doc["methods"]}
                assert "grk" in names

        run(main())

    def test_unknown_route_404_and_bad_method_405(self):
        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(stack.base + "/v1/nothing")
                assert status == 404
                assert json.loads(body)["error"] == "not-found"
                status, headers, body = await fetch(
                    stack.base + "/v1/search", method="GET"
                )
                assert status == 405
                assert headers["Allow"] == "POST"
                assert json.loads(body)["error"] == "method-not-allowed"

        run(main())

    def test_stats_is_json_with_service_keys(self):
        async def main():
            async with gateway_stack() as stack:
                await fetch(stack.base + "/v1/search", method="POST",
                            body=json.dumps(SEARCH_BODY).encode())
                status, _, body = await fetch(stack.base + "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["submitted"] >= 1
                assert "cache" in stats
                assert "tenants" in stats

        run(main())


class TestSearchParity:
    def test_post_search_bit_consistent_with_direct_engine(self):
        async def main():
            async with gateway_stack() as stack:
                status, headers, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(SEARCH_BODY).encode(),
                )
                assert status == 200
                assert headers["Content-Type"].startswith("application/json")
                assert headers["X-Request-ID"]
                return json.loads(body)

        reply = run(main())
        request = SearchRequest(n_items=256, n_blocks=16, target=37, rng=7)
        direct = encode_report(SearchEngine().search(request))
        via_http = dict(reply)
        trace_id = via_http.pop("trace_id")
        assert trace_id  # always present on success
        assert via_http == direct
        # Byte-level: the canonical encodings agree exactly.
        assert (json.dumps(via_http, sort_keys=True)
                == json.dumps(direct, sort_keys=True))

    def test_caller_supplied_request_id_echoes_back(self):
        async def main():
            async with gateway_stack() as stack:
                status, headers, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(SEARCH_BODY).encode(),
                    headers={"X-Request-ID": "caller-trace-9"},
                )
                assert status == 200
                assert headers["X-Request-ID"] == "caller-trace-9"
                assert json.loads(body)["trace_id"] == "caller-trace-9"

        run(main())

    def test_batch_endpoint(self):
        async def main():
            async with gateway_stack() as stack:
                payload = {
                    "schema_version": SCHEMA_VERSION,
                    "n_items": 128,
                    "n_blocks": 8,
                    "targets": [3, 77],
                    "seed": 1,
                }
                status, _, body = await fetch(
                    stack.base + "/v1/batch", method="POST",
                    body=json.dumps(payload).encode(),
                )
                assert status == 200
                doc = json.loads(body)
                assert doc["kind"] == "batch"
                assert doc["targets"] == [3, 77]
                assert len(doc["block_guesses"]) == 2
                assert doc["all_correct"] is True

        run(main())


class TestAnalyticTierOverHttp:
    """The huge-N acceptance path: a probability request at N = 2**40 over
    live HTTP reaches the analytic tier (zero shards, no statevector) and
    its trace shows the ``analytic.eval`` stage."""

    ANALYTIC_BODY = {
        "schema_version": SCHEMA_VERSION,
        "n_items": 1 << 40,
        "n_blocks": 16,
        "wants": "probability",
        "target": 12345,
    }

    def test_two_to_the_forty_probability_request(self):
        async def main():
            async with gateway_stack() as stack:
                status, headers, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(self.ANALYTIC_BODY).encode(),
                )
                assert status == 200, body
                doc = json.loads(body)
                assert doc["backend"] == "analytic"
                assert doc["n_items"] == 1 << 40
                assert doc["schedule"]["engine"] == "analytic"
                assert doc["schedule"]["regime"] == "exact"
                assert doc["success_probability"] > 0.999

                trace_id = headers["X-Request-ID"]
                status, _, body = await fetch(
                    stack.base + f"/v1/trace/{trace_id}"
                )
                assert status == 200, body
                names = {s["name"] for s in json.loads(body)["spans"]}
                assert "analytic.eval" in names

        run(main())

    def test_huge_n_without_probability_is_400_naming_the_hatch(self):
        async def main():
            async with gateway_stack() as stack:
                oversized = dict(self.ANALYTIC_BODY)
                del oversized["wants"]
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(oversized).encode(),
                )
                assert status == 400
                doc = json.loads(body)
                assert doc["error"] == "invalid-request"
                [entry] = [e for e in doc["errors"]
                           if e["field"] == "n_items"]
                assert '"engine": "analytic"' in entry["message"]

        run(main())

    def test_methods_reply_has_analytic_column(self):
        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(stack.base + "/v1/methods")
                assert status == 200
                rows = {m["name"]: m for m in json.loads(body)["methods"]}
                assert rows["grk"]["analytic"]["regime"] == "exact"
                assert rows["grk"]["analytic"]["max_n_items"] == 1 << 63

        run(main())


class TestErrorMapping:
    def test_schema_violation_is_400_with_field_errors(self):
        async def main():
            async with gateway_stack() as stack:
                bad = {"n_items": -5, "dtype": "float16", "method": "nope"}
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(bad).encode(),
                )
                assert status == 400
                doc = json.loads(body)
                assert doc["error"] == "invalid-request"
                fields = {e["field"] for e in doc["errors"]}
                assert {"n_items", "dtype", "method"} <= fields

        run(main())

    def test_non_json_body_is_400(self):
        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=b"\x80\x04not json",
                )
                assert status == 400
                assert json.loads(body)["error"] == "invalid-request"

        run(main())

    def test_json_is_the_only_body_encoding(self):
        async def main():
            async with gateway_stack() as stack:
                # A non-JSON body is a 400, whatever type it declares.
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=b"\x83\xa7n_items\xcd\x01\x00",
                    headers={"Content-Type": "application/x-msgpack"},
                )
                assert status == 400
                assert json.loads(body)["error"] == "invalid-request"
                # Asking for another reply encoding still gets JSON.
                status, headers, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(SEARCH_BODY).encode(),
                    headers={"Accept": "application/x-msgpack"},
                )
                assert status == 200
                assert headers["Content-Type"] == "application/json"
                assert json.loads(body)["kind"] == "search"

        run(main())

    def test_bad_baseline_options_are_400(self):
        # The edge passes any JSON scalar into options; the engine's one
        # option check refuses these in every tier instead of failing with
        # a TypeError (500) or truncating the value.
        cases = [
            ("/v1/search", "grover-full", {"iterations": 2.5}, {}),
            ("/v1/search", "grover-full", {"exact": "false"}, {}),
            ("/v1/search", "naive-blocks", {"left_out_block": "1"}, {}),
            ("/v1/search", "naive-blocks", {"left_out_block": 1.5}, {}),
            ("/v1/search", "naive-blocks", {"iterations": 2.5},
             {"wants": "probability"}),
            ("/v1/search", "naive-blocks", {"left_out_block": 1.5},
             {"wants": "probability", "engine": "analytic"}),
            ("/v1/search", "classical", {"left_out_block": True}, {}),
            ("/v1/batch", "naive-blocks", {"left_out_block": 1.5},
             {"targets": [1, 20, 40]}),
        ]

        async def main():
            async with gateway_stack() as stack:
                for path, method, options, extra in cases:
                    doc = {"schema_version": SCHEMA_VERSION, "n_items": 64,
                           "n_blocks": 4, "method": method,
                           "options": options, **extra}
                    if path == "/v1/search":
                        doc["target"] = 20
                    status, _, body = await fetch(
                        stack.base + path, method="POST",
                        body=json.dumps(doc).encode(),
                    )
                    reply = json.loads(body)
                    assert status == 400, (method, options, reply)
                    assert reply["error"] == "invalid-request"
                    assert f"option {next(iter(options))}=" in reply["message"]

        run(main())


    def test_timeout_beyond_float_range_is_a_counted_400(
            self, parse_prometheus):
        # 10**400 is valid JSON but no float; the decoder reports the
        # field instead of raising past the handler, which would drop the
        # connection without a reply or a metric.
        async def main():
            metrics = GatewayMetrics()
            async with gateway_stack(metrics=metrics) as stack:
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps({**SEARCH_BODY,
                                     "timeout": 10**400}).encode(),
                )
                _, _, text = await fetch(stack.base + "/metrics")
                return status, json.loads(body), text.decode()

        status, doc, text = run(main())
        assert status == 400
        assert [e["field"] for e in doc["errors"]] == ["timeout"]
        _, samples = parse_prometheus(text)
        assert [s[2] for s in samples
                if s[0] == "repro_gateway_requests_total"
                and s[1]["outcome"] == "invalid"] == [1]

    def test_client_timeout_cannot_extend_the_service_deadline(
            self, parse_prometheus):
        # 1e400 is valid JSON that reads as inf.  The service's
        # request_timeout is the ceiling, so a job slower than it still
        # ends in a counted 504, not a 200 after the job finishes.
        class SlowEngine(SearchEngine):
            def search(self, request, database=None):
                time.sleep(0.5)
                return super().search(request, database)

        async def main():
            metrics = GatewayMetrics()
            async with SearchService(SlowEngine(),
                                     request_timeout=0.05) as service:
                gateway = GatewayServer(service, port=0, metrics=metrics)
                await gateway.start()
                try:
                    host, port = gateway.address
                    base = f"http://{host}:{port}"
                    body = json.dumps(SEARCH_BODY)[:-1] + ', "timeout": 1e400}'
                    status, _, reply = await fetch(
                        base + "/v1/search", method="POST",
                        body=body.encode(),
                    )
                    _, _, text = await fetch(base + "/metrics")
                finally:
                    await gateway.stop()
            return status, json.loads(reply), text.decode()

        status, doc, text = run(main())
        assert status == 504
        assert doc["error"] == "deadline"
        _, samples = parse_prometheus(text)
        assert [s[2] for s in samples
                if s[0] == "repro_gateway_requests_total"
                and s[1]["outcome"] == "deadline"] == [1]

    def test_request_that_simulates_gets_the_simulation_bound(
            self, monkeypatch):
        # An option no model covers sends this auto probability request to
        # the simulate tier, where 2**30 amplitudes would take 8 GiB: the
        # edge refuses it before any state is asked for.
        import repro.core.algorithm

        asked = []

        def no_state(*args, **kwargs):
            asked.append(args)
            raise MemoryError("the edge let a 2**30-item state through")

        monkeypatch.setattr(repro.core.algorithm, "uniform_state", no_state)

        async def main():
            async with gateway_stack() as stack:
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps({
                        "n_items": 1 << 30, "n_blocks": 4, "target": 0,
                        "wants": "probability", "options": {"foo": 1},
                    }).encode(),
                )
                return status, json.loads(body)

        status, doc = run(main())
        assert status == 400, doc
        assert [e["field"] for e in doc["errors"]] == ["n_items"]
        assert asked == []


class TestTenancyOverHttp:
    def tenants(self):
        return TenantTable(
            {"limited-key": Tenant(name="limited", rate=0.001, burst=1),
             "free-key": Tenant(name="free")},
            default=None,
        )

    def test_rate_limited_tenant_does_not_affect_another(self):
        async def main():
            async with gateway_stack(tenants=self.tenants()) as stack:
                body = json.dumps(SEARCH_BODY).encode()

                def post(key):
                    return fetch(stack.base + "/v1/search", method="POST",
                                 body=body, headers={"X-API-Key": key})

                status, _, _ = await post("limited-key")
                assert status == 200  # burst token
                status, headers, raw = await post("limited-key")
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                doc = json.loads(raw)
                assert doc["error"] == "rate-limited"
                assert doc["retry_after_s"] > 0
                # The other tenant's traffic is unaffected.
                for _ in range(3):
                    status, _, _ = await post("free-key")
                    assert status == 200

        run(main())

    def test_unknown_key_is_401(self):
        async def main():
            async with gateway_stack(tenants=self.tenants()) as stack:
                status, _, body = await fetch(
                    stack.base + "/v1/search", method="POST",
                    body=json.dumps(SEARCH_BODY).encode(),
                    headers={"X-API-Key": "who-dis"},
                )
                assert status == 401
                assert json.loads(body)["error"] == "unauthorized"

        run(main())


class TestMetricsOverHttp:
    def test_metrics_exposes_per_tenant_counts(self, parse_prometheus):
        async def main():
            metrics = GatewayMetrics()
            tenants = TenantTable(
                {"a-key": Tenant(name="alpha"),
                 "b-key": Tenant(name="beta")},
            )
            async with gateway_stack(tenants=tenants,
                                     metrics=metrics) as stack:
                body = json.dumps(SEARCH_BODY).encode()
                for key, times in (("a-key", 2), ("b-key", 1)):
                    for _ in range(times):
                        status, _, _ = await fetch(
                            stack.base + "/v1/search", method="POST",
                            body=body, headers={"X-API-Key": key},
                        )
                        assert status == 200
                status, headers, text = await fetch(stack.base + "/metrics")
                assert status == 200
                assert headers["Content-Type"].startswith("text/plain")
                return text.decode()

        text = run(main())
        families, samples = parse_prometheus(text)
        assert families["repro_gateway_requests_total"]["type"] == "counter"
        per_tenant = {
            s[1]["tenant"]: s[2]
            for s in samples
            if s[0] == "repro_gateway_requests_total"
            and s[1]["outcome"] == "ok"
        }
        assert per_tenant["alpha"] == 2
        assert per_tenant["beta"] == 1
        # The service bridge rides along on the same scrape.
        assert any(s[0] == "repro_service_stat" for s in samples)
