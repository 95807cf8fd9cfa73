"""An unsolvable phase geometry is the client's error: a counted 400.

(16, 4) has no sure-success phases.  The engine refuses it with
:class:`~repro.core.plans.UnsolvablePlan`, a ``ValueError``, so the edge
answers ``invalid-request`` rather than a 500, first time and on repeat.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.gateway.http import GatewayServer
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.schema import SCHEMA_VERSION
from repro.service.scheduler import SearchService

pytestmark = pytest.mark.gateway


def _fetch(url, body=None):
    request = urllib.request.Request(
        url, data=body, method="POST" if body is not None else "GET"
    )
    request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


@pytest.mark.parametrize("path, extra", [
    ("/v1/search", {"target": 0}),
    ("/v1/batch", {"targets": [0, 5, 15]}),
])
def test_unsolvable_geometry_is_a_counted_400(parse_prometheus, path, extra):
    body = json.dumps({
        "schema_version": SCHEMA_VERSION, "n_items": 16, "n_blocks": 4,
        "method": "grk-sure-success", "wants": "probability", **extra,
    }).encode()

    async def main():
        metrics = GatewayMetrics()
        async with SearchService(max_workers=2) as service:
            gateway = GatewayServer(service, port=0, metrics=metrics)
            await gateway.start()
            try:
                host, port = gateway.address
                base = f"http://{host}:{port}"
                replies = [await asyncio.to_thread(_fetch, base + path, body)
                           for _ in range(2)]
                _, text = await asyncio.to_thread(_fetch, base + "/metrics")
            finally:
                await gateway.stop()
        return replies, text.decode()

    replies, text = asyncio.run(main())
    for status, reply in replies:
        doc = json.loads(reply)
        assert status == 400, doc
        assert doc["error"] == "invalid-request"
        assert "could not solve sure-success phases" in doc["message"]
    _, samples = parse_prometheus(text)
    outcomes = {s[1]["outcome"]: s[2] for s in samples
                if s[0] == "repro_gateway_requests_total"}
    assert outcomes == {"invalid": 2}
