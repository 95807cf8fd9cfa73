"""The asyncio HTTP/1.1 edge server — stdlib only, schema'd, multi-tenant.

:class:`GatewayServer` puts a safe front door on a
:class:`~repro.service.scheduler.SearchService`:

====================  ======================================================
``POST /v1/search``   one validated search -> schema'd JSON report
``POST /v1/batch``    batched search (``targets`` array or all addresses)
``GET  /v1/methods``  the live method registry
``GET  /healthz``     liveness (``200 ok`` / ``503 draining``)
``GET  /stats``       the full JSON-safe service/cluster stats snapshot
``GET  /metrics``     Prometheus text exposition (edge + service bridge)
====================  ======================================================

Status mapping (the service's failure vocabulary, translated to HTTP):
tenant quota or service backpressure -> **429** (with ``Retry-After``),
request deadline -> **504**, a dead worker fleet
(:class:`~repro.service.executor.WorkerUnavailable`) -> **503**, schema or
engine validation -> **400** with field-level errors, unknown API key ->
**401**.  Every reply carries the request's trace ID in the
``X-Request-ID`` header and the body envelope; the same ID rides the shard
frames to the workers (:mod:`repro.gateway.tracing`).

The HTTP layer is intentionally minimal — request line + headers + a
``Content-Length`` body over asyncio streams, keep-alive connections,
bounded header/body sizes, no TLS (terminate TLS in front) — because the
edge contract that matters is the *schema*, not transport feature count.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro.gateway import schema as _schema
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.tenancy import (
    API_KEY_HEADER,
    AdmissionDenied,
    TenantTable,
)
from repro.gateway.tracing import (
    TRACE_HEADER,
    sanitize_trace_id,
    trace_scope,
)
from repro.observability.spans import SpanRecorder, recording_scope, span
from repro.util.jsonsafe import json_safe

__all__ = ["GatewayServer", "DEFAULT_HTTP_PORT"]

log = logging.getLogger("repro.gateway.http")

DEFAULT_HTTP_PORT = 7780

#: Bounds a hostile peer cannot push past: request line + headers, and body.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpError(Exception):
    """An HTTP-layer rejection raised before (or instead of) routing."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class GatewayServer:
    """Asyncio HTTP edge over one :class:`SearchService`.

    Args:
        service: the admission/caching scheduler requests execute on.
        host / port: bind address (port 0 picks a free one).
        tenants: per-tenant admission table (``None`` = one open anonymous
            tenant — see :mod:`repro.gateway.tenancy`).
        metrics: the :class:`~repro.gateway.metrics.GatewayMetrics` bundle
            (``None`` constructs a private one).
        registry: optional :class:`~repro.service.registry.WorkerRegistry`
            whose fleet shows up in ``/stats`` and ``/metrics``.
        cluster: optional :class:`~repro.cluster.ClusterCoordinator` whose
            status shows up in ``/stats`` and ``/metrics``.
        tracing: record a span tree per submit request into the service's
            :class:`~repro.observability.TraceCollector` (served by
            ``GET /v1/trace/{id}``) and feed the per-stage latency
            histogram.  ``False`` turns the span layer into no-ops — the
            bench's tracing-off baseline.
        slow_threshold: seconds; a traced request whose root span exceeds
            it is logged as one structured ``slow-request`` line carrying
            the full span tree.  ``None`` (default) disables the slow log.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, *,
                 tenants: TenantTable | None = None,
                 metrics: GatewayMetrics | None = None,
                 registry=None, cluster=None, tracing: bool = True,
                 slow_threshold: float | None = None):
        self.service = service
        self.host = host
        self.port = port
        self.tenants = tenants if tenants is not None else TenantTable()
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self.registry = registry
        self.cluster = cluster
        self.tracing = tracing
        self.slow_threshold = slow_threshold
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "GatewayServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        log.info("repro gateway listening on http://%s:%d/", *self.address)
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------- plumbing
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:
                    await self._write_response(
                        writer, exc.status,
                        _schema.encode_error(exc.code, str(exc)),
                        trace_id=None, keep_alive=False,
                    )
                    return
                if parsed is None:  # clean EOF between requests
                    return
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra_headers, trace_id, content_type = \
                    await self._route(method, path, headers, body)
                try:
                    await self._write_response(
                        writer, status, payload, trace_id=trace_id,
                        keep_alive=keep_alive, extra_headers=extra_headers,
                        content_type=content_type,
                    )
                except (ConnectionResetError, BrokenPipeError):
                    return
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One parsed request: ``(method, path, headers, body)`` or ``None``
        at a clean end-of-stream.  Raises :class:`_HttpError` on anything a
        structured reply can still answer."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "invalid-request",
                             "request head exceeds the header bound") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(400, "invalid-request",
                             f"request head of {len(head)} bytes exceeds "
                             f"{MAX_HEADER_BYTES}")
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, path, http_version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "invalid-request",
                             "malformed request line") from None
        if not http_version.startswith("HTTP/1."):
            raise _HttpError(501, "invalid-request",
                             f"unsupported protocol {http_version!r}")
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, "invalid-request",
                                 f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HttpError(501, "invalid-request",
                             "chunked request bodies are not supported")
        body = b""
        if method == "POST":
            length_text = headers.get("content-length")
            if length_text is None:
                raise _HttpError(411, "invalid-request",
                                 "POST requires Content-Length")
            try:
                length = int(length_text)
            except ValueError:
                raise _HttpError(400, "invalid-request",
                                 f"bad Content-Length {length_text!r}") from None
            if length < 0 or length > MAX_BODY_BYTES:
                raise _HttpError(413, "invalid-request",
                                 f"body of {length} bytes exceeds "
                                 f"{MAX_BODY_BYTES}")
            body = await reader.readexactly(length)
        return method, path.split("?", 1)[0], headers, body

    async def _write_response(self, writer, status: int, payload,
                              *, trace_id: str | None, keep_alive: bool,
                              extra_headers: dict | None = None,
                              content_type: str | None = None) -> None:
        if isinstance(payload, (bytes, str)):
            body = payload.encode() if isinstance(payload, str) else payload
            ctype = content_type or "text/plain; charset=utf-8"
        else:
            ctype = _schema.CONTENT_TYPE_JSON
            body = _schema.dumps(payload)
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if trace_id is not None:
            lines.append(f"{TRACE_HEADER}: {trace_id}")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -------------------------------------------------------------- routing
    async def _route(self, method: str, path: str, headers: dict,
                     body: bytes):
        """Dispatch one request; returns
        ``(status, payload, extra_headers, trace_id, content_type)``."""
        trace_id = sanitize_trace_id(headers.get(TRACE_HEADER.lower()))
        if path in ("/v1/search", "/v1/batch"):
            if method != "POST":
                return (405, _schema.encode_error(
                    "method-not-allowed", f"{path} expects POST"),
                    {"Allow": "POST"}, trace_id, None)
            return await self._handle_submit(path, headers, body, trace_id)
        if method != "GET":
            return (405, _schema.encode_error(
                "method-not-allowed", f"{path} expects GET"),
                {"Allow": "GET"}, trace_id, None)
        if path == "/healthz":
            draining = bool(getattr(self.service, "draining", False))
            status = 503 if draining else 200
            return (status, {"status": "draining" if draining else "ok"},
                    {}, trace_id, None)
        if path == "/v1/methods":
            return (200, _schema.encode_methods(), {}, trace_id, None)
        if path.startswith("/v1/trace/"):
            return self._handle_trace(path[len("/v1/trace/"):], trace_id)
        if path == "/stats":
            return (200, json_safe(self._stats()), {}, trace_id, None)
        if path == "/metrics":
            text = self.metrics.render(self._stats())
            return (200, text, {}, trace_id,
                    "text/plain; version=0.0.4; charset=utf-8")
        return (404, _schema.encode_error("not-found", f"no route {path!r}"),
                {}, trace_id, None)

    def _stats(self) -> dict:
        """The service snapshot enriched with fleet/cluster/tenant state."""
        stats = self.service.stats_snapshot()
        if self.registry is not None:
            stats["worker_registry"] = self.registry.stats()
        if self.cluster is not None:
            stats["cluster"] = self.cluster.status()
        stats["tenants"] = self.tenants.stats()
        return stats

    # --------------------------------------------------------------- traces
    def _handle_trace(self, requested: str, trace_id: str):
        """``GET /v1/trace/{id}``: the stitched span tree of a past request."""
        collector = getattr(self.service, "trace_collector", None)
        if collector is None or not requested:
            return (404, _schema.encode_error(
                "not-found", "tracing is not available on this service"),
                {}, trace_id, None)
        spans = collector.get(requested)
        if spans is None:
            return (404, _schema.encode_error(
                "not-found",
                f"no trace {requested!r} (unknown, untraced, or evicted)"),
                {}, trace_id, None)
        return (200, {
            "schema_version": _schema.SCHEMA_VERSION,
            "kind": "trace",
            "trace_id": requested,
            "spans": [s.to_dict() for s in spans],
        }, {}, trace_id, None)

    # --------------------------------------------------------------- submit
    async def _handle_submit(self, path: str, headers: dict, body: bytes,
                             trace_id: str):
        """Submit wrapper: brackets the real handler in the request's root
        span (the ambient recorder flows through the whole asyncio/pool
        path), then flushes the finished tree to the collector, the
        per-stage histogram, and — past ``slow_threshold`` — the slow log.
        """
        recorder = SpanRecorder(trace_id) if self.tracing else None
        with recording_scope(recorder):
            with span("gateway", route=path) as root:
                response = await self._submit_inner(
                    path, headers, body, trace_id
                )
                root.attrs["status"] = response[0]
        if recorder is not None:
            self._flush_trace(recorder, trace_id, root)
        return response

    def _flush_trace(self, recorder: SpanRecorder, trace_id: str,
                     root) -> None:
        spans = recorder.drain()
        if not spans:
            return
        collector = getattr(self.service, "trace_collector", None)
        if collector is not None:
            collector.record(trace_id, spans)
        for s in spans:
            self.metrics.stage_seconds.observe(s.duration_s, stage=s.name)
        if self.slow_threshold is not None \
                and root.duration_s > self.slow_threshold:
            # One structured line with the whole tree: grep-able in plain
            # logs, machine-readable under --log-format json.
            log.warning(
                "slow-request trace=%s duration_ms=%.1f threshold_ms=%.1f "
                "spans=%s",
                trace_id, root.duration_s * 1e3, self.slow_threshold * 1e3,
                json.dumps([s.to_dict() for s in spans], default=str),
                extra={"trace_id": trace_id,
                       "duration_ms": root.duration_s * 1e3},
            )

    async def _submit_inner(self, path: str, headers: dict, body: bytes,
                            trace_id: str):
        from repro.resilience import DeadlineExceeded
        from repro.service.executor import WorkerUnavailable
        from repro.service.scheduler import ServiceOverloaded

        batch = path == "/v1/batch"
        started = time.monotonic()
        tenant_name = "-"
        method_name = "-"

        def finish(status, payload, extra=None, *, outcome):
            self.metrics.observe(
                route=path, tenant=tenant_name, method=method_name,
                outcome=outcome, seconds=time.monotonic() - started,
            )
            log.info("%s %d %s trace=%s tenant=%s %.1fms", path, status,
                     outcome, trace_id, tenant_name,
                     (time.monotonic() - started) * 1e3)
            return (status, payload, extra or {}, trace_id, None)

        try:
            tenant = self.tenants.resolve(
                headers.get(API_KEY_HEADER.lower())
            )
            tenant_name = tenant.tenant.name
            with span("gateway.parse"):
                decoded = _schema.decode_submit(_schema.loads(body),
                                                batch=batch)
            method_name = decoded.request.method
            with span("tenant.admit", tenant=tenant_name):
                tenant.admit()
        except AdmissionDenied as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = str(max(1, round(exc.retry_after)))
            outcome = "unauthorized" if exc.status == 401 else "rate-limited"
            return finish(
                exc.status,
                _schema.encode_error(exc.code, str(exc),
                                     retry_after=exc.retry_after),
                extra, outcome=outcome,
            )
        except _schema.SchemaError as exc:
            return finish(
                400,
                _schema.encode_error("invalid-request", "validation failed",
                                     errors=exc.errors),
                outcome="invalid",
            )

        try:
            with trace_scope(trace_id):
                report = await self.service.submit(
                    decoded.request,
                    targets=decoded.targets,
                    batch=decoded.batch,
                    timeout=decoded.timeout,
                    priority=tenant.tenant.priority,
                )
            reply = _schema.encode_report(report)
            reply["trace_id"] = trace_id
            return finish(200, reply, outcome="ok")
        except ServiceOverloaded as exc:
            return finish(
                429,
                _schema.encode_error("overloaded", str(exc), retry_after=1.0),
                {"Retry-After": "1"}, outcome="overloaded",
            )
        except (DeadlineExceeded, asyncio.TimeoutError, TimeoutError):
            return finish(
                504,
                _schema.encode_error("deadline", "request deadline elapsed"),
                outcome="deadline",
            )
        except WorkerUnavailable as exc:
            return finish(
                503,
                _schema.encode_error("unavailable", str(exc), retry_after=5.0),
                {"Retry-After": "5"}, outcome="unavailable",
            )
        except ValueError as exc:
            # Engine-level dispatch validation (method/backend mismatch,
            # missing target, geometry the registry rejects).
            return finish(
                400,
                _schema.encode_error("invalid-request", str(exc)),
                outcome="invalid",
            )
        except Exception as exc:
            log.exception("gateway request failed trace=%s", trace_id)
            return finish(
                500,
                _schema.encode_error("internal",
                                     f"{type(exc).__name__}: {exc}"),
                outcome="error",
            )
        finally:
            tenant.release()
