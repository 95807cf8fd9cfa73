"""TCP front end for :class:`~repro.service.scheduler.SearchService`.

``repro serve`` binds a :class:`SearchServer`; clients (``repro submit`` or
:func:`submit_remote`) send one frame per request over the shared wire
protocol and read one frame back:

- ``("submit", request, targets, batch, timeout, meta)`` ->
  ``("result", report)`` on success, ``("overloaded", msg)`` when the
  service's admission bound rejects the request (clients should back off
  and retry), ``("timeout", msg)`` when the per-request deadline elapsed,
  or ``("error", msg)`` for anything else; ``meta["trace_id"]`` asks the
  server to record the request's span tree;
- ``("stats",)`` -> ``("stats", snapshot_dict)``;
- ``("ping",)`` -> ``("pong", {})``;
- ``("register", "host:port", meta)`` ->
  ``("registered", {"workers": [...]})`` — a ``repro-worker`` announcing
  itself for shard dispatch; ``meta["backends"]`` lists the worker's
  kernel backends so routing never sends e.g. a ``numba`` shard to a
  numpy-only worker (servers started without a
  :class:`~repro.service.registry.WorkerRegistry` answer
  ``("error", ...)``);
- ``("deregister", "host:port")`` -> ``("deregistered", {...})`` — a
  draining worker withdrawing itself, so routing stops immediately
  instead of waiting out a health-check eviction;
- ``("trace", trace_id)`` -> ``("trace", {...})`` — the stitched span
  tree of a recent traced request;
- ``("gossip", sender, table)`` / ``("cache-peek", key, wait_s)`` /
  ``("cluster-status",)`` — the cluster messages, routed to the attached
  :class:`~repro.cluster.ClusterCoordinator`; servers started without one
  answer ``("error", ...)``.

Registered workers are **health-checked**: a background loop pings each one
(the worker protocol's existing ``("ping",)`` message) every
``health_interval`` seconds and evicts addresses that stop answering, so an
executor reading the registry only ever dispatches to a recently-live
fleet — no static ``--remote-worker`` wiring required.

Connections are persistent: a client may pipeline many submits over one
socket; each is admitted, cached, and bounded independently by the service.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import time

from repro.service.scheduler import SearchService, ServiceOverloaded
from repro.service.wire import (
    ConnectionClosed,
    WireError,
    recv_frame,
    recv_frame_async,
    send_frame,
    send_frame_async,
)

__all__ = ["SearchServer", "submit_remote", "server_stats", "cluster_status",
           "fetch_trace"]

log = logging.getLogger("repro.service.server")

DEFAULT_PORT = 7736


class SearchServer:
    """Asyncio TCP server delegating every request to a *service*.

    Args:
        service: the admission/caching scheduler every submit goes through.
        host / port: bind address (port 0 picks a free one).
        registry: optional :class:`~repro.service.registry.WorkerRegistry`;
            when given, ``register`` frames are accepted and the health
            loop keeps the membership live.
        health_interval: seconds between health-check sweeps.
        health_timeout: per-worker ping deadline within a sweep.
        cluster: optional :class:`~repro.cluster.ClusterCoordinator`; when
            given, the server joins its gossip membership at start and
            routes the cluster messages (``gossip`` / ``cache-peek`` /
            ``cluster-status``) to it.
    """

    def __init__(self, service: SearchService, host: str = "127.0.0.1",
                 port: int = 0, *, registry=None,
                 health_interval: float = 10.0, health_timeout: float = 3.0,
                 cluster=None):
        self.service = service
        self.host = host
        self.port = port
        self.registry = registry
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.cluster = cluster
        self._server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "SearchServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        if self.registry is not None:
            self._health_task = asyncio.create_task(self._health_loop())
        if self.cluster is not None:
            # Bind the advertised address now that the port is known (an
            # address set earlier — --cluster-advertise — wins) and start
            # the gossip loop.
            from repro.service.address import format_address

            host, port = self.address
            self.cluster.attach(format_address(host, port),
                                registry=self.registry,
                                service=self.service)
            await self.cluster.start()
        log.info("repro serve listening on %s:%d", *self.address)
        return self

    async def drain(self, *, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop admitting, let in-flight requests finish
        (bounded by *timeout*), then :meth:`stop`.

        New submits get the ``("overloaded", ...)`` backpressure reply
        while the drain runs, so load balancers and retrying clients move
        to another replica instead of erroring.
        """
        self.service.drain()
        cutoff = time.monotonic() + timeout
        while time.monotonic() < cutoff and self.service.stats.in_flight > 0:
            await asyncio.sleep(0.05)
        await self.stop()

    async def stop(self) -> None:
        if self.cluster is not None:
            await self.cluster.stop()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -------------------------------------------------------- worker health
    async def _ping_worker(self, address: str) -> bool:
        """One liveness probe: connect, send the worker ``ping``, await
        ``pong`` — all inside :attr:`health_timeout`."""
        from repro.service.address import parse_address

        try:
            host, port = parse_address(address)
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=self.health_timeout,
            )
        except (OSError, ValueError, asyncio.TimeoutError):
            return False
        try:
            await asyncio.wait_for(
                send_frame_async(writer, ("ping",)), timeout=self.health_timeout
            )
            reply = await asyncio.wait_for(
                recv_frame_async(reader), timeout=self.health_timeout
            )
            return isinstance(reply, tuple) and bool(reply) and reply[0] == "pong"
        except (OSError, WireError, asyncio.TimeoutError):
            return False
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def check_workers_once(self) -> None:
        """One health sweep: ping every registered worker, evict the dead.

        Probes run concurrently — a rack of dead workers costs one
        ping-timeout per sweep, not one per worker — so the sweep cadence
        stays near :attr:`health_interval` however large the fleet.
        Public so tests (and operators embedding the server) can force a
        sweep instead of waiting out the interval.
        """
        if self.registry is None:
            return
        # Sweep start time: a worker that re-registers while the (slow)
        # pings run must not be evicted on the stale probe result — the
        # probe answered for its dead predecessor, not the fresh process.
        cutoff = time.monotonic()
        addresses = self.registry.snapshot()
        alive = await asyncio.gather(
            *(self._ping_worker(a) for a in addresses)
        )
        for address, ok in zip(addresses, alive):
            if ok:
                self.registry.mark_alive(address)
            elif self.registry.remove_if_stale(address, cutoff):
                log.warning("worker %s failed its health check; evicted", address)
            else:
                log.info("worker %s failed its health check but re-announced "
                         "mid-sweep; kept", address)

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.check_workers_once()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------- handling
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await recv_frame_async(reader)
                except ConnectionClosed:
                    return
                except WireError as exc:
                    await send_frame_async(writer, ("error", str(exc)))
                    return
                await send_frame_async(writer, await self._dispatch(message))
        except (OSError, ConnectionResetError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _dispatch(self, message) -> tuple:
        if not isinstance(message, tuple) or not message:
            return ("error", f"malformed message: {message!r}")
        kind = message[0]
        if kind == "ping":
            return ("pong", {})
        if kind == "stats":
            from repro.util.jsonsafe import json_safe

            stats = self.service.stats_snapshot()
            if self.registry is not None:
                stats["worker_registry"] = self.registry.stats()
            if self.cluster is not None:
                stats["cluster"] = self.cluster.status()
            # JSON-safe end to end: the snapshot feeds `repro stats --json`
            # and the gateway bridge, so no numpy scalars or tuple keys may
            # survive past this point (pinned by the gateway test suite).
            return ("stats", json_safe(stats))
        if kind in ("gossip", "cache-peek", "cluster-status"):
            if self.cluster is None:
                return ("error", "this server is not part of a cluster "
                                 "(start it with repro serve --join)")
            return await self.cluster.dispatch(message)
        if kind in ("register", "deregister"):
            from repro.service.address import parse_address

            if self.registry is None:
                return ("error", "this server does not accept worker "
                                 "registration (no registry configured)")
            arity = 3 if kind == "register" else 2
            shape_error = ("error",
                           f"{kind} message must be ({kind}, 'host:port'"
                           + (", meta" if arity == 3 else "") + ")")
            if len(message) != arity \
                    or (arity == 3 and not isinstance(message[2], dict)):
                return shape_error
            address = message[1]
            try:
                parse_address(str(address))
            except (TypeError, ValueError):
                return shape_error
            if kind == "deregister":
                removed = self.registry.remove(str(address))
                log.info("worker %s deregistered%s", address,
                         "" if removed else " (was not registered)")
                return ("deregistered", {"workers": self.registry.snapshot(),
                                         "removed": removed})
            meta = message[2]
            backends = meta.get("backends")
            if backends is not None and not (
                isinstance(backends, (list, tuple))
                and all(isinstance(b, str) for b in backends)
            ):
                return ("error", "register meta 'backends' must be a "
                                 "list of backend names")
            fresh = self.registry.add(
                str(address), backends=backends,
                calibrated=meta.get("calibrated"),
            )
            log.info("worker %s %s (backends: %s)", address,
                     "registered" if fresh else "re-registered",
                     ",".join(backends) if backends else "numpy")
            return ("registered", {"workers": self.registry.snapshot()})
        if kind == "trace":
            # ("trace", trace_id) -> the stitched span tree of a recent
            # request (wire-path counterpart of GET /v1/trace/{id}).
            collector = getattr(self.service, "trace_collector", None)
            if len(message) != 2 or not isinstance(message[1], str):
                return ("error", "trace message must be (trace, trace_id)")
            spans = collector.get(message[1]) if collector is not None else None
            if spans is None:
                return ("error",
                        f"no trace {message[1]!r} (unknown, untraced, or "
                        f"evicted)")
            return ("trace", {"trace_id": message[1],
                              "spans": [s.to_dict() for s in spans]})
        if kind == "submit":
            if len(message) != 6 or not isinstance(message[5], dict):
                return ("error",
                        "submit message must be (submit, request, targets, "
                        "batch, timeout, meta)")
            _, request, targets, batch, timeout, meta = message
            from repro.gateway.tracing import sanitize_trace_id, trace_scope
            from repro.observability.spans import (
                SpanRecorder, recording_scope, span,
            )

            trace_id = meta.get("trace_id")
            recorder = None
            if trace_id is not None:
                trace_id = sanitize_trace_id(trace_id)
                recorder = SpanRecorder(trace_id)
            try:
                with trace_scope(trace_id), recording_scope(recorder):
                    with span("server.submit"):
                        report = await self.service.submit(
                            request, targets=targets, batch=batch,
                            timeout=timeout,
                        )
            except ServiceOverloaded as exc:
                return ("overloaded", str(exc))
            except (asyncio.TimeoutError, TimeoutError):
                return ("timeout", "request deadline elapsed")
            except Exception as exc:
                log.exception("request failed")
                return ("error", f"{type(exc).__name__}: {exc}")
            finally:
                if recorder is not None:
                    collector = getattr(self.service, "trace_collector", None)
                    if collector is not None:
                        collector.record(trace_id, recorder.drain())
            return ("result", report)
        return ("error", f"unknown message type {kind!r}")


# ----------------------------------------------------------------- clients

def _roundtrip(address, message, *, connect_timeout: float, reply_timeout: float):
    host, port = address
    with socket.create_connection((host, port), timeout=connect_timeout) as sock:
        sock.settimeout(reply_timeout)
        send_frame(sock, message)
        return recv_frame(sock)


def submit_remote(
    address: tuple[str, int],
    request,
    *,
    targets=None,
    batch: bool = False,
    timeout: float | None = None,
    connect_timeout: float = 5.0,
    reply_timeout: float = 300.0,
    trace_id: str | None = None,
):
    """Submit one request to a running ``repro serve`` and return the report.

    With *trace_id* set, the submit frame's meta carries it so the server
    records a span tree under that ID — fetch it afterwards with
    :func:`fetch_trace` or ``repro trace``.

    Raises:
        ServiceOverloaded: the server rejected the request (backpressure).
        TimeoutError: the server reported a request deadline overrun.
        RuntimeError: any other server-side failure.
    """
    meta = {} if trace_id is None else {"trace_id": trace_id}
    message = ("submit", request, targets, batch, timeout, meta)
    reply = _roundtrip(
        address,
        message,
        connect_timeout=connect_timeout,
        reply_timeout=reply_timeout,
    )
    kind = reply[0] if isinstance(reply, tuple) and reply else "error"
    if kind == "result":
        return reply[1]
    if kind == "overloaded":
        raise ServiceOverloaded(reply[1])
    if kind == "timeout":
        raise TimeoutError(reply[1])
    raise RuntimeError(f"server error: {reply[1] if len(reply) > 1 else reply!r}")


def fetch_trace(address: tuple[str, int], trace_id: str, *,
                connect_timeout: float = 5.0) -> dict:
    """Fetch the stitched span tree of a recent request from ``repro serve``.

    Returns ``{"trace_id": ..., "spans": [span dicts]}``; raises
    ``RuntimeError`` when the server has no such trace.
    """
    reply = _roundtrip(
        address, ("trace", str(trace_id)),
        connect_timeout=connect_timeout, reply_timeout=30.0,
    )
    if not (isinstance(reply, tuple) and reply and reply[0] == "trace"):
        detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        raise RuntimeError(f"trace unavailable: {detail!r}")
    return reply[1]


def server_stats(address: tuple[str, int], *, connect_timeout: float = 5.0) -> dict:
    """Fetch a running server's :meth:`SearchService.stats_snapshot`."""
    reply = _roundtrip(
        address, ("stats",), connect_timeout=connect_timeout, reply_timeout=30.0
    )
    if not (isinstance(reply, tuple) and reply and reply[0] == "stats"):
        raise RuntimeError(f"unexpected stats reply: {reply!r}")
    return reply[1]


def cluster_status(address: tuple[str, int], *, connect_timeout: float = 5.0) -> dict:
    """Fetch a clustered replica's membership/peering status.

    Raises ``RuntimeError`` when the server is not running in cluster mode
    (started without ``--join``).
    """
    reply = _roundtrip(
        address, ("cluster-status",),
        connect_timeout=connect_timeout, reply_timeout=30.0,
    )
    if not (isinstance(reply, tuple) and reply and reply[0] == "cluster-status"):
        detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        raise RuntimeError(f"cluster status unavailable: {detail!r}")
    return reply[1]
