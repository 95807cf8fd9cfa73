"""``repro-worker`` — a shard-execution server for :class:`RemoteExecutor`.

The worker listens on TCP, accepts any number of concurrent connections
(one thread each), and answers frames of the wire protocol
(:mod:`repro.service.wire`):

- ``("shard", func, task, rng, meta)`` -> ``("result", func(task, rng))``,
  or ``("error", message)`` when the shard function raises.
  ``meta["deadline_s"]`` is the request's **remaining budget** in seconds,
  from which the worker rebuilds a local
  :class:`~repro.resilience.Deadline` — a shard whose budget arrives spent
  is answered ``("expired", message)`` without computing.
- ``("ping",)`` -> ``("pong", stats_dict)`` — liveness/health probe.

The worker is stateless between shards: everything a shard needs (program,
targets, backend, policy) arrives as plain data in the task payload, which
makes results bit-identical to local execution.  Functions are pickled by
reference (module + qualname), so the worker host needs the same ``repro``
version importable — deploy workers and drivers from the same build (a
peer from another build gets the wire's version-mismatch error).

Run one per host::

    repro-worker --host 0.0.0.0 --port 7737

(or ``python -m repro.service.worker``).  With ``--register SERVER:PORT``
the worker **announces itself** to a running ``repro serve`` (one
``("register", "host:port", {})`` frame, retried until the server is
up), so the server's :class:`~repro.service.registry.WorkerRegistry` starts
routing shards here with no ``--remote-worker`` wiring;
``--advertise HOST:PORT`` overrides the announced address when the bind
address is not what the server should dial (0.0.0.0 binds, NAT).  Only
expose workers to trusted networks: frames are pickles and execute code by
design.

**Graceful drain:** ``SIGTERM`` (or :meth:`WorkerServer.drain`) finishes
the in-flight shards, answers new shard requests ``("unavailable", ...)``
so dialers requeue them elsewhere, withdraws the registration with a
``deregister`` frame, and exits — a rolling restart never aborts a batch.

**Chaos:** ``--chaos-plan PLAN.json`` (or ``WorkerServer(chaos=...)``)
arms a seeded :class:`~repro.resilience.FaultPlan`; the worker consults it
at ``worker.recv`` (drop the connection before reading), ``worker.shard``
(crash / slow / deterministic raise), and ``worker.send`` (corrupt the
reply frame, or drop instead of replying).
"""

from __future__ import annotations

import argparse
import collections
import logging
import signal
import socket
import threading
import time
import traceback

from repro.resilience import Deadline, FaultPlan, deadline_scope
from repro.service.address import format_address, parse_address
from repro.util.structlog import LOG_FORMATS, configure_logging
from repro.service.wire import (
    ConnectionClosed,
    WireError,
    _encode,
    recv_frame,
    send_frame,
)

__all__ = [
    "WorkerServer",
    "register_with_server",
    "deregister_from_server",
    "start_reannounce_loop",
    "main",
]

#: Default seconds between registration re-announcements (see
#: :func:`start_reannounce_loop`).
DEFAULT_REANNOUNCE_INTERVAL = 30.0

DEFAULT_PORT = 7737

log = logging.getLogger("repro.service.worker")


class WorkerServer:
    """A blocking TCP worker; use :meth:`start` + :meth:`serve_forever`, or
    the context-manager form which serves on a background thread.

    Args:
        host: bind address (default loopback; use ``0.0.0.0`` for cluster use).
        port: bind port; ``0`` picks a free one (read it from :attr:`address`).
        chaos: a :class:`~repro.resilience.FaultPlan` consulted at the
            ``worker.recv`` / ``worker.shard`` / ``worker.send`` sites.
            ``None`` (default) injects nothing.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 *, chaos: FaultPlan | None = None):
        self._sock = socket.create_server((host, port), backlog=16)
        self._sock.settimeout(0.2)  # poll so shutdown is prompt
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self.chaos = chaos
        self.shards_served = 0
        self.shards_expired = 0
        # Ring of the most recent trace IDs whose shards ran here (shard
        # meta["trace_id"]) — observability for tests and `grep trace=`.
        self.seen_trace_ids: collections.deque = collections.deque(maxlen=256)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._draining = False
        self._active_shards = 0
        # Live connections/threads only: handlers prune themselves on exit,
        # so a long-lived worker serving many short connections stays flat.
        self._threads: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()

    # ------------------------------------------------------------ lifecycle
    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` is called."""
        log.info("repro-worker listening on %s:%d", *self.address)
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(None)
            t = threading.Thread(
                target=self._serve_connection, args=(conn, peer), daemon=True
            )
            with self._lock:
                self._conns.add(conn)
                self._threads.add(t)
            t.start()
        self._sock.close()

    def start(self) -> "WorkerServer":
        """Serve on a daemon thread (returns immediately)."""
        self._accept_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every live connection, join the threads."""
        self._stop.set()
        with self._lock:
            conns, self._conns = self._conns, set()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass
        # The accept loop may still hold the listening description inside
        # its (timeout-bounded) accept syscall, which keeps the port in
        # LISTEN briefly after the close above.  Join it so a stop/drain
        # that returns really has released the port.
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=1.0)

    def drain(self, *, deregister: tuple[str, str] | None = None,
              timeout: float = 30.0) -> None:
        """Graceful shutdown: finish the in-flight shards, refuse new ones
        (``("unavailable", ...)`` — dialers requeue elsewhere), withdraw
        the registration, then :meth:`stop`.

        Args:
            deregister: ``(server_address, advertise_address)`` to withdraw
                from a ``repro serve`` registry; ``None`` skips it.
            timeout: seconds to wait for in-flight shards before stopping
                anyway.
        """
        self._draining = True
        cutoff = time.monotonic() + timeout
        while time.monotonic() < cutoff:
            with self._lock:
                if self._active_shards == 0:
                    break
            time.sleep(0.02)
        if deregister is not None:
            deregister_from_server(*deregister)
        self.stop()

    @property
    def draining(self) -> bool:
        return self._draining

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- handling
    def _chaos_at(self, site: str):
        if self.chaos is None:
            return None
        return self.chaos.visit(site)

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        log.debug("connection from %s", peer)
        try:
            while not self._stop.is_set():
                spec = self._chaos_at("worker.recv")
                if spec is not None and spec.kind == "drop":
                    return  # close mid-stream: the dialer sees ConnectionClosed
                try:
                    message = recv_frame(conn)
                except ConnectionClosed:
                    return
                except WireError as exc:
                    # Version/framing mismatch: tell the peer why, then drop.
                    self._best_effort_send(conn, ("error", str(exc)))
                    return
                reply = self._dispatch(message)
                if reply is None:  # injected crash: vanish mid-stream
                    self.stop()
                    return
                spec = self._chaos_at("worker.send")
                if spec is not None and spec.kind == "drop":
                    return  # computed, never replied — like a mid-send death
                if spec is not None and spec.kind == "corrupt":
                    # A frame whose header decodes but whose payload does
                    # not: the dialer's _decode raises WireError -> requeue.
                    frame = bytearray(_encode(reply))
                    frame[-1] ^= 0xFF
                    conn.sendall(bytes(frame))
                    continue
                if spec is not None:
                    FaultPlan.apply(spec, what="worker reply")  # slow/raise
                send_frame(conn, reply)
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)
                self._threads.discard(threading.current_thread())

    def _dispatch(self, message) -> tuple | None:
        if not isinstance(message, tuple) or not message:
            return ("error", f"malformed message: {message!r}")
        kind = message[0]
        if kind == "ping":
            return ("pong", {"shards_served": self.shards_served,
                             "shards_expired": self.shards_expired,
                             "draining": self._draining})
        if kind == "shard":
            return self._dispatch_shard(message)
        return ("error", f"unknown message type {kind!r}")

    def _dispatch_shard(self, message) -> tuple | None:
        if len(message) != 5 or not isinstance(message[4], dict):
            return ("error",
                    "shard message must be (shard, func, task, rng, meta)")
        _, func, task, rng, meta = message
        if self._draining:
            return ("unavailable", "worker draining: requeue elsewhere")
        deadline_s = meta.get("deadline_s")
        if deadline_s is not None and deadline_s <= 0:
            # The budget was spent in transit: refuse without computing —
            # nobody is waiting for this result.
            with self._lock:
                self.shards_expired += 1
            return ("expired",
                    f"shard arrived with its deadline spent "
                    f"({deadline_s:.3f}s remaining)")
        spec = self._chaos_at("worker.shard")
        if spec is not None and spec.kind == "crash" and not spec.compute_first:
            return None  # vanish before computing
        with self._lock:
            self._active_shards += 1
        try:
            if spec is not None and spec.kind == "slow":
                time.sleep(spec.delay_s)
            if spec is not None and spec.kind == "raise":
                raise RuntimeError(
                    "chaos: injected deterministic failure at worker shard"
                )
            # Trace ID (shard meta, gateway-originated requests): scope
            # the shard with it so traced code sees the ambient ID, and
            # log it — `grep trace=<id>` across gateway and worker logs
            # reconstructs which hosts computed which shards.
            from repro.gateway.tracing import trace_scope
            from repro.observability.spans import (
                SpanRecorder, span, span_scope,
            )

            trace_id = meta.get("trace_id")
            recorder = None
            if trace_id is not None:
                trace_id = str(trace_id)
                with self._lock:
                    self.seen_trace_ids.append(trace_id)
                log.info("shard trace=%s", trace_id)
                # Traced shard: record a worker-side compute span, parented
                # on the dialer's attempt span (meta["parent_span_id"]) so
                # the stitched tree crosses the wire seam.
                recorder = SpanRecorder(trace_id)
            deadline = Deadline.after(deadline_s)
            with trace_scope(trace_id), deadline_scope(deadline), \
                    span_scope(recorder, meta.get("parent_span_id")):
                with span("worker.compute", worker=f"{self.address[0]}:"
                                                   f"{self.address[1]}"):
                    result = func(task, rng)
        except Exception as exc:  # deterministic failure -> no retry
            log.exception("shard function raised")
            return ("error",
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        finally:
            with self._lock:
                self._active_shards -= 1
        with self._lock:
            self.shards_served += 1
        if spec is not None and spec.kind == "crash":
            # Crash *after* computing but before replying — the harshest
            # mid-shard death the executor must survive.
            return None
        if recorder is not None:
            # Traced shards answer a 3-tuple whose meta carries the
            # worker-side spans; untraced replies stay 2-tuples.
            return ("result", result,
                    {"spans": [s.to_dict() for s in recorder.drain()]})
        return ("result", result)

    @staticmethod
    def _best_effort_send(conn: socket.socket, payload) -> None:
        try:
            send_frame(conn, payload)
        except OSError:
            pass


def register_with_server(
    server_address: str,
    advertise_address: str,
    *,
    attempts: int = 10,
    delay: float = 0.5,
    timeout: float = 5.0,
) -> dict:
    """Announce *advertise_address* to a ``repro serve`` at *server_address*.

    Sends one ``("register", advertise_address, {})`` frame (the meta dict
    is empty: every worker runs every shard).  Returns the server's
    registration payload (the current fleet snapshot).  Connection refusals are retried
    — workers routinely boot before their server — but a server that
    answers with an error (no registry configured, malformed address)
    fails immediately: retrying cannot help.

    A wildcard advertise host (``0.0.0.0`` / ``::``, the bind address of a
    multi-host worker) is not dialable, so it is replaced by the local
    address of the registration socket itself — the interface this worker
    actually reaches the server through, hence the one the server can dial
    back.

    Raises:
        ValueError: a malformed server or advertise address.
        RuntimeError: the server rejected the registration.
        OSError: the server stayed unreachable through every attempt.
    """
    host, port = parse_address(server_address)
    adv_host, adv_port = parse_address(advertise_address)
    last_exc: OSError | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(delay)
        try:
            with socket.create_connection((host, port), timeout=timeout) as sock:
                sock.settimeout(timeout)
                if adv_host in ("0.0.0.0", "::"):
                    adv_host = sock.getsockname()[0]
                advertise_address = format_address(adv_host, adv_port)
                send_frame(sock, ("register", advertise_address, {}))
                reply = recv_frame(sock)
        except (OSError, ConnectionClosed) as exc:
            last_exc = exc if isinstance(exc, OSError) else OSError(str(exc))
            continue
        if isinstance(reply, tuple) and reply and reply[0] == "registered":
            log.info("registered %s with %s", advertise_address, server_address)
            return reply[1]
        raise RuntimeError(f"server rejected registration: {reply!r}")
    raise OSError(
        f"could not reach {server_address} after {attempts} attempts: {last_exc}"
    )


def deregister_from_server(
    server_address: str,
    advertise_address: str,
    *,
    timeout: float = 5.0,
) -> bool:
    """Withdraw *advertise_address* from a server's registry (best-effort).

    One ``("deregister", address)`` frame; a draining worker calls this so
    the server stops routing to it immediately instead of waiting for a
    health-check eviction.  Failures are swallowed — the worker is going
    away regardless, and the health loop is the backstop.
    """
    try:
        host, port = parse_address(server_address)
        adv_host, adv_port = parse_address(advertise_address)
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            send_frame(sock, ("deregister", format_address(adv_host, adv_port)))
            reply = recv_frame(sock)
    except (OSError, WireError, ValueError) as exc:
        log.warning("deregistration with %s failed: %s", server_address, exc)
        return False
    return bool(isinstance(reply, tuple) and reply and reply[0] == "deregistered")


def start_reannounce_loop(
    server_address: str,
    advertise_address: str,
    *,
    interval: float = DEFAULT_REANNOUNCE_INTERVAL,
    stop_event: threading.Event | None = None,
) -> threading.Thread:
    """Re-announce this worker to the server every *interval* seconds.

    Registration is otherwise one-shot at boot, while the server's health
    loop evicts on a missed ping — one transient blip (network hiccup, a
    long GIL-held shard, server restart) would silently and *permanently*
    drop a live worker from the fleet.  Re-registration is idempotent
    (re-adding a live address just refreshes its stamp), so this loop makes
    membership self-healing: an evicted-but-alive worker reappears within
    one interval, and a restarted server re-learns its fleet without anyone
    restarting workers.  Failures are logged and retried next tick.

    Returns the started daemon thread; set *stop_event* to end the loop.
    """
    stop = stop_event if stop_event is not None else threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                register_with_server(
                    server_address, advertise_address, attempts=1
                )
            except (OSError, RuntimeError, ValueError) as exc:
                log.warning("re-registration with %s failed (will retry): %s",
                            server_address, exc)

    thread = threading.Thread(target=loop, daemon=True,
                              name="repro-worker-reannounce")
    thread.start()
    return thread


def main(argv=None) -> int:
    """CLI entry point for ``repro-worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Shard-execution worker for repro RemoteExecutor "
                    "(trusted networks only).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--register", default=None, metavar="SERVER:PORT",
                        help="announce this worker to a running repro serve "
                             "(enables auto-discovery; no --remote-worker "
                             "wiring needed on the server)")
    parser.add_argument("--advertise", default=None, metavar="HOST:PORT",
                        help="address the server should dial back "
                             "(default: the bound host:port)")
    parser.add_argument("--register-interval", type=float,
                        default=DEFAULT_REANNOUNCE_INTERVAL,
                        help="seconds between registration re-announcements "
                             "(heals health-check evictions and server "
                             "restarts; 0 disables)")
    parser.add_argument("--chaos-plan", default=None, metavar="PLAN",
                        help="arm a seeded FaultPlan: a JSON file path or an "
                             "inline JSON object (testing only)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds SIGTERM waits for in-flight shards "
                             "before stopping anyway")
    parser.add_argument("--log-format", choices=LOG_FORMATS, default="plain",
                        help="shard-log format: historical plain text "
                             "(default) or one JSON object per line")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    configure_logging(
        args.log_format,
        level=logging.DEBUG if args.verbose else logging.INFO,
    )
    chaos = FaultPlan.from_json(args.chaos_plan) if args.chaos_plan else None
    if chaos is not None:
        log.warning("chaos armed: %r", chaos)
    server = WorkerServer(args.host, args.port, chaos=chaos)
    # Announce readiness on stdout so harnesses can wait for the port.
    print(f"repro-worker ready on {format_address(*server.address)}",
          flush=True)
    advertise = args.advertise or format_address(*server.address)
    registered = False
    if args.register:
        keep_announcing = True
        try:
            register_with_server(args.register, advertise)
            registered = True
            print(f"repro-worker registered with {args.register} as {advertise}",
                  flush=True)
        except OSError as exc:
            # Server not up yet / transient network: keep serving (a static
            # RemoteExecutor can still reach us) and let the re-announce
            # loop establish the registration when the server appears.
            log.error("registration with %s failed: %s", args.register, exc)
            registered = True  # the loop may yet succeed; drain withdraws
        except (RuntimeError, ValueError) as exc:
            # Malformed address or a server that rejects registration:
            # deterministic — re-announcing would only repeat the error.
            log.error("registration with %s failed permanently: %s",
                      args.register, exc)
            keep_announcing = False
        if keep_announcing and args.register_interval > 0:
            start_reannounce_loop(
                args.register, advertise,
                interval=args.register_interval, stop_event=server._stop,
            )

    def _on_sigterm(signum, frame):
        log.info("SIGTERM: draining (finishing in-flight shards)")
        server.drain(
            deregister=(args.register, advertise)
            if args.register and registered else None,
            timeout=args.drain_timeout,
        )

    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
