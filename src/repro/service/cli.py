"""``repro`` — the serving/distribution command line.

Subcommands::

    repro serve           # run the async SearchService behind a TCP endpoint
    repro gateway         # same stack plus the schema'd HTTP/JSON edge
    repro submit          # send one request to a running server, print the report
    repro curl            # send one request to a gateway over HTTP/JSON
    repro trace           # render a recent request's span waterfall
    repro worker          # run a shard-execution worker (alias of repro-worker)
    repro methods         # list the method registry (name, backends, description)
    repro cluster status  # print a replica's membership/peering/fleet status

Two-host quickstart (see README "Serving & distribution"): start the
server, then start ``repro-worker --register server:port`` on each compute
host — workers announce themselves, the server health-checks them with the
wire's ``ping``, and batched searches fan their shards out over TCP with no
static wiring.  (``--remote-worker host:port`` on the server still works
for fixed fleets.)  Clients talk to the server with ``repro submit``.

Cluster quickstart (README "Cluster"): start several replicas with
``repro serve --join`` pointing at each other (or at any shared seed) —
gossip membership federates them, cache entries are served across replicas
by structural fingerprint, and a worker registered to *any* replica
executes shards for *all* of them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

__all__ = ["main"]


def _row_threads_arg(value: str):
    """argparse type for ``--row-threads``: an int >= 1 or ``'auto'``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {value!r}"
        ) from None


def _add_serving_flags(p: argparse.ArgumentParser) -> None:
    """The serving-stack flags shared by ``repro serve`` and ``repro
    gateway`` (admission bounds, cache, fleet wiring, cluster, resilience)."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="bind port (default 7736; 0 picks a free port)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="admission bound: queued + running requests")
    p.add_argument("--max-workers", type=int, default=4,
                   help="simultaneous engine executions")
    p.add_argument("--request-timeout", type=float, default=60.0,
                   help="per-request deadline in seconds, and the ceiling "
                        "on a client's --timeout")
    p.add_argument("--cache-size", type=int, default=256,
                   help="TTL cache entry bound (0 disables caching)")
    p.add_argument("--cache-ttl", type=float, default=300.0,
                   help="seconds a cached report stays servable")
    p.add_argument("--remote-worker", action="append", default=[],
                   metavar="HOST:PORT",
                   help="static repro-worker endpoint; repeat for more "
                        "hosts.  Without this flag the server accepts "
                        "worker self-registration instead (workers run "
                        "with --register) and health-checks the fleet")
    p.add_argument("--fallback-local", action="store_true",
                   help="finish shards in-process if every worker dies "
                        "(static fleets; auto-registered fleets always "
                        "fall back)")
    p.add_argument("--health-interval", type=float, default=10.0,
                   help="seconds between health-check sweeps of "
                        "auto-registered workers")
    p.add_argument("--join", action="append", default=[],
                   metavar="HOST:PORT",
                   help="seed address of a sibling repro serve replica; "
                        "repeat for more seeds.  Enables cluster mode: "
                        "gossip membership, cache peering by request "
                        "fingerprint, and cluster-wide worker scheduling.  "
                        "A seed that is not up yet is retried every gossip "
                        "round, so replicas may point at each other and "
                        "boot in any order")
    p.add_argument("--cluster-advertise", default=None, metavar="HOST:PORT",
                   help="address sibling replicas should dial this one at "
                        "(default: the bound host:port; set it when binding "
                        "0.0.0.0 or behind NAT)")
    p.add_argument("--gossip-interval", type=float, default=2.0,
                   help="seconds between gossip rounds (cluster mode)")
    p.add_argument("--suspicion-timeout", type=float, default=30.0,
                   help="seconds without a heartbeat before a cluster "
                        "member is declared dead and dropped")
    p.add_argument("--peer-wait", type=float, default=2.0,
                   help="seconds a cache-peering probe may wait on a peer "
                        "that is mid-computing the same request "
                        "(cluster-wide single-flight window; 0 disables)")
    p.add_argument("--retry-attempts", type=int, default=3,
                   help="transient-failure attempts per worker lane before "
                        "it is retired (exponential backoff with "
                        "decorrelated jitter between attempts)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive endpoint failures before its circuit "
                        "breaker opens (quarantining it from dispatch, "
                        "peering, and gossip)")
    p.add_argument("--breaker-reset", type=float, default=15.0,
                   help="seconds an open breaker waits before letting one "
                        "half-open trial request through")
    p.add_argument("--log-format", default="plain",
                   choices=["plain", "json"],
                   help="log line format: human-readable 'plain' (default) "
                        "or one JSON object per line for log shippers")
    p.add_argument("--flight-recorder", default=None, metavar="PATH",
                   help="crash flight recorder: dump the last recorded "
                        "traces plus service stats to PATH as JSON on an "
                        "unhandled crash or on SIGUSR1")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="run the async search service over TCP")
    _add_serving_flags(p)


def _add_gateway(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "gateway",
        help="run the search service with the schema'd HTTP/JSON edge "
             "(plus the TCP endpoint, so workers and gossip still connect)",
    )
    _add_serving_flags(p)
    p.add_argument("--http-host", default="127.0.0.1",
                   help="HTTP bind address (0.0.0.0 to expose beyond "
                        "loopback — put TLS termination in front)")
    p.add_argument("--http-port", type=int, default=None,
                   help="HTTP bind port (default 7780; 0 picks a free port)")
    p.add_argument("--tenants", default=None, metavar="FILE",
                   help="tenants file (TOML on Python >= 3.11, or JSON): "
                        "API keys, rate limits, in-flight caps, priorities. "
                        "Without it the gateway is open (one shared "
                        "anonymous tenant)")
    p.add_argument("--slow-threshold", type=float, default=None,
                   metavar="SECONDS",
                   help="log any request slower than this with its full "
                        "span tree on one structured line")
    p.add_argument("--no-tracing", action="store_true",
                   help="disable per-request span tracing (drops "
                        "/v1/trace/{id}, stage histograms, and the slow-"
                        "request log; tracing overhead is benchmarked at "
                        "<5%% on the cached path)")


def _add_request_flags(p: argparse.ArgumentParser) -> None:
    """The request-shape flags shared by ``repro submit`` and ``repro curl``."""
    p.add_argument("--n-items", type=int, required=True, help="database size N")
    p.add_argument("--n-blocks", type=int, required=True, help="block count K")
    p.add_argument("--method", default="grk")
    p.add_argument("--backend", default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--target", type=int, default=None,
                   help="marked address (single search)")
    p.add_argument("--batch", action="store_true",
                   help="batched search over --targets (or every address)")
    p.add_argument("--targets", type=int, nargs="*", default=None,
                   help="explicit batch targets (with --batch)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for stochastic methods")
    p.add_argument("--dtype", default=None, choices=["complex128", "complex64"],
                   help="amplitude precision (complex64 halves shard memory "
                        "at the documented tolerance)")
    p.add_argument("--row-threads", type=_row_threads_arg, default=None,
                   help="threads across independent batch rows: an integer, "
                        "or 'auto' (the default) for a count from the "
                        "batch's work and the cpus (results are "
                        "bit-identical for any value)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds; the server's "
                        "--request-timeout is its ceiling, so this can only "
                        "shorten it")
    p.add_argument("--wants", default=None,
                   choices=["probability", "report", "amplitudes", "samples"],
                   help="what the caller needs back (default: report). "
                        "'probability' asks only for success probability + "
                        "query count, which lets the planner answer from "
                        "the closed-form analytic tier at any N")
    p.add_argument("--engine", default=None,
                   choices=["auto", "analytic", "simulate"],
                   help="engine tier override (default: auto routing). "
                        "'analytic' forces the closed-form tier (errors if "
                        "no model covers the method); 'simulate' forces "
                        "the statevector tier")


def _add_submit(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("submit", help="submit one request to a running server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    _add_request_flags(p)
    p.add_argument("--stats", action="store_true",
                   help="also fetch and print server stats")
    p.add_argument("--trace-id", default=None,
                   help="trace this request under an explicit ID (default: "
                        "mint one).  The effective ID is printed to stderr; "
                        "feed it to `repro trace` for the span waterfall")


def _add_curl(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "curl",
        help="submit one request to a repro gateway over HTTP/JSON "
             "(the same envelope curl would send)",
    )
    p.add_argument("--url", default=None,
                   help="gateway base URL (default http://HOST:PORT from "
                        "--host/--http-port)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--http-port", type=int, default=None)
    p.add_argument("--api-key", default=None,
                   help="tenant API key (sent as X-API-Key)")
    p.add_argument("--trace-id", default=None,
                   help="explicit request trace ID (sent as X-Request-ID; "
                        "default: the gateway mints one)")
    _add_request_flags(p)


def _add_trace(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace",
        help="fetch a recent request's span tree and render the waterfall "
             "(per-stage latency attribution)",
    )
    p.add_argument("trace_id", help="the request's trace ID (printed by "
                                    "repro submit / repro curl, or the "
                                    "X-Request-ID response header)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="TCP wire port of a repro serve (default 7736)")
    p.add_argument("--url", default=None,
                   help="fetch over HTTP from a gateway instead "
                        "(GET URL/v1/trace/{id})")
    p.add_argument("--json", action="store_true",
                   help="emit the raw span dicts as JSON instead of the "
                        "rendered waterfall")


def _add_worker(sub: argparse._SubParsersAction) -> None:
    from repro.service.worker import add_worker_arguments

    add_worker_arguments(sub.add_parser("worker", help="run a shard-execution worker"))


def _add_methods(sub: argparse._SubParsersAction) -> None:
    sub.add_parser("methods", help="list the registered search methods")


def _add_cluster(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("cluster", help="inspect a clustered repro serve")
    csub = p.add_subparsers(dest="cluster_command", required=True)
    status = csub.add_parser(
        "status",
        help="print a replica's membership table, cluster-wide worker "
             "fleet, and cache-peering counters as JSON",
    )
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=None)
    status.add_argument("--json", action="store_true",
                        help="emit the versioned, JSON-safe schema envelope "
                             "instead of the raw status dump")


def _build_serving_stack(args, prog: str):
    """The breaker/retry/registry/cluster/peering/executor stack shared by
    ``repro serve`` and ``repro gateway``.

    Returns ``(exit_code, None)`` on a usage error (already printed), else
    ``(None, stack)`` where *stack* has ``engine`` / ``registry`` /
    ``cluster`` / ``peering``.
    """
    from repro.engine import SearchEngine
    from repro.resilience import BreakerRegistry, RetryPolicy
    from repro.service.address import parse_address

    registry = None
    cluster = None
    peering = None
    if args.join and args.remote_worker:
        print(f"{prog}: --join (cluster mode) and --remote-worker "
              "(static fleet) are mutually exclusive", file=sys.stderr)
        return 2, None
    # Validate every dialable address up front: a typo'd --join or
    # --remote-worker should fail at boot with a pointed error, not as an
    # endpoint that fails every dial forever.
    for flag, values in (("--join", args.join),
                         ("--remote-worker", args.remote_worker),
                         ("--cluster-advertise",
                          [args.cluster_advertise] if args.cluster_advertise
                          else [])):
        for value in values:
            try:
                parse_address(value)
            except ValueError as exc:
                print(f"{prog}: {flag} {exc}", file=sys.stderr)
                return 2, None
    # One breaker registry and retry policy shared by every outbound path
    # (shard dispatch, cache peering, gossip) — evidence gathered on one
    # path protects the others.
    breakers = BreakerRegistry(failure_threshold=args.breaker_threshold,
                               reset_timeout=args.breaker_reset)
    retry = RetryPolicy(max_attempts=args.retry_attempts)
    if args.join:
        # Cluster mode: gossip membership + cache peering + cluster-wide
        # scheduling over every member's registered workers.
        from repro.cluster import (
            CachePeers,
            ClusterCoordinator,
            ClusterMembership,
            ClusterWorkers,
        )
        from repro.service.registry import WorkerRegistry

        registry = WorkerRegistry(breakers=breakers)
        membership = ClusterMembership(
            args.cluster_advertise, seeds=args.join,
            suspicion_timeout=args.suspicion_timeout,
        )
        cluster = ClusterCoordinator(
            membership, gossip_interval=args.gossip_interval,
            breakers=breakers,
        )
        # CachePeers derives its total budget from the wait, so a long
        # --peer-wait is honoured rather than truncated.
        peering = CachePeers(membership, inflight_wait=args.peer_wait,
                             breakers=breakers)
        workers = ClusterWorkers(membership, registry)
    elif args.remote_worker:
        workers = args.remote_worker
    else:
        # Auto-discovery: workers announce themselves with --register and
        # the server health-checks them; no static wiring needed.
        from repro.service.registry import WorkerRegistry

        registry = workers = WorkerRegistry(breakers=breakers)
    from repro.service.executor import RemoteExecutor

    # Registered and gossiped fleets lag reality, so a fleet that died
    # since it was last seen degrades to local compute; a static fleet
    # does so only with --fallback-local.
    executor = RemoteExecutor(
        workers, retry=retry, breakers=breakers,
        fallback_local=registry is not None or args.fallback_local,
    )
    return None, {
        "engine": SearchEngine(executor=executor),
        "registry": registry,
        "cluster": cluster,
        "peering": peering,
    }


def _install_flight_recorder(args, service):
    """Arm the crash flight recorder when ``--flight-recorder`` was given.

    Returns the installed recorder (so callers could ``uninstall``), or
    ``None``.  Dumps the service's recent traces plus a stats snapshot on
    unhandled crash and on SIGUSR1.
    """
    if not args.flight_recorder:
        return None
    from repro.observability import FlightRecorder

    recorder = FlightRecorder(
        service.trace_collector,
        path=args.flight_recorder,
        stats_fn=service.stats_snapshot,
    )
    recorder.install()
    return recorder


def _cmd_serve(args) -> int:
    from repro.service.scheduler import SearchService
    from repro.service.server import DEFAULT_PORT, SearchServer
    from repro.util.structlog import configure_logging

    configure_logging(args.log_format)
    code, stack = _build_serving_stack(args, "repro serve")
    if code is not None:
        return code

    async def run() -> None:
        async with SearchService(
            stack["engine"],
            max_pending=args.max_pending,
            max_workers=args.max_workers,
            request_timeout=args.request_timeout,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
            peering=stack["peering"],
        ) as service:
            _install_flight_recorder(args, service)
            server = SearchServer(
                service,
                args.host,
                DEFAULT_PORT if args.port is None else args.port,
                registry=stack["registry"],
                health_interval=args.health_interval,
                cluster=stack["cluster"],
            )
            await server.start()
            print(f"repro serve ready on {server.address[0]}:"
                  f"{server.address[1]}", flush=True)
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_gateway(args) -> int:
    from repro.gateway.http import DEFAULT_HTTP_PORT, GatewayServer
    from repro.gateway.tenancy import TenantTable
    from repro.service.scheduler import SearchService
    from repro.service.server import DEFAULT_PORT, SearchServer
    from repro.util.structlog import configure_logging

    configure_logging(args.log_format)
    code, stack = _build_serving_stack(args, "repro gateway")
    if code is not None:
        return code
    if args.tenants is not None:
        try:
            tenants = TenantTable.from_file(args.tenants)
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"repro gateway: --tenants {args.tenants}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        tenants = TenantTable()

    async def run() -> None:
        async with SearchService(
            stack["engine"],
            max_pending=args.max_pending,
            max_workers=args.max_workers,
            request_timeout=args.request_timeout,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
            peering=stack["peering"],
        ) as service:
            _install_flight_recorder(args, service)
            # The TCP endpoint stays up alongside HTTP: workers register,
            # gossip flows, and `repro submit` keeps working — the gateway
            # adds the edge, it does not replace the fleet plumbing.
            server = SearchServer(
                service,
                args.host,
                DEFAULT_PORT if args.port is None else args.port,
                registry=stack["registry"],
                health_interval=args.health_interval,
                cluster=stack["cluster"],
            )
            await server.start()
            gateway = GatewayServer(
                service,
                args.http_host,
                DEFAULT_HTTP_PORT if args.http_port is None else args.http_port,
                tenants=tenants,
                registry=stack["registry"],
                cluster=stack["cluster"],
                tracing=not args.no_tracing,
                slow_threshold=args.slow_threshold,
            )
            await gateway.start()
            print(f"repro gateway ready on "
                  f"http://{gateway.address[0]}:{gateway.address[1]}/ "
                  f"(wire on {server.address[0]}:{server.address[1]})",
                  flush=True)
            await asyncio.gather(server.serve_forever(),
                                 gateway.serve_forever())

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args) -> int:
    from repro.engine import ExecutionPolicy, SearchRequest
    from repro.gateway.schema import encode_report
    from repro.gateway.tracing import new_trace_id, sanitize_trace_id
    from repro.service.server import DEFAULT_PORT, server_stats, submit_remote

    policy = ExecutionPolicy(
        dtype=args.dtype or "complex128",
        row_threads="auto" if args.row_threads is None else args.row_threads,
    )
    request = SearchRequest(
        n_items=args.n_items,
        n_blocks=args.n_blocks,
        method=args.method,
        backend=args.backend,
        epsilon=args.epsilon,
        target=args.target,
        rng=args.seed,
        policy=policy,
        wants=args.wants or "report",
        engine=args.engine or "auto",
    )
    address = (args.host, DEFAULT_PORT if args.port is None else args.port)
    # Every submit is traced: mint an ID unless the caller pinned one, and
    # print the effective ID so `repro trace <id>` finds the waterfall.
    trace_id = (new_trace_id() if args.trace_id is None
                else sanitize_trace_id(args.trace_id))
    report = submit_remote(
        address,
        request,
        targets=args.targets,
        batch=args.batch,
        timeout=args.timeout,
        trace_id=trace_id,
    )
    print(f"trace: {trace_id}", file=sys.stderr)
    # The gateway schema's envelope: byte-comparable with what
    # POST /v1/search returns for the same request.
    payload = encode_report(report)
    if args.stats:
        payload["server_stats"] = server_stats(address)
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def _cmd_curl(args) -> int:
    import urllib.error
    import urllib.request

    from repro.gateway.http import DEFAULT_HTTP_PORT
    from repro.gateway.schema import SCHEMA_VERSION
    from repro.gateway.tenancy import API_KEY_HEADER
    from repro.gateway.tracing import TRACE_HEADER

    base = args.url
    if base is None:
        port = DEFAULT_HTTP_PORT if args.http_port is None else args.http_port
        base = f"http://{args.host}:{port}"
    path = "/v1/batch" if args.batch else "/v1/search"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_items": args.n_items,
        "n_blocks": args.n_blocks,
        "method": args.method,
    }
    if args.backend is not None:
        payload["backend"] = args.backend
    if args.epsilon is not None:
        payload["epsilon"] = args.epsilon
    if args.target is not None:
        payload["target"] = args.target
    if args.batch:
        payload["batch"] = True
        if args.targets is not None:
            payload["targets"] = args.targets
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.dtype is not None:
        payload["dtype"] = args.dtype
    if args.row_threads is not None:
        payload["row_threads"] = args.row_threads
    if args.timeout is not None:
        payload["timeout"] = args.timeout
    if args.wants is not None:
        payload["wants"] = args.wants
    if args.engine is not None:
        payload["engine"] = args.engine
    request = urllib.request.Request(
        base.rstrip("/") + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    if args.api_key is not None:
        request.add_header(API_KEY_HEADER, args.api_key)
    if args.trace_id is not None:
        request.add_header(TRACE_HEADER, args.trace_id)
    try:
        with urllib.request.urlopen(request) as response:
            body = response.read()
            trace = response.headers.get(TRACE_HEADER)
    except urllib.error.HTTPError as exc:
        # The gateway's structured error envelope is the useful output.
        sys.stdout.write(exc.read().decode("utf-8", "replace"))
        print()
        print(f"repro curl: HTTP {exc.code} from {base}{path}",
              file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"repro curl: cannot reach {base}{path}: {exc.reason}",
              file=sys.stderr)
        return 1
    sys.stdout.write(body.decode("utf-8"))
    print()
    if trace:
        print(f"trace: {trace}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from repro.observability import Span, render_waterfall

    if args.url is not None:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + f"/v1/trace/{args.trace_id}"
        try:
            with urllib.request.urlopen(url) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            print(f"repro trace: HTTP {exc.code} from {url}: {detail}",
                  file=sys.stderr)
            return 1
        except urllib.error.URLError as exc:
            print(f"repro trace: cannot reach {url}: {exc.reason}",
                  file=sys.stderr)
            return 1
    else:
        from repro.service.server import DEFAULT_PORT, fetch_trace

        address = (args.host, DEFAULT_PORT if args.port is None else args.port)
        try:
            payload = fetch_trace(address, args.trace_id)
        except (OSError, RuntimeError) as exc:
            print(f"repro trace: {exc}", file=sys.stderr)
            return 1
    span_dicts = payload.get("spans") or []
    if args.json:
        json.dump({"trace_id": payload.get("trace_id", args.trace_id),
                   "spans": span_dicts}, sys.stdout, indent=2, default=str)
        print()
        return 0
    if not span_dicts:
        print(f"repro trace: no spans recorded for {args.trace_id} "
              "(evicted, untraced, or never seen)", file=sys.stderr)
        return 1
    spans = [Span.from_dict(d) for d in span_dicts if isinstance(d, dict)]
    print(render_waterfall(spans))
    return 0


def _cmd_worker(args) -> int:
    from repro.service.worker import run_worker

    return run_worker(args)


def _cmd_methods(_args) -> int:
    from repro.analytic import get_model, has_model
    from repro.engine.registry import available_methods, get_method

    for name in available_methods():
        spec = get_method(name)
        if has_model(name):
            model = get_model(name)
            analytic = f"analytic:{model.regime}"
        else:
            analytic = "analytic:-"
        print(f"{name:18s} [{', '.join(spec.backends)}]  "
              f"{analytic:18s} {spec.description}")
    return 0


def _cmd_cluster(args) -> int:
    from repro.service.server import DEFAULT_PORT, cluster_status

    address = (args.host, DEFAULT_PORT if args.port is None else args.port)
    status = cluster_status(address)
    if args.json:
        from repro.gateway.schema import SCHEMA_VERSION
        from repro.util.jsonsafe import json_safe

        status = {"schema_version": SCHEMA_VERSION, "kind": "cluster-status",
                  "cluster": json_safe(status)}
    json.dump(status, sys.stdout, indent=2)
    print()
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "gateway": _cmd_gateway,
    "submit": _cmd_submit,
    "curl": _cmd_curl,
    "trace": _cmd_trace,
    "worker": _cmd_worker,
    "methods": _cmd_methods,
    "cluster": _cmd_cluster,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serving and distribution CLI for the partial-search engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_serve(sub)
    _add_gateway(sub)
    _add_submit(sub)
    _add_curl(sub)
    _add_trace(sub)
    _add_worker(sub)
    _add_methods(sub)
    _add_cluster(sub)
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
