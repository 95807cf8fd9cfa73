"""Worker auto-registration: the register message, health loop, and
registry-backed shard dispatch.

The contract under test: a ``repro serve`` started with a
:class:`WorkerRegistry` needs no ``--remote-worker`` wiring — workers
announce themselves over the wire, the health loop (reusing the worker
protocol's ``ping``) evicts the dead, and the
:class:`RemoteExecutor` reading the registry resolves the live fleet per
batch, degrading to
local execution when nobody is registered.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import RemoteExecutor
from repro.service.registry import WorkerRegistry
from repro.service.scheduler import SearchService
from repro.service.server import SearchServer
from repro.service.wire import recv_frame, send_frame
from repro.service.worker import (
    WorkerServer,
    deregister_from_server,
    register_with_server,
    start_reannounce_loop,
)


def run(coro):
    return asyncio.run(coro)


def _addr(worker: WorkerServer) -> str:
    return f"{worker.address[0]}:{worker.address[1]}"


class TestWorkerRegistry:
    def test_add_remove_snapshot(self):
        reg = WorkerRegistry()
        assert reg.add("127.0.0.1:9001") is True
        assert reg.add("127.0.0.1:9001") is False  # refresh, not new
        reg.add("127.0.0.1:9000")
        assert reg.snapshot() == ["127.0.0.1:9000", "127.0.0.1:9001"]
        assert len(reg) == 2
        assert reg.remove("127.0.0.1:9001") is True
        assert reg.remove("127.0.0.1:9001") is False
        assert reg.stats()["registrations"] == 3
        assert reg.stats()["evictions"] == 1

    def test_mark_alive_only_tracks_members(self):
        reg = WorkerRegistry()
        reg.mark_alive("127.0.0.1:1")  # no-op, no crash
        assert len(reg) == 0


@pytest.mark.usefixtures("fake_shard")
class TestRegistryExecutor:
    def test_empty_registry_runs_locally(self):
        ex = RemoteExecutor(WorkerRegistry(), fallback_local=True)
        results = ex.run_shards([1, 2, 3])
        assert results == [2, 4, 6]
        assert ex.last_run == {"addresses": [], "local": True,
                               "quarantined": []}
        assert ex.describe()["executor"] == "registry"

    def test_dispatches_to_registered_worker(self):
        reg = WorkerRegistry()
        ex = RemoteExecutor(reg, fallback_local=True, timeout=30.0)
        with WorkerServer() as worker:
            reg.add(_addr(worker))
            results = ex.run_shards(list(range(5)))
            assert results == [0, 2, 4, 6, 8]
            assert worker.shards_served == 5
            assert ex.last_run["addresses"] == [_addr(worker)]
            assert ex.last_run["local"] is False

    def test_worker_registered_mid_traffic_serves_next_batch(self):
        reg = WorkerRegistry()
        ex = RemoteExecutor(reg, fallback_local=True, timeout=30.0)
        assert ex.run_shards([0]) == [0]  # local
        with WorkerServer() as worker:
            reg.add(_addr(worker))
            assert ex.run_shards([1]) == [2]  # remote
            assert worker.shards_served == 1

    def test_incompatible_peer_degrades_instead_of_aborting(self):
        """A registered port serving something that is not a repro worker
        (stale entry reused by another service, or a wire-version-
        mismatched build) must cost a requeue/fallback, not abort the
        batch with ShardExecutionError."""
        import threading

        def serve_garbage(sock):
            sock.settimeout(5)
            try:
                conn, _ = sock.accept()
                conn.recv(1 << 16)
                conn.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n" + b"x" * 64)
                conn.close()
            except OSError:
                pass

        srv = socket.create_server(("127.0.0.1", 0))
        threading.Thread(target=serve_garbage, args=(srv,), daemon=True).start()
        reg = WorkerRegistry()
        reg.add(f"127.0.0.1:{srv.getsockname()[1]}")
        ex = RemoteExecutor(reg, fallback_local=True, timeout=5.0,
                            connect_timeout=2.0)
        try:
            assert ex.run_shards([1, 2]) == [2, 4]
            assert ex.last_run["local_fallback_shards"] == 2
            assert "WireError" in ex.last_run["dead_workers"][0]["error"]
        finally:
            srv.close()

    def test_dead_fleet_falls_back_locally(self):
        reg = WorkerRegistry()
        # A port with nothing listening: grab and release one.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        reg.add(f"127.0.0.1:{port}")
        ex = RemoteExecutor(reg, fallback_local=True, timeout=5.0,
                            connect_timeout=0.5)
        assert ex.run_shards([7, 8]) == [14, 16]
        assert ex.last_run["local_fallback_shards"] == 2


class _Harness:
    """One server (registry-backed engine) plus helpers, inside asyncio."""

    def __init__(self, service: SearchService, registry: WorkerRegistry,
                 health_interval: float = 60.0):
        self.registry = registry
        self.server = SearchServer(
            service, registry=registry, health_interval=health_interval,
            health_timeout=1.0,
        )


def _roundtrip(address, message):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.settimeout(5.0)
        send_frame(sock, message)
        return recv_frame(sock)


class TestRegisterMessage:
    def test_register_and_stats(self):
        async def scenario():
            registry = WorkerRegistry()
            engine = SearchEngine(
                executor=RemoteExecutor(registry, fallback_local=True)
            )
            async with SearchService(engine) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                addr = server.address
                reply = await asyncio.to_thread(
                    _roundtrip, addr,
                    ("register", "127.0.0.1:7737", {}),
                )
                assert reply[0] == "registered"
                assert reply[1]["workers"] == ["127.0.0.1:7737"]
                stats = await asyncio.to_thread(_roundtrip, addr, ("stats",))
                assert stats[1]["worker_registry"]["workers"] == ["127.0.0.1:7737"]
                await server.stop()

        run(scenario())

    def test_register_rejected_without_registry(self):
        async def scenario():
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service)
                await server.start()
                reply = await asyncio.to_thread(
                    _roundtrip, server.address,
                    ("register", "127.0.0.1:7737", {}),
                )
                assert reply[0] == "error"
                assert "registration" in reply[1]
                await server.stop()

        run(scenario())

    def test_malformed_register_rejected(self):
        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry)
                await server.start()
                for bad in [("register",), ("register", "no-port"),
                            ("register", "host:NaN"),
                            ("register", "no-port", {}),
                            ("register", "host:NaN", {})]:
                    reply = await asyncio.to_thread(
                        _roundtrip, server.address, bad
                    )
                    assert reply[0] == "error"
                assert len(registry) == 0
                await server.stop()

        run(scenario())


class TestDeregisterMessage:
    def test_deregister_withdraws_the_worker(self):
        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                addr = server.address
                await asyncio.to_thread(
                    _roundtrip, addr,
                    ("register", "127.0.0.1:7737", {}),
                )
                reply = await asyncio.to_thread(
                    _roundtrip, addr, ("deregister", "127.0.0.1:7737")
                )
                assert reply[0] == "deregistered"
                assert reply[1]["removed"] is True
                assert reply[1]["workers"] == []
                assert len(registry) == 0
                # Idempotent: a second withdrawal is a no-op, not an error.
                reply = await asyncio.to_thread(
                    _roundtrip, addr, ("deregister", "127.0.0.1:7737")
                )
                assert reply[0] == "deregistered"
                assert reply[1]["removed"] is False
                await server.stop()

        run(scenario())

    def test_worker_drain_deregisters_itself(self):
        """The SIGTERM path end-to-end: drain() finishes, withdraws the
        registration, and stops — a rolling restart leaves no stale
        registry entry for the health loop to discover later."""

        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                host, port = server.address
                worker = WorkerServer().start()
                await asyncio.to_thread(
                    register_with_server, f"{host}:{port}", _addr(worker),
                )
                assert registry.snapshot() == [_addr(worker)]
                await asyncio.to_thread(
                    worker.drain,
                    deregister=(f"{host}:{port}", _addr(worker)),
                )
                assert registry.snapshot() == []
                await server.stop()

        run(scenario())

    def test_deregister_from_server_survives_a_dead_server(self):
        """Best-effort by contract: the server being gone must not turn a
        graceful worker shutdown into a crash."""
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert deregister_from_server(
            f"127.0.0.1:{port}", "127.0.0.1:1"
        ) is False


class TestHealthLoop:
    def test_sweep_keeps_live_evicts_dead(self):
        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0, health_timeout=1.0)
                await server.start()
                with WorkerServer() as worker:
                    live = _addr(worker)
                    registry.add(live)
                    probe = socket.create_server(("127.0.0.1", 0))
                    dead = f"127.0.0.1:{probe.getsockname()[1]}"
                    probe.close()
                    registry.add(dead)
                    await server.check_workers_once()
                    assert registry.snapshot() == [live]
                    assert registry.stats()["evictions"] == 1
                await server.stop()

        run(scenario())

    def test_periodic_loop_evicts_automatically(self):
        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=0.05, health_timeout=0.5)
                await server.start()
                probe = socket.create_server(("127.0.0.1", 0))
                dead = f"127.0.0.1:{probe.getsockname()[1]}"
                probe.close()
                registry.add(dead)
                for _ in range(100):
                    if len(registry) == 0:
                        break
                    await asyncio.sleep(0.05)
                assert len(registry) == 0
                await server.stop()

        run(scenario())


class TestWorkerSelfRegistration:
    def test_register_with_server_end_to_end(self):
        async def scenario():
            registry = WorkerRegistry()
            executor = RemoteExecutor(registry, fallback_local=True,
                                      timeout=30.0)
            engine = SearchEngine(executor=executor)
            async with SearchService(engine) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                host, port = server.address
                with WorkerServer() as worker:
                    payload = await asyncio.to_thread(
                        register_with_server, f"{host}:{port}", _addr(worker),
                    )
                    assert _addr(worker) == payload["workers"][0]
                    # A batched submit now fans its shards to the worker.
                    request = SearchRequest(
                        n_items=128, n_blocks=4,
                        shards=ShardPolicy(max_rows=32),
                    )
                    report = await service.submit(request, batch=True)
                    assert worker.shards_served == 4
                    local = SearchEngine().search_batch(request)
                    np.testing.assert_array_equal(
                        report.success_probabilities,
                        local.success_probabilities,
                    )
                await server.stop()

        run(scenario())

    def test_wildcard_advertise_resolved_to_dialable_address(self):
        """A worker bound to 0.0.0.0 must not advertise 0.0.0.0 — the
        server cannot dial that back.  The registration socket's local
        address (the interface that actually reaches the server) is
        advertised instead."""

        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                host, port = server.address
                payload = await asyncio.to_thread(
                    register_with_server, f"{host}:{port}", "0.0.0.0:7737",
                )
                assert payload["workers"] == ["127.0.0.1:7737"]
                assert registry.snapshot() == ["127.0.0.1:7737"]
                await server.stop()

        run(scenario())

    def test_reannounce_loop_heals_eviction(self):
        """A health-check eviction of a live worker must not be permanent:
        the worker's periodic re-announcement restores its membership."""
        import threading

        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0)
                await server.start()
                host, port = server.address
                stop = threading.Event()
                thread = start_reannounce_loop(
                    f"{host}:{port}", "127.0.0.1:7737",
                    interval=0.05, stop_event=stop,
                )
                try:
                    # Simulate a false-positive health eviction.
                    for _ in range(100):
                        if len(registry):
                            break
                        await asyncio.sleep(0.05)
                    registry.remove("127.0.0.1:7737")
                    for _ in range(100):
                        if len(registry):
                            break
                        await asyncio.sleep(0.05)
                    assert registry.snapshot() == ["127.0.0.1:7737"]
                finally:
                    stop.set()
                    thread.join(timeout=5)
                await server.stop()

        run(scenario())

    def test_register_with_server_rejects_bad_address(self):
        with pytest.raises(ValueError):
            register_with_server("nonsense", "127.0.0.1:1")

    def test_register_with_server_unreachable(self):
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            register_with_server(
                f"127.0.0.1:{port}", "127.0.0.1:1", attempts=2, delay=0.05,
            )


class TestEvictionReregistrationRace:
    """Regression: a worker that re-announces while a health sweep is in
    flight must not be evicted on the sweep's stale probe result.

    The failure mode: the sweep snapshots the fleet, pings (slow — up to
    ``health_timeout`` per dead address), and then evicts failures.  A
    worker that restarted and re-registered inside that window answered the
    registration but not the ping (the probe hit its dead predecessor);
    the unconditional ``remove`` dropped the *fresh* registration."""

    def test_remove_if_stale_spares_mid_sweep_reregistration(self):
        import time

        reg = WorkerRegistry()
        reg.add("127.0.0.1:7737")
        cutoff = time.monotonic()  # the sweep starts here
        # ... the ping to the old incarnation fails, and meanwhile the
        # restarted worker re-announces:
        reg.add("127.0.0.1:7737")
        assert reg.remove_if_stale("127.0.0.1:7737", cutoff) is False
        assert reg.snapshot() == ["127.0.0.1:7737"]
        assert reg.stats()["evictions"] == 0

    def test_remove_if_stale_evicts_genuinely_dead_workers(self):
        import time

        reg = WorkerRegistry()
        reg.add("127.0.0.1:7737")
        cutoff = time.monotonic()
        assert reg.remove_if_stale("127.0.0.1:7737", cutoff) is True
        assert reg.snapshot() == []
        assert reg.remove_if_stale("127.0.0.1:7737", cutoff) is False

    def test_health_sweep_keeps_worker_that_reregisters_mid_sweep(self):
        """End-to-end: the server's sweep pings a dead address; the worker
        re-registers while the ping is timing out; the sweep must keep it."""

        async def scenario():
            registry = WorkerRegistry()
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service, registry=registry,
                                      health_interval=60.0, health_timeout=1.0)
                await server.start()
                # A dead address: nothing listens here, so the probe fails.
                probe = socket.create_server(("127.0.0.1", 0))
                dead = f"127.0.0.1:{probe.getsockname()[1]}"
                probe.close()
                registry.add(dead)

                real_ping = server._ping_worker

                async def ping_then_reregister(address):
                    ok = await real_ping(address)
                    # The worker restarts and re-announces after the probe
                    # concluded but before the sweep's eviction pass.
                    registry.add(dead)
                    return ok

                server._ping_worker = ping_then_reregister
                await server.check_workers_once()
                assert registry.snapshot() == [dead]  # kept, not dropped
                assert registry.stats()["evictions"] == 0
                await server.stop()

        run(scenario())
