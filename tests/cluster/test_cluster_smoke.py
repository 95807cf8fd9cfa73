"""Cluster smoke suite (``pytest -m cluster``): two live ``SearchServer``
replicas plus a ``repro-worker`` on loopback.

Covers the acceptance criteria end to end — a request computed on replica A
served bit-identically from cache by replica B, a worker registered to one
replica executing shards submitted to both — plus the fault paths: a peer
dying mid-gossip, and a cache peer timing out with the request falling back
to local compute.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.cluster import (
    CachePeers,
    ClusterCoordinator,
    ClusterMembership,
    ClusterWorkers,
)
from repro.engine import SearchEngine, SearchRequest, ShardPolicy
from repro.service.executor import RemoteExecutor
from repro.service.registry import WorkerRegistry
from repro.service.scheduler import SearchService
from repro.service.server import SearchServer, cluster_status
from repro.service.worker import WorkerServer, register_with_server

pytestmark = pytest.mark.cluster


def run(coro):
    return asyncio.run(coro)


class Replica:
    """One clustered serve replica (server + service + coordinator)."""

    def __init__(self, *, peer_kwargs=None):
        self.membership = ClusterMembership(suspicion_timeout=60.0)
        self.registry = WorkerRegistry()
        self.coordinator = ClusterCoordinator(
            self.membership, gossip_interval=60.0, gossip_timeout=2.0
        )
        self.peering = CachePeers(self.membership, **(peer_kwargs or {}))
        engine = SearchEngine(
            executor=RemoteExecutor(
                ClusterWorkers(self.membership, self.registry),
                fallback_local=True, timeout=60.0,
            )
        )
        self.service = SearchService(engine, peering=self.peering)
        self.server = SearchServer(
            self.service, registry=self.registry, health_interval=60.0,
            cluster=self.coordinator,
        )

    async def start(self) -> "Replica":
        await self.server.start()
        return self

    @property
    def address(self) -> str:
        host, port = self.server.address
        return f"{host}:{port}"

    def join(self, other: "Replica") -> None:
        self.membership.seeds = (other.address,)

    async def stop(self) -> None:
        await self.server.stop()
        self.service.close()


async def _two_joined_replicas(**kwargs):
    a = await Replica(**kwargs).start()
    b = await Replica(**kwargs).start()
    a.join(b)
    await a.coordinator.gossip_once()  # A -> B: now both know each other
    return a, b


class TestMembershipConvergence:
    def test_one_seeded_exchange_joins_both_ways(self):
        async def scenario():
            a, b = await _two_joined_replicas()
            try:
                assert a.membership.peers() == [b.address]
                assert b.membership.peers() == [a.address]
            finally:
                await a.stop()
                await b.stop()

        run(scenario())

    def test_peer_death_mid_gossip_is_survived_and_aged_out(self):
        """A member that dies between rounds costs one failed exchange;
        its entry expires once the suspicion window passes."""

        async def scenario():
            a, b = await _two_joined_replicas()
            try:
                b_address = b.address
                await b.stop()  # B dies; A still believes in it
                a.membership.seeds = ()
                assert a.membership.peers() == [b_address]
                failed_before = a.coordinator.failed_exchanges
                await a.coordinator.gossip_once()  # gossips at the corpse
                assert a.coordinator.failed_exchanges == failed_before + 1
                # Suspicion: shrink the window and the entry ages out.
                a.membership.suspicion_timeout = 1e-6
                await asyncio.sleep(0.01)
                await a.coordinator.gossip_once()
                assert a.membership.peers() == []
                # The replica still serves local traffic afterwards.
                report = await a.service.submit(
                    SearchRequest(n_items=64, n_blocks=4), batch=True
                )
                assert report.n_rows == 64
            finally:
                await a.stop()

        run(scenario())


class TestCachePeering:
    def test_request_computed_on_a_served_bit_identical_by_b(self):
        """Acceptance: replica B answers A's already-computed request from
        the peered cache, with a bit-identical BatchReport."""

        async def scenario():
            a, b = await _two_joined_replicas()
            try:
                request = SearchRequest(n_items=256, n_blocks=4)
                report_a = await a.service.submit(request, batch=True)
                report_b = await b.service.submit(request, batch=True)
                assert b.service.stats.peer_hits == 1
                assert b.service.stats.peer_misses == 0
                np.testing.assert_array_equal(
                    report_a.success_probabilities,
                    report_b.success_probabilities,
                )
                np.testing.assert_array_equal(
                    report_a.block_guesses, report_b.block_guesses
                )
                assert report_a.queries_per_run == report_b.queries_per_run
                # The serving peer verified + served exactly one peek.
                assert a.coordinator.peek_hits == 1
                assert b.peering.stats()["hits"] == 1
            finally:
                await a.stop()
                await b.stop()

        run(scenario())

    def test_cache_peer_timeout_falls_back_to_local_compute(self):
        """A hung cache peer must cost a bounded wait, then the request
        computes locally and still succeeds."""

        async def scenario():
            a = await Replica(
                peer_kwargs={"connect_timeout": 0.5, "reply_timeout": 0.3,
                             "inflight_wait": 0.1, "total_budget": 1.0}
            ).start()
            # A "peer" that accepts connections but never answers frames.
            hung = socket.create_server(("127.0.0.1", 0))
            hung_addr = f"127.0.0.1:{hung.getsockname()[1]}"
            a.membership.merge(
                {hung_addr: {"heartbeat": 1, "workers": [], "load": 0}}
            )
            try:
                report = await a.service.submit(
                    SearchRequest(n_items=128, n_blocks=4), batch=True
                )
                assert report.n_rows == 128
                assert a.service.stats.peer_hits == 0
                assert a.service.stats.peer_misses == 1
                assert a.peering.stats()["errors"] == 1
                # Identical to a plain local run.
                local = SearchEngine().search_batch(
                    SearchRequest(n_items=128, n_blocks=4)
                )
                np.testing.assert_array_equal(
                    report.success_probabilities, local.success_probabilities
                )
            finally:
                hung.close()
                await a.stop()

        run(scenario())

    def test_hung_peer_probe_is_bounded_and_never_fails_the_request(self):
        """Regression, two halves: (1) the probe is capped at half the
        remaining deadline, so the request's total wall time stays within
        one deadline-ish bound (no deadline doubling); (2) peering is an
        optimisation — a hung peer must end in a local compute, never a
        failed request."""

        async def scenario():
            a = await Replica(
                peer_kwargs={"connect_timeout": 1.0, "reply_timeout": 30.0,
                             "inflight_wait": 30.0, "total_budget": 60.0}
            ).start()
            hung = socket.create_server(("127.0.0.1", 0))
            hung_addr = f"127.0.0.1:{hung.getsockname()[1]}"
            a.membership.merge(
                {hung_addr: {"heartbeat": 1, "workers": [], "load": 0}}
            )
            try:
                import time

                start = time.monotonic()
                report = await a.service.submit(
                    SearchRequest(n_items=128, n_blocks=4),
                    batch=True, timeout=2.0,
                )
                elapsed = time.monotonic() - start
                # Probe share is deadline/2 = 1.0s, compute is fast: the
                # 60s peer budgets must not leak into the request time.
                assert elapsed < 2.0
                assert report.n_rows == 128
                assert a.service.stats.timeouts == 0
                assert a.service.stats.failed == 0
                assert a.service.stats.peer_misses == 1
            finally:
                hung.close()
                await a.stop()

        run(scenario())

    def test_cluster_wide_single_flight_waits_on_computing_peer(self):
        """A probe for a key the peer is mid-computing is held and answered
        with the finished report — one execution cluster-wide.

        Deterministic version: the "computation in flight on A" is a future
        planted in A's single-flight table and resolved only after B's
        probe is known to be waiting on it."""

        async def scenario():
            a, b = await _two_joined_replicas(
                peer_kwargs={"inflight_wait": 30.0, "total_budget": 60.0}
            )
            try:
                from repro.service.cache import request_fingerprint

                request = SearchRequest(n_items=256, n_blocks=4)
                key = f"batch:{request_fingerprint(request, None)}"
                report_a = SearchEngine().search_batch(request)
                pending = asyncio.get_running_loop().create_future()
                a.service._inflight_jobs[key] = pending
                a.service._computing.add(key)  # execution started on A
                # A key that is admitted but NOT yet executing (still
                # probing its own peers) must not be held: peers get a
                # fast miss instead of a mutual stall.
                assert a.service.inflight_future(key) is pending
                a.service._computing.discard(key)
                assert a.service.inflight_future(key) is None
                a.service._computing.add(key)

                async def finish_once_b_is_waiting():
                    # B's probe has reached A once A served a peek attempt;
                    # peeks_served increments before the in-flight wait.
                    for _ in range(500):
                        if a.coordinator.peeks_served:
                            break
                        await asyncio.sleep(0.01)
                    assert a.coordinator.peeks_served == 1
                    await asyncio.sleep(0.05)  # B is now inside the wait
                    pending.set_result(report_a)

                resolver = asyncio.create_task(finish_once_b_is_waiting())
                report_b = await b.service.submit(request, batch=True)
                await resolver
                a.service._inflight_jobs.pop(key, None)
                a.service._computing.discard(key)
                assert b.service.stats.peer_hits == 1
                assert a.coordinator.peek_hits == 1
                np.testing.assert_array_equal(
                    report_a.success_probabilities,
                    report_b.success_probabilities,
                )
            finally:
                await a.stop()
                await b.stop()

        run(scenario())


class TestClusterScheduling:
    def test_worker_registered_to_either_replica_serves_both(self):
        """Acceptance: one ``--register`` to replica A; gossip propagates
        the worker, and shards submitted to A *and* B land on it."""

        async def scenario():
            a, b = await _two_joined_replicas()
            with WorkerServer() as worker:
                try:
                    waddr = f"{worker.address[0]}:{worker.address[1]}"
                    await asyncio.to_thread(
                        register_with_server, a.address, waddr
                    )
                    await a.coordinator.gossip_once()  # propagate to B
                    assert b.membership.cluster_workers() == {waddr: a.address}

                    shards = ShardPolicy(max_rows=32)
                    ra = await a.service.submit(
                        SearchRequest(n_items=128, n_blocks=4, shards=shards),
                        batch=True,
                    )
                    assert worker.shards_served == 4
                    rb = await b.service.submit(
                        SearchRequest(n_items=256, n_blocks=4, shards=shards),
                        batch=True,
                    )
                    assert worker.shards_served == 4 + 8
                    assert ra.execution["executor"] == "cluster"
                    assert rb.execution["workers"] == [waddr]
                    # Both reports bit-identical to plain local execution.
                    for rep, n in ((ra, 128), (rb, 256)):
                        local = SearchEngine().search_batch(
                            SearchRequest(n_items=n, n_blocks=4)
                        )
                        np.testing.assert_array_equal(
                            rep.success_probabilities,
                            local.success_probabilities,
                        )
                finally:
                    await a.stop()
                    await b.stop()

        run(scenario())


class TestStatusSurface:
    def test_cluster_status_message_and_stats_embedding(self):
        async def scenario():
            a, b = await _two_joined_replicas()
            try:
                status = await asyncio.to_thread(
                    cluster_status, a.server.address
                )
                assert status["membership"]["self"] == a.address
                assert b.address in status["membership"]["members"]
                assert status["gossip"]["rounds"] >= 1
                assert "outbound" in status["cache_peering"]
                stats = a.service.stats_snapshot()
                assert "peer_hits" in stats and "peer_misses" in stats
            finally:
                await a.stop()
                await b.stop()

        run(scenario())

    def test_unclustered_server_rejects_cluster_messages(self):
        async def scenario():
            async with SearchService(SearchEngine()) as service:
                server = SearchServer(service)
                await server.start()
                with pytest.raises(RuntimeError, match="cluster"):
                    await asyncio.to_thread(cluster_status, server.address)
                await server.stop()

        run(scenario())
