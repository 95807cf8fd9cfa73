"""SearchService and SearchServer: concurrency, backpressure, cache, timeouts.

The acceptance-level check lives in
``TestConcurrency::test_sustains_eight_concurrent_clients_with_bounded_memory``:
16 clients against an 8-worker service, with the queue and cache bounds
enforced throughout.
"""

import asyncio
import contextvars
import threading
import time

import pytest

from repro.engine import SearchEngine, SearchRequest
from repro.service.scheduler import SearchService, ServiceOverloaded
from repro.service.server import SearchServer, server_stats, submit_remote


def run(coro):
    return asyncio.run(coro)


class CountingEngine(SearchEngine):
    """Engine wrapper that tracks call counts and peak concurrency."""

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.delay = delay
        self.calls = 0
        self.active = 0
        self.peak_active = 0
        self._lock = threading.Lock()

    def search(self, request, database=None):
        with self._lock:
            self.calls += 1
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)
        try:
            if self.delay:
                time.sleep(self.delay)
            return super().search(request, database)
        finally:
            with self._lock:
                self.active -= 1


#: A value only this test module knows of: the service's pool hop must
#: carry it with no code that names it.
CALLER_VALUE = contextvars.ContextVar("test_caller_value", default=None)


class ContextEchoEngine:
    """Stub engine whose search returns :data:`CALLER_VALUE` as it reads it."""

    def search(self, request, database=None):
        return CALLER_VALUE.get()


class TestSubmit:
    def test_job_runs_in_a_copy_of_the_callers_context(self):
        async def main():
            async with SearchService(ContextEchoEngine()) as service:
                CALLER_VALUE.set("set-by-the-caller")
                return await service.submit(
                    SearchRequest(n_items=64, n_blocks=4, target=3)
                )

        assert run(main()) == "set-by-the-caller"

    def test_single_search_matches_direct_engine(self):
        async def main():
            async with SearchService() as service:
                return await service.submit(
                    SearchRequest(n_items=64, n_blocks=4, target=17)
                )

        report = run(main())
        direct = SearchEngine().search(
            SearchRequest(n_items=64, n_blocks=4, target=17)
        )
        assert report.block_guess == direct.block_guess
        assert report.success_probability == direct.success_probability

    def test_batch_submit(self):
        async def main():
            async with SearchService() as service:
                return await service.submit(
                    SearchRequest(n_items=64, n_blocks=4), batch=True
                )

        report = run(main())
        assert report.n_rows == 64 and report.all_correct

    def test_cache_hit_skips_execution(self):
        engine = CountingEngine()

        async def main():
            async with SearchService(engine) as service:
                req = SearchRequest(n_items=64, n_blocks=4, target=5)
                a = await service.submit(req)
                b = await service.submit(req)
                return a, b, service.stats_snapshot()

        a, b, stats = run(main())
        assert engine.calls == 1
        assert stats["cache_hits"] == 1
        assert a.success_probability == b.success_probability

    def test_concurrent_identical_requests_coalesce(self):
        """Single-flight: N concurrent identical requests cost exactly one
        engine execution even with a cold cache."""
        engine = CountingEngine(delay=0.1)

        async def main():
            async with SearchService(engine, max_workers=8) as service:
                req = SearchRequest(n_items=64, n_blocks=4, target=9)
                reports = await asyncio.gather(
                    *[service.submit(req) for _ in range(10)]
                )
                return reports, service.stats_snapshot()

        reports, stats = run(main())
        assert engine.calls == 1
        assert stats["coalesced"] == 9
        assert len({r.success_probability for r in reports}) == 1

    def test_coalesced_requests_share_failures(self):
        async def main():
            async with SearchService(max_workers=4) as service:
                req = SearchRequest(n_items=64, n_blocks=4,
                                    method="no-such-method", target=0)
                outcomes = await asyncio.gather(
                    *[service.submit(req) for _ in range(4)],
                    return_exceptions=True,
                )
                return outcomes

        outcomes = run(main())
        assert all(isinstance(o, ValueError) for o in outcomes)

    def test_distinct_requests_miss_the_cache(self):
        engine = CountingEngine()

        async def main():
            async with SearchService(engine) as service:
                for t in range(4):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=t)
                    )

        run(main())
        assert engine.calls == 4

    def test_timeout_raises_and_counts(self):
        engine = CountingEngine(delay=0.5)

        async def main():
            async with SearchService(engine, request_timeout=0.05) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=1)
                    )
                return service.stats_snapshot()

        stats = run(main())
        assert stats["timeouts"] == 1 and stats["failed"] == 1

    def test_timeout_raises_promptly(self):
        """The client must get TimeoutError at the deadline, not when the
        un-killable pool thread eventually finishes."""
        engine = CountingEngine(delay=1.0)

        async def main():
            async with SearchService(engine, request_timeout=0.05) as service:
                t0 = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=1)
                    )
                return time.monotonic() - t0

        assert run(main()) < 0.6

    @pytest.mark.parametrize("timeout", [float("inf"), 10.0])
    def test_caller_timeout_cannot_extend_the_service_bound(self, timeout):
        """``request_timeout`` is the ceiling: a longer caller timeout
        (JSON's ``1e400`` reads as ``inf``) must not hold a worker slot
        past it."""
        engine = CountingEngine(delay=0.5)

        async def main():
            async with SearchService(engine, request_timeout=0.05) as service:
                t0 = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=1),
                        timeout=timeout,
                    )
                return time.monotonic() - t0

        assert run(main()) < 0.4

    def test_timed_out_job_keeps_its_worker_slot(self):
        """Regression: a timed-out request's thread keeps running, so its
        worker slot must stay held until it finishes — otherwise a timeout
        storm oversubscribes the pool."""
        engine = CountingEngine(delay=0.3)

        async def main():
            async with SearchService(
                engine, max_workers=1, cache_size=0, request_timeout=10.0
            ) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=1),
                        timeout=0.05,
                    )
                # The abandoned job still owns the single worker slot; this
                # request must wait for it rather than run concurrently.
                await service.submit(
                    SearchRequest(n_items=64, n_blocks=4, target=2)
                )

        run(main())
        assert engine.calls == 2
        assert engine.peak_active == 1  # never oversubscribed

    def test_engine_error_propagates(self):
        async def main():
            async with SearchService() as service:
                with pytest.raises(ValueError, match="unknown method"):
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4,
                                      method="no-such-method", target=0)
                    )
                return service.stats_snapshot()

        stats = run(main())
        assert stats["failed"] == 1

    def test_closed_service_rejects(self):
        async def main():
            service = SearchService()
            service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(
                    SearchRequest(n_items=64, n_blocks=4, target=0)
                )

        run(main())


class TestBackpressure:
    def test_overload_rejected_immediately(self):
        engine = CountingEngine(delay=0.3)

        async def main():
            async with SearchService(
                engine, max_pending=2, max_workers=1, cache_size=0
            ) as service:
                async def one(t):
                    try:
                        await service.submit(
                            SearchRequest(n_items=64, n_blocks=4, target=t)
                        )
                        return "ok"
                    except ServiceOverloaded:
                        return "rejected"

                outcomes = await asyncio.gather(*[one(t) for t in range(6)])
                return outcomes, service.stats_snapshot()

        outcomes, stats = run(main())
        assert outcomes.count("ok") == 2
        assert outcomes.count("rejected") == 4
        assert stats["rejected"] == 4
        # The bound held: nothing ever queued beyond it.
        assert engine.calls == 2

    def test_slots_free_after_completion(self):
        async def main():
            async with SearchService(max_pending=2, cache_size=0) as service:
                for t in range(6):  # sequential: never more than 1 pending
                    await service.submit(
                        SearchRequest(n_items=64, n_blocks=4, target=t)
                    )
                return service.stats_snapshot()

        stats = run(main())
        assert stats["completed"] == 6 and stats["rejected"] == 0


class TestConcurrency:
    def test_sustains_eight_concurrent_clients_with_bounded_memory(self):
        """≥ 8 concurrent clients, every request served, queue + cache
        bounds enforced (the ISSUE acceptance criterion)."""
        engine = CountingEngine(delay=0.05)
        n_clients, per_client = 16, 3
        cache_size = 8

        async def main():
            async with SearchService(
                engine,
                max_pending=n_clients * per_client,
                max_workers=8,
                cache_size=cache_size,
            ) as service:
                async def client(c):
                    out = []
                    for r in range(per_client):
                        out.append(await service.submit(
                            SearchRequest(n_items=64, n_blocks=4,
                                          target=(c * per_client + r) % 64)
                        ))
                    return out

                results = await asyncio.gather(
                    *[client(c) for c in range(n_clients)]
                )
                return results, service.stats_snapshot()

        results, stats = run(main())
        assert len(results) == n_clients
        assert all(len(r) == per_client for r in results)
        assert stats["completed"] == n_clients * per_client
        assert stats["rejected"] == 0
        # True simultaneous execution reached the worker bound (and no
        # further: concurrency is bounded too).
        assert engine.peak_active == 8
        # Cache stayed within its entry bound despite 48 distinct requests.
        assert stats["cache"]["size"] <= cache_size

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchService(max_pending=0)
        with pytest.raises(ValueError):
            SearchService(max_workers=0)
        with pytest.raises(ValueError):
            SearchService(request_timeout=0)


class TestServer:
    def test_end_to_end_over_loopback(self):
        async def main():
            async with SearchService() as service:
                server = SearchServer(service)
                await server.start()
                addr = server.address

                def client(t):
                    return submit_remote(
                        addr, SearchRequest(n_items=256, n_blocks=4, target=t)
                    )

                reports = await asyncio.gather(
                    *[asyncio.to_thread(client, t) for t in range(10)]
                )
                stats = await asyncio.to_thread(server_stats, addr)
                await server.stop()
                return reports, stats

        reports, stats = run(main())
        assert len(reports) == 10
        assert all(r.success_probability > 0.99 for r in reports)
        assert stats["completed"] == 10  # the stats message is not a submit

    def test_wire_timeout_cannot_extend_the_service_bound(self):
        engine = CountingEngine(delay=0.5)

        async def main():
            async with SearchService(engine, request_timeout=0.05) as service:
                server = SearchServer(service)
                await server.start()
                try:
                    with pytest.raises(TimeoutError):
                        await asyncio.to_thread(
                            submit_remote, server.address,
                            SearchRequest(n_items=64, n_blocks=4, target=1),
                            timeout=float("inf"),
                        )
                finally:
                    await server.stop()

        run(main())

    def test_server_reports_overload(self):
        engine = CountingEngine(delay=0.5)

        async def main():
            async with SearchService(
                engine, max_pending=1, max_workers=1, cache_size=0
            ) as service:
                server = SearchServer(service)
                await server.start()
                addr = server.address

                def client(t):
                    try:
                        submit_remote(
                            addr,
                            SearchRequest(n_items=64, n_blocks=4, target=t),
                        )
                        return "ok"
                    except ServiceOverloaded:
                        return "rejected"

                outcomes = await asyncio.gather(
                    *[asyncio.to_thread(client, t) for t in range(4)]
                )
                await server.stop()
                return outcomes

        outcomes = run(main())
        assert outcomes.count("ok") >= 1
        assert outcomes.count("rejected") >= 1

    def test_batch_round_trip_matches_local(self):
        async def main():
            async with SearchService() as service:
                server = SearchServer(service)
                await server.start()
                addr = server.address
                report = await asyncio.to_thread(
                    submit_remote,
                    addr,
                    SearchRequest(n_items=128, n_blocks=4),
                    batch=True,
                )
                await server.stop()
                return report

        remote = run(main())
        local = SearchEngine().search_batch(SearchRequest(n_items=128, n_blocks=4))
        import numpy as np

        assert np.array_equal(remote.success_probabilities,
                              local.success_probabilities)
        assert np.array_equal(remote.block_guesses, local.block_guesses)
