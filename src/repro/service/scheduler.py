"""The async serving core: a bounded, cached front door to the engine.

:class:`SearchService` accepts :class:`~repro.engine.request.SearchRequest`
jobs from many concurrent clients and runs them on a
:class:`~repro.engine.SearchEngine` with explicit resource bounds:

- **bounded job queue / backpressure** — at most ``max_pending`` requests
  may be admitted (queued + running) at once; request ``max_pending + 1``
  is rejected *immediately* with :class:`ServiceOverloaded` instead of
  growing an unbounded queue.  Overload is a fast, explicit signal clients
  can retry on, not a latency cliff.
- **bounded concurrency** — at most ``max_workers`` searches execute
  simultaneously (on a thread pool; numpy kernels release the GIL, and the
  engine's own shard policy / executor governs per-search parallelism).
- **per-request timeouts** — a search that exceeds its deadline raises
  :class:`asyncio.TimeoutError` to its client immediately.  Python threads
  cannot be killed, so the abandoned computation keeps its *worker* slot
  until it actually finishes (the slot is reclaimed by a done-callback);
  admission capacity frees at once, and overload during a timeout storm
  surfaces as explicit :class:`ServiceOverloaded` rejections rather than
  a silently wedged pool.
- **TTL result cache** — completed reports are memoised by structural
  fingerprint (:func:`repro.service.cache.request_fingerprint`), so
  identical requests within the TTL cost one execution.  Cache size and TTL
  bound the memory the cache can hold.
- **single-flight coalescing** — concurrent identical requests share one
  execution: the first admits a job, the rest await its future (the
  thundering-herd pattern a cold cache cannot catch alone).

The service is transport-agnostic; :mod:`repro.service.server` exposes it
over TCP and :mod:`repro.service.cli` drives it from the command line.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import heapq
import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock

from repro.observability.spans import span
from repro.resilience import Deadline, deadline_scope
from repro.util.jsonsafe import json_safe

__all__ = ["SearchService", "ServiceOverloaded", "ServiceStats"]

log = logging.getLogger("repro.service.scheduler")


class ServiceOverloaded(RuntimeError):
    """Backpressure: the bounded job queue is full — retry later."""


class _PrioritySlots:
    """Worker slots whose waiters are served by priority class, not FIFO.

    A drop-in replacement for the plain ``asyncio.Semaphore`` the service
    used for its worker slots: :meth:`acquire` takes a priority (lower =
    served first; ties FIFO by arrival), so when the pool is contended an
    interactive request entering the queue *after* a pile of batch requests
    still gets the next free slot.  Single event loop only; :meth:`release`
    may be scheduled from other threads via ``loop.call_soon_threadsafe``
    (the reaper path), which serialises it onto the loop.
    """

    def __init__(self, count: int):
        self._free = count
        self._waiters: list = []  # heap of (priority, seq, future)
        self._seq = itertools.count()

    async def acquire(self, priority: int = 0) -> None:
        if self._free > 0 and not self._waiters:
            self._free -= 1
            return
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        heapq.heappush(self._waiters, (priority, next(self._seq), waiter))
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # The slot was granted in the same tick we were cancelled:
                # hand it to the next waiter instead of leaking it.
                self.release()
            raise

    def release(self) -> None:
        while self._waiters:
            _, _, waiter = heapq.heappop(self._waiters)
            if not waiter.done():
                waiter.set_result(None)
                return
        self._free += 1

    @property
    def waiting(self) -> int:
        return sum(1 for _, _, w in self._waiters if not w.done())


@dataclass
class ServiceStats:
    """Monotonic counters plus the instantaneous load of a service."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    peer_hits: int = 0
    peer_misses: int = 0
    coalesced: int = 0
    in_flight: int = 0
    cache: dict = field(default_factory=dict)

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "peer_hits": self.peer_hits,
            "peer_misses": self.peer_misses,
            "coalesced": self.coalesced,
            "in_flight": self.in_flight,
            "cache": dict(self.cache),
        }


class SearchService:
    """Async facade over a :class:`~repro.engine.SearchEngine`.

    Args:
        engine: the engine jobs run on (default: a fresh ``SearchEngine()``,
            optionally constructed with a custom executor for distributed
            shard fan-out).
        max_pending: admission bound — queued plus running requests.
        max_workers: simultaneous engine executions.
        request_timeout: per-request deadline in seconds, and the ceiling
            on a caller's ``timeout``.
        cache_size: TTL-cache entry bound (``0`` disables caching).
        cache_ttl: seconds a cached report stays servable.
        peering: optional :class:`~repro.cluster.peering.CachePeers` —
            when set, a local cache miss consults the cluster's sibling
            replicas (keyed by the same structural fingerprint) before
            computing; every peering failure mode falls back to local
            compute.
        trace_collector: optional
            :class:`~repro.observability.collector.TraceCollector` to
            receive each traced request's stitched span tree (default: a
            fresh bounded collector; the gateway's ``/v1/trace/{id}``
            and the wire ``trace`` message read it).

    Use as an async context manager (or call :meth:`close`) so the worker
    pool shuts down deterministically.
    """

    def __init__(
        self,
        engine=None,
        *,
        max_pending: int = 64,
        max_workers: int = 4,
        request_timeout: float = 60.0,
        cache_size: int = 256,
        cache_ttl: float = 300.0,
        peering=None,
        trace_collector=None,
    ):
        from repro.engine import SearchEngine
        from repro.observability.collector import TraceCollector
        from repro.service.cache import TTLCache

        if max_pending < 1:
            raise ValueError(f"max_pending={max_pending} must be >= 1")
        if max_workers < 1:
            raise ValueError(f"max_workers={max_workers} must be >= 1")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout={request_timeout} must be positive")
        self.engine = engine if engine is not None else SearchEngine()
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.cache = TTLCache(maxsize=cache_size, ttl=cache_ttl)
        self.peering = peering
        # Stitched span trees for recent requests (bounded ring); the
        # gateway's /v1/trace/{id} and the wire "trace" message read it.
        self.trace_collector = (
            trace_collector if trace_collector is not None else TraceCollector()
        )
        self.stats = ServiceStats()
        self._inflight_jobs: dict[str, asyncio.Future] = {}
        # Keys whose engine execution has actually *started* (not merely
        # probing peers).  Only these are exposed to cluster cache-peeks:
        # two replicas probing each other for the same fresh key must each
        # get a fast miss, not hold each other's probes.
        self._computing: set[str] = set()
        self._admission = Lock()
        self._slots = _PrioritySlots(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------ lifecycle
    async def __aenter__(self) -> "SearchService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool (and the peering client) down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True, cancel_futures=True)
            if self.peering is not None and hasattr(self.peering, "close"):
                self.peering.close()

    def drain(self) -> None:
        """Stop admitting new requests; in-flight ones finish normally.

        New submits are rejected with :class:`ServiceOverloaded` (the
        backpressure signal clients already retry on — against another
        replica, for a draining one).  Idempotent; :meth:`close` still
        performs the actual shutdown once the in-flight count reaches zero.
        """
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    # -------------------------------------------------------------- serving
    def _admit(self) -> None:
        with self._admission:
            if self._draining:
                self.stats.rejected += 1
                raise ServiceOverloaded(
                    "service is draining; retry against another replica"
                )
            if self.stats.in_flight >= self.max_pending:
                self.stats.rejected += 1
                raise ServiceOverloaded(
                    f"{self.stats.in_flight} requests already pending "
                    f"(bound {self.max_pending}); retry later"
                )
            self.stats.in_flight += 1
            self.stats.submitted += 1

    def _release(self) -> None:
        with self._admission:
            self.stats.in_flight -= 1

    async def submit(
        self,
        request,
        *,
        targets=None,
        batch: bool = False,
        database=None,
        timeout: float | None = None,
        priority: int = 1,
    ):
        """Admit, (maybe) serve from cache, execute, and cache one request.

        Args:
            request: the :class:`~repro.engine.request.SearchRequest`.
            targets: batch targets (``batch=True`` only); ``None`` = all.
            batch: dispatch to :meth:`~repro.engine.SearchEngine.search_batch`
                instead of :meth:`~repro.engine.SearchEngine.search`.
            database: explicit database for single searches (uncached —
                its query counter is part of the caller's experiment).
            timeout: per-request deadline in seconds; it can only shorten
                the ``request_timeout`` ceiling.
            priority: worker-slot class (lower = served first when the pool
                is contended; the gateway maps tenant classes here —
                0 interactive, 1 normal, 2 batch).

        Raises:
            ServiceOverloaded: the admission bound is full (backpressure).
            asyncio.TimeoutError: the deadline elapsed.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        from repro.service.cache import request_fingerprint

        deadline = (self.request_timeout if timeout is None
                    else min(timeout, self.request_timeout))
        self._admit()
        try:
            key = None
            if database is None:
                key = request_fingerprint(request, targets if batch else None)
                if not batch:
                    key = None if key is None else f"search:{key}"
                else:
                    key = None if key is None else f"batch:{key}"
            with span("cache.lookup") as lookup:
                cached = self.cache.get(key, _MISS)
                lookup.attrs["hit"] = cached is not _MISS
            if cached is not _MISS:
                self.stats.cache_hits += 1
                self.stats.completed += 1
                return cached

            # Single-flight: identical requests already executing are
            # awaited, not re-run (the waiter still occupies an admission
            # slot — it is a real pending client — but no worker slot).
            shared = self._inflight_jobs.get(key) if key is not None else None
            if shared is not None:
                self.stats.coalesced += 1
                with span("coalesce.wait"):
                    try:
                        result = await asyncio.wait_for(
                            asyncio.shield(shared), deadline
                        )
                    except asyncio.CancelledError:
                        if shared.cancelled():  # the primary died, not us
                            raise RuntimeError(
                                "coalesced request was cancelled with its primary"
                            ) from None
                        raise
                self.stats.completed += 1
                return result

            if batch:
                job = functools.partial(
                    self.engine.search_batch, request, targets=targets
                )
            else:
                job = functools.partial(self.engine.search, request, database)

            loop = asyncio.get_running_loop()
            promise: asyncio.Future | None = None
            if key is not None:
                promise = loop.create_future()
                self._inflight_jobs[key] = promise
            try:
                # Cache peering: before spending a worker slot, ask the
                # cluster's sibling replicas for this fingerprint.  The
                # promise is already registered, so concurrent identical
                # locals coalesce onto this fetch too.  The probe is capped
                # at *half* the remaining deadline — peering is an
                # optimisation, never a correctness dependency, so a hung
                # peer must cost a bounded wait and a local compute with
                # real deadline left, not a failed request.  The time the
                # probe does spend is charged against the deadline (no
                # doubling); any failure degrades to local compute.
                if promise is not None and self.peering is not None:
                    started = loop.time()
                    share = deadline / 2
                    fetched = None
                    with span("cache.peer_probe") as probe:
                        try:
                            # The share is passed INTO the fetch (its budget)
                            # so the probe threads self-terminate with their
                            # waiter; the wait_for is only a backstop.
                            fetched = await asyncio.wait_for(
                                asyncio.to_thread(
                                    self.peering.fetch, key, share
                                ),
                                share + 1.0,
                            )
                        except (asyncio.TimeoutError, TimeoutError):
                            pass  # probe overran its share: a peer miss
                        except Exception:
                            log.exception(
                                "cache peering failed; computing locally"
                            )
                        probe.attrs["hit"] = fetched is not None
                    if fetched is not None:
                        self.stats.peer_hits += 1
                        promise.set_result(fetched)
                        self.cache.put(key, fetched)
                        self.stats.completed += 1
                        return fetched
                    self.stats.peer_misses += 1
                    deadline = max(0.001, deadline - (loop.time() - started))
                if key is not None:
                    self._computing.add(key)
                with span("queue.wait", priority=priority):
                    await self._slots.acquire(priority)
                slot_held = True
                try:
                    # Submit directly so we hold the *concurrent* future: on
                    # timeout the asyncio wrapper gets cancelled and reports
                    # done immediately, but only the concurrent future
                    # completes when the pool thread actually ends.
                    # The job runs in a copy of this context, so the trace
                    # ID, span context and any other ambient value cross
                    # the hop as the caller set them.
                    job_future = self._pool.submit(
                        contextvars.copy_context().run,
                        self._run_with_deadline, job, Deadline.after(deadline),
                    )
                    try:
                        result = await asyncio.wait_for(
                            asyncio.wrap_future(job_future, loop=loop), deadline
                        )
                    except (asyncio.TimeoutError, TimeoutError) as exc:
                        self.stats.timeouts += 1
                        self.stats.failed += 1
                        if promise is not None:
                            promise.set_exception(exc)
                            promise.exception()  # mark retrieved: waiters optional
                        # The pool thread cannot be killed: keep the worker
                        # slot until the orphaned job actually finishes, so
                        # a timeout storm cannot oversubscribe the pool.
                        slot_held = False
                        job_future.add_done_callback(
                            functools.partial(self._reap_abandoned, loop)
                        )
                        raise
                    except Exception as exc:
                        self.stats.failed += 1
                        if promise is not None:
                            promise.set_exception(exc)
                            promise.exception()
                        raise
                finally:
                    if slot_held:
                        self._slots.release()
                if promise is not None:
                    promise.set_result(result)
            finally:
                if key is not None:
                    self._inflight_jobs.pop(key, None)
                    self._computing.discard(key)
                if promise is not None and not promise.done():
                    promise.cancel()  # primary cancelled mid-run
            self.cache.put(key, result)
            self.stats.completed += 1
            return result
        finally:
            self._release()

    @staticmethod
    def _run_with_deadline(job, deadline):
        """Pool-thread entry: run *job* under an ambient request deadline.

        :meth:`submit` starts this in a copy of the caller's context, so
        every ambient value (trace ID, span context) is already in place;
        only the deadline is new here.  The remaining budget becomes the
        ambient :class:`~repro.resilience.Deadline`: the engine reads it
        per shard batch and the executors ship it to workers, so an
        overrun stops dispatching instead of computing shards nobody
        awaits.  A :class:`~repro.resilience.DeadlineExceeded` raised by
        the engine is a ``TimeoutError`` subclass, so it flows into the
        existing timeout accounting (and the server's ``("timeout", ...)``
        reply) without a separate failure path.  ``engine.execute``
        brackets the engine's whole pool-thread residence (planning,
        dispatch, merge nest under it).
        """
        with deadline_scope(deadline), span("engine.execute"):
            return job()

    def _reap_abandoned(self, loop, job_future) -> None:
        """Release the worker slot of a timed-out job once its thread ends.

        Runs as a ``concurrent.futures`` done-callback (in the pool thread,
        or in the cancelling thread if the job never started), so the
        semaphore release hops back onto the event loop.  Consumes the
        job's outcome so nothing logs "exception was never retrieved".
        """
        if not job_future.cancelled():
            job_future.exception()
        try:
            loop.call_soon_threadsafe(self._slots.release)
        except RuntimeError:
            pass  # loop already closed: the service is shutting down

    def inflight_future(self, key: str | None) -> asyncio.Future | None:
        """The in-flight future for *key*, if its *execution* started here.

        The cluster cache-peek handler awaits this (bounded) to extend
        single-flight coalescing across replicas: a peer probing a key this
        service is mid-computing gets the finished report instead of a
        miss.  Keys that are admitted but still probing *their own* peers
        return ``None`` — otherwise two replicas missing the same key at
        once would hold each other's probes and both stall for the full
        peer-wait before computing anyway.
        """
        if key is None or key not in self._computing:
            return None
        return self._inflight_jobs.get(key)

    def stats_snapshot(self) -> dict:
        """Counters plus current cache occupancy — always JSON-safe.

        The snapshot crosses process boundaries (TCP stats, the gateway's
        ``/stats`` and ``/metrics``, ``--json`` CLI output), so it is
        sanitised here at the source: no numpy scalars, no tuple keys, no
        non-finite floats (:func:`repro.util.jsonsafe.json_safe`).
        """
        self.stats.cache = self.cache.stats()
        snapshot = self.stats.snapshot()
        snapshot["slot_waiters"] = self._slots.waiting
        return json_safe(snapshot)


_MISS = object()
