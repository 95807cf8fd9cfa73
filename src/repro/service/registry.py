"""Dynamic worker membership: registration, liveness, and lookup.

PR 3's :class:`~repro.service.executor.RemoteExecutor` takes a *static*
address list, which means every ``repro serve`` deployment had to be wired
with ``--remote-worker host:port`` flags and restarted to change the fleet.
The :class:`WorkerRegistry` removes that coupling:

- workers **announce themselves** — ``repro-worker --register server:port``
  sends one ``("register", "host:port", meta)`` frame to the server, which
  adds the address here together with the kernel backends the worker
  advertised;
- the server **health-checks** the membership on a timer, reusing the
  protocol's existing ``("ping",)`` message (see
  :meth:`SearchServer._health_loop <repro.service.server.SearchServer>`),
  and drops workers that stop answering;
- the registry is a worker source: batched searches dispatch through a
  :class:`~repro.service.executor.RemoteExecutor` that reads
  :meth:`WorkerRegistry.candidates` *per run* — so a worker registered
  mid-traffic serves the very next batch, and an empty registry degrades
  to local execution (``fallback_local=True``) instead of failing.

The registry is a plain thread-safe set: the asyncio server mutates it from
the event loop while executor threads snapshot it, and every operation is a
single lock-held dict access.
"""

from __future__ import annotations

import threading
import time

__all__ = ["WorkerRegistry"]


class WorkerRegistry:
    """Thread-safe live-worker membership keyed by ``"host:port"``.

    Attributes are intentionally minimal — the registry records *who is
    alive* and which kernel backends each worker advertised at
    registration; shard scheduling stays the executor's job (it filters
    its per-run snapshot by the backend a shard requires).
    """

    #: The name :meth:`RemoteExecutor.describe
    #: <repro.service.executor.RemoteExecutor.describe>` reports.
    kind = "registry"

    def __init__(self, *, breakers=None):
        self._lock = threading.Lock()
        #: address -> registration metadata (monotonic stamps for stats).
        self._workers: dict[str, dict] = {}
        self.registrations = 0
        self.evictions = 0
        #: Optional shared :class:`~repro.resilience.BreakerRegistry` —
        #: the registry does not consult it (scheduling stays the
        #: executor's job); it is attached purely so the stats surface can
        #: report breaker state next to the membership it quarantines.
        self.breakers = breakers

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def add(self, address: str, *, backends=None, calibrated=None) -> bool:
        """Register *address*; returns True when it is new (re-registration
        of a live worker just refreshes its stamp and capabilities).

        *backends* is the kernel-backend tuple the worker advertised in its
        registration meta; ``None`` (a meta without the key) records the
        numpy baseline every build carries, so such workers only ever
        receive shards they can execute.
        *calibrated* is the worker's probed-fastest backend, surfaced in
        stats for operators — routing does not consult it.
        """
        address = str(address)
        if backends is None:
            backends = ("numpy",)
        backends = tuple(str(b) for b in backends)
        now = time.monotonic()
        with self._lock:
            fresh = address not in self._workers
            self._workers[address] = {
                "registered_at": now,
                "last_seen": now,
                "backends": backends,
                "calibrated": calibrated,
            }
            self.registrations += 1
            return fresh

    def remove(self, address: str) -> bool:
        """Evict *address* (a failed health check or explicit shutdown)."""
        with self._lock:
            if address in self._workers:
                del self._workers[address]
                self.evictions += 1
                return True
            return False

    def remove_if_stale(self, address: str, cutoff: float) -> bool:
        """Evict *address* only if it has not re-announced since *cutoff*.

        Health sweeps are slow relative to registrations: the sweep
        snapshots the membership, pings every worker (seconds), and only
        then evicts the failures.  A worker that re-registers *during* that
        window — typically one that just restarted, so the ping hit its dead
        predecessor — must not be evicted on the stale probe result.  The
        sweep therefore passes its start time as *cutoff* and the eviction
        is skipped whenever the registration stamp is newer.

        Returns True when the address was actually removed.
        """
        with self._lock:
            meta = self._workers.get(address)
            if meta is None:
                return False
            if meta["last_seen"] > cutoff or meta["registered_at"] > cutoff:
                return False  # re-announced mid-sweep: the probe was stale
            del self._workers[address]
            self.evictions += 1
            return True

    def mark_alive(self, address: str) -> None:
        """Refresh the liveness stamp after a successful ping."""
        now = time.monotonic()
        with self._lock:
            if address in self._workers:
                self._workers[address]["last_seen"] = now

    def snapshot(self, *, backend: str | None = None) -> list[str]:
        """The live addresses, sorted for deterministic dispatch order.

        With *backend* set, only workers that advertised that kernel
        backend are returned — the routing filter the executors use so a
        ``backend="numba"`` shard never lands on a numpy-only worker.
        """
        with self._lock:
            if backend is None:
                return sorted(self._workers)
            return sorted(
                address for address, meta in self._workers.items()
                if backend in meta.get("backends", ("numpy",))
            )

    def candidates(self, backend: str) -> list[str]:
        """Worker-source view: the live workers able to run *backend*
        shards (every worker for the numpy baseline)."""
        return self.snapshot(backend=None if backend == "numpy" else backend)

    def describe(self) -> dict:
        return {"workers": self.snapshot()}

    def worker_backends(self) -> dict[str, tuple[str, ...]]:
        """``{address: advertised kernel backends}`` for the live fleet."""
        with self._lock:
            return {
                address: meta.get("backends", ("numpy",))
                for address, meta in sorted(self._workers.items())
            }

    def stats(self) -> dict:
        """``{workers, backends, registrations, evictions[, breakers]}``
        for the stats surface."""
        with self._lock:
            stats = {
                "workers": sorted(self._workers),
                "backends": {
                    address: list(meta.get("backends", ("numpy",)))
                    for address, meta in sorted(self._workers.items())
                },
                "calibrated": {
                    address: meta.get("calibrated")
                    for address, meta in sorted(self._workers.items())
                    if meta.get("calibrated")
                },
                "registrations": self.registrations,
                "evictions": self.evictions,
            }
        if self.breakers is not None:
            stats["breakers"] = self.breakers.snapshot()
        return stats
