"""Dynamic worker membership: registration, liveness, and lookup.

PR 3's :class:`~repro.service.executor.RemoteExecutor` takes a *static*
address list, which means every ``repro serve`` deployment had to be wired
with ``--remote-worker host:port`` flags and restarted to change the fleet.
The :class:`WorkerRegistry` removes that coupling:

- workers **announce themselves** — ``repro-worker --register server:port``
  sends one ``("register", "host:port", {})`` frame to the server, which
  adds the address here;
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
    alive*; shard scheduling stays the executor's job.
    """

    #: The name :meth:`RemoteExecutor.describe
    #: <repro.service.executor.RemoteExecutor.describe>` reports.
    kind = "registry"
    #: Sorted addresses are a listing, not a ranking: the executor rotates
    #: where each run starts.
    load_ranked = False

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

    def add(self, address: str) -> bool:
        """Register *address*; returns True when it is new (re-registration
        of a live worker just refreshes its stamp)."""
        address = str(address)
        now = time.monotonic()
        with self._lock:
            fresh = address not in self._workers
            self._workers[address] = {"registered_at": now, "last_seen": now}
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

    def snapshot(self) -> list[str]:
        """The live addresses, sorted for deterministic dispatch order."""
        with self._lock:
            return sorted(self._workers)

    def candidates(self) -> list[str]:
        """Worker-source view: every live worker."""
        return self.snapshot()

    def describe(self) -> dict:
        return {"workers": self.snapshot()}

    def stats(self) -> dict:
        """``{workers, registrations, evictions[, breakers]}`` for the
        stats surface."""
        with self._lock:
            stats = {
                "workers": sorted(self._workers),
                "registrations": self.registrations,
                "evictions": self.evictions,
            }
        if self.breakers is not None:
            stats["breakers"] = self.breakers.snapshot()
        return stats
