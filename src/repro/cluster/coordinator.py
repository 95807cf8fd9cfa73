"""The per-replica cluster agent: gossip loop plus peer-facing handlers.

One :class:`ClusterCoordinator` rides on each clustered
:class:`~repro.service.server.SearchServer`.  It owns two jobs:

1. **Gossip out** — an asyncio task that, every ``gossip_interval``
   seconds, bumps this replica's heartbeat (folding in the live worker
   registry and service load), expires suspected-dead members, and runs one
   push–pull exchange with every known peer and seed.  Exchange failures
   are counted and logged, never raised: a peer dying mid-gossip costs one
   failed round trip and its table entry quietly ages out.

2. **Answer in** — the server routes the cluster messages here:

   - ``("gossip", sender, table)`` -> ``("gossip-ack", table)`` — merge
     theirs (the sender's own entry counts as *direct contact*, clearing
     any tombstone), answer with ours (the pull half of push–pull);
   - ``("cache-peek", key, wait_s)`` -> ``("cache-found", bytes, digest)``
     or ``("cache-none",)`` — probe the local TTL cache without touching
     its LRU order or stats; when the key is *currently computing* here,
     hold the probe up to ``wait_s`` for the in-flight future (cluster-wide
     single-flight);
   - ``("cluster-status",)`` -> ``("cluster-status", dict)`` — the
     membership table, peering counters, and worker fleet for
     ``repro cluster status``.

The coordinator is constructed with just the membership and timing knobs;
the server wires in its bound address, registry, and service at start time
(:meth:`attach`) so port-0 binds and test harnesses stay simple.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict

from repro.cluster.peering import encode_cached_report
from repro.service.wire import (
    WireError,
    recv_frame_async,
    send_frame_async,
)

__all__ = ["ClusterCoordinator"]

log = logging.getLogger("repro.cluster")

_MISS = object()


class ClusterCoordinator:
    """Gossip agent + cluster message handler for one serve replica.

    Args:
        membership: the replica's :class:`~repro.cluster.membership.ClusterMembership`
            (shared with its :class:`~repro.cluster.executor.ClusterWorkers`
            and :class:`~repro.cluster.peering.CachePeers`).
        gossip_interval: seconds between gossip rounds.
        gossip_timeout: per-peer budget for one exchange (connect + round
            trip).
        breakers: shared :class:`~repro.resilience.BreakerRegistry` — a
            quarantined member is skipped (no dial) until its breaker
            half-opens, and exchange outcomes feed the same breakers the
            executor and cache peering use.  ``None`` disables it.
        chaos: optional :class:`~repro.resilience.FaultPlan` consulted at
            the ``gossip.exchange`` site (``refuse`` / ``slow`` / ``drop``).
    """

    def __init__(self, membership, *, gossip_interval: float = 2.0,
                 gossip_timeout: float = 3.0, breakers=None, chaos=None):
        if gossip_interval <= 0:
            raise ValueError(f"gossip_interval={gossip_interval} must be positive")
        self.membership = membership
        self.gossip_interval = gossip_interval
        self.gossip_timeout = gossip_timeout
        self.breakers = breakers
        self.chaos = chaos
        self.registry = None
        self.service = None
        self._task: asyncio.Task | None = None
        # Memo of encoded peek payloads: key -> (value, body, digest).
        # Holding the value reference makes the identity check sound (no
        # id() reuse while memoized) and keeps a hot fingerprint from
        # being re-pickled + re-hashed for every probing sibling.
        self._encoded: "OrderedDict[str, tuple]" = OrderedDict()
        self.rounds = 0
        self.failed_exchanges = 0
        self.skipped_exchanges = 0
        self.peeks_served = 0
        self.peek_hits = 0

    # ------------------------------------------------------------ lifecycle
    def attach(self, address: str, *, registry=None, service=None) -> None:
        """Bind the replica's advertised address and live collaborators.

        Called by :meth:`SearchServer.start` once the bind address is known;
        idempotent on the address (an explicit ``--cluster-advertise`` set
        before start wins over the bound address).
        """
        self.membership.bind(address)
        if registry is not None:
            self.registry = registry
        if service is not None:
            self.service = service

    async def start(self) -> None:
        """Seed the self entry and start the periodic gossip task."""
        if self.membership.self_address is None:
            raise RuntimeError(
                "coordinator not attached: call attach() with the bound "
                "address before start()"
            )
        self.membership.bump(workers=self._local_workers(),
                             load=self._local_load())
        if self._task is None:
            self._task = asyncio.create_task(self._gossip_loop())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # --------------------------------------------------------------- gossip
    def _local_workers(self):
        return self.registry.snapshot() if self.registry is not None else ()

    def _local_load(self) -> int:
        return self.service.stats.in_flight if self.service is not None else 0

    async def gossip_once(self) -> None:
        """One full round: bump, expire, exchange with every target.

        Public so tests (and embedders) can force convergence instead of
        waiting out the interval.
        """
        self.membership.bump(workers=self._local_workers(),
                             load=self._local_load())
        dropped = self.membership.drop_expired()
        for address in dropped:
            log.warning("cluster member %s suspected dead; dropped", address)
        targets = self.membership.gossip_targets()
        if targets:
            await asyncio.gather(
                *(self._exchange(a) for a in targets)
            )
        self.rounds += 1

    async def _exchange(self, address: str) -> None:
        """One push–pull exchange; failures are counted, never raised.

        A quarantined member (open breaker) is skipped without dialing —
        its table entry keeps ageing toward suspicion, and the half-open
        probe is what re-establishes contact.  Outcomes feed the shared
        breaker so gossip evidence protects the serving paths too.
        """
        from repro.service.address import parse_address

        breaker = self.breakers.get(address) if self.breakers is not None \
            else None
        if breaker is not None and not breaker.allow():
            self.skipped_exchanges += 1
            return
        if self.chaos is not None:
            spec = self.chaos.visit("gossip.exchange")
            if spec is not None:
                if spec.kind == "slow":
                    await asyncio.sleep(spec.delay_s)
                elif spec.kind in ("refuse", "drop"):
                    self.failed_exchanges += 1
                    if breaker is not None:
                        breaker.record_failure()
                    log.debug("gossip with %s failed: chaos %s",
                              address, spec.kind)
                    return
        writer = None
        try:
            host, port = parse_address(address)
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=self.gossip_timeout,
            )
            await asyncio.wait_for(
                send_frame_async(writer, ("gossip",
                                          self.membership.self_address,
                                          self.membership.export())),
                timeout=self.gossip_timeout,
            )
            reply = await asyncio.wait_for(
                recv_frame_async(reader), timeout=self.gossip_timeout
            )
            if isinstance(reply, tuple) and len(reply) == 2 \
                    and reply[0] == "gossip-ack":
                # The ack came straight from *address*: its own entry is
                # direct contact (clears any tombstone for it).
                self.membership.merge(reply[1], direct_from=address)
                if breaker is not None:
                    breaker.record_success()
            else:
                raise WireError(f"unexpected gossip reply: {reply!r}")
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Peer death mid-gossip, a seed that is not up yet, or a reply
            # this build cannot even unpickle (mixed-build skew): one
            # failed exchange, the entry ages out via suspicion — the loop
            # and the serving path are unaffected.  Deliberately broad: an
            # exchange must never kill the gossip task.
            self.failed_exchanges += 1
            if breaker is not None:
                breaker.record_failure()
            log.debug("gossip with %s failed: %s", address, exc)
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

    async def _gossip_loop(self) -> None:
        while True:
            await asyncio.sleep(self.gossip_interval)
            try:
                await self.gossip_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A round must never end the loop: a replica that stops
                # heartbeating gets expired by its peers while it still
                # serves — the worst silent degradation this layer has.
                log.exception("gossip round failed; retrying next interval")

    # ------------------------------------------------------------- handlers
    async def dispatch(self, message: tuple) -> tuple:
        """Answer one cluster message (the server routes these here)."""
        kind = message[0]
        if kind == "gossip":
            try:
                _, sender, table = message
                self.membership.merge(table, direct_from=str(sender))
            except (TypeError, ValueError):
                return ("error",
                        "gossip message must be (gossip, sender, table)")
            return ("gossip-ack", self.membership.export())
        if kind == "cache-peek":
            try:
                _, key, wait_s = message
                wait_s = float(wait_s)
            except (TypeError, ValueError):
                return ("error",
                        "cache-peek message must be (cache-peek, key, wait_s)")
            return await self._cache_peek(str(key), wait_s)
        if kind == "cluster-status":
            return ("cluster-status", self.status())
        return ("error", f"unknown cluster message type {kind!r}")

    async def _cache_peek(self, key: str, wait_s: float) -> tuple:
        self.peeks_served += 1
        if self.service is None:
            return ("cache-none",)
        value = self.service.cache.peek(key, _MISS)
        if value is _MISS and wait_s > 0:
            # Cluster-wide single-flight: the key is computing right here —
            # hold the probe (bounded) and hand over the finished report
            # instead of letting the asking replica recompute it.
            future = self.service.inflight_future(key)
            if future is not None:
                try:
                    value = await asyncio.wait_for(
                        asyncio.shield(future), min(wait_s, 60.0)
                    )
                except asyncio.CancelledError:
                    if not future.cancelled():
                        raise  # this handler was cancelled, not the job
                    value = _MISS
                except Exception:
                    # Timeout, or the computation failed — the asking
                    # replica just computes locally.
                    value = _MISS
        if value is _MISS:
            return ("cache-none",)
        memo = self._encoded.get(key)
        if memo is not None and memo[0] is value:
            body, digest = memo[1], memo[2]
        else:
            # Pickling + hashing a big BatchReport is CPU work — off the
            # loop, so a peek hit never stalls this replica's other
            # connections; memoised so a hot fingerprint probed by N
            # siblings is encoded once, not N times.
            body, digest = await asyncio.to_thread(encode_cached_report, value)
            self._encoded[key] = (value, body, digest)
            self._encoded.move_to_end(key)
            while len(self._encoded) > 32:
                self._encoded.popitem(last=False)
        self.peek_hits += 1
        return ("cache-found", body, digest)

    # --------------------------------------------------------------- status
    def status(self) -> dict:
        """Everything ``repro cluster status`` prints for this replica."""
        info = {
            "membership": self.membership.stats(),
            "workers": sorted(self.membership.cluster_workers()),
            "gossip": {
                "interval_s": self.gossip_interval,
                "rounds": self.rounds,
                "failed_exchanges": self.failed_exchanges,
                "skipped_exchanges": self.skipped_exchanges,
            },
            "cache_peering": {
                "peeks_served": self.peeks_served,
                "peek_hits": self.peek_hits,
            },
        }
        if self.breakers is not None:
            info["breakers"] = self.breakers.snapshot()
        if self.service is not None and self.service.peering is not None:
            info["cache_peering"]["outbound"] = self.service.peering.stats()
        return info
