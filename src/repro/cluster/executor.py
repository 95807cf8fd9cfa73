"""Cluster-wide shard scheduling over the gossiped worker fleet.

A :class:`~repro.service.registry.WorkerRegistry` holds the workers
registered *at this replica*; dispatching from it alone would pin each
worker to whichever server it happened to register with.  Membership gossip
(:mod:`repro.cluster.membership`) propagates every member's registered
workers (and its current load), and :class:`ClusterWorkers` is the worker
source that reads it, so a worker that ran ``repro-worker --register``
against *any* replica serves batches submitted to *all* of them::

    RemoteExecutor(ClusterWorkers(membership, registry),
                   fallback_local=True, breakers=breakers)

Scheduling is least-loaded-first: candidate workers are ranked by their
owning member's advertised load (this replica's own registry counts as load
0 — local knowledge is current, gossiped knowledge is a round stale).  The
executor applies circuit-breaker state on top, as for every worker source:
it drops open endpoints, moves half-open ones (just out of quarantine,
still earning trust) behind the rest, opens lanes on the head of the
ranking and keeps the tail as spares.  It runs with
``fallback_local=True`` because gossip necessarily lags reality, so a fleet
that died since the last round degrades to local compute instead of
aborting the batch.
"""

from __future__ import annotations

from repro.observability.spans import span

__all__ = ["ClusterWorkers"]


class ClusterWorkers:
    """Worker source over every worker known to the cluster.

    Args:
        membership: the gossip table advertising each member's workers/load.
        registry: this replica's own :class:`~repro.service.registry.WorkerRegistry`
            (consulted live — fresher than our own gossip entry); ``None``
            for a replica that takes no direct registrations.
    """

    kind = "cluster"
    #: Least-loaded first: the executor keeps this order run after run.
    load_ranked = True

    def __init__(self, membership, registry=None):
        self.membership = membership
        self.registry = registry

    def ranked(self) -> list[str]:
        """Cluster workers, least-loaded owner first, deduplicated.

        Local registrations rank ahead of gossiped ones: the local
        registry is read at call time while member entries are up to a
        gossip round stale.  The gossiped tail comes from
        :meth:`~repro.cluster.membership.ClusterMembership.cluster_workers`,
        whose insertion order *is* the (load, address) ranking — one
        implementation of the ordering, shared with the status surface.
        """
        ranked: list[str] = []
        seen: set[str] = set()
        if self.registry is not None:
            for address in self.registry.snapshot():
                if address not in seen:
                    seen.add(address)
                    ranked.append(address)
        for address, owner in self.membership.cluster_workers().items():
            if owner == self.membership.self_address:
                continue  # our own workers came from the live registry
            if address not in seen:
                seen.add(address)
                ranked.append(address)
        return ranked

    def candidates(self) -> list[str]:
        # Ranking walks the gossip table; on a big fleet that is real work
        # worth attributing, so it gets its own span (under shards.plan,
        # where the planner counts lanes, and under dispatch.resolve).
        with span("cluster.rank") as ranking:
            ranked = self.ranked()
            ranking.attrs["workers"] = len(ranked)
        return ranked

    def describe(self) -> dict:
        return {"workers": self.ranked(), "members": self.membership.peers()}
