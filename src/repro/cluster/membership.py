"""Seed-list + gossip-style membership for federated ``repro serve`` replicas.

Every replica keeps a local table of :class:`MemberState` — who is in the
cluster, how alive they are, which workers they have registered, and how
loaded they are.  The table converges by **push–pull gossip** over the
existing length-prefixed wire (:mod:`repro.service.wire`): on a
timer each replica sends its full table to its known peers and seeds
(``("gossip", table)``) and merges the table each answers with
(``("gossip-ack", table)``).  Two replicas that share one seed therefore
learn of each other within a round, and everything a member advertises —
its registered workers, its load — rides along.

Conflict resolution is the classic **heartbeat rule**: every member stamps
its *own* entry with a monotonically increasing heartbeat each gossip
round, and a merge only accepts a remote entry when its heartbeat is
strictly newer than the local copy.  Liveness is the dual: an entry whose
heartbeat has not advanced within ``suspicion_timeout`` local seconds is
dropped, leaving a **tombstone** at its death heartbeat so the copies
still circulating through surviving members cannot resurrect it — a dead
peer stops bumping, so every echo of it carries a tombstoned heartbeat and
is ignored, while a member that is genuinely back (direct contact, or a
heartbeat above the tombstone) clears it.

The table is a plain thread-safe dict: the asyncio gossip loop mutates it
while executor threads (through
:class:`~repro.cluster.executor.ClusterWorkers`) and cache-peering clients
snapshot it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["MemberState", "ClusterMembership"]


@dataclass(frozen=True)
class MemberState:
    """One replica's view of one cluster member.

    Attributes:
        address: the member's ``"host:port"`` serve endpoint.
        heartbeat: the member's own monotonically increasing gossip counter.
        workers: the shard workers registered *at that member* (propagated
            so any replica can schedule onto the whole fleet).
        load: the member's in-flight request count when it last gossiped
            (the :class:`~repro.cluster.executor.ClusterWorkers` ranking
            signal).
        last_refresh: local monotonic stamp of the last heartbeat advance.
        worker_backends: per-worker kernel backends the member's registry
            recorded at registration, keyed by worker address.  A worker
            missing from the map counts as numpy-only — the conservative
            default mirrors the shard-meta rule, so backend-aware routing
            never overestimates a fleet it cannot see.
    """

    address: str
    heartbeat: int
    workers: tuple[str, ...]
    load: int
    last_refresh: float
    worker_backends: dict = field(default_factory=dict)

    def export(self) -> dict:
        """The wire form of this entry (local stamps stay local)."""
        return {
            "heartbeat": self.heartbeat,
            "workers": list(self.workers),
            "load": self.load,
            "worker_backends": {
                w: list(b) for w, b in self.worker_backends.items()
            },
        }


class ClusterMembership:
    """Thread-safe gossip membership table for one replica.

    Args:
        self_address: this replica's advertised ``"host:port"``; ``None``
            until :meth:`bind` (servers that bind port 0 learn their
            address at start time).
        seeds: addresses gossiped to even while unconfirmed — the join
            list.  A seed that answers becomes a live member; one that
            never answers costs one failed exchange per round, nothing
            else.  Every seed is validated and normalised through
            :func:`repro.service.address.parse_address` at construction —
            a typo'd ``--join`` fails at boot with a pointed error, not as
            an eternally-failing exchange.
        suspicion_timeout: local seconds without a heartbeat advance before
            a member is declared dead and dropped.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, self_address: str | None = None, *, seeds=(),
                 suspicion_timeout: float = 30.0, clock=time.monotonic):
        if suspicion_timeout <= 0:
            raise ValueError(
                f"suspicion_timeout={suspicion_timeout} must be positive"
            )
        self._lock = threading.Lock()
        self._members: dict[str, MemberState] = {}
        # Tombstones: address -> (heartbeat at expiry, local expiry stamp).
        # Surviving replicas keep relaying a dead member's last entry to
        # each other; without remembering the heartbeat it died at, every
        # relay would resurrect the entry (current is None after the drop,
        # so the stale heartbeat "wins") and the corpse would oscillate
        # between tables forever.  A tombstone blocks re-adds at or below
        # the death heartbeat; direct contact (the member itself gossiping
        # to us) or a higher heartbeat clears it.
        self._tombstones: dict[str, tuple[int, float]] = {}
        self._clock = clock
        from repro.service.address import format_address, parse_address

        if self_address is not None:
            self_address = format_address(*parse_address(self_address))
        self.self_address = self_address
        self.seeds: tuple[str, ...] = tuple(
            format_address(*parse_address(s)) for s in seeds
        )
        self.suspicion_timeout = suspicion_timeout
        self._heartbeat = 0
        self.merges = 0
        self.expiries = 0

    # ------------------------------------------------------------- identity
    def bind(self, address: str) -> None:
        """Set this replica's advertised address (idempotent first-wins)."""
        from repro.service.address import format_address, parse_address

        with self._lock:
            if self.self_address is None:
                self.self_address = format_address(*parse_address(address))
            # A stale entry for our own address learned before binding
            # (e.g. relayed by a peer) must not shadow the live self entry.
            self._members.pop(self.self_address, None)

    def bump(self, *, workers=(), load: int = 0, worker_backends=None) -> int:
        """Advance this replica's heartbeat and refresh its own entry.

        Called once per gossip round with the *current* local worker
        registry and load (plus the registry's per-worker kernel-backend
        map), so the table always exports a fresh self state.  Requires
        :meth:`bind` to have run.
        """
        if self.self_address is None:
            raise RuntimeError("membership is not bound to a self address")
        with self._lock:
            self._heartbeat += 1
            self._members[self.self_address] = MemberState(
                address=self.self_address,
                heartbeat=self._heartbeat,
                workers=tuple(str(w) for w in workers),
                load=int(load),
                last_refresh=self._clock(),
                worker_backends={
                    str(w): tuple(str(b) for b in bs)
                    for w, bs in dict(worker_backends or {}).items()
                },
            )
            return self._heartbeat

    # ---------------------------------------------------------------- merge
    def merge(self, remote: dict, *, direct_from: str | None = None) -> list[str]:
        """Fold a peer's exported table in; returns newly learned addresses.

        The heartbeat rule: a remote entry wins only when its heartbeat is
        strictly greater than the local copy's, and our own entry is never
        overwritten (we are the sole authority on ourselves).  Malformed
        entries are skipped — one bad peer must not poison the table.

        ``direct_from`` names the peer this table arrived from directly
        (the gossip sender, or the member a gossip-ack was pulled from).
        Direct contact is proof of life, so that member's own entry always
        clears its tombstone — which is how a restarted member (whose
        heartbeat restarted from 1, below its death heartbeat) rejoins.
        Entries relayed *second-hand* at or below their tombstoned
        heartbeat are skipped: they are echoes of a corpse, and accepting
        them would resurrect dead members forever.
        """
        learned: list[str] = []
        now = self._clock()
        with self._lock:
            for address, info in dict(remote).items():
                address = str(address)
                if address == self.self_address:
                    continue
                try:
                    state = MemberState(
                        address=address,
                        heartbeat=int(info["heartbeat"]),
                        workers=tuple(str(w) for w in info.get("workers", ())),
                        load=int(info.get("load", 0)),
                        last_refresh=now,
                        # Peer input: a missing map routes those workers
                        # as numpy-only.
                        worker_backends={
                            str(w): tuple(str(b) for b in bs)
                            for w, bs in dict(
                                info.get("worker_backends") or {}
                            ).items()
                        },
                    )
                except (TypeError, KeyError, ValueError):
                    continue
                tombstone = self._tombstones.get(address)
                if tombstone is not None:
                    if address == direct_from or state.heartbeat > tombstone[0]:
                        del self._tombstones[address]  # provably alive again
                    else:
                        continue  # a relayed echo of the dead entry
                current = self._members.get(address)
                if current is None:
                    self._members[address] = state
                    learned.append(address)
                    self.merges += 1
                elif state.heartbeat > current.heartbeat or address == direct_from:
                    # Direct contact supersedes even a *higher* stored
                    # heartbeat: a member that restarted inside the
                    # suspicion window restarts its counter below its old
                    # entry, and it is the sole authority on itself — the
                    # lower heartbeat is the fresher truth.
                    self._members[address] = state
                    self.merges += 1
        return learned

    def drop_expired(self, now: float | None = None) -> list[str]:
        """Remove members whose heartbeat stalled past the suspicion window.

        Dropped members leave a tombstone (see :meth:`merge`) that itself
        expires after a few suspicion windows — by then every live table
        has dropped the entry too, so no echo of it is left to resurrect.
        """
        now = self._clock() if now is None else now
        dropped: list[str] = []
        with self._lock:
            for address, state in list(self._members.items()):
                if address == self.self_address:
                    continue
                if now - state.last_refresh >= self.suspicion_timeout:
                    del self._members[address]
                    self._tombstones[address] = (state.heartbeat, now)
                    dropped.append(address)
                    self.expiries += 1
            for address, (_, stamp) in list(self._tombstones.items()):
                if now - stamp >= 4 * self.suspicion_timeout:
                    del self._tombstones[address]
        return dropped

    # ------------------------------------------------------------ snapshots
    def peers(self) -> list[str]:
        """Live member addresses, self excluded, sorted for determinism."""
        with self._lock:
            return sorted(a for a in self._members if a != self.self_address)

    def gossip_targets(self) -> list[str]:
        """Who to gossip to this round: live peers plus unconfirmed seeds."""
        with self._lock:
            targets = {a for a in self._members if a != self.self_address}
            targets.update(s for s in self.seeds if s != self.self_address)
            return sorted(targets)

    def snapshot(self) -> dict[str, MemberState]:
        """A point-in-time copy of the whole table (self entry included)."""
        with self._lock:
            return dict(self._members)

    def export(self) -> dict:
        """The wire form of the table — what one gossip frame carries."""
        with self._lock:
            return {a: s.export() for a, s in self._members.items()}

    def cluster_workers(self) -> dict[str, str]:
        """Deduplicated ``worker address -> owning member`` over the table.

        Iterates members in ascending-load order, so when two members both
        advertise one worker the less-loaded owner wins — the ordering
        :class:`~repro.cluster.executor.ClusterWorkers` ranks by.
        """
        with self._lock:
            members = sorted(
                self._members.values(), key=lambda s: (s.load, s.address)
            )
            owners: dict[str, str] = {}
            for state in members:
                for worker in state.workers:
                    owners.setdefault(worker, state.address)
            return owners

    def worker_backends(self) -> dict[str, tuple[str, ...]]:
        """``worker address -> advertised kernel backends`` over the table.

        Same ascending-load dedup order as :meth:`cluster_workers`; a
        worker missing from its owning member's backend map counts as
        numpy-only.
        """
        with self._lock:
            members = sorted(
                self._members.values(), key=lambda s: (s.load, s.address)
            )
            capabilities: dict[str, tuple[str, ...]] = {}
            for state in members:
                for worker in state.workers:
                    capabilities.setdefault(
                        worker,
                        tuple(state.worker_backends.get(worker, ("numpy",))),
                    )
            return capabilities

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def stats(self) -> dict:
        """Counters plus the live table, for the status surface."""
        now = self._clock()
        with self._lock:
            return {
                "self": self.self_address,
                "seeds": list(self.seeds),
                "suspicion_timeout_s": self.suspicion_timeout,
                "merges": self.merges,
                "expiries": self.expiries,
                "tombstones": sorted(self._tombstones),
                "members": {
                    a: {
                        **s.export(),
                        "age_s": round(now - s.last_refresh, 3),
                    }
                    for a, s in sorted(self._members.items())
                },
            }
