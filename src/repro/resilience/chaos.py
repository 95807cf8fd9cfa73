"""A seeded, deterministic fault-injection harness.

The fault paths of the serving stack (requeue-on-death, retry, breakers,
deadline skips) are only trustworthy if they are *exercised* — and only
debuggable if a failing run can be replayed exactly.  The chaos harness
makes fault injection a first-class, reproducible input instead of an
ad-hoc test hook:

- a :class:`FaultSpec` names **where** (a site string), **what** (a fault
  kind), and **when** (skip the first ``after`` visits, fire ``count``
  times, optionally gated by a seeded coin at ``probability``);
- a :class:`FaultPlan` holds a list of specs plus a seed.  Instrumented
  call sites ask ``plan.visit(site)`` once per event; per-site visit
  counters and per-site RNG streams (derived from ``(seed, site)``) make
  the answer deterministic for a given per-site event order, independent
  of how threads interleave *across* sites.

Sites instrumented in this repo (each named after the component that
consults the plan):

=====================  ======================================================
``worker.recv``        worker serve loop, before reading a frame
                       (``drop`` closes the connection mid-stream)
``worker.shard``       worker shard dispatch (``crash`` stops the worker,
                       ``slow`` delays the reply, ``raise`` fails the shard)
``worker.send``        worker reply (``corrupt`` flips payload bytes,
                       ``drop`` closes instead of replying)
``executor.connect``   executor lane dial (``refuse``, ``slow``)
``peer.probe``         cache-peer probe (``refuse``, ``slow``, ``drop``)
``gossip.exchange``    gossip round-trip (``refuse``, ``slow``, ``drop``)
=====================  ======================================================

Fault kinds: ``refuse`` (dial refused), ``slow`` (sleep ``delay_s``),
``drop`` (connection closed mid-exchange), ``corrupt`` (frame bytes
flipped), ``crash`` (the worker process dies), ``raise`` (the shard
function raises — the *deterministic* failure that must never be retried).

The harness is drivable from tests (pass a plan to ``WorkerServer``,
``RemoteExecutor``, ``CachePeers``, ``ClusterCoordinator``) and from the
command line (``repro-worker --chaos-plan plan.json``).  The acceptance
contract it exists to check: under any plan, a fleet that survives returns
a ``BatchReport`` bit-identical to the fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import threading
import time
from dataclasses import asdict, dataclass

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS", "CHAOS_SITES"]

FAULT_KINDS = ("refuse", "slow", "drop", "corrupt", "crash", "raise")

#: The site names instrumented by this repo (a plan may name others — an
#: unconsulted site simply never fires).
CHAOS_SITES = (
    "worker.recv",
    "worker.shard",
    "worker.send",
    "executor.connect",
    "peer.probe",
    "gossip.exchange",
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, what, and when.

    Attributes:
        site: the instrumentation point this spec arms.
        kind: one of :data:`FAULT_KINDS`.
        after: skip this many visits to the site before arming.
        count: fire at most this many times (``None`` = every armed visit).
        delay_s: sleep length for ``slow`` faults.
        probability: seeded-coin gate on each armed visit (1.0 = always).
        compute_first: ``crash`` only — compute the in-flight shard before
            vanishing (the harshest mid-shard death: the work is done, the
            reply never arrives).  ``False`` crashes before computing.
    """

    site: str
    kind: str
    after: int = 0
    count: int | None = 1
    delay_s: float = 0.05
    probability: float = 1.0
    compute_first: bool = True

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.after < 0:
            raise ValueError(f"after={self.after} must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count={self.count} must be >= 1 or None")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability={self.probability} must be in [0, 1]"
            )


def _site_rng(seed: int, site: str) -> random.Random:
    """One independent stream per (seed, site): visit order within a site
    is what determines draws, not thread interleaving across sites."""
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class FaultPlan:
    """A seeded set of :class:`FaultSpec` consulted at named sites.

    Thread-safe; per-site state (visit counter, RNG stream, per-spec fire
    counts) is isolated so concurrent components consulting different
    sites cannot perturb each other's schedules.

    Args:
        faults: the specs (order matters — the first armed spec at a site
            wins each visit).
        seed: seeds every site's probability stream.
    """

    def __init__(self, faults=(), *, seed: int = 0):
        self.faults: tuple[FaultSpec, ...] = tuple(
            f if isinstance(f, FaultSpec) else FaultSpec(**f) for f in faults
        )
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._visits: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self._fired: dict[int, int] = {i: 0 for i in range(len(self.faults))}
        self._by_site: dict[str, list[int]] = {}
        for i, spec in enumerate(self.faults):
            self._by_site.setdefault(spec.site, []).append(i)

    # -------------------------------------------------------------- driving
    def visit(self, site: str) -> FaultSpec | None:
        """Record one visit to *site*; return the spec that fires, if any."""
        with self._lock:
            indices = self._by_site.get(site)
            if not indices:
                return None
            visit = self._visits.get(site, 0) + 1
            self._visits[site] = visit
            for i in indices:
                spec = self.faults[i]
                if visit <= spec.after:
                    continue
                if spec.count is not None and self._fired[i] >= spec.count:
                    continue
                if spec.probability < 1.0:
                    rng = self._rngs.get(site)
                    if rng is None:
                        rng = self._rngs[site] = _site_rng(self.seed, site)
                    if rng.random() >= spec.probability:
                        continue
                self._fired[i] += 1
                return spec
            return None

    @staticmethod
    def apply(spec: FaultSpec | None, *, what: str = "chaos") -> FaultSpec | None:
        """Perform the *in-band* actions a fired spec implies and return it.

        ``slow`` sleeps here; ``raise`` raises ``RuntimeError`` (the
        deterministic shard failure); the transport-shaped kinds
        (``refuse``/``drop``/``corrupt``/``crash``) are returned for the
        call site to enact, because only it owns the socket/process.
        """
        if spec is None:
            return None
        if spec.kind == "slow":
            time.sleep(spec.delay_s)
        elif spec.kind == "raise":
            raise RuntimeError(
                f"chaos: injected deterministic failure at {what} "
                f"(site {spec.site!r})"
            )
        return spec

    # ------------------------------------------------------------- builders
    @classmethod
    def worker_crash(cls, after_shards: int, *, seed: int = 0) -> "FaultPlan":
        """A plan that crashes the worker once it has served *after_shards*
        shards.

        ``after_shards=0`` crashes on the first shard *before* computing;
        ``after_shards=n`` computes the n-th shard and vanishes instead of
        replying (the harshest mid-shard death).
        """
        if after_shards < 0:
            raise ValueError(f"after_shards={after_shards} must be >= 0")
        return cls(
            [FaultSpec(site="worker.shard", kind="crash",
                       after=max(0, after_shards - 1),
                       compute_first=after_shards > 0)],
            seed=seed,
        )

    @classmethod
    def from_json(cls, source) -> "FaultPlan":
        """Build a plan from a JSON document, path, or already-parsed dict.

        Schema::

            {"seed": 0,
             "faults": [{"site": "worker.shard", "kind": "crash",
                         "after": 3, "count": 1, "delay_s": 0.05,
                         "probability": 1.0}, ...]}
        """
        if isinstance(source, dict):
            doc = source
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                text = pathlib.Path(text).read_text()
            doc = json.loads(text)
        if not isinstance(doc, dict) or "faults" not in doc:
            raise ValueError(
                "chaos plan must be an object with a 'faults' list "
                "(and optional 'seed')"
            )
        return cls(doc["faults"], seed=int(doc.get("seed", 0)))

    # ---------------------------------------------------------------- status
    def describe(self) -> dict:
        """Plan + live fire counts, for logs and the stats surfaces."""
        with self._lock:
            return {
                "seed": self.seed,
                "faults": [
                    {**asdict(spec), "fired": self._fired[i]}
                    for i, spec in enumerate(self.faults)
                ],
                "visits": dict(self._visits),
            }

    def fired(self, site: str | None = None) -> int:
        """Total faults fired (optionally restricted to one site)."""
        with self._lock:
            return sum(
                count for i, count in self._fired.items()
                if site is None or self.faults[i].site == site
            )

    def __repr__(self) -> str:
        kinds = ", ".join(f"{s.site}:{s.kind}" for s in self.faults)
        return f"FaultPlan(seed={self.seed}, [{kinds}])"
