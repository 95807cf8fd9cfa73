"""Typed request objects: everything a search needs, in one validated value.

A :class:`SearchRequest` pins down the instance geometry ``(N, K)``, the
method and backend names (resolved against the registries at execution
time, not here), the Step 1 parameter, tracing, randomness, and the
batch/shard policy.  A :class:`ShardPolicy` bounds how much state a batched
execution may hold in memory at once and whether shards fan out across a
process pool.

Validation philosophy: structural facts that cannot depend on the registry
(geometry, ranges, types) are checked eagerly in ``__post_init__`` so a bad
request fails at construction; method/backend compatibility is checked by
:class:`~repro.engine.engine.SearchEngine` at dispatch time, so requests can
be built before custom methods are registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.core.blockspec import BlockSpec
from repro.kernels import ExecutionPolicy

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "WANTS_VALUES",
    "ENGINE_VALUES",
    "ExecutionPolicy",
    "ShardPolicy",
    "SearchRequest",
]

#: Default per-shard memory budget for batched execution (128 MiB).  An
#: all-targets batch at 12 address qubits needs a ``(4096, 8192)`` complex
#: state (~0.5 GB) unsharded; this budget splits it into independent chunks.
DEFAULT_SHARD_BYTES = 128 * 1024 * 1024

#: What the caller needs back.  ``probability``-class requests (success
#: probability + query count, no amplitudes) are eligible for the analytic
#: tier; the rest always simulate.
WANTS_VALUES = ("probability", "report", "amplitudes", "samples")

#: Engine-tier override, threaded like ``backend=``: ``auto`` lets the
#: planner route, ``analytic``/``simulate`` force the tier.
ENGINE_VALUES = ("auto", "analytic", "simulate")


@dataclass(frozen=True)
class ShardPolicy:
    """Memory/parallelism policy for :meth:`SearchEngine.search_batch`.

    Attributes:
        max_bytes: soft ceiling on the working-set bytes of one shard
            (state matrix plus kernel temporaries).  The planner converts it
            into a row count per shard; at least one row always runs.
        max_rows: optional hard cap on rows per shard (useful in tests to
            force specific shard boundaries regardless of the byte budget).
        workers: ``1`` (default) executes shards serially in-process;
            ``> 1`` fans them across a process pool via
            :func:`repro.util.parallel.parallel_map`.
    """

    max_bytes: int = DEFAULT_SHARD_BYTES
    max_rows: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.max_bytes <= 0:
            raise ValueError(f"max_bytes={self.max_bytes} must be positive")
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError(f"max_rows={self.max_rows} must be positive")
        if self.workers < 1:
            raise ValueError(f"workers={self.workers} must be >= 1")


@dataclass(frozen=True)
class SearchRequest:
    """One fully-specified partial-search problem instance.

    Attributes:
        n_items: database size ``N`` (>= 2).
        n_blocks: block count ``K``.  Must divide ``N``.  ``K >= 2`` for the
            partial-search methods; ``K = 1`` is allowed and means "no block
            structure" (only the ``grover-full`` method accepts it).
        method: registry name of the algorithm (see
            :data:`repro.engine.registry.available_methods`).
        backend: execution backend name, or ``None`` for the method's
            default.  Compatibility is validated at dispatch.
        epsilon: Step 1 stopping parameter in ``(0, 1)``; ``None`` uses the
            optimal value for this ``K`` (methods that have no epsilon
            ignore it).
        target: the marked address, for engines that synthesise the database
            themselves.  ``None`` is allowed when the caller passes an
            explicit database to :meth:`SearchEngine.search` (or for
            closed-form answers, which leave ``block_guess`` unset).
        trace: request stage snapshots (methods that cannot trace raise).
        rng: seed or ``numpy.random.Generator`` for stochastic methods.
        shards: the batch/shard policy (see :class:`ShardPolicy`).
        policy: the :class:`~repro.kernels.ExecutionPolicy` (amplitude
            dtype, row threads, kernel backend) the kernels execute under.
            The default is complex128 / single-threaded / numpy —
            bit-identical to the seed implementation; ``dtype="complex64"``
            halves shard memory (the planner admits 2x the rows per shard)
            at the documented tolerance, ``row_threads > 1`` fans
            independent batch rows across a thread pool with no effect on
            results, and ``backend`` selects the kernel backend (``fused``
            and ``numba`` accelerate the sweeps; complex128 results stay
            bit-identical across backends).  Travels with the request
            across process pools and the service wire, so remote workers
            honour it too.
        options: method-specific extras (e.g. ``schedule=`` for ``grk``,
            ``plan=`` for ``grk-sure-success``, ``strategy=`` for
            ``classical``).  Stored read-only.
        wants: what the caller needs back — one of
            :data:`WANTS_VALUES`.  ``"probability"`` asks only for the
            success probability and query count, which lets the planner
            answer from the closed-form analytic tier at any ``N``;
            ``"report"`` (default) keeps the historical contract (a full
            simulated report with ``raw`` attached); ``"amplitudes"`` and
            ``"samples"`` additionally pin the simulator tier explicitly.
        engine: tier override, one of :data:`ENGINE_VALUES`.  ``"auto"``
            (default) routes ``wants="probability"`` requests to the
            analytic tier when a model covers them and simulates
            otherwise; ``"analytic"`` forces the closed-form tier (errors
            if no model covers the request); ``"simulate"`` forces the
            statevector tier even for probability-class requests.
    """

    n_items: int
    n_blocks: int
    method: str = "grk"
    backend: str | None = None
    epsilon: float | None = None
    target: int | None = None
    trace: bool = False
    rng: Any = None
    shards: ShardPolicy = field(default_factory=ShardPolicy)
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    options: Mapping[str, Any] = field(default_factory=dict)
    wants: str = "report"
    engine: str = "auto"

    def __post_init__(self):
        if not isinstance(self.method, str) or not self.method:
            raise ValueError("method must be a non-empty string")
        if self.n_items < 2:
            raise ValueError(f"n_items={self.n_items} must be >= 2")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks={self.n_blocks} must be >= 1")
        if self.n_items % self.n_blocks != 0:
            raise ValueError(
                f"n_blocks={self.n_blocks} must divide n_items={self.n_items}"
            )
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon={self.epsilon} must lie in (0, 1)")
        if self.target is not None and not 0 <= self.target < self.n_items:
            raise ValueError(
                f"target={self.target} out of range for n_items={self.n_items}"
            )
        if not isinstance(self.shards, ShardPolicy):
            raise ValueError("shards must be a ShardPolicy")
        if not isinstance(self.policy, ExecutionPolicy):
            raise ValueError("policy must be an ExecutionPolicy")
        if self.wants not in WANTS_VALUES:
            raise ValueError(
                f"wants={self.wants!r} must be one of {WANTS_VALUES}"
            )
        if self.engine not in ENGINE_VALUES:
            raise ValueError(
                f"engine={self.engine!r} must be one of {ENGINE_VALUES}"
            )
        # Freeze the options mapping so a shared request cannot drift.
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))

    @property
    def spec(self) -> BlockSpec | None:
        """The ``(N, K)`` geometry, or ``None`` when ``K = 1`` (no blocks)."""
        if self.n_blocks < 2:
            return None
        return BlockSpec(self.n_items, self.n_blocks)

    @property
    def block_size(self) -> int:
        """Addresses per block ``N/K`` (``N`` itself when ``K = 1``)."""
        return self.n_items // self.n_blocks

    def option(self, key: str, default: Any = None) -> Any:
        """Read one method-specific option with a default."""
        return self.options.get(key, default)

    def replace(self, **changes: Any) -> "SearchRequest":
        """A copy of this request with the given fields replaced."""
        from dataclasses import replace as _dc_replace

        if "options" not in changes:
            changes["options"] = dict(self.options)
        return _dc_replace(self, **changes)

    def to_fields(self) -> dict:
        """Plain-field form of this request (``options`` as a real dict).

        The frozen ``options`` proxy is not picklable, so anything that
        ships requests across process or host boundaries — the engine's
        process fan-out, the :mod:`repro.service` wire protocol — works
        with this form; :meth:`from_fields` rebuilds (and re-validates)
        the request on the other side.
        """
        return {
            "n_items": self.n_items,
            "n_blocks": self.n_blocks,
            "method": self.method,
            "backend": self.backend,
            "epsilon": self.epsilon,
            "target": self.target,
            "trace": self.trace,
            "rng": self.rng,
            "shards": self.shards,
            "policy": self.policy,
            "options": dict(self.options),
            "wants": self.wants,
            "engine": self.engine,
        }

    @classmethod
    def from_fields(cls, fields: Mapping[str, Any]) -> "SearchRequest":
        """Rebuild a request from :meth:`to_fields` output."""
        return cls(**fields)

    def __reduce__(self):
        # MappingProxyType makes the dataclass unpicklable by default; pickle
        # via the plain-field form so requests cross pools and sockets.
        return (_rebuild_request, (self.to_fields(),))


def _rebuild_request(fields: dict) -> "SearchRequest":
    """Module-level pickle hook for :meth:`SearchRequest.__reduce__`."""
    return SearchRequest.from_fields(fields)
