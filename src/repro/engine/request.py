"""Typed request objects: everything a search needs, in one validated value.

A :class:`SearchRequest` pins down the instance geometry ``(N, K)``, the
method and backend names (resolved against the registries at execution
time, not here), the Step 1 parameter, tracing, randomness, and the
batch/shard policy.  A :class:`ShardPolicy` caps the rows of one shard
and, on the circuit backends, how much state one shard may hold.
:func:`batch_targets` turns a batch's target collection into the
validated address array both engine tiers run.

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

import numpy as np

from repro.core.blockspec import BlockSpec
from repro.kernels import ExecutionPolicy
from repro.util.validation import require_int

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "WANTS_VALUES",
    "ENGINE_VALUES",
    "ExecutionPolicy",
    "ShardPolicy",
    "SearchRequest",
    "batch_targets",
]

#: Default per-shard memory budget of a circuit batch (128 MiB): an
#: all-targets batch at 12 address qubits holds a ``(4096, 8192)``
#: complex state (~0.5 GB) unsharded, and this budget splits it into
#: independent chunks.  Kernels batches ignore it: a kernels shard holds
#: one ``ROW_BLOCK_BYTES`` row state per row thread
#: (:mod:`repro.kernels.sweep`; ``T`` × 1.25 MiB for a plain program,
#: ``T`` × 2.25 MiB for a phased one).
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
    """Shard-size policy for :meth:`SearchEngine.search_batch`.

    Attributes:
        max_bytes: soft ceiling on the working-set bytes of one circuit
            shard (:func:`~repro.engine.plan.state_row_bytes` per row).
            The planner converts it into a row count per shard; at least
            one row always runs.  Kernels shards hold row blocks, not
            rows, so it does not bound them.
        max_rows: optional hard cap on rows per shard (useful in tests to
            force specific shard boundaries on any backend).
    """

    max_bytes: int = DEFAULT_SHARD_BYTES
    max_rows: int | None = None

    def __post_init__(self):
        if self.max_bytes <= 0:
            raise ValueError(f"max_bytes={self.max_bytes} must be positive")
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError(f"max_rows={self.max_rows} must be positive")


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
        backend: name of what executes the rows (``"kernels"``,
            ``"compiled"``, ``"naive"``, ...), or ``None`` for the method's
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
            dtype and row threads) the kernels execute under.  The default
            is complex128 with ``row_threads="auto"`` — bit-identical to
            the seed implementation at any thread count;
            ``dtype="complex64"`` halves every amplitude (a circuit
            shard's byte budget admits 2x the rows) at the documented
            tolerance, and ``row_threads`` fans independent batch rows
            across threads with no effect on results.  Travels with the
            request across the service wire, so remote workers honour it
            too.
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

    def checked_option(self, key: str) -> Any:
        """Read ``iterations``, ``left_out_block`` or ``exact``, checked.

        ``iterations`` must be an integer ``>= 0`` and ``left_out_block``
        an integer in ``[0, K)``; numpy integers count, bools and floats do
        not.  Both default to ``None``.  ``exact`` must be a bool and
        defaults to ``False``.  Every tier checks these options through
        this method, so a bad value fails the same way everywhere.

        Raises:
            ValueError: naming the option and the bad value.
        """
        value = self.options.get(key)
        if key == "exact":
            if value is None:
                return False
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"option exact={value!r} must be a bool")
            return bool(value)
        if value is None:
            return None
        high = self.n_blocks if key == "left_out_block" else None
        return require_int(f"option {key}", value, 0, high)

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
        # via the plain-field form so requests cross the wire.
        return (_rebuild_request, (self.to_fields(),))


def _rebuild_request(fields: dict) -> "SearchRequest":
    """Module-level pickle hook for :meth:`SearchRequest.__reduce__`."""
    return SearchRequest.from_fields(fields)


def batch_targets(targets, n_items: int) -> np.ndarray:
    """The validated ``intp`` target array of a batch over *n_items* addresses.

    Both engine tiers read their batch targets through this function.
    ``None`` means every address.  An integer ndarray converts in one
    step; any other iterable (list, range, generator) goes through
    ``list()``.  The result is always a fresh array: reports keep it and
    the service cache stores reports, so sharing the caller's buffer
    would let a later write to it rewrite a cached report.

    Raises:
        ValueError: the targets are empty or not 1-D; they are not
            integers (floats and bools are refused, not truncated); a value
            lies outside int64; or an address lies outside
            ``[0, n_items)``.
    """
    if targets is None:
        return np.arange(n_items, dtype=np.intp)
    if not isinstance(targets, np.ndarray):
        targets = np.asarray(list(targets))
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError("targets must be a non-empty 1-D collection")
    if targets.dtype.kind not in "iu" or (
        targets.dtype.kind == "u" and targets.max() > np.iinfo(np.int64).max
    ):
        raise ValueError(
            f"targets must be integers within int64, got {targets.dtype} "
            "values"
        )
    targets = targets.astype(np.intp)
    if targets.min() < 0 or targets.max() >= n_items:
        raise ValueError("targets out of address range")
    return targets
