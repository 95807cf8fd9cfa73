"""Typed report objects: one normalized answer shape for every method.

Every runner in the library answers the same question — which block holds
the target, at what query cost — but each historically returned its own
dataclass.  :class:`SearchReport` normalizes the answer (block guess,
success probability, queries) and records full provenance: which method and
backend produced it and under what schedule.  The raw method-specific
result object rides along in ``raw`` for callers that need the extra
fields (amplitudes, traces, per-level accounting, ...).

:class:`BatchReport` is the batched analogue, additionally recording the
execution plan (shard sizes, row threads, executor) that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["SearchReport", "BatchReport"]


@dataclass(frozen=True)
class SearchReport:
    """Normalized outcome of one :meth:`SearchEngine.search` call.

    Attributes:
        method: registry name of the method that ran.
        backend: backend name that executed it (resolved, never ``None``).
        n_items: database size ``N``.
        n_blocks: block count ``K`` (1 = full search, no block structure).
        block_guess: the answered block index, or ``None`` for analytic
            methods evaluated without a concrete target.
        success_probability: exact probability the answer is correct (from
            the final distribution where available, not sampled).
        queries: oracle/database queries this run spent (for analytic
            methods: the queries the modelled run *would* spend).
        schedule: provenance of the executed schedule — method-specific
            keys such as ``l1``/``l2``/``epsilon``/``iterations``/``phases``.
        answer: method-native answer (full address for ``grover-full`` and
            ``classical``; equals ``block_guess`` for block methods).
        raw: the method's original result object (``PartialSearchResult``,
            ``NaivePartialSearchResult``, ...), for callers needing
            amplitudes/traces.
    """

    method: str
    backend: str
    n_items: int
    n_blocks: int
    block_guess: int | None
    success_probability: float
    queries: int
    schedule: Mapping[str, Any] = field(default_factory=dict)
    answer: int | None = None
    raw: Any = field(default=None, repr=False, compare=False)

    @property
    def failure_probability(self) -> float:
        """``1 - success`` clipped at 0 (sure-success runs can overshoot by
        a few ulp)."""
        return max(0.0, 1.0 - self.success_probability)

    @property
    def provenance(self) -> dict:
        """Flat ``{method, backend, schedule}`` provenance record."""
        return {
            "method": self.method,
            "backend": self.backend,
            "schedule": dict(self.schedule),
        }


@dataclass(frozen=True)
class BatchReport:
    """Normalized outcome of one :meth:`SearchEngine.search_batch` call.

    Attributes:
        method: registry name of the method that ran.
        backend: backend that executed the rows.
        n_items: database size ``N``.
        n_blocks: block count ``K``.
        targets: target address per row, shape ``(B,)``.
        success_probabilities: exact per-row success, shape ``(B,)``.
        block_guesses: per-row answered block, shape ``(B,)``.
        queries: per-row query counts, shape ``(B,)``.
        schedule: shared schedule provenance (as in :class:`SearchReport`).
        execution: the shard plan that ran — ``n_shards``, ``shard_rows``,
            ``dtype``, ``row_threads`` (the count its shards ran, the
            largest if hosts differed) — and its executor (a remote one
            lists its fleet as ``workers``).
    """

    method: str
    backend: str
    n_items: int
    n_blocks: int
    targets: np.ndarray
    success_probabilities: np.ndarray
    block_guesses: np.ndarray
    queries: np.ndarray
    schedule: Mapping[str, Any] = field(default_factory=dict)
    execution: Mapping[str, Any] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        """Batch size ``B``."""
        return int(self.targets.size)

    @property
    def queries_per_run(self) -> float:
        """Mean per-row query cost (constant across rows for ``grk``)."""
        return float(np.mean(self.queries))

    @property
    def worst_success(self) -> float:
        """Minimum success probability across the batch."""
        return float(self.success_probabilities.min())

    @property
    def all_correct(self) -> bool:
        """Did every row's most-likely block equal its target's block?"""
        true_blocks = self.targets // (self.n_items // self.n_blocks)
        return bool(np.all(self.block_guesses == true_blocks))

    @property
    def provenance(self) -> dict:
        """Flat ``{method, backend, schedule, execution}`` record."""
        return {
            "method": self.method,
            "backend": self.backend,
            "schedule": dict(self.schedule),
            "execution": dict(self.execution),
        }
