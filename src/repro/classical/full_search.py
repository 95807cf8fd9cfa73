"""Classical *full* database search with exact accounting (zero error).

Both algorithms probe an order of all ``N`` addresses through
:meth:`~repro.oracle.database.Database.scan` and exploit the promise that
exactly one address is marked: if the first ``N - 1`` probes all return 0,
the remaining address must be the target and is output without a query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.oracle.database import Database
from repro.util.rng import as_rng

__all__ = [
    "ClassicalSearchResult",
    "deterministic_full_search",
    "randomized_full_search",
    "expected_queries_randomized_full",
]


@dataclass(frozen=True)
class ClassicalSearchResult:
    """Outcome of a classical run.

    Attributes:
        answer: the address (or, for partial search, block) returned.
        queries: probes spent in this run.
        correct: whether the answer matches the truth (always True for these
            zero-error algorithms; recorded for uniformity with the quantum
            results).
    """

    answer: int
    queries: int
    correct: bool


def _require_single_target(database: Database, search: str) -> int:
    marked = database.reveal_marked()
    if len(marked) != 1:
        raise ValueError(f"{search} requires exactly one marked item")
    return next(iter(marked))


def _full_scan(database: Database, target: int, order) -> ClassicalSearchResult:
    """Scan all of *order* but its last address, the answer by elimination
    when no probe hits."""
    before = database.counter.count
    hit = database.scan(order[:-1])
    answer = int(order[-1]) if hit is None else hit
    return ClassicalSearchResult(
        answer=answer,
        queries=database.counter.count - before,
        correct=(answer == target),
    )


def deterministic_full_search(database: Database) -> ClassicalSearchResult:
    """Scan addresses ``0, 1, ...``; worst case ``N - 1`` queries."""
    target = _require_single_target(database, "full search")
    return _full_scan(database, target, np.arange(database.n_items))


def randomized_full_search(database: Database, rng=None) -> ClassicalSearchResult:
    """Scan addresses in uniformly random order; expected ``~ N/2`` queries.

    Section 1.1's reference point: the expectation is exactly
    ``(N+1)/2 - 1/N`` (see :func:`expected_queries_randomized_full`), and no
    zero-error algorithm beats ``~ N/2`` for locating the item exactly.
    """
    target = _require_single_target(database, "full search")
    order = as_rng(rng).permutation(database.n_items)
    return _full_scan(database, target, order)


def expected_queries_randomized_full(n_items: int) -> float:
    """Exact expectation for :func:`randomized_full_search` over a uniformly
    random target (equivalently a random scan order).

    The target's position in the order is uniform on ``1..N``; position
    ``p < N`` costs ``p`` queries, position ``N`` costs ``N - 1`` (inferred).
    Hence ``E = (N+1)/2 - 1/N``.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    n = float(n_items)
    return (n + 1.0) / 2.0 - 1.0 / n
