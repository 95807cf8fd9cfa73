"""Theorem 2's reduction, executable: full search via nested partial search.

Run partial search on the ``N``-item database to learn the target's block;
restrict to that block (an ``N/K``-item database) and repeat; once the
remaining range is small (the paper switches below ``~ N^(1/3)``), finish by
brute force.  Total queries telescope into the geometric series

    ``alpha_K (1 + K^{-1/2} + K^{-1} + ...) sqrt(N)
        <= alpha_K sqrt(K)/(sqrt(K)-1) sqrt(N)``.

The paper runs this reduction *hypothetically* to derive the lower bound; we
run it *for real* on the simulator — every level's sub-database shares one
query counter, so the measured total can be checked against the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.algorithm import run_program
from repro.core.parameters import plan_schedule
from repro.oracle.database import Database
from repro.util.rng import as_rng

__all__ = ["ReductionLevel", "IteratedSearchResult", "run_iterated_full_search"]


@dataclass(frozen=True)
class ReductionLevel:
    """Accounting for one level of the reduction.

    Attributes:
        size: sub-database size at this level.
        queries: queries spent by this level's partial search.
        block_guess: block the level reported.
        success_probability: that level's exact success probability.
    """

    size: int
    queries: int
    block_guess: int
    success_probability: float


@dataclass(frozen=True)
class IteratedSearchResult:
    """Outcome of the full reduction.

    Attributes:
        found_address: the address the procedure outputs.
        correct: whether it equals the true target.
        total_queries: all queries across all levels plus brute force.
        levels: per-level accounting, outermost first.
        brute_force_queries: classical probes spent on the final range.
        series_bound: the closed-form cap
            ``alpha sqrt(K)/(sqrt(K)-1) sqrt(N)`` evaluated with this run's
            own level-0 coefficient ``alpha`` (for the bench comparison).
    """

    found_address: int
    correct: bool
    total_queries: int
    levels: tuple[ReductionLevel, ...]
    brute_force_queries: int
    series_bound: float


def run_iterated_full_search(
    database: Database,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    cutoff: int | None = None,
    sample: bool = False,
    rng=None,
) -> IteratedSearchResult:
    """Find the full target address using only partial searches + brute force.

    Args:
        database: database with exactly one marked address.
        n_blocks: ``K`` used at every level (must divide each level's size).
        epsilon: Step 1 parameter passed to every partial search (``None`` =
            optimal for ``K``).
        cutoff: switch to brute force at or below this size; default
            ``max(K, ceil(N**(1/3)))``, mirroring the paper's error argument.
        sample: if True, each level *measures* (samples) its block — the
            physical procedure; if False (default) each level outputs its
            most probable block, making the run deterministic.
        rng: randomness for sampling mode.

    Returns:
        :class:`IteratedSearchResult`.
    """
    n = database.n_items
    marked = database.reveal_marked()
    if len(marked) != 1:
        raise ValueError("iterated search requires exactly one marked item")
    target = next(iter(marked))
    if cutoff is None:
        cutoff = max(n_blocks, math.ceil(n ** (1.0 / 3.0)))
    gen = as_rng(rng)

    start_count = database.counter.count
    lo, size = 0, n
    levels: list[ReductionLevel] = []
    alpha_level0 = None

    while size > cutoff and size % n_blocks == 0 and size >= 2 * n_blocks:
        sub = database.restricted(range(lo, lo + size))
        before = database.counter.count
        # A sampled level can pick a wrong block, leaving the next level's
        # range unmarked; the program runner counts every query there and
        # reports success 0.0, so the run errs instead of raising.
        program = plan_schedule(size, n_blocks, epsilon).program
        result = run_program(sub, program)
        spent = database.counter.count - before
        guess = (
            int(result.measure_block(rng=gen)) if sample else result.block_guess
        )
        levels.append(
            ReductionLevel(
                size=size,
                queries=spent,
                block_guess=guess,
                success_probability=result.success_probability,
            )
        )
        if alpha_level0 is None:
            alpha_level0 = spent / math.sqrt(size)
        block_size = size // n_blocks
        lo += guess * block_size
        size = block_size

    # Brute force the remaining range classically (zero error).
    brute_before = database.counter.count
    found = database.scan(range(lo, lo + size))
    if found is None:
        # The reduction descended into a wrong block; report the last probe
        # (the procedure errs, exactly as the paper's error analysis allows).
        found = lo + size - 1
    brute_force_queries = database.counter.count - brute_before

    total = database.counter.count - start_count
    root_k = math.sqrt(n_blocks)
    alpha = alpha_level0 if alpha_level0 is not None else 0.0
    return IteratedSearchResult(
        found_address=found,
        correct=(found == target),
        total_queries=total,
        levels=tuple(levels),
        brute_force_queries=brute_force_queries,
        series_bound=alpha * root_k / (root_k - 1.0) * math.sqrt(n),
    )
