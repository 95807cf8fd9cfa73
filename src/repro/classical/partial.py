"""Classical *partial* search: Section 1.1's algorithms, exactly accounted.

Both scan every address outside one block through
:meth:`~repro.oracle.database.Database.scan` and stop on a hit; if the
target never shows up it lives in the block they left out.

Deterministic: probe the other ``K - 1`` blocks in address order —
``N (1 - 1/K)`` worst-case queries, a saving of ``N/K`` over deterministic
full search.

Randomized (the Appendix A-optimal strategy): leave out a uniformly random
block, probe the other ``M = N (1 - 1/K)`` addresses in random order, stop
on a hit; on exhaustion answer the left-out block.  Expected queries:

    ``(1 - 1/K) (M + 1)/2 + (1/K) M  =  (N/2)(1 - 1/K^2) + (1 - 1/K)/2``

— the paper's ``(N/2)(1 - 1/K^2)`` plus an explicit ``O(1)`` term from the
exact "+1/2" of the uniform-position expectation.  Appendix A shows no
zero-error randomized algorithm can beat ``(N/2)(1 - 1/K^2)``.
"""

from __future__ import annotations

import numpy as np

from repro.classical.full_search import ClassicalSearchResult, _require_single_target
from repro.core.blockspec import BlockSpec
from repro.oracle.database import Database
from repro.util.rng import as_rng

__all__ = [
    "deterministic_partial_search",
    "randomized_partial_search",
    "expected_queries_deterministic_partial",
    "expected_queries_randomized_partial",
    "sample_partial_search_query_counts",
]


def _scan_outside(database: Database, spec: BlockSpec, target: int,
                  left_out: int, gen=None) -> ClassicalSearchResult:
    """Scan every address outside block *left_out*, in address order or
    shuffled by *gen*; a miss answers *left_out*."""
    probes = np.delete(np.arange(spec.n_items), spec.slice_of(left_out))
    if gen is not None:
        gen.shuffle(probes)
    before = database.counter.count
    hit = database.scan(probes)
    answer = left_out if hit is None else spec.block_of(hit)
    return ClassicalSearchResult(
        answer=answer,
        queries=database.counter.count - before,
        correct=(answer == spec.block_of(target)),
    )


def deterministic_partial_search(
    database: Database, n_blocks: int, *, left_out_block: int | None = None
) -> ClassicalSearchResult:
    """Probe all addresses outside one block; zero error.

    ``left_out_block`` defaults to the last block (any fixed choice gives
    the same worst case ``N (1 - 1/K)``).
    """
    spec = BlockSpec(database.n_items, n_blocks)
    target = _require_single_target(database, "partial search")
    if left_out_block is None:
        left_out_block = spec.n_blocks - 1
    return _scan_outside(database, spec, target, left_out_block)


def randomized_partial_search(
    database: Database, n_blocks: int, rng=None
) -> ClassicalSearchResult:
    """The Appendix A-optimal randomized strategy; zero error."""
    spec = BlockSpec(database.n_items, n_blocks)
    target = _require_single_target(database, "partial search")
    gen = as_rng(rng)
    left_out = int(gen.integers(spec.n_blocks))
    return _scan_outside(database, spec, target, left_out, gen)


def expected_queries_deterministic_partial(n_items: int, n_blocks: int) -> float:
    """Worst-case queries of the deterministic algorithm: ``N (1 - 1/K)``."""
    BlockSpec(n_items, n_blocks)  # validates divisibility
    return n_items * (1.0 - 1.0 / n_blocks)


def expected_queries_randomized_partial(
    n_items: int, n_blocks: int, *, exact: bool = True
) -> float:
    """Expected queries of :func:`randomized_partial_search` over a uniform
    random target.

    ``exact=True`` returns the finite-``N`` expectation
    ``(N/2)(1 - 1/K^2) + (1 - 1/K)/2``; ``exact=False`` returns the paper's
    leading term ``(N/2)(1 - 1/K^2)`` (also the Appendix A lower bound).
    """
    spec = BlockSpec(n_items, n_blocks)
    n, k = float(n_items), float(spec.n_blocks)
    leading = (n / 2.0) * (1.0 - 1.0 / k**2)
    if not exact:
        return leading
    return leading + (1.0 - 1.0 / k) / 2.0


def sample_partial_search_query_counts(
    n_items: int, n_blocks: int, n_trials: int, rng=None
) -> np.ndarray:
    """Vectorised sampler of the randomized algorithm's query counts.

    Statistically identical to running :func:`randomized_partial_search`
    ``n_trials`` times over uniform targets (a property the tests verify),
    but O(trials) instead of O(trials * N): with probability ``1 - 1/K`` the
    target sits at a uniform position in the ``M``-element probe order
    (queries = position); otherwise every ``M`` probes are spent.
    """
    spec = BlockSpec(n_items, n_blocks)
    if n_trials < 0:
        raise ValueError("n_trials must be non-negative")
    gen = as_rng(rng)
    m = n_items - spec.block_size
    in_probed = gen.random(n_trials) < (m / n_items)
    positions = gen.integers(1, m + 1, size=n_trials)
    return np.where(in_probed, positions, m)
