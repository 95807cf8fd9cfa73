"""Search with an unknown number of marked items (Boyer-Brassard-Hoyer-Tapp).

The paper's reference [2] ("Tight bounds on quantum searching") underpins
the whole query-complexity landscape the paper works in, and matters
operationally for partial search: the naive Section 1.2 baseline searches
K−1 blocks *without knowing whether the target is among them* — exactly the
"possibly zero marked items" regime BBHT was designed for.

The algorithm: repeatedly pick an iteration count ``j`` uniformly from
``[0, m)``, run ``j`` Grover iterations from the uniform superposition,
measure, and check the outcome with one classical query; on failure grow
``m`` by a factor ``lam`` (here the classic 6/5) up to ``sqrt(N)``.  With a
unique marked item this finds it in expected O(sqrt(N)) queries; with *no*
marked item it runs forever unless capped, so a ``max_rounds`` cap makes the
"not found" outcome explicit — the caller can then conclude the searched
region is empty (the naive baseline's left-out-block inference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.kernels import primitives as ops
from repro.oracle.database import Database
from repro.oracle.quantum import PhaseOracle
from repro.statevector.measurement import sample_addresses
from repro.util.rng import as_rng

__all__ = ["BBHTResult", "run_bbht"]


@dataclass(frozen=True)
class BBHTResult:
    """Outcome of a BBHT run.

    Attributes:
        found: a marked address, or ``None`` if the cap was hit (strong
            evidence the searched set is empty).
        queries: total oracle queries (quantum iterations + classical
            verification probes).
        rounds: measurement rounds used.
    """

    found: int | None
    queries: int
    rounds: int


def run_bbht(
    database: Database,
    *,
    rng=None,
    growth: float = 6.0 / 5.0,
    max_rounds: int | None = None,
) -> BBHTResult:
    """Find a marked item without knowing how many there are.

    Args:
        database: any counted database (0, 1, or many marked items).
        rng: randomness for iteration counts and measurements.
        growth: the ``lam`` factor (classic 6/5; must be in (1, 4/3]).
        max_rounds: stop after this many measurement rounds and report
            ``found=None``.  Default: enough rounds that a unique marked
            item would be found with overwhelming probability
            (``3 * ceil(log_lam(sqrt(N))) + 12``).

    Returns:
        :class:`BBHTResult`; when ``found`` is not ``None`` it is verified
        marked (a counted classical probe checked it).
    """
    if not 1.0 < growth <= 4.0 / 3.0:
        raise ValueError("growth must lie in (1, 4/3]")
    n = database.n_items
    gen = as_rng(rng)
    root_n = math.sqrt(n)
    if max_rounds is None:
        max_rounds = 3 * math.ceil(math.log(max(root_n, 2.0), growth)) + 12

    oracle = PhaseOracle(database)
    before = database.counter.count

    m = 1.0
    for rounds in range(1, max_rounds + 1):
        j = int(gen.integers(0, max(1, int(m))))
        amps = np.full(n, 1.0 / root_n)
        for _ in range(j):
            oracle.apply(amps)
            ops.invert_about_mean(amps)
        outcome = int(sample_addresses(amps, rng=gen))
        if database.query(outcome):  # counted verification probe
            return BBHTResult(
                found=outcome,
                queries=database.counter.count - before,
                rounds=rounds,
            )
        m = min(growth * m, root_n)
    return BBHTResult(found=None, queries=database.counter.count - before, rounds=max_rounds)
