"""Closed-form comparisons and the paper's large-``K`` asymptotics.

The quantities every bench quotes, in one place:

- full quantum search: ``(pi/4) sqrt(N)``;
- naive quantum partial search (Section 1.2):
  ``(pi/4) sqrt((K-1)/K) sqrt(N) ~ (pi/4)(1 - 1/(2K)) sqrt(N)``;
- GRK partial search: ``(pi/4)(1 - c_K) sqrt(N)`` with
  ``c_K >= 0.42/sqrt(K)`` for large ``K`` — the 0.42 being
  ``1 - (2/pi) arcsin(pi/4) = 0.42497...`` (:data:`LARGE_K_CONSTANT`);
- classical randomized partial search: ``(N/2)(1 - 1/K^2)``.
"""

from __future__ import annotations

import math

from repro.core.parameters import GRKParameters

__all__ = [
    "LARGE_K_CONSTANT",
    "CWB_EXTRA_QUERIES_BOUND",
    "large_k_epsilon",
    "large_k_coefficient",
    "naive_quantum_coefficient",
    "classical_randomized_partial_coefficient",
    "simplified_partial_coefficient",
    "cwb_query_coefficient",
    "cwb_asymptotic_coefficient",
    "savings_factor",
]

#: ``1 - (2/pi) arcsin(pi/4)`` — the paper's "0.42" (Section 3.1, last line).
LARGE_K_CONSTANT = 1.0 - (2.0 / math.pi) * math.asin(math.pi / 4.0)


def large_k_epsilon(n_blocks: int) -> float:
    """The paper's large-``K`` choice ``eps = 1/sqrt(K)``."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    return 1.0 / math.sqrt(n_blocks)


def large_k_coefficient(n_blocks: int, *, first_order: bool = False) -> float:
    """Query coefficient at ``eps = 1/sqrt(K)``.

    ``first_order=False`` (default) evaluates the exact formula
    ``q(1/sqrt(K), K)``; ``first_order=True`` returns the paper's expansion
    ``(pi/4)(1 - LARGE_K_CONSTANT/sqrt(K))`` — they agree to ``O(1/K)``,
    which the asymptotics bench demonstrates.
    """
    if first_order:
        return (math.pi / 4.0) * (1.0 - LARGE_K_CONSTANT / math.sqrt(n_blocks))
    return GRKParameters(n_blocks, large_k_epsilon(n_blocks)).query_coefficient


def naive_quantum_coefficient(n_blocks: int) -> float:
    """Section 1.2 baseline: ``(pi/4) sqrt((K-1)/K)`` per ``sqrt(N)``."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    return (math.pi / 4.0) * math.sqrt((n_blocks - 1) / n_blocks)


def classical_randomized_partial_coefficient(n_blocks: int) -> float:
    """Classical expected queries per ``N`` (not per ``sqrt(N)``):
    ``(1/2)(1 - 1/K^2)``."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    return 0.5 * (1.0 - 1.0 / n_blocks**2)


#: Choi–Walker–Braunstein certainty cost (quant-ph/0603136, Theorem 1 of
#: the source paper): the sure-success modification "increases the number
#: of queries by at most a constant" — at the paper's representative
#: geometries the solved plans spend at most **2** queries over the plain
#: GRK budget (usually 0 or 1; pinned by ``test_paper_values.py``).
CWB_EXTRA_QUERIES_BOUND = 2


def simplified_partial_coefficient(n_blocks: int) -> float:
    """Optimised query coefficient of the ancilla-free family per ``sqrt(N)``.

    The Korepin–Grover simplified algorithm (quant-ph/0504157) drops
    Step 3's ancilla-controlled diffusion and ends on a plain global
    iteration; quant-ph/0510179 optimises its continuous ``(j1, j2)``
    trade-off.  This is the exact large-``N`` optimum for ``K`` blocks
    (the repo's pinned table — ``0.555 sqrt(N)`` at ``K = 2`` up to
    ``0.725 sqrt(N)`` at ``K = 32``, approaching the full-search
    ``pi/4 = 0.785`` as ``(pi/4)(1 - 0.42497/sqrt(K))`` from below).

    Delegates to the cached continuous optimiser in
    :mod:`repro.core.simplified` — one bounded Brent minimisation per
    ``K``, then O(1).
    """
    from repro.core.simplified import simplified_query_coefficient

    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    return simplified_query_coefficient(n_blocks)


def cwb_query_coefficient(
    n_items: int, n_blocks: int, epsilon: float | None = None
) -> float:
    """Finite-``N`` upper bound on the CWB coefficient per ``sqrt(N)``.

    quant-ph/0603136 reaches certainty by re-phasing iterations the GRK
    schedule already performs, escalating the integer budget by at most
    :data:`CWB_EXTRA_QUERIES_BOUND` queries — so the plain schedule's
    query count plus that constant, normalised by ``sqrt(N)``, bounds the
    solved plan's coefficient from above (the solved plan itself is exact
    and usually cheaper; the pins compare both).
    """
    from repro.core.parameters import plan_schedule

    schedule = plan_schedule(n_items, n_blocks, epsilon)
    return (schedule.queries + CWB_EXTRA_QUERIES_BOUND) / math.sqrt(n_items)


def cwb_asymptotic_coefficient(n_blocks: int) -> float:
    """Large-``N`` coefficient of sure-success partial search per ``sqrt(N)``.

    Certainty is asymptotically free: the CWB constant-query surcharge
    vanishes against ``sqrt(N)``, so the sure-success family's coefficient
    converges to the optimised partial-search optimum for the same ``K``
    (the ancilla-free optimum of quant-ph/0510179).
    """
    return simplified_partial_coefficient(n_blocks)


def savings_factor(coefficient: float) -> float:
    """``c`` such that ``coefficient = (pi/4)(1 - c)`` — how much of full
    search's budget an algorithm saves."""
    return 1.0 - coefficient / (math.pi / 4.0)
