"""Optimal choice of ``epsilon`` — the paper's Section 3.1 "computer program".

The paper could not find a closed form for the optimal stopping parameter
and tabulated machine-optimised values for small ``K``.  This module is that
program: it minimises the normalised query count

    ``q(eps, K) = (pi/4)(1 - eps) + (theta1(eps) + theta2(eps)) / (2 sqrt(K))``

over the feasible ``eps`` range (eq. (4) caps it at ``sin(theta) = 2/sqrt(K)``
for ``K > 4``; see :func:`repro.core.parameters.max_feasible_epsilon`).
The interior search is bounded Brent minimisation
(:func:`repro.util.minimize.minimize_bounded`, which reproduces scipy's
``minimize_scalar(method="bounded")`` bit for bit) to ``xatol = 1e-12``.
Boundary minima are real — for ``K = 2`` the optimum is exactly ``eps = 1``
(skip Step 1 entirely and search both halves locally) — so endpoints are
compared explicitly rather than trusting the interior search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.core.parameters import GRKParameters, max_feasible_epsilon
from repro.lowerbounds.partial import lower_bound_coefficient
from repro.util.minimize import minimize_bounded

__all__ = [
    "OptimalEpsilon",
    "normalized_query_coefficient",
    "optimal_epsilon",
    "coefficient_table",
    "TABLE_K_VALUES",
]

#: The K values in the paper's Section 3.1 table, in order.
TABLE_K_VALUES = (2, 3, 4, 5, 8, 32)


def normalized_query_coefficient(epsilon: float, n_blocks: int) -> float:
    """``q(eps, K)`` — Steps 1+2 queries in units of ``sqrt(N)``.

    Raises ``ValueError`` outside the feasible ``eps`` domain.
    """
    return GRKParameters(n_blocks, epsilon).query_coefficient


@dataclass(frozen=True)
class OptimalEpsilon:
    """Result of the one-dimensional optimisation for a given ``K``.

    Attributes:
        n_blocks: ``K``.
        epsilon: minimiser ``eps*``.
        coefficient: minimal ``q(eps*, K)`` (the table's "Upper bound" entry,
            in units of ``sqrt(N)``).
        savings: ``c_K`` with ``q = (pi/4)(1 - c_K)``.
    """

    n_blocks: int
    epsilon: float
    coefficient: float
    savings: float


@lru_cache(maxsize=None)
def optimal_epsilon(n_blocks: int) -> OptimalEpsilon:
    """Minimise ``q(eps, K)`` over the feasible domain (cached per ``K``)."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    hi = max_feasible_epsilon(n_blocks)

    def objective(eps: float) -> float:
        return normalized_query_coefficient(min(max(eps, 0.0), hi), n_blocks)

    result = minimize_bounded(objective, 0.0, hi, xatol=1e-12)
    candidates = [(objective(0.0), 0.0), (objective(hi), hi)]
    if result.success:
        candidates.append((result.fun, result.x))
    best_value, best_eps = min(candidates)
    return OptimalEpsilon(
        n_blocks=n_blocks,
        epsilon=best_eps,
        coefficient=best_value,
        savings=1.0 - best_value / (math.pi / 4.0),
    )


def coefficient_table(k_values=TABLE_K_VALUES) -> list[dict]:
    """Rows of the Section 3.1 table (plus the full-search reference row).

    Each row is a dict with keys ``label``, ``n_blocks``, ``epsilon``,
    ``upper`` (optimised ``q``), ``lower`` (Theorem 2 coefficient).  The
    first row is the database-search reference with both bounds at
    ``pi/4 ~ 0.785`` (Grover's algorithm is exactly optimal there).
    """
    rows = [
        {
            "label": "Database search",
            "n_blocks": None,
            "epsilon": 0.0,
            "upper": math.pi / 4.0,
            "lower": math.pi / 4.0,
        }
    ]
    for k in k_values:
        opt = optimal_epsilon(k)
        rows.append(
            {
                "label": f"K={k}",
                "n_blocks": k,
                "epsilon": opt.epsilon,
                "upper": opt.coefficient,
                "lower": lower_bound_coefficient(k),
            }
        )
    return rows
