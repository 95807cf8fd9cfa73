"""Asymptotic-coefficient sweeps over ``K``.

The ``(N, K, eps)`` schedule/query/success grid lives in
:meth:`repro.engine.SearchEngine.sweep`.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["sweep_coefficients"]


def sweep_coefficients(n_blocks_values: Iterable[int]) -> list[dict]:
    """Asymptotic-coefficient comparison per ``K``: GRK optimum vs the naive
    quantum baseline vs the Theorem 2 lower bound.

    Keys: ``n_blocks``, ``epsilon``, ``grk``, ``naive``, ``lower``,
    ``grk_savings_times_sqrt_k`` (should approach ~0.42+ from above as ``K``
    grows — the Theorem 1 constant).
    """
    from repro.analysis.theory import naive_quantum_coefficient
    from repro.core.optimizer import optimal_epsilon
    from repro.lowerbounds.partial import lower_bound_coefficient

    rows = []
    for k in n_blocks_values:
        opt = optimal_epsilon(k)
        rows.append(
            {
                "n_blocks": k,
                "epsilon": opt.epsilon,
                "grk": opt.coefficient,
                "naive": naive_quantum_coefficient(k),
                "lower": lower_bound_coefficient(k),
                "grk_savings_times_sqrt_k": opt.savings * math.sqrt(k),
            }
        )
    return rows
