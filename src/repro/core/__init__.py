"""The paper's primary contribution: quantum *partial* search.

Given a database of ``N`` items with a unique marked address and a partition
into ``K`` equal blocks, return the block containing the target (its "first
k bits") with ``(pi/4)(1 - Theta(1/sqrt(K))) sqrt(N)`` queries — strictly
fewer than full search, by more than any classical saving.

Public surface:

- :class:`~repro.core.blockspec.BlockSpec` — the ``(N, K)`` partition.
- :class:`~repro.core.parameters.GRKParameters` /
  :func:`~repro.core.parameters.plan_schedule` — the paper's Section 3
  quantities (``theta``, ``alpha_yt``, ``theta1``, ``theta2``, ``l1``,
  ``l2``) and exact integer schedules.
- :func:`~repro.core.algorithm.run_partial_search` — the three-step GRK
  algorithm on the state-vector simulator, with optional stage tracing.
- :class:`~repro.core.program.PartialSearchProgram` — the one plain-data
  form of every GRK-family method (``plan.program``), which the batched
  kernel sweep runs.
- :class:`~repro.core.subspace.SubspaceGRK` — exact O(1) evolution of the
  3-dimensional invariant subspace, for arbitrarily large ``N``.
- :func:`~repro.core.sure_success.run_sure_success_partial_search` — the
  "with certainty" variant (failure ~ machine epsilon, constant extra
  queries).
- :func:`~repro.core.simplified.run_simplified_partial_search` —
  Korepin–Grover's ancilla-free simplification (quant-ph/0504157), whose
  optimised asymptotic query coefficient exactly matches the Section 3.1
  table.
- :func:`~repro.core.naive.run_naive_partial_search` — Section 1.2's
  search-K−1-blocks baseline.
- :func:`~repro.core.iterated.run_iterated_full_search` — Theorem 2's
  reduction of full search to repeated partial search.
- :func:`~repro.core.optimizer.optimal_epsilon` /
  :func:`~repro.core.optimizer.coefficient_table` — the Section 3.1 table.
"""

from repro.core.blockspec import BlockSpec
from repro.core.parameters import GRKParameters, GRKSchedule, plan_schedule
from repro.core.program import PartialSearchProgram
from repro.core.algorithm import PartialSearchResult, run_partial_search
from repro.core.batch import BatchResult, run_partial_search_batch
from repro.core.simplified import (
    SimplifiedSchedule,
    SimplifiedSearchResult,
    plan_simplified_schedule,
    run_simplified_partial_search,
    simplified_query_coefficient,
)
from repro.core.subspace import SubspaceGRK, SubspaceCoordinates
from repro.core.naive import NaivePartialSearchResult, run_naive_partial_search
from repro.core.iterated import IteratedSearchResult, run_iterated_full_search
from repro.core.sure_success import run_sure_success_partial_search
from repro.core.optimizer import (
    coefficient_table,
    normalized_query_coefficient,
    optimal_epsilon,
)

__all__ = [
    "BlockSpec",
    "GRKParameters",
    "GRKSchedule",
    "plan_schedule",
    "PartialSearchProgram",
    "PartialSearchResult",
    "run_partial_search",
    "BatchResult",
    "run_partial_search_batch",
    "SubspaceGRK",
    "SubspaceCoordinates",
    "NaivePartialSearchResult",
    "run_naive_partial_search",
    "IteratedSearchResult",
    "run_iterated_full_search",
    "run_sure_success_partial_search",
    "SimplifiedSchedule",
    "SimplifiedSearchResult",
    "plan_simplified_schedule",
    "run_simplified_partial_search",
    "simplified_query_coefficient",
    "coefficient_table",
    "normalized_query_coefficient",
    "optimal_epsilon",
]
