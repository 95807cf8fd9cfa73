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
- :class:`~repro.core.program.PartialSearchProgram` — the one plain-data
  form of every GRK-family method.  Four planners emit one as
  ``plan.program``: :func:`~repro.core.parameters.plan_schedule` (GRK),
  :func:`~repro.core.simplified.plan_simplified_schedule`
  (Korepin–Grover's ancilla-free simplification, quant-ph/0504157),
  :func:`~repro.core.sure_success.plan_sure_success` (the "with
  certainty" phased tail) and :func:`~repro.core.cwb.plan_cwb`
  (Choi–Walker–Braunstein, quant-ph/0603136).
- :func:`~repro.core.algorithm.run_program` — the one counted runner of
  any program on the state-vector simulator, with optional stage tracing;
  :func:`~repro.core.algorithm.run_partial_search` runs a plan (GRK's by
  default, also on the gate-level circuit backends), and the other
  methods' ``run_*`` functions are thin wrappers over it.  The batched
  kernel sweep (:mod:`repro.core.batch`) runs the same programs.
- :func:`~repro.core.subspace.evaluate` — the one exact O(1) evaluator of
  any program in the 3-dimensional invariant subspace, for arbitrarily
  large ``N`` (:class:`~repro.core.subspace.SubspaceGRK` is its plain
  ``(l1, l2)`` view); every planner scores candidates with it.
- :mod:`~repro.core.plans` — one cached plan resolver per method, shared
  by the simulate and analytic engine tiers.
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
from repro.core.algorithm import PartialSearchResult, run_partial_search, run_program
from repro.core.simplified import (
    SimplifiedSchedule,
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
    "run_program",
    "SubspaceGRK",
    "SubspaceCoordinates",
    "NaivePartialSearchResult",
    "run_naive_partial_search",
    "IteratedSearchResult",
    "run_iterated_full_search",
    "run_sure_success_partial_search",
    "SimplifiedSchedule",
    "plan_simplified_schedule",
    "run_simplified_partial_search",
    "simplified_query_coefficient",
    "coefficient_table",
    "normalized_query_coefficient",
    "optimal_epsilon",
]
