"""Classical search baselines (Section 1.1) and Appendix A's lower bound.

Implemented against the same counted :class:`~repro.oracle.database.Database`
as the quantum algorithms, so query totals are directly comparable; every
scan probes through :meth:`~repro.oracle.database.Database.scan`:

- full search: deterministic scan (``N - 1`` worst case, zero error) and
  random-order scan (``~ N/2`` expected);
- partial search: deterministic (``N (1 - 1/K)``) and randomized
  (``~ (N/2)(1 - 1/K^2)`` expected — and, by Appendix A, no zero-error
  randomized algorithm can do better);
- a vectorised Monte Carlo harness for expected-query estimation.
"""

from repro.classical.full_search import (
    deterministic_full_search,
    expected_queries_randomized_full,
    randomized_full_search,
)
from repro.classical.partial import (
    deterministic_partial_search,
    expected_queries_deterministic_partial,
    expected_queries_randomized_partial,
    randomized_partial_search,
    sample_partial_search_query_counts,
)
from repro.classical.lower_bound import (
    appendix_a_lower_bound,
    appendix_a_breakdown,
)
from repro.classical.montecarlo import estimate_expected_queries

__all__ = [
    "deterministic_full_search",
    "randomized_full_search",
    "expected_queries_randomized_full",
    "deterministic_partial_search",
    "randomized_partial_search",
    "expected_queries_deterministic_partial",
    "expected_queries_randomized_partial",
    "sample_partial_search_query_counts",
    "appendix_a_lower_bound",
    "appendix_a_breakdown",
    "estimate_expected_queries",
]
