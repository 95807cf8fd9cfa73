"""repro — reproduction of Grover & Radhakrishnan (SPAA 2005),
"Is partial quantum search of a database any easier?".

The library implements, from scratch on a numpy state-vector substrate:

- the **GRK partial-search algorithm** (Section 3) and its sure-success
  variant, with exact oracle-query accounting;
- the **standard Grover search** baseline (plus Long's zero-failure form)
  and Section 1.2's naive K−1-block quantum baseline;
- the **classical** deterministic/randomized full and partial searches and
  Appendix A's matching lower bound;
- **Theorem 2's reduction** (full search from iterated partial search) and
  **Theorem 3 / Appendix B** (Zalka's bound with error) as executable,
  instance-certified computations;
- an analytic **subspace evaluator** of every GRK-family program in O(1)
  for arbitrarily large ``N``.

The supported execution surface is the :mod:`repro.engine` facade: a typed
:class:`SearchRequest` selects the method (``grk``, ``grk-simplified``,
``grk-sure-success``, ``grk-cwb``, ``naive-blocks``, ``grover-full``,
``classical``) and backend from the registries, and every run returns a
normalized :class:`SearchReport` with full schedule provenance.

Quickstart::

    from repro import SearchEngine, SearchRequest

    engine = SearchEngine()
    report = engine.search(
        SearchRequest(n_items=4096, n_blocks=4, target=2717, method="grk")
    )
    print(report.block_guess, report.queries, report.success_probability)

Circuit batches shard automatically under a memory budget (default ≲128 MiB)::

    report = engine.search_batch(
        SearchRequest(n_items=4096, n_blocks=4, backend="compiled")
    )  # every target, in (B_chunk, 2N) circuit shards
    print(report.worst_success, report.execution["n_shards"])

Batched shards run in-process by default (``LocalExecutor``, in
:mod:`repro.engine.plan`, which loads none of the serving stack) and can
also run on *other hosts*: :mod:`repro.service` provides the remote
executor (``RemoteExecutor`` + ``repro-worker``), an asyncio
``SearchService`` (bounded queue,
backpressure, TTL cache, single-flight coalescing), and the ``repro
serve`` / ``repro submit`` CLI — see README "Serving & distribution".

The original ``run_*`` entry points remain importable, but new code
should go through :class:`SearchEngine`.  The engine runs all four
GRK-family methods through ``run_partial_search`` with the resolved plan;
``run_simplified_partial_search``, ``run_sure_success_partial_search``
and ``run_cwb_partial_search`` are thin wrappers over that same call,
kept for direct callers.  :class:`SearchEngine` also owns batches
(:meth:`SearchEngine.search_batch`) and parameter sweeps
(:meth:`SearchEngine.sweep`).  See README.md for the architecture
overview.
"""

from repro.core import (
    BlockSpec,
    GRKParameters,
    GRKSchedule,
    PartialSearchResult,
    SubspaceGRK,
    coefficient_table,
    optimal_epsilon,
    plan_schedule,
    run_iterated_full_search,
    run_naive_partial_search,
    run_partial_search,
    run_sure_success_partial_search,
)
from repro.engine import (
    BatchReport,
    ExecutionPolicy,
    SearchEngine,
    SearchReport,
    SearchRequest,
    ShardPolicy,
    available_methods,
    register_method,
)
from repro.grover import TwoLevelGrover, run_exact_grover, run_grover
from repro.lowerbounds import (
    analyze_grover_hybrids,
    lower_bound_coefficient,
    zalka_bound,
)
from repro.oracle import Database, QueryCounter, SingleTargetDatabase
from repro.statevector import StateVector

__version__ = "1.1.0"

__all__ = [
    "BlockSpec",
    "GRKParameters",
    "GRKSchedule",
    "PartialSearchResult",
    "SubspaceGRK",
    "coefficient_table",
    "optimal_epsilon",
    "plan_schedule",
    "run_iterated_full_search",
    "run_naive_partial_search",
    "run_partial_search",
    "run_sure_success_partial_search",
    "SearchEngine",
    "SearchRequest",
    "SearchReport",
    "BatchReport",
    "ShardPolicy",
    "ExecutionPolicy",
    "available_methods",
    "register_method",
    "TwoLevelGrover",
    "run_exact_grover",
    "run_grover",
    "analyze_grover_hybrids",
    "lower_bound_coefficient",
    "zalka_bound",
    "Database",
    "QueryCounter",
    "SingleTargetDatabase",
    "StateVector",
    "__version__",
]
