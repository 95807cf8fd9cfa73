"""``repro.engine`` — the unified search facade.

The repo grew ~10 entry points that all answer the same question — *which
block holds the target, at what query cost* — with incompatible signatures.
This package collapses them into one stable, extensible surface:

- :class:`SearchRequest` / :class:`ShardPolicy` — typed, validated inputs:
  geometry, method, backend, epsilon, tracing, rng, batch/shard policy;
- :class:`SearchReport` / :class:`BatchReport` — one normalized answer
  shape with full method/backend/schedule provenance;
- the **method registry** (:func:`register_method`, :func:`get_method`,
  :func:`available_methods`) mirroring the circuit backend registry: the
  built-ins are ``grk``, ``grk-simplified``, ``grk-sure-success``,
  ``grk-cwb``, ``naive-blocks``, ``grover-full`` and ``classical``, and
  follow-on algorithms plug in as new registrations, not new top-level
  functions;
- :func:`route` — the one routing decision (method, backend, policy,
  engine tier) that the engine, the result cache and the gateway read;
- :class:`SearchEngine` — ``search`` / ``search_batch`` / ``sweep``, with
  sharded all-targets batches (:class:`ExecutionPlan`): kernels shards
  fan out over executor lanes under a work cap, circuit shards fit a
  byte budget (default ≲128 MiB).

Quickstart::

    from repro.engine import SearchEngine, SearchRequest

    engine = SearchEngine()
    report = engine.search(
        SearchRequest(n_items=4096, n_blocks=4, target=2717, method="grk")
    )
    print(report.block_guess, report.queries, report.success_probability)
"""

from repro.engine.request import (
    DEFAULT_SHARD_BYTES,
    ExecutionPolicy,
    SearchRequest,
    ShardPolicy,
)
from repro.engine.report import BatchReport, SearchReport
from repro.engine.registry import (
    MethodSpec,
    available_methods,
    get_method,
    method_backends,
    register_method,
    unregister_method,
)
from repro.engine.plan import ExecutionPlan, plan_shards, state_row_bytes
from repro.engine.engine import Route, SearchEngine, route
from repro.engine.methods import register_builtin_methods

register_builtin_methods(replace=True)

__all__ = [
    "DEFAULT_SHARD_BYTES",
    "ExecutionPolicy",
    "SearchRequest",
    "ShardPolicy",
    "SearchReport",
    "BatchReport",
    "MethodSpec",
    "register_method",
    "unregister_method",
    "get_method",
    "available_methods",
    "method_backends",
    "ExecutionPlan",
    "plan_shards",
    "state_row_bytes",
    "Route",
    "route",
    "SearchEngine",
    "register_builtin_methods",
]
