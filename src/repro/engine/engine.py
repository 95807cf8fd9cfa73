"""The :class:`SearchEngine` facade — the single supported execution surface.

One object, three verbs:

- :meth:`SearchEngine.search` — one instance, one report;
- :meth:`SearchEngine.search_batch` — many targets in shards, run
  in-process or fanned out over the executor's lanes;
- :meth:`SearchEngine.sweep` — an ``(N, K, eps)`` grid via the analytic
  model, optionally cross-checked on the simulator.

The engine owns no physics.  :func:`route` makes the routing decision
once (method, backend, execution policy and engine tier), and the
engine, the service's result cache and the gateway's size bound all read
it.  A simulated run synthesises the counted database when the caller
did not supply one and dispatches to the registered adapter.  A new
algorithm or backend is a registration, not a new entry point.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from repro.core.backends import STATE_BACKENDS
from repro.engine.plan import default_executor
from repro.engine.registry import MethodSpec, get_method
from repro.engine.report import BatchReport, SearchReport
from repro.engine.request import (
    ExecutionPolicy,
    SearchRequest,
    ShardPolicy,
    batch_targets,
)
from repro.oracle.database import Database, SingleTargetDatabase

__all__ = ["Route", "SearchEngine", "route"]

#: Largest ``N`` a ``simulate=True`` sweep will run on the full simulator.
SWEEP_SIMULATE_MAX_ITEMS = 4096


class Route(NamedTuple):
    """Where one request runs, as :func:`route` decided it.

    ``request`` is the request as it runs: a backend that holds no state
    (the classical scans) ignores the
    :class:`~repro.kernels.ExecutionPolicy`, so it is normalised to the
    default and a complex64 request records no dtype it never used.
    ``tier`` is ``"analytic"`` or ``"simulate"``; ``model`` is the
    :class:`~repro.analytic.AnalyticModel` whose check accepted the
    request on the analytic tier, else ``None``.
    """

    spec: MethodSpec
    backend: str
    tier: str
    request: SearchRequest
    model: Any


def route(request: SearchRequest) -> Route:
    """Resolve *request*'s method, backend, policy and engine tier, once.

    ``engine="simulate"`` simulates; ``engine="analytic"`` answers
    closed-form or raises; ``engine="auto"`` answers closed-form exactly
    when the request wants ``"probability"``, does not trace, and a
    registered model's check accepts it.  A request that cannot reach the
    analytic tier routes without importing :mod:`repro.analytic`.

    Raises:
        ValueError: an unknown method or backend, a block method at
            ``n_blocks < 2``, tracing on a method that cannot trace, or
            (as :class:`~repro.analytic.AnalyticUnsupported`) a forced
            ``engine="analytic"`` that no model covers.
    """
    spec = get_method(request.method)
    backend = spec.resolve_backend(request.backend)
    if spec.needs_blocks and request.n_blocks < 2:
        raise ValueError(
            f"method {spec.name!r} needs a block structure (n_blocks >= 2), "
            f"got n_blocks={request.n_blocks}"
        )
    if request.trace and not spec.supports_trace:
        raise ValueError(f"method {request.method!r} does not support tracing")
    # The backend test comes first, so a kernels request pays one tuple
    # lookup.
    if backend not in STATE_BACKENDS and not request.policy.is_default:
        request = request.replace(policy=ExecutionPolicy())
    model = None
    if request.engine == "analytic" or (
        request.engine == "auto" and request.wants == "probability"
        and not request.trace
    ):
        from repro.analytic import resolve_model

        model = resolve_model(request)
    tier = "simulate" if model is None else "analytic"
    return Route(spec, backend, tier, request, model)


class SearchEngine:
    """Facade dispatching :class:`SearchRequest` objects onto the registry.

    Args:
        shards: default :class:`ShardPolicy` applied when a request carries
            the stock policy (engine-level override for deployments that
            want a different budget everywhere).
        executor: :class:`repro.engine.plan.ShardExecutor` batched
            executions dispatch their shards through.  ``None`` uses the
            in-process default
            (:class:`~repro.engine.plan.LocalExecutor`); pass a
            :class:`~repro.service.executor.RemoteExecutor` to fan shards
            out to ``repro-worker`` hosts.  Results are bit-identical
            whatever the executor: shard boundaries and every random draw
            are fixed before dispatch.

    The engine is stateless apart from those defaults — it is cheap to
    construct and safe to share.
    """

    def __init__(self, shards: ShardPolicy | None = None, executor=None):
        self._default_shards = shards
        self._executor = executor

    @property
    def executor(self):
        """The resolved shard executor this engine dispatches through."""
        if self._executor is None:
            return default_executor()
        return self._executor

    # ----------------------------------------------------------- plumbing
    def _effective_request(self, request: SearchRequest) -> SearchRequest:
        if self._default_shards is not None and request.shards == ShardPolicy():
            request = request.replace(shards=self._default_shards)
        return request

    def _database_for(
        self, request: SearchRequest, database: Database | None
    ) -> Database:
        if database is not None:
            if database.n_items != request.n_items:
                raise ValueError(
                    f"database has {database.n_items} items but the request "
                    f"says n_items={request.n_items}"
                )
            return database
        if request.target is None:
            raise ValueError(
                f"method {request.method!r} needs request.target or an "
                "explicit database= argument"
            )
        return SingleTargetDatabase(request.n_items, request.target)

    # ------------------------------------------------------------- search
    def search(
        self, request: SearchRequest, database: Database | None = None
    ) -> SearchReport:
        """Execute one search described by *request*.

        Args:
            request: the typed problem description.
            database: optional counted database to run against (its counter
                accumulates this run's queries, enabling shared-budget
                experiments).  When omitted, a fresh
                :class:`~repro.oracle.database.SingleTargetDatabase` is
                built from ``request.target``.

        Returns:
            :class:`SearchReport` — normalized answer plus provenance.
        """
        spec, backend, tier, request, model = route(
            self._effective_request(request)
        )
        if tier == "analytic":
            from repro.analytic import AnalyticUnsupported, evaluate_analytic

            try:
                return evaluate_analytic(request, model, database)
            except AnalyticUnsupported:
                # Evaluation-time refusal (e.g. a phase solve that did not
                # converge): forced analytic propagates it, auto falls
                # through to the simulator tier.
                if request.engine == "analytic":
                    raise
        db = self._database_for(request, database)
        return spec.run(request, backend, db)

    # ------------------------------------------------------- search_batch
    def search_batch(
        self, request: SearchRequest, targets=None
    ) -> BatchReport:
        """Execute one independent search per target, in shards.

        Args:
            request: shared problem description (``request.target`` is
                ignored; per-row targets come from *targets*).
            targets: 1-D collection of integer target addresses; ``None``
                means *every* address of the instance (the all-targets
                sweep).  Both tiers validate it with
                :func:`~repro.engine.request.batch_targets`.  A request
                routed to the analytic tier refuses ``None`` above
                :data:`~repro.analytic.ANALYTIC_BATCH_ALL_TARGETS_MAX`
                items, under ``engine="auto"`` as well.

        Every simulated method runs one program over the batch in shards
        (:func:`~repro.engine.plan.plan_shards`: on kernels one per filled
        executor lane, under a work cap; on a circuit backend within
        ``request.shards``' byte budget), each row-threaded per
        ``request.policy``; results are bit-identical to the unsharded,
        serial execution.  Shard tasks are plain data:
        naive-blocks draws its per-row left-out blocks from ``request.rng``
        before sharding.  The classical scans run in-process, no shard.

        Returns:
            :class:`BatchReport` with per-row success/guess/query arrays.
        """
        spec, backend, tier, request, model = route(
            self._effective_request(request)
        )
        if request.trace:
            raise ValueError("batched execution does not support tracing")
        if tier == "analytic":
            from repro.analytic import (
                ANALYTIC_BATCH_ALL_TARGETS_MAX,
                AnalyticUnsupported,
                evaluate_analytic_batch,
            )

            # The simulate tier would list every address too, so "auto"
            # does not fall through here.
            if targets is None and request.n_items > ANALYTIC_BATCH_ALL_TARGETS_MAX:
                raise AnalyticUnsupported(
                    f"all-targets batch at n_items={request.n_items} would "
                    f"materialise > {ANALYTIC_BATCH_ALL_TARGETS_MAX} targets; "
                    "pass an explicit targets collection"
                )
            try:
                return evaluate_analytic_batch(request, model, targets)
            except AnalyticUnsupported:
                if request.engine == "analytic":
                    raise
        targets = batch_targets(targets, request.n_items)
        return spec.batch(request, backend, targets, self.executor)

    # -------------------------------------------------------------- sweep
    def sweep(
        self,
        n_items_values,
        n_blocks_values,
        epsilon: float | None = None,
        *,
        simulate: bool = False,
        backend: str = "compiled",
        shards: ShardPolicy | None = None,
        simulate_max_items: int = SWEEP_SIMULATE_MAX_ITEMS,
    ) -> list[dict]:
        """Exact schedule/query/success grid via the subspace model.

        Returns one row per ``(N, K)`` with keys ``n_items``, ``n_blocks``,
        ``epsilon``, ``l1``, ``l2``, ``queries``, ``coefficient``
        (``queries/sqrt(N)``), ``success``, ``failure``.  Pairs where ``K``
        does not divide ``N`` are skipped.

        With ``simulate=True`` each cell with ``N <= simulate_max_items``
        is additionally executed for *every* target through
        :meth:`search_batch` on the given *backend* (cells whose geometry
        the circuit backends cannot express fall back to ``"kernels"``),
        adding keys ``sim_worst_success`` (min over targets) and
        ``sim_all_correct``; the all-targets batches run under the shard
        policy, so big cells stay memory-bounded.  Cells too large to
        simulate get ``None`` there.
        """
        from repro.core.backends import validate_backend
        from repro.core.plans import FAMILY
        from repro.core.subspace import SubspaceGRK
        from repro.util.bits import is_power_of_two

        if simulate:
            validate_backend(backend)
        if shards is None:
            shards = self._default_shards or ShardPolicy()
        rows = []
        for n in n_items_values:
            for k in n_blocks_values:
                if k < 2 or n % k != 0 or n // k < 2:
                    continue
                schedule = FAMILY["grk"].solve(n, k, epsilon)
                model = SubspaceGRK(schedule.spec)
                failure = model.failure_probability(schedule.l1, schedule.l2)
                row = {
                    "n_items": n,
                    "n_blocks": k,
                    "epsilon": schedule.epsilon,
                    "l1": schedule.l1,
                    "l2": schedule.l2,
                    "queries": schedule.queries,
                    "coefficient": schedule.queries / math.sqrt(n),
                    "success": schedule.predicted_success,
                    "failure": failure,
                }
                if simulate:
                    row["sim_worst_success"] = None
                    row["sim_all_correct"] = None
                    if n <= simulate_max_items:
                        cell_backend = backend
                        if cell_backend != "kernels" and not (
                            is_power_of_two(n) and is_power_of_two(k)
                        ):
                            cell_backend = "kernels"
                        report = self.search_batch(
                            SearchRequest(
                                n_items=n,
                                n_blocks=k,
                                method="grk",
                                backend=cell_backend,
                                shards=shards,
                                options={"schedule": schedule},
                            )
                        )
                        row["sim_worst_success"] = report.worst_success
                        row["sim_all_correct"] = report.all_correct
                rows.append(row)
        return rows
