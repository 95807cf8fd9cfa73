"""The :class:`SearchEngine` facade — the single supported execution surface.

One object, three verbs:

- :meth:`SearchEngine.search` — one instance, one report;
- :meth:`SearchEngine.search_batch` — many targets in shards, run
  in-process or fanned out over the executor's lanes;
- :meth:`SearchEngine.sweep` — an ``(N, K, eps)`` grid via the analytic
  model, optionally cross-checked on the simulator.

The engine owns no physics: it validates the request against the method
registry (:mod:`repro.engine.registry`), resolves the backend, synthesises
the counted database when the caller did not supply one, and dispatches to
the registered adapter.  A new algorithm or backend is a registration, not
a new entry point.
"""

from __future__ import annotations

import math

from repro.core.backends import STATE_BACKENDS
from repro.engine.registry import MethodSpec, get_method
from repro.engine.report import BatchReport, SearchReport
from repro.engine.request import (
    ExecutionPolicy,
    SearchRequest,
    ShardPolicy,
    batch_targets,
)
from repro.oracle.database import Database, SingleTargetDatabase

__all__ = ["SearchEngine"]

#: Largest ``N`` a ``simulate=True`` sweep will run on the full simulator.
SWEEP_SIMULATE_MAX_ITEMS = 4096


def _require_blocks(spec: MethodSpec, request: SearchRequest) -> None:
    if spec.needs_blocks and request.n_blocks < 2:
        raise ValueError(
            f"method {spec.name!r} needs a block structure (n_blocks >= 2), "
            f"got n_blocks={request.n_blocks}"
        )


class SearchEngine:
    """Facade dispatching :class:`SearchRequest` objects onto the registry.

    Args:
        shards: default :class:`ShardPolicy` applied when a request carries
            the stock policy (engine-level override for deployments that
            want a different budget everywhere).
        executor: :class:`repro.service.executor.ShardExecutor` batched
            executions dispatch their shards through.  ``None`` uses the
            in-process default
            (:class:`~repro.service.executor.LocalExecutor`); pass a
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
            from repro.service.executor import default_executor

            return default_executor()
        return self._executor

    # ----------------------------------------------------------- plumbing
    def _engine_tier(self, request: SearchRequest) -> str:
        """``"analytic"`` or ``"simulate"`` for *request*.

        The fast path avoids importing :mod:`repro.analytic` at all for
        the overwhelmingly common case (default ``wants="report"`` under
        ``engine="auto"``, or an explicit ``engine="simulate"``).  A
        forced ``engine="analytic"`` that no model covers raises
        :class:`~repro.analytic.AnalyticUnsupported` here.
        """
        if request.engine == "simulate":
            return "simulate"
        if request.engine == "auto" and (
            request.wants != "probability" or request.trace
        ):
            return "simulate"
        from repro.analytic import resolve_engine_tier

        return resolve_engine_tier(request)

    def _resolve(self, request: SearchRequest) -> tuple[MethodSpec, str]:
        spec = get_method(request.method)
        backend = spec.resolve_backend(request.backend)
        _require_blocks(spec, request)
        if request.trace and not spec.supports_trace:
            raise ValueError(f"method {request.method!r} does not support tracing")
        return spec, backend

    def _effective_request(
        self, request: SearchRequest, backend: str
    ) -> SearchRequest:
        if self._default_shards is not None and request.shards == ShardPolicy():
            request = request.replace(shards=self._default_shards)
        # A backend that holds no state (the classical scans) ignores the
        # ExecutionPolicy, so it is normalised away: a complex64 request
        # would otherwise stamp a dtype into the provenance that was never
        # used.  The backend test comes first, so a kernels request pays
        # one tuple lookup.
        if backend not in STATE_BACKENDS and not request.policy.is_default:
            request = request.replace(policy=ExecutionPolicy())
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
        spec, backend = self._resolve(request)
        request = self._effective_request(request, backend)
        if self._engine_tier(request) == "analytic":
            from repro.analytic import AnalyticUnsupported, evaluate_analytic

            try:
                return evaluate_analytic(request, database)
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
                :func:`~repro.engine.request.batch_targets`.

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
        spec, backend = self._resolve(request)
        request = self._effective_request(request, backend)
        if request.trace:
            raise ValueError("batched execution does not support tracing")
        if self._engine_tier(request) == "analytic":
            from repro.analytic import (
                AnalyticUnsupported,
                evaluate_analytic_batch,
            )

            try:
                return evaluate_analytic_batch(request, targets)
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
