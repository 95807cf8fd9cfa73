"""Built-in method adapters: every existing runner behind one report shape.

Each adapter translates a :class:`~repro.engine.request.SearchRequest` into
the underlying runner's native signature and normalizes the outcome into a
:class:`~repro.engine.report.SearchReport`.  The runners themselves stay
where they always lived (:mod:`repro.core`, :mod:`repro.grover`,
:mod:`repro.classical`) — the registry makes them *addressable*, it does
not re-implement them, so the existing property tests keep guarding the
physics.

Registered on import (importing :mod:`repro.engine` is enough):

==================  ====================================================
``grk``             the three-step GRK partial search (Figure 2);
                    backends ``kernels`` / ``compiled`` / ``naive``
``grk-simplified``  Korepin–Grover's ancilla-free simplification
                    (quant-ph/0504157) — same asymptotic query count
``grk-sure-success``  the phased sure-success variant (Theorem 1 remark)
``grk-cwb``         Choi–Walker–Braunstein sure success (quant-ph/0603136):
                    per-stage phase conditions, certainty within a
                    constant of the plain GRK budget
``naive-blocks``    Section 1.2's K−1-block quantum baseline
``grover-full``     standard full search (+ Long's exact variant)
``classical``       Section 1.1's deterministic/randomized scans
``subspace``        the analytic O(1) subspace model (no simulation)
==================  ====================================================
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.backends import CIRCUIT_BACKENDS, KERNEL_BACKEND
from repro.core.parameters import GRKSchedule, plan_schedule
from repro.engine.registry import MethodSpec, register_method
from repro.engine.report import BatchReport, SearchReport
from repro.engine.request import SearchRequest

__all__ = ["register_builtin_methods"]

#: Backend name for the classical scans (they run on the counted database
#: directly — no state vector is involved).
CLASSICAL_BACKEND = "classical"

#: Backend name for the closed-form subspace evaluation.
ANALYTIC_BACKEND = "analytic"


def _schedule_provenance(schedule: GRKSchedule) -> dict:
    return {
        "epsilon": schedule.epsilon,
        "l1": schedule.l1,
        "l2": schedule.l2,
        "queries": schedule.queries,
        "predicted_success": schedule.predicted_success,
    }


def _resolve_schedule(request: SearchRequest) -> GRKSchedule:
    """The request's explicit schedule, or the planned one for ``(N, K, eps)``."""
    schedule = request.option("schedule")
    if schedule is None:
        return plan_schedule(request.n_items, request.n_blocks, request.epsilon)
    spec = schedule.spec
    if spec.n_items != request.n_items or spec.n_blocks != request.n_blocks:
        raise ValueError(
            f"schedule is for (N={spec.n_items}, K={spec.n_blocks}), but the "
            f"request has (N={request.n_items}, K={request.n_blocks})"
        )
    return schedule


def _program_batch(
    method: str,
    request: SearchRequest,
    backend: str,
    targets: np.ndarray,
    executor,
    plan,
    provenance: dict,
) -> BatchReport:
    """The native batch every GRK-family method shares: *plan*'s program
    through the sharded runner, one report row per target."""
    from repro.engine.plan import run_grk_batch_sharded

    success, guesses, shard_plan = run_grk_batch_sharded(
        plan.program, targets, backend, request.shards,
        executor=executor, execution=request.policy,
    )
    execution = shard_plan.describe()
    if executor is not None:
        execution.update(executor.describe())
    return BatchReport(
        method=method,
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        targets=targets,
        success_probabilities=success,
        block_guesses=guesses,
        queries=np.full(targets.size, plan.queries, dtype=np.intp),
        schedule=provenance,
        execution=execution,
    )


# --------------------------------------------------------------------------
# grk
# --------------------------------------------------------------------------

def _run_grk(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.algorithm import run_partial_search

    result = run_partial_search(
        database,
        request.n_blocks,
        request.epsilon,
        schedule=request.option("schedule"),
        trace=request.trace,
        backend=backend,
        policy=request.policy,
    )
    return SearchReport(
        method="grk",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule=_schedule_provenance(result.schedule),
        answer=result.block_guess,
        raw=result,
    )


def _batch_grk(
    request: SearchRequest, backend: str, targets: np.ndarray, executor=None
) -> BatchReport:
    schedule = _resolve_schedule(request)
    return _program_batch(
        "grk", request, backend, targets, executor,
        schedule, _schedule_provenance(schedule),
    )


# --------------------------------------------------------------------------
# grk-simplified (Korepin–Grover, quant-ph/0504157)
# --------------------------------------------------------------------------

def _resolve_simplified_schedule(request: SearchRequest):
    from repro.core.simplified import SimplifiedSchedule, plan_simplified_schedule

    schedule = request.option("schedule")
    if schedule is None:
        return plan_simplified_schedule(request.n_items, request.n_blocks)
    if not isinstance(schedule, SimplifiedSchedule):
        raise ValueError(
            "grk-simplified takes a SimplifiedSchedule in options['schedule'] "
            f"(got {type(schedule).__name__})"
        )
    spec = schedule.spec
    if spec.n_items != request.n_items or spec.n_blocks != request.n_blocks:
        raise ValueError(
            f"schedule is for (N={spec.n_items}, K={spec.n_blocks}), but the "
            f"request has (N={request.n_items}, K={request.n_blocks})"
        )
    return schedule


def _simplified_provenance(schedule) -> dict:
    return {
        "j1": schedule.j1,
        "j2": schedule.j2,
        "queries": schedule.queries,
        "predicted_success": schedule.predicted_success,
    }


def _run_grk_simplified(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.simplified import run_simplified_partial_search

    result = run_simplified_partial_search(
        database, request.n_blocks,
        schedule=request.option("schedule"),
        policy=request.policy,
    )
    return SearchReport(
        method="grk-simplified",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule=_simplified_provenance(result.schedule),
        answer=result.block_guess,
        raw=result,
    )


def _batch_grk_simplified(
    request: SearchRequest, backend: str, targets: np.ndarray, executor=None
) -> BatchReport:
    schedule = _resolve_simplified_schedule(request)
    return _program_batch(
        "grk-simplified", request, backend, targets, executor,
        schedule, _simplified_provenance(schedule),
    )


# --------------------------------------------------------------------------
# grk-sure-success
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cached_sure_success_plan(n_items: int, n_blocks: int, epsilon):
    """Target-independent phase solve, paid once per geometry.

    The multi-start least-squares solve is the expensive part of a
    sure-success request; every single run and every batch of one
    ``(N, K, eps)`` shares one cached plan.  Plans are frozen dataclasses,
    safe to share across rows, shards, and threads.
    """
    from repro.core.sure_success import plan_sure_success

    return plan_sure_success(n_items, n_blocks, epsilon)


def _resolve_plan(request: SearchRequest, solve):
    """The request's explicit ``options['plan']``, or ``solve(N, K, eps)``."""
    plan = request.option("plan")
    if plan is None:
        return solve(request.n_items, request.n_blocks, request.epsilon)
    spec = plan.spec
    if spec.n_items != request.n_items or spec.n_blocks != request.n_blocks:
        raise ValueError("plan does not match this instance's (N, K)")
    return plan


def _sure_success_provenance(plan) -> dict:
    return {
        "l1": plan.l1,
        "l2_base": plan.l2_base,
        "phases": list(plan.phases),
        "queries": plan.queries,
        "predicted_failure": plan.predicted_failure,
    }


def _run_sure_success(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.sure_success import run_sure_success_partial_search

    plan = _resolve_plan(request, _cached_sure_success_plan)
    result = run_sure_success_partial_search(
        database, request.n_blocks, request.epsilon, plan=plan,
        policy=request.policy,
    )
    return SearchReport(
        method="grk-sure-success",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule=_sure_success_provenance(plan),
        answer=result.block_guess,
        raw=result,
    )


def _batch_sure_success(
    request: SearchRequest, backend: str, targets: np.ndarray, executor=None
) -> BatchReport:
    plan = _resolve_plan(request, _cached_sure_success_plan)
    return _program_batch(
        "grk-sure-success", request, backend, targets, executor,
        plan, _sure_success_provenance(plan),
    )


# --------------------------------------------------------------------------
# grk-cwb (Choi–Walker–Braunstein, quant-ph/0603136)
# --------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cached_cwb_plan(n_items: int, n_blocks: int, epsilon):
    """CWB phase solve, paid once per geometry (see
    :func:`_cached_sure_success_plan` for why)."""
    from repro.core.cwb import plan_cwb

    return plan_cwb(n_items, n_blocks, epsilon)


def _cwb_provenance(plan) -> dict:
    return {
        "l1": plan.l1,
        "l2": plan.l2,
        "phases": list(plan.phases),
        "final_phase": plan.final_phase,
        "queries": plan.queries,
        "extra_queries": plan.extra_queries,
        "predicted_failure": plan.predicted_failure,
    }


def _run_cwb(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.cwb import run_cwb_partial_search

    plan = _resolve_plan(request, _cached_cwb_plan)
    result = run_cwb_partial_search(
        database, request.n_blocks, request.epsilon, plan=plan,
        policy=request.policy,
    )
    return SearchReport(
        method="grk-cwb",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule=_cwb_provenance(plan),
        answer=result.block_guess,
        raw=result,
    )


def _batch_cwb(
    request: SearchRequest, backend: str, targets: np.ndarray, executor=None
) -> BatchReport:
    plan = _resolve_plan(request, _cached_cwb_plan)
    return _program_batch(
        "grk-cwb", request, backend, targets, executor,
        plan, _cwb_provenance(plan),
    )


# --------------------------------------------------------------------------
# naive-blocks
# --------------------------------------------------------------------------

def _run_naive_blocks(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.naive import run_naive_partial_search

    result = run_naive_partial_search(
        database,
        request.n_blocks,
        left_out_block=request.option("left_out_block"),
        iterations=request.option("iterations"),
        rng=request.rng,
    )
    return SearchReport(
        method="naive-blocks",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule={
            "left_out_block": result.left_out_block,
            "iterations": result.queries - 1,  # quantum iterations + 1 probe
        },
        answer=result.block_guess,
        raw=result,
    )


# --------------------------------------------------------------------------
# grover-full
# --------------------------------------------------------------------------

def _run_grover_full(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.grover.exact import run_exact_grover
    from repro.grover.standard import run_grover

    exact = bool(request.option("exact", False))
    iterations = request.option("iterations")
    if exact:
        result = run_exact_grover(database, total_iterations=iterations)
    else:
        result = run_grover(database, iterations=iterations)
    return SearchReport(
        method="grover-full",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.best_guess // request.block_size,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule={"iterations": result.iterations, "exact": exact},
        answer=result.best_guess,
        raw=result,
    )


# --------------------------------------------------------------------------
# classical
# --------------------------------------------------------------------------

def _run_classical(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.classical.partial import (
        deterministic_partial_search,
        randomized_partial_search,
    )

    strategy = request.option("strategy", "deterministic")
    if strategy == "deterministic":
        result = deterministic_partial_search(
            database, request.n_blocks,
            left_out_block=request.option("left_out_block"),
        )
    elif strategy == "randomized":
        result = randomized_partial_search(database, request.n_blocks, rng=request.rng)
    else:
        raise ValueError(
            f"unknown classical strategy {strategy!r} "
            "(known: deterministic, randomized)"
        )
    return SearchReport(
        method="classical",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.answer,
        success_probability=1.0 if result.correct else 0.0,  # zero-error scans
        queries=result.queries,
        schedule={"strategy": strategy},
        answer=result.answer,
        raw=result,
    )


# --------------------------------------------------------------------------
# subspace (analytic — no database, no state vector)
# --------------------------------------------------------------------------

def _run_subspace(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.blockspec import BlockSpec
    from repro.core.subspace import SubspaceGRK

    schedule = _resolve_schedule(request)
    model = SubspaceGRK(BlockSpec(request.n_items, request.n_blocks))
    final = model.final(schedule.l1, schedule.l2)
    failure = final.failure_probability(model.spec)
    target = request.target
    if target is None and database is not None:
        marked = database.reveal_marked()
        target = next(iter(marked)) if len(marked) == 1 else None
    return SearchReport(
        method="subspace",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=None if target is None else target // request.block_size,
        success_probability=1.0 - failure,
        queries=schedule.queries,
        schedule=_schedule_provenance(schedule),
        answer=None if target is None else target // request.block_size,
        raw=final,
    )


def _batch_subspace(
    request: SearchRequest, backend: str, targets: np.ndarray
) -> BatchReport:
    from repro.core.blockspec import BlockSpec
    from repro.core.subspace import SubspaceGRK

    schedule = _resolve_schedule(request)
    model = SubspaceGRK(BlockSpec(request.n_items, request.n_blocks))
    failure = model.failure_probability(schedule.l1, schedule.l2)
    # The dynamics are symmetric in the target, so one O(1) evaluation
    # serves every row.
    success = np.full(targets.size, 1.0 - failure)
    return BatchReport(
        method="subspace",
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        targets=targets,
        success_probabilities=success,
        block_guesses=targets // request.block_size,
        queries=np.full(targets.size, schedule.queries, dtype=np.intp),
        schedule=_schedule_provenance(schedule),
        execution={"n_shards": 1, "analytic": True},
    )


# --------------------------------------------------------------------------
# registration
# --------------------------------------------------------------------------

def register_builtin_methods(*, replace: bool = False) -> None:
    """Register the built-in methods (idempotent with ``replace=True``)."""
    register_method(
        MethodSpec(
            name="grk",
            description="three-step GRK partial search (Figure 2)",
            backends=(KERNEL_BACKEND, *CIRCUIT_BACKENDS),
            run=_run_grk,
            native_batch=_batch_grk,
            supports_trace=True,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="grk-simplified",
            description="Korepin-Grover simplified partial search "
                        "(quant-ph/0504157): no ancilla, plain final iteration",
            backends=(KERNEL_BACKEND,),
            run=_run_grk_simplified,
            native_batch=_batch_grk_simplified,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="grk-sure-success",
            description="phased GRK variant answering with certainty",
            backends=(KERNEL_BACKEND,),
            run=_run_sure_success,
            native_batch=_batch_sure_success,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="grk-cwb",
            description="Choi-Walker-Braunstein sure success "
                        "(quant-ph/0603136): per-stage phase conditions, "
                        "certainty within a constant of the GRK budget",
            backends=(KERNEL_BACKEND,),
            run=_run_cwb,
            native_batch=_batch_cwb,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="naive-blocks",
            description="Section 1.2 baseline: Grover over K-1 blocks",
            backends=(KERNEL_BACKEND,),
            run=_run_naive_blocks,
            honours_policy=False,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="grover-full",
            description="standard full search (options: exact, iterations)",
            backends=(KERNEL_BACKEND,),
            run=_run_grover_full,
            needs_blocks=False,
            honours_policy=False,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="classical",
            description="Section 1.1 classical scans (deterministic/randomized)",
            backends=(CLASSICAL_BACKEND,),
            run=_run_classical,
            honours_policy=False,
        ),
        replace=replace,
    )
    register_method(
        MethodSpec(
            name="subspace",
            description="exact O(1) analytic model of the GRK schedule",
            backends=(ANALYTIC_BACKEND,),
            run=_run_subspace,
            native_batch=_batch_subspace,
            needs_database=False,
            honours_policy=False,
        ),
        replace=replace,
    )
