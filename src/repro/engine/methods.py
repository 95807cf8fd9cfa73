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
==================  ====================================================

The four GRK-family methods share one run adapter and one batch adapter:
each resolves its plan through :func:`repro.core.plans.resolve_plan` (the
same cache the analytic tier reads), runs ``plan.program`` — one counted
run, or the sharded kernel sweep over every target — and reports
``plan.provenance()``.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import CIRCUIT_BACKENDS, KERNEL_BACKEND
from repro.core.plans import resolve_plan
from repro.engine.registry import MethodSpec, register_method
from repro.engine.report import BatchReport, SearchReport
from repro.engine.request import SearchRequest

__all__ = ["register_builtin_methods"]

#: Backend name for the classical scans (they run on the counted database
#: directly — no state vector is involved).
CLASSICAL_BACKEND = "classical"

#: Backend name the closed-form engine tier reports.
ANALYTIC_BACKEND = "analytic"

#: The GRK family: ``(name, description, backends)``; grk alone also runs
#: on the circuit backends and supports tracing.
GRK_FAMILY = (
    ("grk", "three-step GRK partial search (Figure 2)",
     (KERNEL_BACKEND, *CIRCUIT_BACKENDS)),
    ("grk-simplified", "Korepin-Grover simplified partial search "
     "(quant-ph/0504157): no ancilla, plain final iteration",
     (KERNEL_BACKEND,)),
    ("grk-sure-success", "phased GRK variant answering with certainty",
     (KERNEL_BACKEND,)),
    ("grk-cwb", "Choi-Walker-Braunstein sure success (quant-ph/0603136): "
     "per-stage phase conditions, certainty within a constant of the GRK "
     "budget", (KERNEL_BACKEND,)),
)


# --------------------------------------------------------------------------
# grk, grk-simplified, grk-sure-success, grk-cwb
# --------------------------------------------------------------------------

def _run_grk_family(request: SearchRequest, backend: str, database) -> SearchReport:
    from repro.core.algorithm import run_partial_search

    plan = resolve_plan(request)
    result = run_partial_search(
        database,
        request.n_blocks,
        schedule=plan,
        trace=request.trace,
        backend=backend,
        policy=request.policy,
    )
    return SearchReport(
        method=request.method,
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        block_guess=result.block_guess,
        success_probability=result.success_probability,
        queries=result.queries,
        schedule=plan.provenance(),
        answer=result.block_guess,
        raw=result,
    )


def _batch_grk_family(
    request: SearchRequest, backend: str, targets: np.ndarray, executor
) -> BatchReport:
    """The plan's program through the sharded runner, one row per target."""
    from repro.engine.plan import run_grk_batch_sharded

    plan = resolve_plan(request)
    success, guesses, shard_plan = run_grk_batch_sharded(
        plan.program, targets, backend, request.shards,
        executor=executor, execution=request.policy,
    )
    execution = shard_plan.describe()
    if executor is not None:
        execution.update(executor.describe())
    return BatchReport(
        method=request.method,
        backend=backend,
        n_items=request.n_items,
        n_blocks=request.n_blocks,
        targets=targets,
        success_probabilities=success,
        block_guesses=guesses,
        queries=np.full(targets.size, plan.queries, dtype=np.intp),
        schedule=plan.provenance(),
        execution=execution,
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
# registration
# --------------------------------------------------------------------------

def register_builtin_methods(*, replace: bool = False) -> None:
    """Register the built-in methods (idempotent with ``replace=True``)."""
    for name, description, backends in GRK_FAMILY:
        register_method(
            MethodSpec(
                name=name,
                description=description,
                backends=backends,
                run=_run_grk_family,
                native_batch=_batch_grk_family,
                supports_trace=name == "grk",
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
