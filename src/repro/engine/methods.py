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
``naive-blocks``    Section 1.2's K−1-block quantum baseline; a batch runs
                    ``[global j]`` over the ``N - N/K`` searched addresses
``grover-full``     standard full search (+ Long's exact variant); a batch
                    runs ``[global j]`` (exact: ``[global J+1 (φ, φ)]``)
``classical``       Section 1.1's deterministic/randomized scans; a batch
                    runs them in-process, one per target
==================  ====================================================

The four GRK-family methods share one run adapter and one batch adapter:
each resolves its plan through :func:`repro.core.plans.resolve_plan` (the
same cache the analytic tier reads), runs ``plan.program`` — one counted
run, or the sharded kernel sweep over every target — and reports
``plan.provenance()``.  The quantum baselines' batches run full-search
programs (one address per block, no Step 3) on the same sweep; their
single runs stay on the counted runners, the reference the batch rows are
tested against.
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


def _sweep(request, backend, program, targets, executor):
    """*program* once per target through the sharded kernel sweep:
    ``(success_probabilities, block_guesses, execution)``."""
    from repro.engine.plan import run_grk_batch_sharded

    success, guesses, shard_plan = run_grk_batch_sharded(
        program, targets, backend, request.shards,
        executor=executor, execution=request.policy,
    )
    return success, guesses, {**shard_plan.describe(), **executor.describe()}


def _batch_report(request, backend, targets, success, guesses, execution,
                  queries, schedule) -> BatchReport:
    """One batch's report; *queries* is one count for all rows or one each."""
    return BatchReport(
        method=request.method, backend=backend, n_items=request.n_items,
        n_blocks=request.n_blocks, targets=targets,
        success_probabilities=success, block_guesses=guesses,
        queries=np.full(targets.size, queries, dtype=np.intp),
        schedule=schedule, execution=execution,
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
    plan = resolve_plan(request)
    return _batch_report(
        request, backend, targets,
        *_sweep(request, backend, plan.program, targets, executor),
        plan.queries, plan.provenance(),
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


def _batch_naive_blocks(
    request: SearchRequest, backend: str, targets: np.ndarray, executor
) -> BatchReport:
    """Section 1.2's baseline as full search over the searched addresses.

    The left-out block starts at amplitude 0 and nothing changes it, so
    the ``M = N - N/K`` searched addresses evolve exactly like a full
    search over ``M`` items.  One program serves every row whose target is
    searched, renumbered to skip its row's left-out block; a row whose
    target is left out runs nothing and answers that block with
    certainty.  Each row pays ``j`` iterations plus the verification query
    and guesses its most likely answer: the target's block at success
    >= 1/2, else the left-out block.  Unpinned, row ``i`` leaves out the
    first draw of ``spawn_rngs(request.rng, B)[i]``, as a single run does.
    ``execution`` describes the sweep over the searched rows (``n_rows``
    counts them; none searched is an empty plan of zero shards).
    """
    from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
    from repro.grover.angles import optimal_iterations
    from repro.util.rng import spawn_rngs

    k, size = request.n_blocks, request.block_size
    m = request.n_items - size
    j = request.option("iterations")
    stage = ProgramStage(GLOBAL, optimal_iterations(m) if j is None else j)
    program = PartialSearchProgram(m, m, (stage,), None)
    pinned = request.option("left_out_block")
    if pinned is None:
        left_out = np.array([rng.integers(k) for rng in
                             spawn_rngs(request.rng, targets.size)], np.intp)
    elif 0 <= pinned < k:
        left_out = np.full(targets.size, pinned, dtype=np.intp)
    else:
        raise ValueError(f"left_out_block {pinned} out of range")

    blocks = targets // size
    searched = blocks != left_out
    shifted = targets - size * (blocks > left_out)
    success = np.ones(targets.size)
    success[searched], _, execution = _sweep(
        request, backend, program, shifted[searched], executor
    )
    guesses = np.where(success >= 0.5, blocks, left_out)
    schedule = {"iterations": stage.count, "searched_items": m,
                "left_out_block": pinned}
    return _batch_report(request, backend, targets, success, guesses,
                         execution, stage.count + 1, schedule)


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


def _batch_grover_full(
    request: SearchRequest, backend: str, targets: np.ndarray, executor
) -> BatchReport:
    """Full search as one program with one address per block: ``[global
    j]``, or Long's phase-matched ``[global J+1 (φ, φ)]`` with
    ``exact=True``.  Its guess is the most probable address's block."""
    from repro.core.program import GLOBAL, PartialSearchProgram, ProgramStage
    from repro.grover.angles import optimal_iterations
    from repro.grover.exact import long_phase, minimum_iterations

    n, j = request.n_items, request.option("iterations")
    exact = bool(request.option("exact", False))
    if exact:
        j = minimum_iterations(n) + 1 if j is None else j
        stage = ProgramStage(GLOBAL, j, long_phase(n, j), long_phase(n, j))
    else:
        stage = ProgramStage(GLOBAL, optimal_iterations(n) if j is None else j)
    program = PartialSearchProgram(n, n, (stage,), None)
    success, addresses, execution = _sweep(
        request, backend, program, targets, executor
    )
    return _batch_report(
        request, backend, targets, success, addresses // request.block_size,
        execution, stage.count, {"iterations": stage.count, "exact": exact},
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


def _batch_classical(
    request: SearchRequest, backend: str, targets: np.ndarray, executor
) -> BatchReport:
    """One single run per target, in-process: the scans hold no state, so
    no shard is planned.  Neither *executor* nor ``request.shards``
    applies, so the batch never fans out; ``execution`` records the
    ignored ``shards.workers``.  Row ``i`` scans with
    ``spawn_rngs(request.rng, B)[i]``."""
    from repro.oracle.database import SingleTargetDatabase
    from repro.resilience import current_deadline
    from repro.util.rng import spawn_rngs

    deadline = current_deadline()
    if deadline is not None:
        deadline.raise_if_expired("batch")
    rows = [
        _run_classical(request.replace(rng=rng), backend,
                       SingleTargetDatabase(request.n_items, int(t)))
        for t, rng in zip(targets, spawn_rngs(request.rng, targets.size))
    ]
    return _batch_report(
        request, backend, targets,
        np.array([r.success_probability for r in rows]),
        np.array([r.block_guess for r in rows], dtype=np.intp),
        {"n_shards": 0, "workers": 0, "executor": "in-process",
         "ignored_workers": request.shards.workers},
        [r.queries for r in rows], rows[0].schedule,
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
                batch=_batch_grk_family,
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
            batch=_batch_naive_blocks,
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
            batch=_batch_grover_full,
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
            batch=_batch_classical,
            honours_policy=False,
        ),
        replace=replace,
    )
