"""One counted runner for every GRK-family program, and the GRK entry point.

:func:`run_program` executes any :class:`~repro.core.program.PartialSearchProgram`
against a counted oracle: every iteration is one (phased) oracle query and
one (phased) global or block-local diffusion, and the optional Step 3 spends
one more query.  GRK's program is the algorithm of Figure 2, exactly as
published:

1. ``l1`` standard Grover iterations on the full address space, stopping
   ``theta = eps*pi/2`` short of the target.
2. ``l2`` *block-local* Grover iterations ``A_[N/K]``: non-target blocks are
   fixed points; the target block over-rotates past the target so its
   non-target amplitudes turn negative, tuned so the average amplitude over
   all non-target states is half the per-state amplitude in non-target
   blocks.
3. One more query: the bit-flip oracle "moves the target out" into an
   ancilla branch, then an inversion about the (full, uniform) average —
   controlled on the ancilla being 0 — sends every non-target-*block*
   amplitude to (essentially) zero.

Measuring the block register then returns the target's block with
probability ``1 - O(1/sqrt(N))`` (this implementation's integer schedules
actually achieve ``1 - O(1/N)``; see :mod:`repro.core.parameters`).

:func:`run_partial_search` runs a planned schedule — GRK's by default, or
any GRK-family plan — on the kernels or, for plain GRK, on a gate-level
circuit backend.  The simplified, sure-success and CWB runners are thin
wrappers that plan and call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.backends import circuit_geometry, validate_backend
from repro.core.blockspec import BlockSpec
from repro.core.parameters import plan_schedule
from repro.core.program import GLOBAL, PartialSearchProgram
from repro.core.tracing import StageTrace
from repro.grover.amplify import phased_block_grover_step, phased_grover_step
from repro.kernels import ExecutionPolicy, uniform_state
from repro.kernels import primitives as ops
from repro.oracle.database import Database
from repro.oracle.quantum import BitFlipOracle, PhaseOracle
from repro.statevector.measurement import block_probabilities, sample_blocks

__all__ = ["PartialSearchResult", "run_program", "run_partial_search"]


@dataclass(frozen=True)
class PartialSearchResult:
    """Outcome of one partial-search run.

    Attributes:
        spec: the ``(N, K)`` geometry.
        schedule: the executed plan (``GRKSchedule``, ``SimplifiedSchedule``,
            ``SureSuccessPlan`` or ``CWBPlan``), or the bare program for
            :func:`run_program`.
        branches: final state, shape ``(2, N)`` — row ``b`` is the
            ancilla-``b`` branch; ``(1, N)`` for programs without Step 3,
            which use no ancilla.
        block_distribution: probabilities of each block under measurement.
        block_guess: the algorithm's output — the most likely block (what a
            single measurement returns with probability ``success_probability``).
        success_probability: probability mass on the true target block.
        queries: oracle queries actually counted during the run.
        traces: stage snapshots when tracing was requested, else ``None``.
    """

    spec: BlockSpec
    schedule: Any
    branches: np.ndarray
    block_distribution: np.ndarray
    block_guess: int
    success_probability: float
    queries: int
    traces: tuple[StageTrace, ...] | None = None

    @property
    def failure_probability(self) -> float:
        """Probability of observing a wrong block (clipped at 0: float
        rounding can push a sure-success run's success a few ulp past 1)."""
        return max(0.0, 1.0 - self.success_probability)

    def measure_block(self, rng=None, size=None):
        """Sample the final block measurement (repeatable)."""
        return sample_blocks(self.branches, self.spec.n_blocks, rng=rng, size=size)


def _single_target_of(database: Database) -> int:
    marked = database.reveal_marked()
    if len(marked) != 1:
        raise ValueError(
            f"partial search requires exactly one marked item, got {len(marked)}"
        )
    return next(iter(marked))


def run_program(
    database: Database,
    program: PartialSearchProgram,
    *,
    policy: ExecutionPolicy | None = None,
    trace: bool = False,
) -> PartialSearchResult:
    """Execute *program* against *database*'s counted oracle.

    The state is real (``policy.real_dtype``) unless a stage is phased or
    Step 3 runs at a phase other than π, then complex.  A phase of π takes
    the plain reflection code path, so a plain program runs exactly the
    operations the textbook algorithm does.

    Args:
        database: database with exactly one marked address of the
            program's ``N``; its counter accumulates ``program.queries``.
        program: the stages to run.
        policy: :class:`~repro.kernels.ExecutionPolicy` selecting the state
            precision (``None`` = the bit-identical complex128 default;
            ``row_threads`` has no effect on a single run).
        trace: record a :class:`~repro.core.tracing.StageTrace` after
            every stage (labels ``initial``, ``after_step{i}``,
            ``after_moveout``, ``final``).

    Returns:
        :class:`PartialSearchResult` whose ``schedule`` is *program*.
    """
    if policy is None:
        policy = ExecutionPolicy()
    n, n_blocks = program.n_items, program.n_blocks
    if database.n_items != n:
        raise ValueError(
            f"program is for N={n}, but the database has N={database.n_items}"
        )
    spec = BlockSpec(n, n_blocks)
    target = _single_target_of(database)
    oracle = PhaseOracle(database)
    start_count = database.counter.count
    phased = any(s.phased for s in program.stages) or (
        program.final_phase not in (None, math.pi)
    )
    amps = uniform_state(
        n, dtype=policy.complex_dtype if phased else policy.real_dtype
    )

    traces: list[StageTrace] | None = [] if trace else None

    def record(label: str, description: str, state: np.ndarray) -> None:
        if traces is not None:
            traces.append(
                StageTrace(
                    label=label,
                    description=description,
                    amplitudes=state.copy(),
                    queries=database.counter.count - start_count,
                )
            )

    record("initial", "uniform superposition over all N addresses", amps)
    for i, stage in enumerate(program.stages, 1):
        for _ in range(stage.count):
            if stage.kind == GLOBAL:
                phased_grover_step(
                    amps, oracle, stage.oracle_phase, stage.diffusion_phase
                )
            else:
                phased_block_grover_step(
                    amps, oracle, n_blocks, stage.oracle_phase, stage.diffusion_phase
                )
        record(f"after_step{i}", f"{stage.count} {stage.kind} iterations", amps)

    if program.final_phase is None:
        branches = amps[np.newaxis]
    else:
        # Step 3 — one query: move the target into the ancilla-1 branch,
        # then invert the ancilla-0 branch about the full uniform average.
        branches = np.zeros((2, n), dtype=amps.dtype)
        branches[0] = amps
        BitFlipOracle(database).apply(branches)
        record("after_moveout", "bit-flip oracle parks the target in ancilla 1",
               branches)
        ops.invert_about_mean(branches[0], phase=program.final_phase)
        record("final", "controlled inversion about average zeroes non-target "
               "blocks", branches)

    dist = block_probabilities(branches, n_blocks)
    return PartialSearchResult(
        spec=spec,
        schedule=program,
        branches=branches,
        block_distribution=dist,
        block_guess=int(np.argmax(dist)),
        success_probability=float(dist[spec.block_of(target)]),
        queries=database.counter.count - start_count,
        traces=tuple(traces) if traces is not None else None,
    )


def run_partial_search(
    database: Database,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    schedule=None,
    trace: bool = False,
    backend: str = "kernels",
    policy: ExecutionPolicy | None = None,
) -> PartialSearchResult:
    """Execute a planned partial search against a counted oracle.

    Args:
        database: database with exactly one marked address; its counter
            accumulates this run's queries.
        n_blocks: ``K`` (must divide ``N``; any ``K >= 2``, powers of two
            not required).
        epsilon: Step 1 stopping parameter; ``None`` uses the optimal value
            for this ``K``.
        schedule: pre-planned schedule (overrides ``epsilon``): a
            :class:`~repro.core.parameters.GRKSchedule` (useful for
            ablations with explicit ``(l1, l2)``) or any other GRK-family
            plan, whose ``.program`` runs.
        trace: record stage snapshots (copies the state ~5 times; only the
            ``"kernels"`` backend supports tracing).
        backend: execution engine.  ``"kernels"`` (default) evolves the
            state with the structured :mod:`repro.kernels.primitives`
            reflections; ``"naive"`` / ``"compiled"`` build the full
            :func:`~repro.circuits.builders.partial_search_circuit` of a
            plain GRK schedule and run it on the registered circuit
            simulator of that name (which requires ``N`` and ``K`` to be
            powers of two).  All backends produce the same result to float
            precision and charge the same ``l1 + l2 + 1`` queries to the
            database counter.
        policy: :class:`~repro.kernels.ExecutionPolicy` selecting the state
            precision on every backend (``None`` = the bit-identical
            complex128 default).

    Returns:
        :class:`PartialSearchResult` whose ``schedule`` is the executed
        plan.  ``success_probability`` is exact (it reads the final
        distribution, it does not sample).
    """
    validate_backend(backend)
    if policy is None:
        policy = ExecutionPolicy()
    n = database.n_items
    if schedule is None:
        schedule = plan_schedule(n, n_blocks, epsilon)
    spec = schedule.spec
    if spec.n_items != n or spec.n_blocks != n_blocks:
        raise ValueError(
            f"schedule is for (N={spec.n_items}, K={spec.n_blocks}), "
            f"but this run has (N={n}, K={n_blocks})"
        )
    if backend != "kernels":
        if trace:
            raise ValueError("stage tracing requires the 'kernels' backend")
        return _run_on_circuit_backend(database, schedule, backend, policy)
    result = run_program(database, schedule.program, policy=policy, trace=trace)
    return replace(result, schedule=schedule)


def _run_on_circuit_backend(
    database: Database,
    schedule,
    backend: str,
    policy: ExecutionPolicy,
) -> PartialSearchResult:
    """Execute a plain GRK run as a full gate-level circuit on a named backend.

    The circuit path needs power-of-two geometry (wires are qubits); the
    tagged oracle gates are charged to the database counter so query
    accounting matches the kernel path exactly.
    """
    from repro.circuits import execute, partial_search_circuit

    spec = schedule.spec
    target = _single_target_of(database)
    n_address_qubits, n_block_bits = circuit_geometry(spec, backend)
    circuit = partial_search_circuit(
        n_address_qubits, n_block_bits, target, *schedule.program.grk_counts()
    )
    final = execute(circuit, backend=backend, dtype=policy.complex_dtype)
    database.counter.increment(circuit.oracle_queries)
    # The ancilla is the last wire, so index = address * 2 + ancilla; the
    # GRK gate set is real, so the imaginary residue is float noise only.
    branches = np.ascontiguousarray(final.reshape(spec.n_items, 2).T.real)
    dist = block_probabilities(branches, spec.n_blocks)
    return PartialSearchResult(
        spec=spec,
        schedule=schedule,
        branches=branches,
        block_distribution=dist,
        block_guess=int(np.argmax(dist)),
        success_probability=float(dist[spec.block_of(target)]),
        queries=circuit.oracle_queries,
        traces=None,
    )
