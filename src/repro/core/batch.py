"""Vectorised batch execution: many partial searches in one sweep.

``B`` independent searches (one per target) of one GRK-family program are
advanced together, one batch row each — one vectorised pass per oracle
query instead of ``B`` Python loops.  This is the way to compute success
statistics over *every* target of an instance (e.g. the worst-case-over-
targets numbers in the ablation bench) at 10-50x the throughput of
per-target runs.

This module owns the *chunk primitive* :func:`execute_batch_rows`: one
shard of rows on a named backend, for any
:class:`~repro.core.program.PartialSearchProgram` (grk, grk-simplified,
grk-sure-success, grk-cwb).  On the ``"kernels"`` backend the whole loop
structure is :meth:`repro.kernels.KernelBackend.program_sweep_rows`, which
walks the rows in cache-resident blocks.  Memory-bounded sharding, process
fan-out, and the supported public surface live in :mod:`repro.engine`
(:meth:`repro.engine.SearchEngine.search_batch`);
:func:`run_partial_search_batch` remains as a thin deprecated wrapper over
the engine's sharded executor so existing callers keep working unchanged.

Query accounting note: a batch models ``B`` separate executions of the same
circuit, so the per-run query count is the program's (``l1 + l2 + 1`` for
grk); the returned :class:`BatchResult` reports that per-run figure
(matching what a single :func:`repro.core.algorithm.run_partial_search`
would count).

Besides the default structured-kernel sweep, ``backend="compiled"`` runs a
plain GRK batch through one compiled gate-level program with per-row
targets (see :mod:`repro.circuits.compiler`), and ``backend="naive"`` loops
the interpreting simulator — the slow oracle the fast paths are tested
against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import kernels
from repro.core.backends import circuit_geometry, validate_backend
from repro.core.blockspec import BlockSpec
from repro.core.parameters import GRKSchedule, plan_schedule
from repro.core.program import PartialSearchProgram
from repro.kernels import ExecutionPolicy

__all__ = ["BatchResult", "execute_batch_rows", "run_partial_search_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batched run over many targets.

    Attributes:
        spec: the shared ``(N, K)`` geometry.
        schedule: the shared integer schedule.
        targets: the target address per batch row, shape ``(B,)``.
        success_probabilities: exact block-measurement success per row.
        block_guesses: argmax block per row.
        queries_per_run: oracle queries each individual run costs.
    """

    spec: BlockSpec
    schedule: GRKSchedule
    targets: np.ndarray
    success_probabilities: np.ndarray
    block_guesses: np.ndarray
    queries_per_run: int

    @property
    def all_correct(self) -> bool:
        """Did every row's most-likely block equal its target's block?"""
        true_blocks = self.targets // self.spec.block_size
        return bool(np.all(self.block_guesses == true_blocks))

    @property
    def worst_success(self) -> float:
        """Minimum success probability across the batch."""
        return float(self.success_probabilities.min())


def execute_batch_rows(
    program: PartialSearchProgram,
    targets: np.ndarray,
    backend: str,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one shard of a GRK-family batch: *program* once per target.

    This is the shard primitive the engine's execution planner dispatches:
    rows evolve independently, so concatenating the outputs of consecutive
    chunks is bit-identical to one unsharded call.  This module selects the
    backend and dispatches; the loop structure and the kernel math live
    in :mod:`repro.kernels`.

    Args:
        program: the :class:`~repro.core.program.PartialSearchProgram`
            every row runs (fixes ``N`` and ``K``); each planner's result
            exposes one as ``.program``.
        targets: shape ``(B_chunk,)`` target addresses, one row each.
        backend: ``"kernels"``, or (plain GRK programs only)
            ``"compiled"`` or ``"naive"`` (see
            :func:`run_partial_search_batch`).
        policy: the :class:`~repro.kernels.ExecutionPolicy` (dtype + row
            threads + kernel backend); ``None`` = the complex128
            single-threaded numpy default, which reproduces the seed
            results bit for bit.  ``row_threads`` splits the chunk into
            contiguous row slabs whose sweeps run on the GIL-releasing
            thread seam, and ``policy.backend`` selects which registered
            :class:`~repro.kernels.KernelBackend` sweeps each slab — both
            bit-identical at complex128, since rows never interact and
            every backend replays the reference float op sequence.

    Returns:
        ``(success_probabilities, block_guesses)`` arrays of shape
        ``(B_chunk,)``.
    """
    targets = np.asarray(targets, dtype=np.intp)
    if policy is None:
        policy = ExecutionPolicy()
    if targets.size == 0:
        # Uniform empty-batch contract across backends: callers chunk work
        # and concatenate shard outputs unconditionally.
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)
    if backend != "kernels":
        return _execute_rows_on_circuit_backend(program, targets, backend, policy)

    b = targets.size
    kernel_backend = kernels.resolve_kernel_backend(policy.backend)

    def sweep(sl: slice) -> tuple[np.ndarray, np.ndarray]:
        return kernel_backend.program_sweep_rows(program, targets[sl], policy)

    return kernels.sweep_row_slabs(
        sweep, b, policy.threads_for_slab(b, program.n_items)
    )


def run_partial_search_batch(
    n_items: int,
    n_blocks: int,
    targets,
    epsilon: float | None = None,
    *,
    schedule: GRKSchedule | None = None,
    backend: str = "kernels",
) -> BatchResult:
    """Run the GRK algorithm for many targets in one vectorised sweep.

    .. deprecated::
        This wrapper is kept for source compatibility; new code should use
        :meth:`repro.engine.SearchEngine.search_batch`, which adds the
        memory-bounded shard policy and process fan-out.  The wrapper
        executes through the engine's sharded executor with the default
        128 MiB budget, so large all-targets batches no longer allocate the
        full state matrix at once.

    Args:
        n_items: database size ``N``.
        n_blocks: block count ``K``.
        targets: iterable of target addresses (one independent run each).
        epsilon: Step 1 parameter (``None`` = optimal for this ``K``).
        schedule: pre-planned schedule overriding ``epsilon``.
        backend: ``"kernels"`` (default) advances the whole batch with the
            structured reflections of :func:`execute_batch_rows`;
            ``"compiled"`` compiles the full gate-level GRK circuit **once**
            with parametric targets and runs every row through the shared
            fused program
            (:meth:`~repro.circuits.compiler.CompiledCircuit.run_multi_target`);
            ``"naive"`` loops the gate-by-gate simulator over the targets —
            the slow correctness oracle the others are tested against.
            Circuit backends need ``N`` and ``K`` to be powers of two.

    Returns:
        :class:`BatchResult` with exact per-target success probabilities.

    This bypasses the counted-oracle interface (batching is an analysis
    tool, not an adversarial execution); its numbers are validated against
    the counted runner in the test suite.
    """
    warnings.warn(
        "run_partial_search_batch is deprecated; use "
        "repro.engine.SearchEngine.search_batch",
        DeprecationWarning,
        stacklevel=2,
    )
    validate_backend(backend)
    if schedule is None:
        schedule = plan_schedule(n_items, n_blocks, epsilon)
    spec = schedule.spec
    if spec.n_items != n_items or spec.n_blocks != n_blocks:
        raise ValueError("schedule does not match this instance's (N, K)")
    targets = np.asarray(list(targets), dtype=np.intp)
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError("targets must be a non-empty 1-D collection")
    if targets.min() < 0 or targets.max() >= n_items:
        raise ValueError("targets out of address range")

    from repro.engine.plan import run_grk_batch_sharded

    success, guesses, _ = run_grk_batch_sharded(
        schedule.program, targets, backend
    )
    return BatchResult(
        spec=spec,
        schedule=schedule,
        targets=targets,
        success_probabilities=success,
        block_guesses=guesses,
        queries_per_run=schedule.queries,
    )


@lru_cache(maxsize=32)
def _multi_target_program(
    n_address_qubits: int, n_block_bits: int, l1: int, l2: int
):
    """Compile the parametric-target GRK circuit once per schedule shape."""
    from repro.circuits import partial_search_circuit
    from repro.circuits.compiler import compile_circuit

    circuit = partial_search_circuit(n_address_qubits, n_block_bits, 0, l1, l2)
    return compile_circuit(
        circuit, parametric_targets=True, n_address_qubits=n_address_qubits
    )


def _execute_rows_on_circuit_backend(
    program: PartialSearchProgram,
    targets: np.ndarray,
    backend: str,
    policy: ExecutionPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """Gate-level batched execution of a plain GRK program: one compiled
    circuit for all rows, or (``"naive"``) the interpreting simulator
    looped per target.

    The policy's dtype flows into the circuit kernels; ``row_threads``
    slabs the compiled multi-target run (program constants are shared and
    the diffusion scratch is thread-local, so slabs are bit-identical to
    the single sweep).
    """
    from repro.circuits import partial_search_circuit, run_circuit

    l1, l2 = program.grk_counts()
    spec = BlockSpec(program.n_items, program.n_blocks)
    n_address_qubits, n_block_bits = circuit_geometry(spec, backend)
    b = targets.size
    dtype = policy.complex_dtype
    if backend == "compiled":
        compiled = _multi_target_program(
            n_address_qubits, n_block_bits, l1, l2
        )

        def run_slab(sl: slice) -> np.ndarray:
            return compiled.run_multi_target(targets[sl], dtype=dtype)

        parts = kernels.map_row_slabs(run_slab, b, policy.effective_row_threads)
        final = parts[0] if len(parts) == 1 else np.concatenate(parts)
    else:  # "naive" — validate_backend already rejected everything else
        final = np.empty((b, 2 * spec.n_items), dtype=dtype)
        for i, t in enumerate(targets):
            circuit = partial_search_circuit(
                n_address_qubits, n_block_bits, int(t), l1, l2
            )
            final[i] = run_circuit(circuit, dtype=dtype)

    # Ancilla is the last wire: row layout is (address, ancilla); measuring
    # the block register traces the ancilla out incoherently.
    probs = np.abs(final.reshape(b, spec.n_items, 2)) ** 2
    block_probs = probs.reshape(b, spec.n_blocks, spec.block_size, 2).sum(axis=(2, 3))
    return kernels.success_and_guesses(block_probs, targets, spec.block_size)
