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
grk-sure-success, grk-cwb, and the full-search programs of grover-full
and naive-blocks).  On the ``"kernels"`` backend the whole loop
structure is :func:`repro.kernels.program_sweep_rows`, which walks the
rows in cache-resident blocks, and :func:`running_shard` is the one
place ``row_threads="auto"`` becomes a count, in the process that runs
the shard.  Sharding and the supported public surface live in
:mod:`repro.engine` (:meth:`repro.engine.SearchEngine.search_batch`).

Query accounting note: a batch models ``B`` separate executions of the same
circuit, so the per-run query count is the program's (``l1 + l2 + 1`` for
grk), matching what a single :func:`repro.core.algorithm.run_partial_search`
would count.

Besides the default structured-kernel sweep, ``backend="compiled"`` runs a
plain GRK batch through one compiled gate-level program with per-row
targets (see :mod:`repro.circuits.compiler`), and ``backend="naive"`` loops
the interpreting simulator — the slow oracle the fast paths are tested
against.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro import kernels
from repro.core.backends import circuit_geometry
from repro.core.blockspec import BlockSpec
from repro.core.program import PartialSearchProgram
from repro.kernels import ROW_THREADS_AUTO, ExecutionPolicy

__all__ = ["execute_batch_rows", "running_shard"]

#: Kernels shards this process is running, each counted while
#: :func:`running_shard` holds it.  Their row threads share its cpus.
_running_shards = 0
_running_lock = threading.Lock()


@contextmanager
def running_shard(
    policy: ExecutionPolicy,
    backend: str,
    n_rows: int,
    n_items: int,
    queries: int,
):
    """Hold a shard of *n_rows* rows as running in this process and
    yield *policy* with ``row_threads="auto"`` resolved for it.

    On ``"kernels"`` the count comes from the shard's work beside the
    kernels shards this process is running, this one included
    (:meth:`~repro.kernels.ExecutionPolicy.resolve`).  The circuit
    backends take one thread, uncounted: the work floor was measured on
    the kernels sweep, and a compiled batch at N=1024 ran slower on two
    threads at every batch size.  A concrete count passes through.
    """
    global _running_shards
    if backend != "kernels":
        if policy.row_threads == ROW_THREADS_AUTO:
            policy = replace(policy, row_threads=1)
        yield policy
        return
    with _running_lock:
        _running_shards += 1
        running = _running_shards
    try:
        yield policy.resolve(n_rows, n_items, queries, batches=running)
    finally:
        with _running_lock:
            _running_shards -= 1


def execute_batch_rows(
    program: PartialSearchProgram,
    targets: np.ndarray,
    backend: str,
    policy: ExecutionPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one shard of a program batch: *program* once per target.

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
            ``"compiled"`` — the full gate-level circuit compiled once with
            parametric targets — or ``"naive"``, which loops the
            gate-by-gate simulator over the targets (the slow correctness
            oracle).  Circuit backends need ``N`` and ``K`` to be powers
            of two.
        policy: the :class:`~repro.kernels.ExecutionPolicy` (dtype + row
            threads); ``None`` = the default, complex128 with
            ``row_threads="auto"``, which a direct call resolves here
            (:func:`running_shard`) and a shard arrives resolved.
            ``row_threads`` splits the chunk into contiguous row slabs
            swept on the GIL-releasing thread seam (about ``T`` × 1.25
            MiB resident for a plain program, ``T`` × 2.25 MiB for a
            phased one) — bit-identical at complex128, since rows never
            interact.

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
    b = targets.size
    held = (nullcontext(policy) if policy.row_threads != ROW_THREADS_AUTO
            else running_shard(policy, backend, b, program.n_items,
                               program.queries))
    with held as policy:
        if backend != "kernels":
            return _execute_rows_on_circuit_backend(program, targets, backend,
                                                    policy)

        def sweep(sl: slice) -> tuple[np.ndarray, np.ndarray]:
            return kernels.program_sweep_rows(program, targets[sl], policy)

        return kernels.sweep_row_slabs(sweep, b, policy.row_threads)


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

    The policy's dtype flows into the circuit kernels; its resolved
    ``row_threads`` slabs the compiled multi-target run (program constants
    are shared and the diffusion scratch is thread-local, so slabs are
    bit-identical to the single sweep).
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

        parts = kernels.map_row_slabs(run_slab, b, policy.row_threads)
        final = parts[0] if len(parts) == 1 else np.concatenate(parts)
    else:  # "naive" — the engine validated the backend name
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
