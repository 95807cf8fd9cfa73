"""The program sweep: the one implementation of every simulated batch.

Every simulator batch, of the GRK family and of the full-search
baselines, bottoms out in :func:`program_sweep_rows`: one target per row,
one :class:`~repro.core.program.PartialSearchProgram` (global and block
iterations, optional phases, optional Step 3) for all of them.  The sweep
is memory-bandwidth bound, so it walks the rows in blocks of about
:data:`ROW_BLOCK_BYTES` that each allocate their own state and stay
cache-resident across the whole program.  Blocks run at the policy's real
dtype until their first phased stage and at its complex dtype from there
on.

The unphased iteration (:func:`grk_iteration_rows`) fuses the oracle flip
and the diffusion mean into one reduction pass and one update pass.  At
float64 it performs the float ops of the composed primitives
(:func:`~repro.kernels.batched.phase_flip_rows`, then
:func:`~repro.kernels.primitives.invert_about_mean` or
:func:`~repro.kernels.primitives.invert_about_mean_blocks`) in the same
per-row order, so complex128 results are bit-identical to that composed
reference.  At float32, which owes only the documented tolerance
(:data:`~repro.kernels.COMPLEX64_SUCCESS_ATOL`), the reductions run
through ``np.einsum``, vectorised where numpy's pairwise float32 reduce is
scalar.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import batched

__all__ = ["ROW_BLOCK_BYTES", "program_sweep_rows", "grk_iteration_rows"]

#: Target bytes of real state per row block: about L2-sized, so a block
#: stays cache-resident across the whole program.  128 rows of float64
#: (256 of float32) at N=1024.
ROW_BLOCK_BYTES = 1 << 20


def program_sweep_rows(program, targets, policy):
    """Run *program* once per row, row ``i`` searching for ``targets[i]``.

    *program* is a :class:`~repro.core.program.PartialSearchProgram`,
    read by attribute only; *policy* is the
    :class:`~repro.kernels.ExecutionPolicy` whose dtypes the state takes.
    Rows are walked in blocks of about :data:`ROW_BLOCK_BYTES` that each
    own their state, so every iteration re-reads cached lines instead of
    streaming a whole shard from memory; rows never interact, so the block
    size is invisible in the results.

    Returns ``(success_probabilities, block_guesses)``: float64 and intp
    arrays of ``len(targets)``.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n_rows = targets.size
    row_bytes = program.n_items * policy.real_dtype.itemsize
    block = max(1, ROW_BLOCK_BYTES // row_bytes)
    success = np.empty(n_rows, dtype=np.float64)
    guesses = np.empty(n_rows, dtype=np.intp)
    for start in range(0, n_rows, block):
        rows = slice(start, start + block)
        success[rows], guesses[rows] = _sweep_block(
            program, targets[rows], policy
        )
    return success, guesses


def _sweep_block(program, targets, policy):
    """One cache-resident row block through the whole program."""
    n_rows, n_blocks = targets.size, program.n_blocks
    real = policy.real_dtype
    amps = batched.uniform_batch(n_rows, program.n_items, dtype=real)
    # One mean buffer per diffusion flavour, reused by every real
    # iteration of the block (the hot loop must not churn the allocator).
    mean_buf = np.empty((n_rows, 1), dtype=real)
    block_mean_buf = np.empty((n_rows, n_blocks, 1), dtype=real)
    for stage in program.stages:
        if stage.count == 0:
            continue
        local = n_blocks if stage.kind == "block" else None
        if amps.dtype == real and not stage.phased:
            buf = mean_buf if local is None else block_mean_buf
            for _ in range(stage.count):
                grk_iteration_rows(amps, targets, n_blocks=local, mean_out=buf)
            continue
        # The first phased stage promotes the block for good.
        amps = amps.astype(policy.complex_dtype, copy=False)
        for _ in range(stage.count):
            batched.phased_iteration_rows(
                amps, targets, n_blocks=local,
                oracle_phase=stage.oracle_phase,
                diffusion_phase=stage.diffusion_phase,
            )
    parked = None
    if program.final_phase is not None:
        if program.final_phase != np.pi:
            amps = amps.astype(policy.complex_dtype, copy=False)
        parked = batched.moveout_controlled_diffusion_rows(
            amps, targets, phase=program.final_phase,
            mean_out=mean_buf if amps.dtype == real else None,
        )
    block_probs = batched.block_measurement_rows(
        amps, n_blocks, parked=parked, targets=targets
    )
    return batched.success_and_guesses(block_probs, targets, program.block_size)


def _scale_mean(buf: np.ndarray, n: int) -> None:
    """In place ``buf -> 2 * buf / n``, bit-identical to the reference.

    The reference computes ``mean = sum / n`` then doubles it.  When ``n``
    is a power of two both division and doubling are *exact*, so the single
    multiply by the precomputed ``2/n`` scalar is bitwise equivalent and
    saves a pass; otherwise the divide-then-multiply order is replicated.
    """
    dt = buf.dtype.type
    if n & (n - 1) == 0:
        np.multiply(buf, dt(2.0) / dt(n), out=buf)
    else:
        np.divide(buf, dt(n), out=buf)
        np.multiply(buf, dt(2.0), out=buf)


def grk_iteration_rows(amps, targets, *, n_blocks=None, mean_out=None):
    """One oracle + diffusion pass on a real ``(B, N)`` batch, in place.

    Row ``i`` flips ``targets[i]``, then inverts about its mean: the global
    mean when *n_blocks* is None, each block's own mean otherwise.
    *mean_out* is an optional preallocated ``(B, 1)`` (global) or
    ``(B, n_blocks, 1)`` (block) buffer of the batch's dtype.
    """
    batched.phase_flip_rows(amps, targets)
    b, n = amps.shape
    dt = amps.dtype
    if n_blocks is None:
        size, view = n, amps
        buf = mean_out if mean_out is not None else np.empty((b, 1), dt)
        if dt == np.float32:
            np.einsum("ij->i", view, out=buf[:, 0])
        else:
            np.add.reduce(view, axis=-1, keepdims=True, out=buf)
    else:
        size = n // n_blocks
        view = amps.reshape(b, n_blocks, size)
        buf = (
            mean_out
            if mean_out is not None
            else np.empty((b, n_blocks, 1), dt)
        )
        if dt == np.float32:
            np.einsum("ijk->ij", view, out=buf[:, :, 0])
        else:
            np.add.reduce(view, axis=-1, keepdims=True, out=buf)
    _scale_mean(buf, size)
    np.subtract(buf, view, out=view)
    return amps
