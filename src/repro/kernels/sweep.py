"""The program sweep: the one implementation of every simulated batch.

Every simulator batch, of the GRK family and of the full-search
baselines, bottoms out in :func:`program_sweep_rows`: one target per row,
one :class:`~repro.core.program.PartialSearchProgram` (global and block
iterations, optional phases, optional Step 3) for all of them.  The sweep
walks the rows in blocks of :data:`ROW_BLOCK_BYTES` of real state that
stay cache-resident across the whole program, so it reads cached lines
rather than streaming from memory.  Each row thread allocates one state
for its whole slab, at the widest dtype the program's blocks reach, and
runs every block in it.  Blocks run at the policy's real dtype until
their first phased stage, in the head of the state's flat real view, and
widen to its complex dtype in place there.  ``T`` threads hold about
``T`` × 1.25 MiB for a plain program and ``T`` × 2.25 MiB for a phased
one: the state, and the quarter-block scratch the readout squares in
(:func:`~repro.kernels.batched.block_measurement_rows`).

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

The update pass, which broadcasts each row's (or block's) mean over it,
runs under numpy's smallest ufunc buffer
(:func:`~repro.kernels.batched.row_buffered`), and so does each phased
iteration's diffusion.  At the default buffer numpy coalesces the block's
contiguous rows and copies the mean out to fill the buffer, which cost
more than the subtraction itself; the small buffer keeps the mean on a
stride-0 inner loop and halves the update (70 -> 27 µs per (32, 4096)
float64 block with numpy 2.4.6 on a 2-vCPU host), with the same single
IEEE operation per element.  The reductions keep the default buffer,
under which they run faster.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import batched

__all__ = ["ROW_BLOCK_BYTES", "program_sweep_rows", "grk_iteration_rows"]

#: Bytes of real state per row block, per row thread: within one core's
#: private L2, so a block stays cache-resident across the whole program.
#: 128 rows of float64 (256 of float32) at N=1024; a block that widens to
#: complex holds twice this.
ROW_BLOCK_BYTES = 1 << 20


def program_sweep_rows(program, targets, policy):
    """Run *program* once per row, row ``i`` searching for ``targets[i]``.

    *program* is a :class:`~repro.core.program.PartialSearchProgram`,
    read by attribute only; *policy* is the
    :class:`~repro.kernels.ExecutionPolicy` whose dtypes the state takes.
    Rows are walked in blocks of :data:`ROW_BLOCK_BYTES` of real state,
    all in one state allocated here, so every iteration re-reads cached
    lines and no block churns the allocator; rows never interact, so the
    block size is invisible in the results.  Each row thread calls this on
    its own slab: ``T`` threads hold about ``T`` × 1.25 MiB for a plain
    program and ``T`` × 2.25 MiB for a phased one.

    Returns ``(success_probabilities, block_guesses)``: float64 and intp
    arrays of ``len(targets)``.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n_rows, n = targets.size, program.n_items
    real = policy.real_dtype
    block = max(1, ROW_BLOCK_BYTES // (n * real.itemsize))
    rows = min(block, n_rows)
    # One state, at the widest dtype any block reaches, viewed flat as
    # reals, and one mean buffer per diffusion flavour, reused by every
    # real iteration of every block.
    state = np.empty(rows * n, dtype=_widest_dtype(program, policy))
    buffers = (
        state.view(real),
        np.empty((rows, 1), dtype=real),
        np.empty((rows, program.n_blocks, 1), dtype=real),
    )
    success = np.empty(n_rows, dtype=np.float64)
    guesses = np.empty(n_rows, dtype=np.intp)
    for start in range(0, n_rows, block):
        sl = slice(start, start + block)
        success[sl], guesses[sl] = _sweep_block(
            program, targets[sl], policy, *buffers
        )
    return success, guesses


def _widest_dtype(program, policy):
    """The dtype a block of *program* ends at: complex once a stage that
    runs is phased, or Step 3 runs at a phase other than π."""
    if any(stage.count and stage.phased for stage in program.stages) or (
        program.final_phase not in (None, np.pi)
    ):
        return policy.complex_dtype
    return policy.real_dtype


def _sweep_block(program, targets, policy, flat, mean_buf, block_mean_buf):
    """One cache-resident row block through the whole program, in the
    head of the slab's state *flat* (its flat real view)."""
    n_rows, n, n_blocks = targets.size, program.n_items, program.n_blocks
    real = policy.real_dtype
    amps = flat[:n_rows * n].reshape(n_rows, n)
    amps.fill(1.0 / np.sqrt(n))  # primitives.uniform_state, in place
    mean_buf, block_mean_buf = mean_buf[:n_rows], block_mean_buf[:n_rows]
    for stage in program.stages:
        if stage.count == 0:
            continue
        local = n_blocks if stage.kind == "block" else None
        if amps.dtype == real and not stage.phased:
            buf = mean_buf if local is None else block_mean_buf
            for _ in range(stage.count):
                grk_iteration_rows(amps, targets, n_blocks=local, mean_out=buf)
            continue
        # The first phased stage widens the block for good.
        amps = _widen(flat, amps, policy.complex_dtype)
        for _ in range(stage.count):
            batched.phased_iteration_rows(
                amps, targets, n_blocks=local,
                oracle_phase=stage.oracle_phase,
                diffusion_phase=stage.diffusion_phase,
            )
    parked = None
    if program.final_phase is not None:
        if program.final_phase != np.pi:
            amps = _widen(flat, amps, policy.complex_dtype)
        parked = batched.moveout_controlled_diffusion_rows(
            amps, targets, phase=program.final_phase,
            mean_out=mean_buf if amps.dtype == real else None,
        )
    block_probs = batched.block_measurement_rows(
        amps, n_blocks, parked=parked, targets=targets
    )
    return batched.success_and_guesses(block_probs, targets, program.block_size)


def _widen(flat, amps, dtype):
    """*amps*, the real block at the head of *flat*, as complex *dtype*.

    In place, from the top down in halves: each step casts the upper half
    of the reals left, ``flat[lo:hi]``, into complex elements ``lo:hi``,
    which lie wholly above it, so numpy makes no temporary and the values
    are those ``astype`` gives.  A complex block is returned as it is.
    """
    if amps.dtype == dtype:
        return amps
    wide = flat.view(dtype)
    hi = amps.size
    while hi > 1:
        lo = (hi + 1) // 2
        wide[lo:hi] = flat[lo:hi]
        hi = lo
    flat[1] = 0.0  # element 0's real part is already in place
    return wide[:amps.size].reshape(amps.shape)


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
    ``(B, n_blocks, 1)`` (block) buffer of the batch's dtype.  Only the
    final update runs under :func:`~repro.kernels.batched.row_buffered`;
    the reduction is slower under a small buffer.
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
    batched.row_buffered(np.subtract, buf, view, out=view)
    return amps
