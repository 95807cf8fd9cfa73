"""Batched ``(B, N)`` kernel forms: per-row oracles, Step 3, measurement.

Row ``i`` of a batch is an independent search for target ``targets[i]``;
these primitives are the per-row counterparts of
:mod:`repro.kernels.primitives` (which already broadcast the *shared*
reflections over leading axes — what a batch needs on top is the ops whose
index depends on the row):

- :func:`uniform_batch` — the ``(B, N)`` uniform start state.
- :func:`phase_flip_rows` — each row flips its own target column (the
  batched oracle ``I_{t_i}``).
- :func:`phased_iteration_rows` — one oracle + diffusion pass at arbitrary
  phases on a complex batch (the phased stages of sure-success and CWB).
- :func:`moveout_rows` — each row swaps its own target's ancilla pair (the
  batched bit-flip oracle, used by the compiled parametric move-out).
- :func:`moveout_controlled_diffusion_rows` — the whole batched Step 3:
  park each row's target amplitude in the (implicit) ancilla-1 branch and
  invert the ancilla-0 remainder about the full mean (at a phase for CWB).
- :func:`block_measurement_rows` — per-row block distributions, folding
  parked ancilla-1 mass back in.
- :func:`map_row_slabs` — fan contiguous row slabs across the
  :func:`repro.util.parallel.thread_map` seam; rows never interact, so the
  results are bit-identical for any thread count.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.kernels.policy import row_slabs
from repro.kernels.primitives import (
    invert_about_mean,
    invert_about_mean_blocks,
    uniform_state,
)

__all__ = [
    "uniform_batch",
    "phase_flip_rows",
    "phased_iteration_rows",
    "moveout_rows",
    "moveout_controlled_diffusion_rows",
    "block_measurement_rows",
    "success_and_guesses",
    "map_row_slabs",
    "sweep_row_slabs",
]


def uniform_batch(n_rows: int, n_items: int, *, dtype=np.float64) -> np.ndarray:
    """A fresh ``(B, N)`` batch of uniform superpositions."""
    return uniform_state(n_items, dtype=dtype, lead=(n_rows,))


def _rows_for(amps: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    return np.arange(amps.shape[0]) if rows is None else rows


def phase_flip_rows(
    amps: np.ndarray, targets: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per-row oracle reflection: row ``i`` flips its own ``targets[i]``.

    ``amps`` may be ``(B, N)`` (the kernel batch) or ``(B, M, free)`` (the
    compiled parametric view, where a target owns a contiguous index range
    on the middle axis and the flip broadcasts over the trailing one).
    """
    amps[_rows_for(amps, rows), targets] *= -1.0
    return amps


def phased_iteration_rows(
    amps: np.ndarray,
    targets: np.ndarray,
    *,
    n_blocks: int | None = None,
    oracle_phase: float = np.pi,
    diffusion_phase: float = np.pi,
) -> np.ndarray:
    """One phased oracle + diffusion pass over a complex ``(B, N)`` batch.

    Row ``i`` multiplies its own ``targets[i]`` by ``e^{i oracle_phase}``
    (a plain flip at π), then every row goes through the generalised
    diffusion ``D(diffusion_phase)``: global when ``n_blocks`` is None,
    block-local otherwise.  Per row these are the same float ops the
    counted runners apply to a single state.
    """
    if oracle_phase == np.pi:
        phase_flip_rows(amps, targets)
    else:
        # Out of place: numpy's in-place complex multiply rounds some
        # elements differently depending on the array's length, which
        # would make a row's result depend on its shard's size.
        rows = _rows_for(amps, None)
        amps[rows, targets] = amps[rows, targets] * cmath.exp(1j * oracle_phase)
    if n_blocks is None:
        invert_about_mean(amps, diffusion_phase)
    else:
        invert_about_mean_blocks(amps, n_blocks, diffusion_phase)
    return amps


def moveout_rows(
    view: np.ndarray, targets: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Per-row bit-flip oracle on a ``(B, M, 2)`` (…, ancilla) view.

    Row ``i`` swaps the ancilla pair of its own target — the batched form of
    :class:`repro.oracle.quantum.BitFlipOracle` used by the compiled
    parametric move-out op.
    """
    r = _rows_for(view, rows)
    view[r, targets] = view[r, targets][:, ::-1]
    return view


def moveout_controlled_diffusion_rows(
    amps: np.ndarray,
    targets: np.ndarray,
    *,
    phase: float = np.pi,
    mean_out: np.ndarray | None = None,
) -> np.ndarray:
    """The batched GRK Step 3 on a ``(B, N)`` ancilla-free state.

    The bit-flip oracle moves each row's target amplitude into the
    ancilla-1 branch — since nothing else occupies that branch, it suffices
    to *park* the value and zero the column — and the ancilla-controlled
    diffusion ``D(phase)`` then inverts the remaining ancilla-0 amplitudes
    about the full mean (``phase != pi`` needs a complex batch, and ignores
    ``mean_out``).  Returns the parked amplitudes, shape ``(B,)``; fold
    them back in with :func:`block_measurement_rows`.
    """
    rows = _rows_for(amps, None)
    parked = amps[rows, targets].copy()
    amps[rows, targets] = 0.0
    invert_about_mean(amps, phase, mean_out=mean_out)
    return parked


def block_measurement_rows(
    amps: np.ndarray,
    n_blocks: int,
    *,
    parked: np.ndarray | None = None,
    targets: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row block distributions of a ``(B, N)`` batch, as float64.

    ``parked`` (with ``targets``) adds the ancilla-1 mass each row parked in
    :func:`moveout_controlled_diffusion_rows` back onto its target's block —
    the incoherent trace over the ancilla that measuring only the block
    register performs.
    """
    b, n = amps.shape
    if n_blocks <= 0 or n % n_blocks != 0:
        raise ValueError(f"n_blocks={n_blocks} must divide state size {n}")
    block_size = n // n_blocks
    probs = np.abs(amps.reshape(b, n_blocks, block_size)) ** 2
    block_probs = probs.sum(axis=2)
    if parked is not None:
        if targets is None:
            raise ValueError("parked amplitudes need their targets")
        block_probs[np.arange(b), targets // block_size] += np.abs(parked) ** 2
    if block_probs.dtype != np.float64:
        block_probs = block_probs.astype(np.float64)
    return block_probs


def success_and_guesses(
    block_probs: np.ndarray, targets: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read off each row's answer from its block distribution.

    The final measurement-selection step shared by every batched runner:
    row ``i``'s success probability is the mass on its own target's block,
    and its guess is the argmax block.  Returns float64 success and intp
    guesses, matching the chunk-primitive contract.
    """
    rows = np.arange(targets.size)
    success = block_probs[rows, targets // block_size]
    if success.dtype != np.float64:
        success = success.astype(np.float64)
    return success, np.argmax(block_probs, axis=1)


def map_row_slabs(fn, n_rows: int, row_threads: int) -> list:
    """Run ``fn(slice)`` over contiguous row slabs, threaded when asked.

    The workhorse of the policy's ``row_threads`` knob: callers close over
    their ``(B, N)`` arrays and run the *entire* per-slab sweep inside
    ``fn`` — slab views share the parent's memory, numpy's reductions and
    fused elementwise passes release the GIL, and rows never interact, so
    results concatenate bit-identically to the serial sweep in slab order.
    ``row_threads <= 1`` (or a single row) short-circuits to a plain call.
    """
    slabs = row_slabs(n_rows, row_threads)
    if len(slabs) == 1:
        return [fn(slabs[0])]
    from repro.util.parallel import thread_map

    return thread_map(fn, slabs)


def sweep_row_slabs(
    sweep, n_rows: int, row_threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch a ``(success, guesses)`` sweep over row slabs and rejoin.

    The shared plumbing of every simulated batch: *sweep* takes a row ``slice`` and returns per-slab ``(success
    probabilities, block guesses)``; slabs are threaded per
    :func:`map_row_slabs` and concatenated in order — bit-identical to one
    serial sweep.  An empty batch short-circuits to empty arrays of the
    conventional dtypes, so callers that chunk work down to nothing keep
    concatenating cleanly.
    """
    if n_rows == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)
    slabs = map_row_slabs(sweep, n_rows, row_threads)
    if len(slabs) == 1:
        return slabs[0]
    return (
        np.concatenate([s[0] for s in slabs]),
        np.concatenate([s[1] for s in slabs]),
    )
