"""``repro.kernels`` — the unified kernel execution layer.

One package owns every statevector primitive the repo's algorithms are made
of, in both single-state ``(N,)`` and batched ``(B, N)`` forms, plus the
:class:`ExecutionPolicy` (dtype + row threads) that all of them honour:

- :mod:`repro.kernels.primitives` — init, oracle phase flips, global /
  block-local / masked diffusion, generalised reflections, the norm guard;
- :mod:`repro.kernels.batched` — per-row oracles, phased iterations, the
  batched Step 3 (move-out + ancilla-controlled diffusion), block
  measurement, and the row-slab thread dispatcher;
- :mod:`repro.kernels.policy` — :class:`ExecutionPolicy`, the logical
  ``complex128``/``complex64`` precision names, and the documented
  :data:`COMPLEX64_SUCCESS_ATOL` tolerance contract;
- :mod:`repro.kernels.sweep` — :func:`program_sweep_rows`, the row-blocked
  program sweep every simulated batch runs (the GRK family and the
  full-search baselines), with its fused unphased iteration
  (bit-identical to the composed primitives at complex128).

Consumers: the single-state simulators import :mod:`repro.kernels.primitives`
directly, the compiled circuit backend dispatches its fused diffusion/phase
ops here, and the batched runners in
:mod:`repro.core` hand their programs to the sweep — no other
module implements oracle or diffusion math.
"""

from repro.kernels.policy import (
    AUTO_ROW_THREAD_MIN_WORK,
    COMPLEX64_SUCCESS_ATOL,
    DTYPE_NAMES,
    MAX_AUTO_ROW_THREADS,
    ROW_THREADS_AUTO,
    ExecutionPolicy,
    auto_row_threads,
    row_slabs,
)
from repro.kernels.primitives import (
    apply_block_grover_iteration,
    apply_grover_iteration,
    apply_phase_factor,
    check_norm,
    invert_about_axis_mean,
    invert_about_mean,
    invert_about_mean_blocks,
    invert_about_mean_masked,
    phase_flip,
    phase_rotate,
    reflect_about_state,
    uniform_state,
)
from repro.kernels.batched import (
    block_measurement_rows,
    map_row_slabs,
    moveout_controlled_diffusion_rows,
    moveout_rows,
    phase_flip_rows,
    phased_iteration_rows,
    success_and_guesses,
    sweep_row_slabs,
)
from repro.kernels.sweep import program_sweep_rows

__all__ = [
    "COMPLEX64_SUCCESS_ATOL",
    "DTYPE_NAMES",
    "ROW_THREADS_AUTO",
    "MAX_AUTO_ROW_THREADS",
    "AUTO_ROW_THREAD_MIN_WORK",
    "auto_row_threads",
    "ExecutionPolicy",
    "row_slabs",
    "program_sweep_rows",
    "uniform_state",
    "phase_flip",
    "phase_rotate",
    "apply_phase_factor",
    "invert_about_axis_mean",
    "invert_about_mean",
    "invert_about_mean_blocks",
    "invert_about_mean_masked",
    "reflect_about_state",
    "apply_grover_iteration",
    "apply_block_grover_iteration",
    "check_norm",
    "phase_flip_rows",
    "phased_iteration_rows",
    "moveout_rows",
    "moveout_controlled_diffusion_rows",
    "block_measurement_rows",
    "success_and_guesses",
    "map_row_slabs",
    "sweep_row_slabs",
]
