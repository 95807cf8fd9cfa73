"""Dense state-vector simulator with structured O(N) reflection operators.

This is the execution substrate for every quantum algorithm in the library.
Grover-type algorithms only ever need a handful of *structured* unitaries —
selective phase flips, inversion about the mean (globally, per block, or on a
masked subset), and an ancilla-controlled "move-out" — all of which act on an
amplitude vector in O(N) time and O(1) extra memory.  The hot-path functions
(owned by :mod:`repro.kernels.primitives` and re-exported here) therefore take
raw ``numpy`` arrays, operate in place, and broadcast over leading batch axes
(so one call can advance many independent searches at once).

:class:`~repro.statevector.state.StateVector` is a thin validated wrapper for
the public API; :mod:`repro.statevector.dense` builds the same operators as
explicit matrices for small-``N`` cross-validation of the structured kernels.
"""

from repro.statevector.state import StateVector
from repro.kernels.primitives import (
    apply_grover_iteration,
    apply_block_grover_iteration,
    invert_about_mean,
    invert_about_mean_blocks,
    invert_about_mean_masked,
    phase_flip,
    phase_rotate,
    reflect_about_state,
)
from repro.statevector.measurement import (
    address_probabilities,
    block_probabilities,
    sample_addresses,
    success_probability,
)
from repro.statevector import dense

__all__ = [
    "StateVector",
    "apply_grover_iteration",
    "apply_block_grover_iteration",
    "invert_about_mean",
    "invert_about_mean_blocks",
    "invert_about_mean_masked",
    "phase_flip",
    "phase_rotate",
    "reflect_about_state",
    "address_probabilities",
    "block_probabilities",
    "sample_addresses",
    "success_probability",
    "dense",
]
