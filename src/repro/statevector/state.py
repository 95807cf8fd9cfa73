"""Validated state-vector wrapper for the public API.

Hot loops inside the library work directly on ``numpy`` arrays (see
:mod:`repro.kernels.primitives`); :class:`StateVector` is the boundary type
that checks shapes/norms once and exposes convenient, well-documented
operations.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import primitives as ops
from repro.statevector.measurement import (
    address_probabilities,
    block_probabilities,
    sample_addresses,
)
from repro.util.validation import require, require_in_range

__all__ = ["StateVector"]

_NORM_ATOL = 1e-9


class StateVector:
    """An ``N``-dimensional pure state with real or complex amplitudes.

    The wrapped buffer is owned by the instance (inputs are copied unless
    ``copy=False`` is passed and the dtype already matches).  All mutating
    methods operate in place and return ``self`` for chaining.

    Args:
        amplitudes: 1-D array-like of length ``N``; must have unit 2-norm.
        copy: copy the input buffer (default) or adopt it.
        dtype: optional dtype override (``float64`` / ``complex128``).

    Raises:
        ValueError: for non-1-D input or a norm deviating from 1 by more
            than ``1e-9``.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes, *, copy: bool = True, dtype=None):
        arr = np.array(amplitudes, copy=copy, dtype=dtype)
        if arr.ndim != 1:
            raise ValueError(f"state must be 1-D, got shape {arr.shape}")
        if arr.dtype not in (np.float64, np.complex128):
            arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValueError(f"state norm is {norm}, expected 1 (atol {_NORM_ATOL})")
        self._amps = arr

    # ------------------------------------------------------------- factories
    @classmethod
    def uniform(cls, n_items: int, *, dtype=np.float64) -> "StateVector":
        """The uniform superposition ``|psi_0> = (1/sqrt(N)) sum_x |x>``."""
        require(n_items > 0, "n_items must be positive")
        amps = np.full(n_items, 1.0 / np.sqrt(n_items), dtype=dtype)
        return cls(amps, copy=False)

    @classmethod
    def basis(cls, n_items: int, index: int, *, dtype=np.float64) -> "StateVector":
        """The computational basis state ``|index>``."""
        require(n_items > 0, "n_items must be positive")
        require_in_range("index", index, 0, n_items, inclusive=False)
        amps = np.zeros(n_items, dtype=dtype)
        amps[index] = 1.0
        return cls(amps, copy=False)

    # ----------------------------------------------------------- inspection
    @property
    def n_items(self) -> int:
        """Dimension ``N`` of the state."""
        return self._amps.shape[0]

    @property
    def amplitudes(self) -> np.ndarray:
        """The underlying amplitude buffer (a live view — mutating it mutates
        the state; use :meth:`copy` first if that is not intended)."""
        return self._amps

    def copy(self) -> "StateVector":
        """An independent deep copy."""
        return StateVector(self._amps, copy=True)

    def norm(self) -> float:
        """Current 2-norm (1.0 up to float error for any unitary history)."""
        return float(np.linalg.norm(self._amps))

    def probabilities(self) -> np.ndarray:
        """Measurement distribution ``|a_x|^2`` over addresses."""
        return address_probabilities(self._amps)

    def probability_of(self, index: int) -> float:
        """Probability of observing address ``index``."""
        require_in_range("index", index, 0, self.n_items, inclusive=False)
        return float(np.abs(self._amps[index]) ** 2)

    def block_probabilities(self, n_blocks: int) -> np.ndarray:
        """Distribution over the ``n_blocks`` contiguous equal blocks."""
        return block_probabilities(self._amps, n_blocks)

    def fidelity(self, other: "StateVector") -> float:
        """``|<self|other>|^2`` with another state of the same dimension."""
        if other.n_items != self.n_items:
            raise ValueError("dimension mismatch")
        return float(np.abs(np.vdot(self._amps, other._amps)) ** 2)

    def measure(self, rng=None, size: int | None = None):
        """Sample address measurement outcomes (does not collapse the state)."""
        return sample_addresses(self._amps, rng=rng, size=size)

    # ------------------------------------------------------------ evolution
    def phase_flip(self, index) -> "StateVector":
        """Oracle reflection ``I_t`` at ``index`` (in place)."""
        ops.phase_flip(self._amps, index)
        return self

    def invert_about_mean(self, phase: float = np.pi) -> "StateVector":
        """Global diffusion ``I_0`` (in place)."""
        ops.invert_about_mean(self._amps, phase)
        return self

    def invert_about_mean_blocks(self, n_blocks: int, phase: float = np.pi) -> "StateVector":
        """Block-local diffusion ``I_K ⊗ I_0,[N/K]`` (in place)."""
        ops.invert_about_mean_blocks(self._amps, n_blocks, phase)
        return self

    def grover_iteration(self, target, iterations: int = 1) -> "StateVector":
        """``A = I_0 I_t`` applied ``iterations`` times (in place)."""
        ops.apply_grover_iteration(self._amps, target, iterations)
        return self

    def block_grover_iteration(self, target, n_blocks: int, iterations: int = 1) -> "StateVector":
        """``A_[N/K]`` applied ``iterations`` times (in place)."""
        ops.apply_block_grover_iteration(self._amps, target, n_blocks, iterations)
        return self

    # -------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return self.n_items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateVector(n_items={self.n_items}, dtype={self._amps.dtype})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.n_items == other.n_items and bool(
            np.allclose(self._amps, other._amps, atol=1e-12)
        )

    def __hash__(self):  # states are mutable
        raise TypeError("StateVector is mutable and unhashable")
