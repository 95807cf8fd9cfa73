"""Quantum oracles: counted unitary views of a classical database.

Two forms are provided, matching the two ways the paper spends queries:

- :class:`PhaseOracle` — ``I_t = I - 2|t><t|`` (phase kickback).  One query
  per application.  Steps 1 and 2 of the GRK algorithm use only this.
- :class:`BitFlipOracle` — the raw ``T_f |x>|b> = |x>|b xor f(x)>`` acting on
  an explicit ancilla: the state is stored as a ``(2, N)`` array whose row
  ``b`` is the ancilla-``b`` branch.  The paper's Step 3 "move-out" ``M`` is
  precisely one application of this oracle.

Both operate on raw ``numpy`` arrays in place (O(number of marked items))
and increment a shared :class:`~repro.oracle.counting.QueryCounter`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import primitives as ops
from repro.oracle.database import Database

__all__ = ["PhaseOracle", "BitFlipOracle"]


class PhaseOracle:
    """Counted phase-kickback oracle ``I_t`` (generalised to marked sets).

    Args:
        database: the database whose marked set defines the reflection.
    """

    def __init__(self, database: Database):
        self._database = database
        self._marked = np.fromiter(sorted(database.reveal_marked()), dtype=np.intp)

    @property
    def database(self) -> Database:
        """The wrapped database (shared counter lives there)."""
        return self._database

    @property
    def n_items(self) -> int:
        """Address-space size ``N``."""
        return self._database.n_items

    def apply(self, amps: np.ndarray, phase: float = np.pi) -> np.ndarray:
        """Apply ``I_t`` (or the phased ``I_t(phase)``) in place; count 1 query.

        ``amps`` has shape ``(..., N)``; the flip broadcasts over leading
        axes but still counts a *single* query (a batch axis represents
        independent classical repetitions of the same circuit position, the
        convention used by the batched runners).
        """
        if amps.shape[-1] != self.n_items:
            raise ValueError(
                f"state has {amps.shape[-1]} addresses, oracle expects {self.n_items}"
            )
        self._database.counter.increment()
        if phase == np.pi:
            return ops.phase_flip(amps, self._marked)
        return ops.phase_rotate(amps, self._marked, phase)


class BitFlipOracle:
    """Counted ``T_f`` on an explicit ``(2, N)`` (ancilla, address) state.

    Row 0 is the ancilla-``|0>`` branch, row 1 the ancilla-``|1>`` branch.
    Applying the oracle swaps the two branch amplitudes at every marked
    address — for the GRK Step 3, where the ancilla starts in ``|0>``, this
    "moves the target state out" of the ancilla-0 branch.
    """

    def __init__(self, database: Database):
        self._database = database
        self._marked = np.fromiter(sorted(database.reveal_marked()), dtype=np.intp)

    @property
    def database(self) -> Database:
        """The wrapped database (shared counter lives there)."""
        return self._database

    @property
    def n_items(self) -> int:
        """Address-space size ``N``."""
        return self._database.n_items

    def apply(self, branches: np.ndarray) -> np.ndarray:
        """Swap ancilla branches at the marked addresses; count 1 query.

        Args:
            branches: array of shape ``(2, N)`` — rows are ancilla branches.
        """
        if branches.ndim != 2 or branches.shape[0] != 2 or branches.shape[1] != self.n_items:
            raise ValueError(
                f"expected branch array of shape (2, {self.n_items}), got {branches.shape}"
            )
        self._database.counter.increment()
        cols = self._marked
        tmp = branches[0, cols].copy()
        branches[0, cols] = branches[1, cols]
        branches[1, cols] = tmp
        return branches
