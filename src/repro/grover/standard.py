"""The standard quantum database-search algorithm on the simulator.

This is the paper's reference point: ``(pi/4) sqrt(N)`` queries, success
probability ``1 - O(1/N)`` (Grover 1996; optimal by Zalka 1999).  The runner
takes a *counted oracle* — the returned query total comes from the oracle's
counter, not from trusting the loop bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grover.angles import optimal_iterations
from repro.kernels import primitives as ops
from repro.oracle.database import SingleTargetDatabase
from repro.oracle.quantum import PhaseOracle
from repro.statevector.measurement import address_probabilities

__all__ = ["GroverResult", "run_grover"]


@dataclass(frozen=True)
class GroverResult:
    """Outcome of a full database-search run.

    Attributes:
        amplitudes: final state vector over the ``N`` addresses.
        iterations: Grover iterations performed.
        queries: oracle queries spent (== iterations for the standard run).
        success_probability: probability that measuring yields a marked
            address.
        best_guess: most probable address — what the algorithm would output.
    """

    amplitudes: np.ndarray
    iterations: int
    queries: int
    success_probability: float
    best_guess: int

    def measure(self, rng=None, size=None):
        """Sample the address measurement (repeatable; does not collapse)."""
        from repro.statevector.measurement import sample_addresses

        return sample_addresses(self.amplitudes, rng=rng, size=size)


def run_grover(
    database: SingleTargetDatabase,
    iterations: int | None = None,
    *,
    initial: np.ndarray | None = None,
) -> GroverResult:
    """Run standard Grover search against a counted database oracle.

    Args:
        database: single-target database; its counter accumulates queries.
        iterations: number of ``A = I_0 I_t`` applications.  Default: the
            optimal ``floor((pi/4)/beta)``.
        initial: optional starting state (defaults to the uniform
            superposition).  Copied, never mutated.

    Returns:
        :class:`GroverResult` with the final state and exact accounting.
    """
    n = database.n_items
    if iterations is None:
        iterations = optimal_iterations(n, len(database.reveal_marked()))
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if initial is None:
        amps = np.full(n, 1.0 / np.sqrt(n))
    else:
        amps = np.array(initial, dtype=np.result_type(initial, np.float64))
        if amps.shape != (n,):
            raise ValueError(f"initial state must have shape ({n},)")

    oracle = PhaseOracle(database)
    before = database.counter.count
    for _ in range(iterations):
        oracle.apply(amps)
        ops.invert_about_mean(amps)
    queries = database.counter.count - before

    probs = address_probabilities(amps)
    marked = sorted(database.reveal_marked())
    success = float(probs[marked].sum())
    return GroverResult(
        amplitudes=amps,
        iterations=iterations,
        queries=queries,
        success_probability=success,
        best_guess=int(np.argmax(probs)),
    )
