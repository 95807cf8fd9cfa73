"""Zero-failure ("sure success") full database search via phase matching.

Grover's original algorithm errs with probability O(1/N) because the integer
iteration count cannot land exactly on the target.  Long (Phys. Rev. A 64,
022307, 2001 — reference [6] of the paper) showed that replacing both
reflections by rotations through a common phase ``phi`` makes the final state
coincide with the target exactly:

    with ``beta = arcsin(1/sqrt(N))`` and any integer
    ``J >= ceil((pi/2 - beta) / (2*beta))``, choosing

        ``phi = 2 * arcsin( sin(pi / (4J + 6)) / sin(beta) )``

    and running ``J + 1`` phase-matched iterations yields the marked state
    with probability exactly 1 (up to a global phase).

This module implements that construction on the simulator.  The paper leans
on the same fact twice: the full-search baseline "can be modified so that the
correct answer is returned with certainty", and the partial-search
sure-success variant (:mod:`repro.core.sure_success`) applies the analogous
idea to the GRK schedule.
"""

from __future__ import annotations

import math

import numpy as np

from repro.grover.angles import grover_angle
from repro.kernels import primitives as ops
from repro.oracle.database import SingleTargetDatabase
from repro.oracle.quantum import PhaseOracle
from repro.grover.standard import GroverResult
from repro.statevector.measurement import address_probabilities

__all__ = ["long_phase", "minimum_iterations", "run_exact_grover"]


def minimum_iterations(n_items: int) -> int:
    """Smallest ``J`` admitted by Long's construction: ``ceil((pi/2 - beta)/(2 beta))``.

    ``J + 1`` phase-matched iterations are then performed, which is at most
    one more than the standard optimal count — the "constant extra queries"
    the paper alludes to.
    """
    beta = grover_angle(n_items)
    return max(0, math.ceil((math.pi / 2 - beta) / (2 * beta) - 1e-12))


def long_phase(n_items: int, total_iterations: int) -> float:
    """The matching phase ``phi`` for ``total_iterations = J + 1`` iterations.

    Raises:
        ValueError: if ``total_iterations`` is too small for the formula's
            ``arcsin`` argument to be <= 1 (i.e. fewer iterations than
            :func:`minimum_iterations` + 1).
    """
    if total_iterations < 1:
        raise ValueError("need at least one iteration")
    j = total_iterations - 1
    beta = grover_angle(n_items)
    ratio = math.sin(math.pi / (4 * j + 6)) / math.sin(beta)
    if ratio > 1.0 + 1e-12:
        raise ValueError(
            f"{total_iterations} iterations are too few for N={n_items}; "
            f"need J >= {minimum_iterations(n_items)}"
        )
    return 2.0 * math.asin(min(ratio, 1.0))


def run_exact_grover(
    database: SingleTargetDatabase, total_iterations: int | None = None
) -> GroverResult:
    """Run the phase-matched search; success probability is exactly 1.

    Args:
        database: counted single-target database.
        total_iterations: ``J + 1``; defaults to the minimum admissible.

    Returns:
        :class:`~repro.grover.standard.GroverResult`; its
        ``success_probability`` equals 1 up to float rounding (tested to
        ``1e-12``).
    """
    n = database.n_items
    if total_iterations is None:
        total_iterations = minimum_iterations(n) + 1
    phi = long_phase(n, total_iterations)

    amps = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    oracle = PhaseOracle(database)
    before = database.counter.count
    for _ in range(total_iterations):
        oracle.apply(amps, phase=phi)
        ops.invert_about_mean(amps, phase=phi)
    queries = database.counter.count - before

    probs = address_probabilities(amps)
    marked = sorted(database.reveal_marked())
    return GroverResult(
        amplitudes=amps,
        iterations=total_iterations,
        queries=queries,
        success_probability=float(probs[marked].sum()),
        best_guess=int(np.argmax(probs)),
    )
