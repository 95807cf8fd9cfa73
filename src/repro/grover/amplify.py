"""Generalised (phased) amplitude-amplification steps and a tail solver.

A *phased* Grover step replaces both π-reflections with rotations:

    ``G(phi_o, phi_d) = D(phi_d) · O(phi_o)``

where ``O`` multiplies marked amplitudes by ``e^{i phi_o}`` (one oracle
query) and ``D`` is the generalised diffusion of
:func:`repro.kernels.primitives.invert_about_mean` (or its blockwise form).
Each step still costs exactly one query; the two continuous phases provide
the freedom integer iteration counts lack.  The counted GRK-family runner
(:func:`repro.core.algorithm.run_program`) takes every iteration through
these two steps; a phase of π is the plain reflection.  Two such steps (four phases)
suffice to meet any pair of real constraints reachable in the invariant
subspace — that is how :mod:`repro.core.sure_success` drives the
partial-search failure probability to machine zero, realising the paper's
"modified to return the correct answer with certainty" remark.

The solver here is deliberately generic: it minimises a caller-supplied
residual over the phase vector with a deterministic multi-start
least-squares strategy, so callers state *what* must vanish and not *how*.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.kernels import primitives as ops
from repro.oracle.quantum import PhaseOracle

__all__ = ["phased_grover_step", "phased_block_grover_step", "solve_phases"]


def phased_grover_step(
    amps: np.ndarray, oracle: PhaseOracle, oracle_phase: float, diffusion_phase: float
) -> np.ndarray:
    """One counted phased iteration with *global* diffusion (in place)."""
    oracle.apply(amps, phase=oracle_phase)
    ops.invert_about_mean(amps, phase=diffusion_phase)
    return amps


def phased_block_grover_step(
    amps: np.ndarray,
    oracle: PhaseOracle,
    n_blocks: int,
    oracle_phase: float,
    diffusion_phase: float,
) -> np.ndarray:
    """One counted phased iteration with *blockwise* diffusion (in place)."""
    oracle.apply(amps, phase=oracle_phase)
    ops.invert_about_mean_blocks(amps, n_blocks, phase=diffusion_phase)
    return amps


def solve_phases(
    residual: Callable[[np.ndarray], np.ndarray],
    n_phases: int,
    *,
    starts: Sequence[Sequence[float]] | None = None,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Find phases making ``residual(phases)`` vanish.

    Args:
        residual: maps a phase vector (length ``n_phases``) to a 1-D array of
            real residuals; must be cheap (called O(100) times) and pure.
        n_phases: number of free phases.
        starts: optional explicit multi-start points; defaults to a small
            deterministic grid around the plain-π point.
        tolerance: maximum acceptable ``max(|residual|)`` of the solution.

    Returns:
        The phase vector achieving ``max |residual| <= tolerance``.

    Raises:
        RuntimeError: if no start converges below ``tolerance``.
    """
    # Deferred: only cold phase solves need scipy, and importing it costs
    # more than the rest of the package together.
    from scipy import optimize

    if starts is None:
        base = np.full(n_phases, np.pi)
        offsets = [0.0, 0.35, -0.35, 0.8, -0.8, 1.4]
        starts = [base + off for off in offsets]
        # A couple of asymmetric starts help when symmetric ones stall.
        rng = np.random.default_rng(20050407)  # fixed: reproducible solver
        starts += [base + rng.uniform(-1.2, 1.2, size=n_phases) for _ in range(6)]

    best = None
    best_norm = np.inf
    for start in starts:
        sol = optimize.least_squares(
            residual,
            np.asarray(start, dtype=float),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=400,
        )
        norm = float(np.max(np.abs(sol.fun)))
        if norm < best_norm:
            best_norm, best = norm, sol.x
        if norm <= tolerance:
            return sol.x
    raise RuntimeError(
        f"phase solver did not reach tolerance {tolerance}; best residual {best_norm:.3e}"
    )
