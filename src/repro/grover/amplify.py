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

The solver here is deliberately generic, so callers state *what* must
vanish and not *how*: :func:`solve_phases` drives a caller-supplied real
residual (one or two equations in four to six phases, for the planners) to
zero with a hand-written Levenberg–Marquardt descent from twelve fixed
starts.  Its Jacobian comes from forward differences and each damped step
is one small ``numpy.linalg.solve``.  A residual costs microseconds, so a
solve that succeeds takes a few milliseconds; a budget that cannot reach
certainty, where every start fails, takes about 0.1–0.2 s.  The CWB
planner therefore screens each budget first and skips one it proves
unreachable (:mod:`repro.core.cwb`); a cold CWB plan whose first budget
fails now takes about 20 ms in a fresh interpreter at (2^10, 4),
(2^12, 8), (2^10, 32), (2^40, 4) and (2^60, 8), as at (2^20, 8), where
the first budget solves.  Sure-success budgets are not screened.
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


#: Forward-difference step, relative to ``max(1, |phase|)``: the square root
#: of the float64 epsilon balances truncation against rounding error.
_FD_STEP = float(np.sqrt(np.finfo(float).eps))
#: Jacobians (descent iterations) allowed per start.  Over the planners'
#: pinned 60-geometry grid (``tests/test_solver_pins.py``) the slowest
#: start that reaches its tolerance takes 73; most take about 10.
_MAX_ITERATIONS = 100
#: Initial damping ``μ``, relative to the largest diagonal entry of ``J Jᵀ``.
_INITIAL_DAMPING = 1e-3
#: A step shorter than this, relative to ``|phases|``, ends a start: the
#: damping has grown until no step lowers the residual.
_MIN_STEP = 1e-15
#: A gradient ``Jᵀ r`` below this (max norm) ends a start: the phases have
#: no leverage left on the residual.  At ``N = 2**60`` a Step 2 tail can move
#: the residual by only about ``1e-9``, and the residual floor there is
#: reached this way.
_GRADIENT_TOLERANCE = 1e-15


def _default_starts(n_phases: int) -> list[np.ndarray]:
    """Six symmetric offsets from the plain-π point, then six seeded random
    ones (asymmetric starts help where symmetric ones stall)."""
    base = np.full(n_phases, np.pi)
    starts = [base + off for off in (0.0, 0.35, -0.35, 0.8, -0.8, 1.4)]
    rng = np.random.default_rng(20050407)  # fixed: reproducible solver
    starts += [base + rng.uniform(-1.2, 1.2, size=n_phases) for _ in range(6)]
    return starts


def _jacobian(residual, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference ``∂r/∂x`` at *x* (``r = residual(x)``)."""
    shifted = x + np.diag(_FD_STEP * np.maximum(1.0, np.abs(x)))
    columns = np.array([residual(point) for point in shifted]) - r
    return (columns / (shifted.diagonal() - x)[:, None]).T


def _levenberg_marquardt(residual, x: np.ndarray, tolerance: float):
    """Descend ``|residual|²`` from *x*; returns the last ``(x, r)``.

    Stops when ``max |r| <= tolerance``, when the gradient or the step
    vanishes, or after :data:`_MAX_ITERATIONS`.  Each iteration tries damped
    Gauss–Newton steps ``δ = -Jᵀ (J Jᵀ + μ I)⁻¹ r``, the minimum-norm form
    of ``(JᵀJ + μ I) δ = -Jᵀ r`` (fewer residuals than phases, so the
    system solved is the small one).  A step is taken only if it lowers
    ``|r|²``; ``μ`` then shrinks by the gain ratio ``ρ`` of actual to
    predicted decrease, and grows geometrically after each rejected step
    (Nielsen's update).
    """
    r = residual(x)
    cost = float(r @ r)
    eye = np.eye(r.size)
    mu = None
    nu = 2.0
    for _ in range(_MAX_ITERATIONS):
        if np.max(np.abs(r)) <= tolerance:
            break
        jac = _jacobian(residual, x, r)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < _GRADIENT_TOLERANCE:
            break
        jjt = jac @ jac.T
        if mu is None:
            mu = _INITIAL_DAMPING * float(np.max(np.diag(jjt)))
        while True:
            try:
                step = -jac.T @ np.linalg.solve(jjt + mu * eye, r)
            except np.linalg.LinAlgError:  # μ lost in rounding: J Jᵀ is singular
                mu *= nu
                nu *= 2.0
                continue
            # ``not >`` also ends a start whose step went NaN.
            if not np.linalg.norm(step) > _MIN_STEP * (np.linalg.norm(x) + _MIN_STEP):
                return x, r
            trial = x + step
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            predicted = float(step @ (mu * step - grad))
            if cost_trial < cost and predicted > 0.0:
                rho = (cost - cost_trial) / predicted
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                x, r, cost = trial, r_trial, cost_trial
                break
            mu *= nu
            nu *= 2.0
    return x, r


def solve_phases(
    residual: Callable[[np.ndarray], np.ndarray],
    n_phases: int,
    *,
    starts: Sequence[Sequence[float]] | None = None,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Find phases making ``residual(phases)`` vanish.

    Runs a Levenberg–Marquardt descent from each start in turn and returns
    the first end point whose residual is within ``tolerance``.  The result
    depends only on *residual*, the starts and ``tolerance``: two calls
    return the same phases.

    Args:
        residual: maps a phase vector (a float ndarray of length
            ``n_phases``) to a 1-D array of real residuals; must be cheap
            (called up to a few hundred times per start) and pure.
        n_phases: number of free phases.
        starts: optional explicit multi-start points; defaults to twelve
            fixed points around the plain-π point.
        tolerance: maximum acceptable ``max(|residual|)`` of the solution.

    Returns:
        The phase vector achieving ``max |residual| <= tolerance``.

    Raises:
        RuntimeError: if no start converges below ``tolerance``; the message
            carries the best residual reached.
    """
    if starts is None:
        starts = _default_starts(n_phases)
    best_norm = np.inf
    for start in starts:
        x, r = _levenberg_marquardt(residual, np.array(start, dtype=float), tolerance)
        norm = float(np.max(np.abs(r)))
        if norm <= tolerance:
            return x
        best_norm = min(best_norm, norm)
    raise RuntimeError(
        f"phase solver did not reach tolerance {tolerance}; best residual {best_norm:.3e}"
    )
