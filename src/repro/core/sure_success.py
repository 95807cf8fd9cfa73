"""Partial search "with certainty": the paper's sure-success modification.

Theorem 1 notes the algorithm "can be modified to give the correct answer
with certainty while increasing the number of queries by at most a
constant".  This module realises that remark the same way Long's
zero-failure full search does (reference [6]): replace the final reflections
by *phased* reflections whose two continuous phases per iteration supply the
freedom that integer iteration counts lack.

Construction:

- run Step 1 unchanged (``l1`` standard iterations);
- run ``l2 - 1`` standard Step 2 iterations, then **two phased** block
  iterations ``D_block(phi_d) · O(phi_o)`` — four free phases in total;
- run Step 3 unchanged.

Step 3 zeroes the non-target blocks iff the (now complex) per-address
outside amplitude satisfies ``w_final = 2*S/N - w = 0`` — two real
constraints, met exactly by solving for the four phases.  Crucially the
constraints involve only the *symmetric subspace coordinates*, which do not
depend on which address is marked, so the phases are solved **offline** on
the shared subspace evaluator (:mod:`repro.core.subspace`) at zero oracle
cost, then the real oracle run spends ``l1 + (l2-1) + 2 + 1`` queries — one
more than the plain schedule.  This module only plans: the shared counted
runner (:func:`repro.core.algorithm.run_partial_search`) executes
``plan.program``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithm import PartialSearchResult, run_partial_search
from repro.core.blockspec import BlockSpec
from repro.core.parameters import plan_schedule
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import evaluate, evolve
from repro.grover.amplify import solve_phases
from repro.oracle.database import Database

__all__ = ["SureSuccessPlan", "plan_sure_success", "run_sure_success_partial_search"]


def _tail(phases) -> tuple[ProgramStage, ...]:
    """One phased block iteration per ``(phi_o, phi_d)`` pair."""
    return tuple(
        ProgramStage(BLOCK, 1, phases[i], phases[i + 1])
        for i in range(0, len(phases), 2)
    )


@dataclass(frozen=True)
class SureSuccessPlan:
    """A solved sure-success schedule (target-independent).

    Attributes:
        spec: the ``(N, K)`` geometry.
        l1: standard Step 1 iterations.
        l2_base: standard Step 2 iterations before the phased tail.
        phases: flat tuple ``(phi_o1, phi_d1, phi_o2, phi_d2, ...)`` for the
            phased tail iterations.
        predicted_failure: exact residual failure probability of the plan
            (machine-precision scale).
    """

    spec: BlockSpec
    l1: int
    l2_base: int
    phases: tuple[float, ...]
    predicted_failure: float

    @property
    def queries(self) -> int:
        """Total oracle queries: ``l1 + l2_base + len(phases)/2 + 1``."""
        return self.l1 + self.l2_base + len(self.phases) // 2 + 1

    @property
    def predicted_success(self) -> float:
        """``1 - predicted_failure``, clipped at 0."""
        return max(0.0, 1.0 - self.predicted_failure)

    @property
    def program(self) -> PartialSearchProgram:
        """``[global l1, block l2_base, block 1 (φo, φd) per phase pair]``,
        Step 3 at π."""
        return PartialSearchProgram(
            self.spec.n_items,
            self.spec.n_blocks,
            (ProgramStage(GLOBAL, self.l1), ProgramStage(BLOCK, self.l2_base))
            + _tail(self.phases),
        )

    def provenance(self) -> dict:
        """The plan as report provenance (both engine tiers)."""
        return {
            "l1": self.l1,
            "l2_base": self.l2_base,
            "phases": list(self.phases),
            "queries": self.queries,
            "predicted_failure": self.predicted_failure,
        }


def plan_sure_success(
    n_items: int,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    n_phased: int = 2,
    tolerance: float = 1e-11,
) -> SureSuccessPlan:
    """Solve the phased tail for a given instance geometry.

    Escalates from ``n_phased`` to ``n_phased + 1`` tail iterations if the
    solver cannot reach ``tolerance`` (rare; logged in the raised error
    otherwise).  The unphased prefix is evolved once; each residual
    evaluation evolves only the phased tail and Step 3.
    """
    base = plan_schedule(n_items, n_blocks, epsilon)
    spec = base.spec
    if spec.block_size < 2:
        raise ValueError("sure-success needs block_size >= 2 (K < N)")
    scale = float(np.sqrt(spec.n_items - spec.block_size))

    last_error: Exception | None = None
    for extra in (0, 1):
        tail_len = n_phased + extra
        l2_base = max(base.l2 - (tail_len - 1), 0)
        prefix = (ProgramStage(GLOBAL, base.l1), ProgramStage(BLOCK, l2_base))
        start = evolve(spec, prefix)

        def residual(phases: np.ndarray) -> np.ndarray:
            tail = PartialSearchProgram(n_items, n_blocks, _tail(phases.tolist()))
            w_final = evaluate(tail, start).outside
            return np.array((w_final.real * scale, w_final.imag * scale))

        try:
            phases = solve_phases(residual, 2 * tail_len, tolerance=tolerance)
        except RuntimeError as exc:  # try a longer tail
            last_error = exc
            continue
        failure = float(np.sum(residual(phases) ** 2))
        return SureSuccessPlan(
            spec=spec,
            l1=base.l1,
            l2_base=l2_base,
            phases=tuple(float(p) for p in phases),
            predicted_failure=failure,
        )
    raise RuntimeError(
        f"could not solve sure-success phases for N={n_items}, K={n_blocks}: {last_error}"
    )


def run_sure_success_partial_search(
    database: Database,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    plan: SureSuccessPlan | None = None,
    trace: bool = False,
    policy=None,
) -> PartialSearchResult:
    """Run the sure-success variant against a counted oracle.

    The returned result's ``success_probability`` is 1 up to ~1e-12 (see the
    plan's ``predicted_failure``).  Accepts a pre-solved ``plan`` so batches
    over many targets pay the (classical) phase solve once.  *policy*
    selects the complex state precision (``None`` = complex128; at
    complex64 the certainty residue grows to the float32 scale, inside the
    documented :data:`repro.kernels.COMPLEX64_SUCCESS_ATOL`).
    """
    if plan is None:
        plan = plan_sure_success(database.n_items, n_blocks, epsilon)
    return run_partial_search(
        database, n_blocks, schedule=plan, trace=trace, policy=policy
    )
