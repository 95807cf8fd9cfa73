"""Choi–Walker–Braunstein sure-success partial search (quant-ph/0603136).

CWB make the GRK partial search answer with certainty by imposing **phase
conditions on the iterations the algorithm already performs, one per
stage**: the final global iteration of Step 1 runs with free oracle and
diffusion phases ``(phi_o, phi_d)``, the final block-local iteration of
Step 2 with ``(chi_o, chi_d)``, and Step 3's ancilla-controlled inversion
about the average becomes the generalised reflection
``D(phi_f) = (1 - e^{i phi_f})|psi_0><psi_0| - I``.  The sure-success
condition — every non-target-block amplitude vanishing exactly — is one
complex equation ``w_final = 0`` in the target-independent symmetric
subspace, so the five phases (two real constraints) are solved **offline**
on the shared subspace evaluator (:mod:`repro.core.subspace`) at zero
oracle cost; the shared counted runner
(:func:`repro.core.algorithm.run_partial_search`) executes ``plan.program``.

Query accounting, which the paper-value tests pin: a phased reflection
rotates *slower* than the π-reflection it replaces (``|1 - e^{i phi}| <= 2``),
so when the plain integer schedule undershoots the certainty angle, no
phase choice at the same budget can reach it.  The planner therefore
escalates the ``(l1, l2)`` budget minimally — at the paper's representative
geometries certainty costs **at most 2 extra queries** (usually 1, and 0
when the plain schedule happens to overshoot), realising Theorem 1's
"correct answer with certainty while increasing the number of queries by at
most a constant" with phases spread across all three stages.  Contrast
:mod:`repro.core.sure_success`, the Long-style construction that phases a
two-iteration tail *within Step 2 only* and always spends exactly one extra
query.
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

__all__ = ["CWBPlan", "plan_cwb", "run_cwb_partial_search"]

#: Budget escalation ladder ``(extra_l2, extra_l1)`` tried in order: the
#: cheapest total first.  The +2 rung is only ever reached by K=2 (whose
#: plain schedule undershoots on both stages); the ladder extends one rung
#: further as a safety margin for exotic geometries.
_ESCALATION = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


def _tail(block_stage: ProgramStage, phases) -> tuple[ProgramStage, ...]:
    """Everything after Step 1's ``l1 - 1`` plain iterations:
    ``[global 1 (φo, φd), block_stage, block 1 (χo, χd)]``."""
    phi_o, phi_d, chi_o, chi_d = phases[:4]
    return (
        ProgramStage(GLOBAL, 1, phi_o, phi_d),
        block_stage,
        ProgramStage(BLOCK, 1, chi_o, chi_d),
    )


@dataclass(frozen=True)
class CWBPlan:
    """A solved CWB schedule (target-independent).

    Attributes:
        spec: the ``(N, K)`` geometry.
        l1: total Step 1 (global) iterations; the last one is phased.
        l2: total Step 2 (block) iterations; the last one is phased.
        phases: ``(phi_o, phi_d, chi_o, chi_d)`` — the phased global pair
            then the phased block pair.
        final_phase: the Step 3 controlled-diffusion phase ``phi_f``.
        base_queries: the plain GRK schedule's query count for this
            geometry (so ``queries - base_queries`` is the certainty cost).
        predicted_failure: exact residual failure probability of the plan
            (machine-precision scale).
    """

    spec: BlockSpec
    l1: int
    l2: int
    phases: tuple[float, float, float, float]
    final_phase: float
    base_queries: int
    predicted_failure: float

    @property
    def queries(self) -> int:
        """Total oracle queries ``l1 + l2 + 1`` (phases replace, not add)."""
        return self.l1 + self.l2 + 1

    @property
    def extra_queries(self) -> int:
        """Certainty cost over the plain schedule — the paper's "constant"."""
        return self.queries - self.base_queries

    @property
    def predicted_success(self) -> float:
        """``1 - predicted_failure``, clipped at 0."""
        return max(0.0, 1.0 - self.predicted_failure)

    @property
    def program(self) -> PartialSearchProgram:
        """``[global l1-1, global 1 (φo, φd), block l2-1, block 1 (χo, χd)]``,
        Step 3 at φf."""
        return PartialSearchProgram(
            self.spec.n_items,
            self.spec.n_blocks,
            (ProgramStage(GLOBAL, self.l1 - 1),)
            + _tail(ProgramStage(BLOCK, self.l2 - 1), self.phases),
            final_phase=self.final_phase,
        )

    def provenance(self) -> dict:
        """The plan as report provenance (both engine tiers)."""
        return {
            "l1": self.l1,
            "l2": self.l2,
            "phases": list(self.phases),
            "final_phase": self.final_phase,
            "queries": self.queries,
            "extra_queries": self.extra_queries,
            "predicted_failure": self.predicted_failure,
        }


def plan_cwb(
    n_items: int,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    tolerance: float = 1e-11,
) -> CWBPlan:
    """Solve the CWB phase conditions for a given instance geometry.

    Starts from the plain GRK schedule for ``(N, K, eps)`` and climbs the
    escalation ladder — phased reflections cannot rotate *faster* than the
    π-reflections they replace, so an undershooting integer schedule needs
    the odd extra iteration before certainty becomes reachable.  The first
    budget whose five-phase solve reaches ``tolerance`` wins.  Each budget
    evolves its ``l1 - 1`` plain global iterations once; the residual
    evolves only the rest (the plain block iterations in one closed-form
    rotation, so a solve stays O(1) in ``N``).
    """
    base = plan_schedule(n_items, n_blocks, epsilon)
    spec = base.spec
    if spec.block_size < 2:
        raise ValueError("sure-success needs block_size >= 2 (K < N)")
    scale = float(np.sqrt(spec.n_items - spec.block_size))

    last_error: Exception | None = None
    for extra_l2, extra_l1 in _ESCALATION:
        l1 = base.l1 + extra_l1
        l2 = base.l2 + extra_l2
        if l1 < 1 or l2 < 1:  # each stage needs an iteration to phase
            continue
        start = evolve(spec, (ProgramStage(GLOBAL, l1 - 1),))
        block_stage = ProgramStage(BLOCK, l2 - 1)

        def residual(phases: np.ndarray) -> np.ndarray:
            phases = phases.tolist()
            tail = PartialSearchProgram(
                n_items, n_blocks, _tail(block_stage, phases), phases[4]
            )
            w_final = evaluate(tail, start).outside
            return np.array((w_final.real * scale, w_final.imag * scale))

        try:
            phases = solve_phases(residual, 5, tolerance=tolerance)
        except RuntimeError as exc:  # undershooting budget: climb a rung
            last_error = exc
            continue
        failure = float(np.sum(residual(phases) ** 2))
        return CWBPlan(
            spec=spec,
            l1=l1,
            l2=l2,
            phases=tuple(float(p) for p in phases[:4]),
            final_phase=float(phases[4]),
            base_queries=base.queries,
            predicted_failure=failure,
        )
    raise RuntimeError(
        f"could not solve CWB phases for N={n_items}, K={n_blocks}: {last_error}"
    )


def run_cwb_partial_search(
    database: Database,
    n_blocks: int,
    epsilon: float | None = None,
    *,
    plan: CWBPlan | None = None,
    policy=None,
) -> PartialSearchResult:
    """Run the CWB sure-success partial search against a counted oracle.

    The returned result's ``success_probability`` is 1 up to ~1e-12 (see
    the plan's ``predicted_failure``) at ``plan.queries`` oracle queries —
    within :attr:`CWBPlan.extra_queries` of the plain GRK budget.  Accepts
    a pre-solved ``plan`` so batches over many targets pay the (classical)
    phase solve once; *policy* selects the complex state precision exactly
    as in the other runners.
    """
    if plan is None:
        plan = plan_cwb(database.n_items, n_blocks, epsilon)
    return run_partial_search(database, n_blocks, schedule=plan, policy=policy)
