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
on the analytic model at zero oracle cost.

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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from repro.core.algorithm import PartialSearchResult, _single_target_of
from repro.core.blockspec import BlockSpec
from repro.core.parameters import GRKSchedule, plan_schedule
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import SubspaceGRK
from repro.grover.amplify import solve_phases
from repro.oracle.database import Database
from repro.oracle.quantum import BitFlipOracle, PhaseOracle
from repro.statevector import ops
from repro.statevector.measurement import block_probabilities

__all__ = ["CWBPlan", "plan_cwb", "run_cwb_partial_search"]

#: Budget escalation ladder ``(extra_l2, extra_l1)`` tried in order: the
#: cheapest total first.  The +2 rung is only ever reached by K=2 (whose
#: plain schedule undershoots on both stages); the ladder extends one rung
#: further as a safety margin for exotic geometries.
_ESCALATION = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


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
    def program(self) -> PartialSearchProgram:
        """``[global l1-1, global 1 (φo, φd), block l2-1, block 1 (χo, χd)]``,
        Step 3 at φf."""
        phi_o, phi_d, chi_o, chi_d = self.phases
        return PartialSearchProgram(
            self.spec.n_items,
            self.spec.n_blocks,
            (
                ProgramStage(GLOBAL, self.l1 - 1),
                ProgramStage(GLOBAL, 1, phi_o, phi_d),
                ProgramStage(BLOCK, self.l2 - 1),
                ProgramStage(BLOCK, 1, chi_o, chi_d),
            ),
            final_phase=self.final_phase,
        )


def _final_outside_amplitude(
    spec: BlockSpec, start, l2: int, phases: np.ndarray
) -> complex:
    """Complex subspace evolution from the phased global iteration onward.

    ``start`` is the (real) symmetric coordinates after ``l1 - 1`` plain
    global iterations; ``phases`` is ``(phi_o, phi_d, chi_o, chi_d, phi_f)``.
    Returns the final per-address amplitude in non-target blocks, whose
    vanishing is the sure-success condition.
    """
    b, n = spec.block_size, spec.n_items
    phi_o, phi_d, chi_o, chi_d, phi_f = phases
    u = complex(start.target)
    v = complex(start.block_rest)
    w = complex(start.outside)

    # Phased global iteration (last of Step 1): mixes u, v, AND w.
    u *= cmath.exp(1j * phi_o)
    f = 1.0 - cmath.exp(1j * phi_d)
    mean = (u + (b - 1) * v + (n - b) * w) / n
    u, v, w = f * mean - u, f * mean - v, f * mean - w

    # l2 - 1 plain block iterations: uniform non-target blocks are fixed,
    # and each iteration is the *real* rotation by 2 beta_block in the
    # (u, v sqrt(b-1)) plane — a linear map, so it applies to the complex
    # coordinates componentwise and its (l2-1)-th power is one rotation by
    # 2 (l2-1) beta_block.  Closed form keeps the phase solve O(1) in l2
    # (the per-iteration loop made planning O(sqrt(N/K)) — minutes at
    # N = 2**40 — which the analytic tier cannot afford).
    if l2 > 1:
        theta = 2.0 * (l2 - 1) * math.asin(1.0 / math.sqrt(b))
        rest_len = math.sqrt(b - 1.0)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x, y = u, v * rest_len
        x, y = x * cos_t + y * sin_t, y * cos_t - x * sin_t
        u, v = x, y / rest_len

    # Phased block iteration (last of Step 2): w picks up an eigenphase.
    u *= cmath.exp(1j * chi_o)
    fb = 1.0 - cmath.exp(1j * chi_d)
    block_mean = (u + (b - 1) * v) / b
    u, v = fb * block_mean - u, fb * block_mean - v
    w *= -cmath.exp(1j * chi_d)

    # Step 3: target parked in ancilla-1, phased controlled diffusion.
    ff = 1.0 - cmath.exp(1j * phi_f)
    mean = ((b - 1) * v + (n - b) * w) / n
    return ff * mean - w


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
    budget whose five-phase solve reaches ``tolerance`` wins.
    """
    base = plan_schedule(n_items, n_blocks, epsilon)
    spec = base.spec
    if spec.block_size < 2:
        raise ValueError("sure-success needs block_size >= 2 (K < N)")
    model = SubspaceGRK(spec)
    scale = np.sqrt(spec.n_items - spec.block_size)

    last_error: Exception | None = None
    for extra_l2, extra_l1 in _ESCALATION:
        l1 = base.l1 + extra_l1
        l2 = base.l2 + extra_l2
        if l1 < 1 or l2 < 1:  # each stage needs an iteration to phase
            continue
        start = model.after_step1(l1 - 1)

        def residual(phases: np.ndarray) -> np.ndarray:
            w_final = _final_outside_amplitude(spec, start, l2, phases)
            return np.array([w_final.real, w_final.imag]) * scale

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
    from repro.kernels import ExecutionPolicy, uniform_state

    if policy is None:
        policy = ExecutionPolicy()
    n = database.n_items
    if plan is None:
        plan = plan_cwb(n, n_blocks, epsilon)
    spec = plan.spec
    if spec.n_items != n or spec.n_blocks != n_blocks:
        raise ValueError("plan does not match this instance's (N, K)")
    target = _single_target_of(database)
    target_block = spec.block_of(target)

    oracle = PhaseOracle(database)
    start_count = database.counter.count
    amps = uniform_state(n, dtype=policy.complex_dtype)

    phi_o, phi_d, chi_o, chi_d = plan.phases
    for _ in range(plan.l1 - 1):
        oracle.apply(amps)
        ops.invert_about_mean(amps)
    oracle.apply(amps, phase=phi_o)
    ops.invert_about_mean(amps, phase=phi_d)
    for _ in range(plan.l2 - 1):
        oracle.apply(amps)
        ops.invert_about_mean_blocks(amps, n_blocks)
    oracle.apply(amps, phase=chi_o)
    ops.invert_about_mean_blocks(amps, n_blocks, phase=chi_d)

    branches = np.zeros((2, n), dtype=amps.dtype)
    branches[0] = amps
    BitFlipOracle(database).apply(branches)
    ops.invert_about_mean(branches[0], phase=plan.final_phase)

    queries = database.counter.count - start_count
    dist = block_probabilities(branches, n_blocks)
    schedule = GRKSchedule(
        spec=spec,
        epsilon=epsilon if epsilon is not None else float("nan"),
        l1=plan.l1,
        l2=plan.l2,
        predicted_success=1.0 - plan.predicted_failure,
    )
    return PartialSearchResult(
        spec=spec,
        schedule=schedule,
        branches=branches,
        block_distribution=dist,
        block_guess=int(np.argmax(dist)),
        success_probability=float(dist[target_block]),
        queries=queries,
        traces=None,
    )
