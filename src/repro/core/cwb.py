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
query.  A rung that cannot reach certainty would cost the solver twelve
failing descents (about 0.2 s), so each rung is first screened: when exact
algebra proves that no phases bring the residual within the solve's
tolerance, the ladder climbs without solving.  A rung the screen cannot
prove goes to the solver as before, so the screen changes no plan.

The proof, on the subspace coordinates (``b = N/K``).  Some ``φf`` zeroes
the outside blocks iff ``Re(v/w) = c* = (b - N/2)/(b - 1)`` after the
phased block iteration.  Write ``x1`` for the non-target amplitude after
the phased global iteration and ``ρ = u1/x1``; the plain block iterations
map ``(ρ, 1)`` linearly to ``(U, V)``, the target and block-rest
amplitudes over ``x1``.  With ``p = e^{iχo}`` and ``e = 1 - e^{-iχd}``,
the phased block iteration leaves ``v/w = V + e (pU - V)/b``: over ``χd``
its real part sweeps ``Re A ± |B|``, ``A = (pU + (b-1)V)/b``,
``B = (pU - V)/b``, and for fixed ``(χo, χd)`` it is ``Pρ + Q``, affine in
``ρ``.  The phased global iteration keeps ``|<s|ψ>|`` at
``|e^{iφo} u0 + (N-1) x0| / sqrt(N)``, which confines ``ρ`` to the zone
between two circles of the ``ρ``-plane; unless that zone reaches
``x1 = 0``, its convex hull is the disk inside the outer circle (centre
``c``, radius ``r``), where ``Re(Pρ + Q)`` is smallest at
``Re(Pc + Q) - r|P|``.  A branch and bound over ``(χo, χd)`` with
Lipschitz cell bounds certifies ``Re(v/w) >= c* + m`` for every phase,
and then ``min over φf of |w_final| >= 2(b-1) m |x1|² / (N (|x1| +
2 sqrt(N-1)/N))``.  A rung is skipped only when that bound puts
``max |residual|`` above twice the tolerance: missing ``c*`` is not
enough, since at ``(2**60, 2)`` the first rung misses it by about ``1.6e-8``
and the solver still accepts it at ``1e-8``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.algorithm import PartialSearchResult, run_partial_search
from repro.core.blockspec import BlockSpec
from repro.core.parameters import plan_schedule
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import SubspaceCoordinates, evaluate, evolve
from repro.grover.amplify import solve_phases
from repro.oracle.database import Database

__all__ = ["CWBPlan", "plan_cwb", "run_cwb_partial_search"]

#: Budget escalation ladder ``(extra_l2, extra_l1)`` tried in order: the
#: cheapest total first.  The +2 rung is only ever reached by K=2 (whose
#: plain schedule undershoots on both stages); the ladder extends one rung
#: further as a safety margin for exotic geometries.
_ESCALATION = ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))

#: Cells the screen evaluates before it leaves a rung to the solver: about
#: 1 ms of numpy on a 2-vCPU host.
_SCREEN_MAX_CELLS = 4096
#: The zone's outer circle must be known to this relative precision; a
#: coarser circle means ``x1 = 0`` lies within rounding of the zone.
_SCREEN_MAX_ROUNDING = 1e-6
_EPS = float(np.finfo(float).eps)


def _tail(block_stage: ProgramStage, phases) -> tuple[ProgramStage, ...]:
    """Everything after Step 1's ``l1 - 1`` plain iterations:
    ``[global 1 (φo, φd), block_stage, block 1 (χo, χd)]``."""
    phi_o, phi_d, chi_o, chi_d = phases[:4]
    return (
        ProgramStage(GLOBAL, 1, phi_o, phi_d),
        block_stage,
        ProgramStage(BLOCK, 1, chi_o, chi_d),
    )


def _halve(cells: np.ndarray, halves: np.ndarray, axis: int) -> np.ndarray:
    """Split every cell in two along *axis*; *halves* holds the cells'
    half-widths and is updated in place."""
    halves[axis] /= 2
    step = np.zeros((2, 1))
    step[axis] = halves[axis]
    return np.concatenate((cells - step, cells + step), axis=1)


def _unreachable(
    spec: BlockSpec,
    start: SubspaceCoordinates,
    block_stage: ProgramStage,
    tolerance: float,
) -> bool:
    """True when no phases bring the rung's ``max |residual|`` within
    *tolerance* (the proof is in the module docstring).

    *start* is the state after the ``l1 - 1`` plain global iterations
    (``v = w = x0``) and *block_stage* the ``l2 - 1`` plain block
    iterations.  False means "not proved": the zone reaches ``x1 = 0``
    within rounding, a sampled cell sits below the bound, or the cell cap
    ran out.  Against float64 rounding the disk is widened by the
    rounding of its centre and radius, every cell bound is lowered by
    64 ulps of its largest terms, and the skip needs twice the tolerance,
    which covers the solver's own residual (within 1e-15 of exact
    arithmetic on the pinned grid).
    """
    n, b = spec.n_items, spec.block_size
    n1 = n - 1
    u0, x0 = abs(start.target), abs(start.outside)
    norm = u0 * u0 + n1 * x0 * x0
    # |<s|ψ1>|² = S²/N, S between |u0 - (N-1) x0| and u0 + (N-1) x0; the
    # level S² = norm is x1 = 0, and the outer circle is the nearer one.
    s_hi, s_lo = u0 + n1 * x0, abs(u0 - n1 * x0)
    g_hi, g_lo = norm - s_hi * s_hi, norm - s_lo * s_lo
    if not g_hi * g_lo > 0.0:
        return False
    s, d, g = (s_hi, abs(u0 - x0), g_hi) if g_hi > 0.0 else (s_lo, u0 + x0, g_lo)
    rounding = 8 * _EPS * (norm + s * s) / abs(g)
    if not rounding < _SCREEN_MAX_ROUNDING:
        return False
    center = -norm * n1 / g
    radius = n1 * s * d / abs(g)
    radius += 2 * rounding * (abs(center) + radius)
    radius += 2 * _EPS * n1 * s * (u0 + x0) / abs(g)  # d may cancel
    reach = abs(center) + radius

    # Re(v/w) >= c* + margin puts max|residual| above twice the tolerance.
    x1_min = math.sqrt(norm / (reach * reach + n1))
    mean_max = math.sqrt(n1 * norm) / n
    c_star = (b - n / 2) / (b - 1)
    margin = (
        math.sqrt(2.0) * tolerance * n * (x1_min + 2 * mean_max)
        / ((b - 1) * x1_min * x1_min * math.sqrt(n - b))
    )

    # (U, V) = (alpha ρ + beta, gamma ρ + delta), from the evaluator itself.
    rotated = [
        evolve(spec, (block_stage,), SubspaceCoordinates(u, v, 0.0))
        for u, v in ((1.0, 0.0), (0.0, 1.0))
    ]
    (alpha, gamma), (beta, delta) = ((z.target, z.block_rest) for z in rotated)
    bf = float(b)
    lipschitz = np.array((
        2 * (abs(alpha) * reach + abs(beta)) / bf,
        ((abs(alpha) + abs(gamma)) * reach + abs(beta) + abs(delta)) / bf,
    ))
    size = (
        reach * (abs(gamma) + 2 * (abs(alpha) + abs(gamma)) / bf)
        + abs(delta) + 2 * (abs(beta) + abs(delta)) / bf + abs(c_star)
    )
    floor = c_star + margin + 64 * _EPS * size

    # Cells over the (χo, χd) torus, 16 × 16 to start.
    cells = np.full((2, 1), math.pi)
    halves = np.full(2, math.pi)
    for axis in (0, 1) * 4:
        cells = _halve(cells, halves, axis)
    evaluated = 0
    while evaluated + cells.shape[1] <= _SCREEN_MAX_CELLS:
        evaluated += cells.shape[1]
        p = np.exp(1j * cells[0])
        e = 1.0 - np.exp(-1j * cells[1])
        big_p = gamma + e * (p * alpha - gamma) / bf
        lowest = (big_p * center + delta + e * (p * beta - delta) / bf).real
        lowest -= radius * np.abs(big_p)
        if not lowest.min() > floor:  # NaN included
            return False
        slack = lipschitz * halves
        cells = cells[:, lowest - slack.sum() <= floor]
        if not cells.shape[1]:
            return True
        for axis in (0, 1):
            if slack[axis] >= slack.max() / 2:
                cells = _halve(cells, halves, axis)
    return False


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
    budget whose five-phase solve reaches ``tolerance`` wins; a budget the
    screen proves unreachable (module docstring) is skipped unsolved.  Each
    budget evolves its ``l1 - 1`` plain global iterations once; the residual
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
        if _unreachable(spec, start, block_stage, tolerance):
            last_error = RuntimeError(
                f"budget (l1={l1}, l2={l2}) cannot reach tolerance {tolerance}"
            )
            continue

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
