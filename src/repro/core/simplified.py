"""Korepin–Grover's *Simple Algorithm for Partial Quantum Search*
(quant-ph/0504157), executable with exact query accounting.

The simplified algorithm keeps GRK's Step 1 and Step 2 but replaces the
ancilla-controlled Step 3 with **one ordinary global Grover iteration**:

1. ``j1`` standard Grover iterations on the full address space;
2. ``j2`` block-local iterations (non-target blocks are fixed points; the
   target block over-rotates past the target);
3. one more oracle query followed by a plain inversion about the full
   average — no ancilla, no controlled operation — tuned so the non-target
   blocks' amplitudes cancel;
4. measure the block register.

No extra qubit and no controlled diffusion makes this the easiest partial
search to realise.  As a program it is ``[global j1, block j2, global 1]``
with no Step 3: this module only plans ``(j1, j2)``; the shared subspace
evaluator (:mod:`repro.core.subspace`) scores the candidates and the
shared counted runner (:func:`repro.core.algorithm.run_partial_search`)
executes the plan.

**Zeroing condition.**  Write the post-Step-2 state as ``(u, v, w)``
(target / rest-of-target-block / outside amplitudes).  The final iteration
flips ``u`` and inverts about the mean ``m``; outside amplitudes vanish
iff ``2m = w``, i.e. exactly

    ``sqrt(b-1)·cos(gamma) - sin(gamma) = (2b - N) w / (2 alpha)``

with ``alpha, gamma`` the target block's polar coordinates and ``b = N/K``.
In the large-``N`` limit this becomes ``cos(gamma) = -(K-2) cos(phi) /
(2 alpha sqrt(K))`` — the same ``(K-2)`` over-rotation structure as GRK's
eq. (4).  Minimising total queries ``j1 + j2 + 1`` over the Step 1 stopping
angle ``phi`` reproduces, for every ``K``, **exactly the optimised GRK
coefficients of the source paper's Section 3.1 table**: the simplified
algorithm is not just simpler, it is asymptotically just as fast.  The
test suite pins that equivalence (``simplified_query_coefficient(K) ==
optimal_epsilon(K).coefficient`` to 1e-6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.algorithm import PartialSearchResult, run_partial_search
from repro.core.blockspec import BlockSpec
from repro.core.program import BLOCK, GLOBAL, PartialSearchProgram, ProgramStage
from repro.core.subspace import SubspaceCoordinates, SubspaceGRK, evaluate, evolve
from repro.grover.angles import grover_angle
from repro.util.minimize import minimize_bounded
from repro.util.validation import require

__all__ = [
    "SimplifiedSchedule",
    "simplified_query_coefficient",
    "simplified_step1_angle",
    "simplified_final_coordinates",
    "plan_simplified_schedule",
    "run_simplified_partial_search",
    "execute_simplified_batch_rows",
]


@dataclass(frozen=True)
class SimplifiedSchedule:
    """A concrete ``(j1, j2)`` schedule for one ``(N, K)`` instance.

    Attributes:
        spec: the block geometry.
        j1: Step 1 (global) iterations.
        j2: Step 2 (block-local) iterations.
        predicted_success: exact block-measurement success probability
            (from the subspace model; target-independent).
    """

    spec: BlockSpec
    j1: int
    j2: int
    predicted_success: float

    @property
    def queries(self) -> int:
        """Total oracle queries: ``j1 + j2 + 1`` (the final iteration's one)."""
        return self.j1 + self.j2 + 1

    @property
    def query_coefficient(self) -> float:
        """``queries / sqrt(N)`` for comparison against the paper tables."""
        return self.queries / math.sqrt(self.spec.n_items)

    @property
    def program(self) -> PartialSearchProgram:
        """``[global j1, block j2, global 1]``, no Step 3."""
        return _program(self.spec.n_items, self.spec.n_blocks, self.j1, self.j2)

    def provenance(self) -> dict:
        """The plan as report provenance (both engine tiers)."""
        return {
            "j1": self.j1,
            "j2": self.j2,
            "queries": self.queries,
            "predicted_success": self.predicted_success,
        }


# --------------------------------------------------------------- asymptotics

@lru_cache(maxsize=None)
def _continuous_optimum(n_blocks: int) -> tuple[float, float]:
    """``(phi*, coefficient)`` minimising the large-N query count.

    ``phi`` is the Step 1 stopping angle ``(2 j1 + 1) beta``; the zeroing
    condition fixes the Step 2 exit angle ``gamma(phi)``, leaving a 1-D
    minimisation of ``phi/2 + (gamma - gamma0) / (2 sqrt(K))`` over
    ``[0, pi/2]``, done by the same bounded Brent search as
    :func:`repro.core.optimizer.optimal_epsilon`.
    """
    k = n_blocks

    def cost(phi: float) -> float:
        s, c = math.sin(phi), math.cos(phi)
        alpha = math.sqrt(s * s + c * c / k)
        arg = (k - 2) * c / (2.0 * alpha * math.sqrt(k))
        if arg > 1.0:  # infeasible: Step 2 cannot over-rotate far enough
            return 10.0
        gamma = math.acos(-arg)
        gamma0 = math.atan2(s, c / math.sqrt(k))
        return phi / 2.0 + (gamma - gamma0) / (2.0 * math.sqrt(k))

    phi = minimize_bounded(cost, 0.0, math.pi / 2.0, xatol=1e-12).x
    return phi, cost(phi)


def simplified_query_coefficient(n_blocks: int) -> float:
    """Asymptotic ``queries / sqrt(N)`` of the simplified algorithm.

    Numerically identical to the source paper's optimised GRK coefficient
    (:func:`repro.core.optimizer.optimal_epsilon`): the simplified final
    iteration saves the ancilla, not queries — and loses none either.
    """
    require(n_blocks >= 2, "n_blocks must be >= 2")
    return _continuous_optimum(n_blocks)[1]


def simplified_step1_angle(n_blocks: int) -> float:
    """The optimal Step 1 stopping angle ``phi*`` (radians)."""
    require(n_blocks >= 2, "n_blocks must be >= 2")
    return _continuous_optimum(n_blocks)[0]


# ------------------------------------------------------------ exact finite N

def _program(n_items: int, n_blocks: int, j1: int, j2: int):
    """``[global j1, block j2, global 1]``, no Step 3."""
    return PartialSearchProgram(
        n_items,
        n_blocks,
        (
            ProgramStage(GLOBAL, j1),
            ProgramStage(BLOCK, j2),
            ProgramStage(GLOBAL, 1),
        ),
        final_phase=None,
    )


def simplified_final_coordinates(
    model: SubspaceGRK, j1: int, j2: int
) -> SubspaceCoordinates:
    """Exact post-final-iteration coordinates for ``(j1, j2)``."""
    spec = model.spec
    return evolve(spec, _program(spec.n_items, spec.n_blocks, j1, j2).stages)


def _success(spec: BlockSpec, j1: int, j2: int) -> float:
    final = evaluate(_program(spec.n_items, spec.n_blocks, j1, j2))
    return final.success_probability(spec)


def plan_simplified_schedule(
    n_items: int,
    n_blocks: int,
    *,
    refine: bool = True,
    window: int = 3,
) -> SimplifiedSchedule:
    """Build the integer ``(j1, j2)`` schedule the simulator executes.

    ``j1`` comes from the asymptotic optimum ``phi*``; ``j2`` from the
    *exact* finite-``N`` zeroing condition evaluated at that ``j1``.  With
    ``refine=True`` (recommended) a ``window``-sized neighbourhood is
    scanned with the exact subspace evaluator and the best success wins,
    ties going to the fewest queries — achieving failure ``O(1/sqrt(N))``
    or better, matching the paper's budget.
    """
    spec = BlockSpec(n_items, n_blocks)
    require(spec.block_size >= 2, "block size N/K must be >= 2")
    model = SubspaceGRK(spec)
    b = spec.block_size
    beta = grover_angle(n_items)
    beta_b = grover_angle(b)

    phi_star, _ = _continuous_optimum(n_blocks)
    j1 = max(0, round((phi_star / beta - 1.0) / 2.0))

    def analytic_j2(j1_val: int) -> int:
        c = model.after_step1(j1_val)
        alpha = math.hypot(c.target, c.block_rest * math.sqrt(b - 1))
        gamma0 = math.atan2(c.target, c.block_rest * math.sqrt(b - 1))
        # sqrt(b-1) cos g - sin g = sqrt(b) cos(g + delta), delta = atan(1/sqrt(b-1))
        delta = math.atan2(1.0, math.sqrt(b - 1))
        arg = (2 * b - n_items) * c.outside / (2.0 * alpha * math.sqrt(b))
        gamma = math.acos(max(-1.0, min(1.0, arg))) - delta
        return max(0, round((gamma - gamma0) / (2.0 * beta_b)))

    j2 = analytic_j2(j1)
    if not refine:
        return SimplifiedSchedule(
            spec=spec, j1=j1, j2=j2, predicted_success=_success(spec, j1, j2)
        )

    best: tuple[float, int, int] | None = None
    for a in range(max(0, j1 - window), j1 + window + 1):
        j2_a = analytic_j2(a)
        for bb in range(max(0, j2_a - window), j2_a + window + 1):
            s = _success(spec, a, bb)
            if (
                best is None
                or s > best[0] + 1e-9
                or (abs(s - best[0]) <= 1e-9 and a + bb < best[1] + best[2])
            ):
                best = (s, a, bb)
    s, j1, j2 = best
    return SimplifiedSchedule(spec=spec, j1=j1, j2=j2, predicted_success=s)


# ---------------------------------------------------------------- execution

def run_simplified_partial_search(
    database,
    n_blocks: int,
    *,
    schedule: SimplifiedSchedule | None = None,
    policy=None,
) -> PartialSearchResult:
    """Execute the Korepin–Grover simplified algorithm on a counted oracle.

    Args:
        database: database with exactly one marked address; its counter
            accumulates this run's ``j1 + j2 + 1`` queries.
        n_blocks: ``K`` (must divide ``N``; powers of two not required).
        schedule: pre-planned schedule (default: the planned optimum).
        policy: :class:`~repro.kernels.ExecutionPolicy` selecting the state
            precision (``None`` = the bit-identical complex128 default).

    Returns:
        :class:`~repro.core.algorithm.PartialSearchResult` with the exact
        final distribution; ``branches`` is the ``(1, N)`` final state (no
        ancilla in this algorithm — that is the point).
    """
    if schedule is None:
        schedule = plan_simplified_schedule(database.n_items, n_blocks)
    return run_partial_search(database, n_blocks, schedule=schedule, policy=policy)


def execute_simplified_batch_rows(
    schedule: SimplifiedSchedule,
    targets: np.ndarray,
    policy=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The simplified algorithm for every target of one shard.

    :func:`repro.core.batch.execute_batch_rows` on the schedule's program
    with the kernels backend: the same shard primitive and *policy*
    contract as every other GRK-family batch.
    """
    from repro.core.batch import execute_batch_rows

    return execute_batch_rows(schedule.program, targets, "kernels", policy)
